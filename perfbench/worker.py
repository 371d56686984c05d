"""One copy of the package running one workload, driven by run.py.

    python3 perfbench/worker.py --copy checkout|reference --workload NAME
        --seed N --cpu C [--trace 0|1]

The worker pins itself to CPU ``C``, imports its copy of the package (the
checkout's ``src/posecontest`` or the frozen ``reference/posecontest_ref``),
builds the workload's inputs once to warm up and answers commands, one JSON
object a line on standard input, with one JSON object a line on standard
output:

    {"op": "build", "n": K}    build the inputs K times; reply the CPU
                               seconds of one build
    {"op": "pass", "traced": B}
                               run one workload pass, traced or not; reply
                               the CPU seconds of each step, the work done
                               and, in the checkout, the pass's checks,
                               digests and deterministic values
    {"op": "layers", "builds": K, "overhead_pct": X}
                               reply the traced run's per-layer metrics
                               and write its spans under perfbench/out/
    {"op": "quit"}             exit

Times are the process's CPU time, so that two workers time-sliced on one CPU
each count only their own share of it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference"
OUT = HERE / "out"


def import_copy(copy: str):
    """Import the checkout's package or the reference copy, from its own place only."""
    if copy == "checkout":
        sys.path.insert(0, str(SRC))
        import posecontest as package

        home = SRC / "posecontest"
    else:
        sys.path.insert(0, str(REFERENCE))
        import posecontest_ref as package

        home = REFERENCE / "posecontest_ref"
    if Path(package.__file__).resolve().parent != home:
        raise RuntimeError(f"imported {package.__name__} from {package.__file__}, not {home}")
    return package


def drive(run) -> tuple[dict, float, object]:
    """Run one pass generator, timing each step in CPU seconds."""
    clock = time.process_time
    seconds, sent = {}, None
    while True:
        try:
            name, fn, args, kwargs = run.send(sent)
        except StopIteration as stop:
            work, outputs = stop.value
            return seconds, work, outputs
        start = clock()
        sent = fn(*args, **kwargs)
        seconds[name] = clock() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--copy", choices=("checkout", "reference"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.sched_setaffinity(0, {args.cpu})
    # Replies go to the real standard output; anything else printed goes to
    # standard error, where it cannot break the protocol.
    replies, sys.stdout = sys.stdout, sys.stderr

    def reply(obj) -> None:
        replies.write(json.dumps(obj) + "\n")
        replies.flush()

    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    checkout = args.copy == "checkout"
    workload = WORKLOADS[args.workload](import_copy(args.copy))
    seed = args.seed
    tracer = Tracer() if args.trace else None

    workload.setup(seed)
    start = time.process_time()
    inputs = workload.setup(seed)
    reply({"build_s": time.process_time() - start})
    refs = workload.references(inputs) if checkout else None
    if tracer:
        tracer.install()
    traced_passes = 0

    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd["op"]
        if op == "build":
            if tracer:
                tracer.record("setup")
            start = time.process_time()
            for _ in range(cmd["n"]):
                inputs = workload.setup(seed)
            seconds = (time.process_time() - start) / cmd["n"]
            if tracer:
                tracer.record(None)
            reply({"build_s": seconds})
        elif op == "pass":
            # Collect the last pass's garbage now rather than inside a step.
            gc.collect()
            if cmd["traced"]:
                tracer.record(f"pass{traced_passes}")
                traced_passes += 1
            steps, work, outputs = drive(workload.run(inputs))
            if tracer:
                tracer.record(None)
            result = {"steps_s": steps, "work": work}
            if checkout:
                checks, digests, values = workload.check(inputs, refs, outputs)
                result.update(checks=[(check, bool(ok)) for check, ok in checks],
                              digests=digests, values=values)
            del outputs
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            reply(result)
        elif op == "layers":
            tracer.uninstall()
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"spans-{workload.name}-seed{seed}.json",
                        {"workload": workload.name, "seed": seed, "builds": cmd["builds"]})
            reply(layer_metrics(tracer, cmd["builds"], cmd["overhead_pct"]))
        elif op == "quit":
            break
        else:
            raise ValueError(f"unknown command {op!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
