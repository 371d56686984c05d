"""posecontest benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` beside
this directory and nowhere else, so the numbers describe the checkout they
were run in.  Load model: one client, closed loop (each call starts after the
previous one returns), BLAS pinned to BLAS_THREADS threads.

The work runs in worker processes (worker.py), all pinned to one CPU.  With
``--trace 0`` there are two: one runs the workload in the checkout's package,
the other in the frozen reference copy under ``reference/``, and they run
each batch of builds and each pass at the same time, so that the CPU
time-slices them a few milliseconds at a time.  A run does SETUP_BATCHES
batches of builds, then whole passes, each after one more batch, for about
``--seconds`` seconds and at least MIN_PASSES times.  The outputs of every
checkout pass are checked.  With ``--trace 1`` the checkout runs alone,
alternating plain and traced passes, and the per-layer metrics are reported
in place of the end-to-end ones.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full report (machine, seeds,
digests, checks, every pass's step times) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
SETUP_BATCHES = 5  # batches of builds before the first pass
SETUP_BATCH_S = 0.1  # a batch repeats the build for about this long
MIN_PASSES = 3

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Name -> unit of the end-to-end metrics every workload reports (--trace 0).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True, help="seed the inputs are made from")
    parser.add_argument("--seconds", type=float, required=True, help="how long to repeat passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 reports per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def check_sources() -> None:
    """Exit with an error unless this checkout has the package's sources."""
    if not (SRC / "posecontest" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'posecontest'}; "
                 "run from a checkout of the repository")


def machine_block(seeds: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": BLAS_THREADS,
        "seeds": seeds,
    }


class Worker:
    """A worker process (worker.py) and the pipe that drives it."""

    def __init__(self, copy: str, workload: str, seed: int, cpu: int, trace: bool):
        self.copy = copy
        cmd = [sys.executable, str(HERE / "worker.py"), "--copy", copy, "--workload", workload,
               "--seed", str(seed), "--cpu", str(cpu), "--trace", str(int(trace))]
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def send(self, **command) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the {self.copy} worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        """Ask the worker to quit and wait for it; kill it if it does not."""
        try:
            self.send(op="quit")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def ask(workers: list[Worker], **command) -> list[dict]:
    """Send one command to every worker, so that they run it at the same
    time, then collect their replies."""
    for worker in workers:
        worker.send(**command)
    return [worker.receive() for worker in workers]


def part(steps: dict, prefixes=None) -> float:
    """Summed time of the steps whose names start with one of ``prefixes``
    (all steps when None)."""
    return sum(t for step, t in steps.items() if prefixes is None or step.startswith(prefixes))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run passes for about ``seconds``, check them; return the full report.

    With ``trace`` off, a timing is reported at the reference speed: the
    checkout's CPU time over the reference copy's, in the same batch or pass,
    times the reference's time on the machine the benchmark was tuned on
    (``reference_setup_s``, ``reference_pass_s`` in workloads.py), and the
    median of that over the run.  The speed of a shared machine's CPU drifts
    by up to a factor of two within seconds, but two processes time-sliced
    on one CPU see the same drift, so the ratio holds still while a change to
    the checkout's speed moves it.  The raw CPU times are in the report.
    """
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    clock = time.perf_counter
    start = clock()
    copies = ("checkout",) if trace else ("checkout", "reference")
    cpu = min(os.sched_getaffinity(0))
    batches, plain, traced, iterations = [], [], [], []
    layers = None
    workers = []
    try:
        for copy in copies:
            workers.append(Worker(copy, name, seed, cpu, trace))
        ready = [worker.receive() for worker in workers]
        batch = max(1, round(SETUP_BATCH_S / ready[0]["build_s"]))

        def build():
            replies = ask(workers, op="build", n=batch)
            batches.append({copy: r["build_s"] for copy, r in zip(copies, replies)})

        for _ in range(SETUP_BATCHES):
            build()
        while True:
            done = len(plain) + len(traced)
            elapsed = clock() - start
            # Stop at the pass boundary nearest to the requested duration.
            if (done >= MIN_PASSES and (traced or not trace)
                    and elapsed + 0.5 * statistics.median(iterations) >= seconds):
                break
            t_iter = clock()
            # One more batch of builds per pass spreads the set-up samples
            # over the run.
            build()
            # Plain and traced passes in ABBA order, so that a drift over the
            # run does not bias the tracing overhead.
            is_traced = trace and done % 4 in (1, 2)
            replies = ask(workers, op="pass", traced=is_traced)
            (traced if is_traced else plain).append(dict(zip(copies, replies)))
            iterations.append(clock() - t_iter)
        if trace:
            overhead = 100.0 * (
                statistics.median(part(p["checkout"]["steps_s"]) for p in traced)
                / statistics.median(part(p["checkout"]["steps_s"]) for p in plain) - 1.0)
            [layers] = ask(workers, op="layers", builds=batch * len(batches),
                           overhead_pct=overhead)
    finally:
        for worker in workers:
            worker.close()

    passes = [p["checkout"] for p in plain + traced]
    first_digests = passes[0]["digests"]
    checks = [check for p in passes for check in p["checks"]]
    checks += [("digests_repeat_within_seed", p["digests"] == first_digests) for p in passes[1:]]
    failed = [check_name for check_name, ok in checks if not ok]
    report = {
        "workload": workload.name,
        "why": workload.why,
        "stresses": list(workload.stresses),
        "bypasses": list(workload.bypasses),
        "machine": machine_block({"workload": seed, **workload.derived_seeds(seed)}),
        "seconds": seconds,
        "run_s": clock() - start,
        "trace": int(trace),
        "cpu": cpu,
        "setup_builds": batch * len(batches),
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": len(checks),
        "failed": len(failed),
        "failed_checks": sorted(set(failed)),
        "digests": first_digests,
        "values": passes[-1]["values"],
        "work_per_pass": passes[0]["work"],
        "rate_unit": workload.rate_unit,
        "setup_batches_cpu_s": batches,
        "passes_cpu_s": [{copy: p[copy]["steps_s"] for copy in copies} for p in plain],
        "traced_passes_cpu_s": [p["checkout"]["steps_s"] for p in traced],
    }
    if trace:
        report["per_layer"] = layers
    else:
        report["reference_pass_s"] = workload.reference_pass_s
        report["reference_setup_s"] = workload.reference_setup_s
        report["end_to_end"] = end_to_end(workload, plain, batches)
        report["steps_median_s"] = {
            step: at_reference_speed(workload, plain, (step,))
            for step in plain[0]["checkout"]["steps_s"]
        }
        report["named"] = named_metrics(workload, report)
    return report


def at_reference_speed(workload, plain: list[dict], prefixes=None) -> float:
    """Median over the passes of the checkout's time for the steps named by
    ``prefixes``, over the reference's whole pass, at the reference speed."""
    return workload.reference_pass_s * statistics.median(
        part(p["checkout"]["steps_s"], prefixes) / part(p["reference"]["steps_s"])
        for p in plain
    )


def end_to_end(workload, plain: list[dict], batches: list[dict]) -> dict:
    work = plain[0]["checkout"]["work"]
    return {
        "setup_s": workload.reference_setup_s * statistics.median(
            b["checkout"] / b["reference"] for b in batches),
        "wall_s": at_reference_speed(workload, plain),
        "throughput_per_s": work / at_reference_speed(workload, plain, workload.rate_steps),
        "peak_rss_mb": max(p["checkout"]["peak_rss_mb"] for p in plain),
    }


def named_metrics(workload, report) -> dict:
    """The eleven end-to-end figures by their descriptive names; None where the
    workload does not run that stage."""
    e2e, steps, values = report["end_to_end"], report["steps_median_s"], report["values"]
    rate = e2e["throughput_per_s"]
    train = workload.name.startswith("train_")
    oracle = workload.name == "oracle_sweep"
    return {
        "setup_s": (e2e["setup_s"], "s"),
        "wall_s": (e2e["wall_s"], "s"),
        "train_steps_per_s": (rate if train else None, "1/s"),
        "compare_s": (steps.get("compare"), "s"),
        "search_vectors_per_s": (rate if oracle else None, "1/s"),
        "floor_s": (steps.get("floor"), "s"),
        "ingest_frames_per_s": (rate if workload.name == "ingest" else None, "1/s"),
        "peak_rss_mb": (e2e["peak_rss_mb"], "MB"),
        "error_rate": (report["failed"] / report["attempted"], "ratio"),
        "policy_loss": (values.get("policy_loss"), "m"),
        "loss_reduction_pct": (values.get("loss_reduction_pct"), "%"),
    }


def print_report(report: dict) -> None:
    m = report["machine"]
    print(f"workload {report['workload']}: {report['why']}")
    print(f"  stresses {', '.join(report['stresses'])}; "
          f"bypasses {', '.join(report['bypasses']) or 'none'}")
    print(f"  machine: nproc {m['nproc']}, {m['cpu_model']}, python {m['python']}, "
          f"numpy {m['numpy']}, {m['blas']} {m['blas_version']} x{m['blas_threads']} threads")
    print(f"  seeds {m['seeds']}; {report['setup_builds']} builds, {report['passes']} passes, "
          f"{report['traced_passes']} traced passes")
    print(f"  checks: {report['attempted'] - report['failed']}/{report['attempted']} passed"
          + (f"; FAILED {', '.join(report['failed_checks'])}" if report["failed"] else ""))
    for name, digest in report["digests"].items():
        print(f"  sha256 {name}: {digest}")
    for name, (value, unit) in report.get("named", {}).items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<22} {shown:>14} {unit}")
    for name, metric in report.get("per_layer", {}).items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = report["per_layer"]
    else:
        metrics = {name: {"value": report["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def run_all(args, names) -> int:
    """Run every workload in its own process, one after another."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # Before numpy is first imported, or OpenBLAS starts its own thread pool.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    check_sources()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {', '.join(WORKLOADS)} or all")
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1, default=list) + "\n", encoding="utf-8")
    print_report(report)
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
