"""In-memory span tracer that wraps posecontest's public functions at runtime.

Nothing under ``src/`` is edited.  ``install`` replaces each target function,
in every ``posecontest`` module that binds it by name, with a wrapper that
records a span ``(name, start, end, parent, note)``; ``uninstall`` puts the
originals back.  Rebinding by name matters because ``dqn`` and ``oracle``
import ``simulate_contest`` into their own namespaces, and ``contest`` does
the same with ``downsampling_loss``.

Spans are kept in memory, one list per phase (scenario builds versus workload
passes), and written out once the run ends.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np


def _len(args, result):
    return len(result)


def _prizes(args, result):
    return args[0].awards.prizes


def _rewarded(args, result):
    return result[1] != 0.0


def _vectors(args, result):
    return result.evaluated


def _combos(args, result):
    return math.prod(len(c.effort_set) for c in args[0].contestants)


# (module, attribute, span name, note).  A note function annotates the span
# with something the per-layer metrics need: bytes produced, the prize vector
# simulated, whether a training step was rewarded, or the search size.
SPANS = (
    ("skeleton", "generate_synthetic", "skeleton.generate", None),
    ("skeleton", "downsampling_loss", "skeleton.loss", None),
    ("skeleton", "encode_sequence", "skeleton.encode", _len),
    ("skeleton", "decode_frame", "skeleton.decode", None),
    ("skeleton", "save_sequence", "skeleton.save", _len),
    ("skeleton", "load_sequence", "skeleton.load", None),
    ("config", "build_scenario", "config.build_scenario", None),
    ("contest", "simulate_contest", "contest.simulate", _prizes),
    ("dqn", "train", "dqn.train", None),
    ("dqn", "ContestEnv.step", "dqn.env_step", _rewarded),
    ("dqn", "ReplayBuffer.sample", "dqn.sample", None),
    ("dqn", "mlp_update", "dqn.update", None),
    ("dqn", "greedy_action", "dqn.greedy", None),
    ("dqn", "evaluate_policy", "dqn.evaluate", None),
    ("oracle", "exhaustive_award_search", "oracle.award_search", _vectors),
    ("oracle", "exhaustive_effort_search", "oracle.effort_search", _combos),
    ("oracle", "average_baseline", "oracle.baseline", None),
)

# Counted but not timed: expected_payment runs about 50 times per contest,
# and timing every call would inflate the traced run far more than counting.
COUNTS = (("contest", "expected_payment", "contest.payment"),)

# Per-layer metrics: name -> (unit, better).  Counts and seconds are per
# workload pass, except spans recorded while building inputs, which are per
# build.  The _us_p50/_us_p99 timings are percentiles over the spans of every
# traced pass, so their sample count is the matching _calls x trace.passes.
LAYER_METRICS = {
    "skeleton.generate_s": ("s", "lower"),
    "skeleton.loss_calls": ("count", "lower"),
    "skeleton.loss_s": ("s", "lower"),
    "skeleton.encode_s": ("s", "lower"),
    "skeleton.decode_s": ("s", "lower"),
    "skeleton.codec_bytes": ("bytes", "lower"),
    "skeleton.save_s": ("s", "lower"),
    "skeleton.load_s": ("s", "lower"),
    "skeleton.serialized_bytes": ("bytes", "lower"),
    "contest.simulate_calls": ("count", "lower"),
    "contest.simulate_s": ("s", "lower"),
    "contest.simulate_us_p50": ("us", "lower"),
    "contest.simulate_us_p99": ("us", "lower"),
    "contest.payment_calls": ("count", "lower"),
    "contest.distinct_vectors": ("count", "lower"),
    "contest.distinct_ratio": ("ratio", "lower"),
    "dqn.train_s": ("s", "lower"),
    "dqn.env_step_calls": ("count", "lower"),
    "dqn.env_step_self_s": ("s", "lower"),
    "dqn.env_step_us_p50": ("us", "lower"),
    "dqn.env_step_us_p99": ("us", "lower"),
    "dqn.update_calls": ("count", "lower"),
    "dqn.update_s": ("s", "lower"),
    "dqn.update_us_p50": ("us", "lower"),
    "dqn.update_us_p99": ("us", "lower"),
    "dqn.sample_calls": ("count", "lower"),
    "dqn.sample_us_p50": ("us", "lower"),
    "dqn.sample_us_p99": ("us", "lower"),
    "dqn.greedy_calls": ("count", "lower"),
    "dqn.greedy_s": ("s", "lower"),
    "dqn.env_share": ("ratio", "lower"),
    "dqn.learner_share": ("ratio", "lower"),
    "dqn.feasible_step_ratio": ("ratio", "higher"),
    "oracle.award_vectors": ("count", "lower"),
    "oracle.award_search_s": ("s", "lower"),
    "oracle.effort_combos": ("count", "lower"),
    "oracle.effort_search_s": ("s", "lower"),
    "trace.passes": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class Tracer:
    """Records spans and call counts for whichever phase is active."""

    def __init__(self):
        self.spans: dict[str, list] = defaultdict(list)
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self._active: list | None = None
        self._counter: Counter | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def record(self, phase: str | None) -> None:
        """Send spans to ``phase`` from now on, or drop them when None."""
        if phase is None:
            self._active = self._counter = None
        else:
            self._active = self.spans[phase]
            self._counter = self.counts[phase]

    def _span_wrapper(self, name, fn, note):
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            spans = tracer._active
            if spans is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if note is not None:
                spans[index] = (name, start, end, parent, note(args, result))
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            counter = tracer._counter
            if counter is not None:
                counter[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target in SPANS and COUNTS where the package looks it up."""
        for module, attr, name, note in SPANS:
            self._rebind(module, attr, lambda fn, n=name, f=note: self._span_wrapper(n, fn, f))
        for module, attr, name in COUNTS:
            self._rebind(module, attr, lambda fn, n=name: self._count_wrapper(n, fn))

    def _rebind(self, module_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"posecontest.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            self._patch(cls, method, make(vars(cls)[method]))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        for name, owner in sorted(sys.modules.items()):
            if name == "posecontest" or name.startswith("posecontest."):
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def dump(self, path, meta: dict) -> None:
        """Write every recorded span, with times relative to the first one."""
        starts = [s[1] for spans in self.spans.values() for s in spans]
        origin = min(starts) if starts else 0.0
        payload = {
            "meta": meta,
            "fields": ["name", "start_s", "end_s", "parent", "note"],
            "counts": {phase: dict(c) for phase, c in self.counts.items()},
            "spans": {
                phase: [
                    [n, s - origin, e - origin, p, list(note) if isinstance(note, tuple) else note]
                    for n, s, e, p, note in spans
                ]
                for phase, spans in self.spans.items()
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class _Phase:
    """Spans of one or more recordings, totalled by name, per unit of work."""

    def __init__(self, recordings: list[list], counts: Counter, units: int):
        self.units = max(units, 1)
        self.counts = counts
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_time: Counter = Counter()
        self.notes: dict[str, list] = defaultdict(list)
        self.parents: dict[str, list[str | None]] = defaultdict(list)
        for spans in recordings:
            child = [0.0] * len(spans)
            for _, start, end, parent, _ in spans:
                if parent >= 0:
                    child[parent] += end - start
            for i, (name, start, end, parent, note) in enumerate(spans):
                self.durations[name].append(end - start)
                self.self_time[name] += end - start - child[i]
                self.notes[name].append(note)
                self.parents[name].append(spans[parent][0] if parent >= 0 else None)

    def calls(self, name: str) -> float:
        return len(self.durations[name]) / self.units

    def seconds(self, name: str, parent: str | None = None) -> float:
        pairs = zip(self.durations[name], self.parents[name])
        return sum(d for d, p in pairs if parent is None or p == parent) / self.units

    def note_sum(self, name: str) -> float:
        return sum(self.notes[name]) / self.units

    def percentile_us(self, name: str, q: float) -> float:
        d = self.durations[name]
        return float(np.percentile(d, q)) * 1e6 if d else 0.0


def layer_metrics(tracer: Tracer, builds: int, overhead_pct: float) -> dict:
    """Per-layer metrics from the recorded spans (see LAYER_METRICS).

    Spans recorded under "setup" are divided by the number of builds; every
    other phase is one traced workload pass.
    """
    passes = [phase for phase in tracer.spans if phase != "setup"]
    counts = sum((tracer.counts[p] for p in passes), Counter())
    setup = _Phase([tracer.spans["setup"]], tracer.counts["setup"], builds)
    work = _Phase([tracer.spans[p] for p in passes], counts, len(passes))

    # A memo can save at most the repeated share of simulations within a pass.
    distinct = sims = 0
    for phase in passes:
        prizes = [note for name, *_, note in tracer.spans[phase] if name == "contest.simulate"]
        distinct += len(set(prizes))
        sims += len(prizes)
    rewarded = [note for note, parent in zip(work.notes["dqn.env_step"], work.parents["dqn.env_step"])
                if parent == "dqn.train"]
    train_s = work.seconds("dqn.train")
    learner_s = work.seconds("dqn.update", "dqn.train") + work.seconds("dqn.sample", "dqn.train")
    values = {
        "skeleton.generate_s": setup.seconds("skeleton.generate") + work.seconds("skeleton.generate"),
        "skeleton.loss_calls": setup.calls("skeleton.loss") + work.calls("skeleton.loss"),
        "skeleton.loss_s": setup.seconds("skeleton.loss") + work.seconds("skeleton.loss"),
        "skeleton.encode_s": work.seconds("skeleton.encode"),
        "skeleton.decode_s": work.seconds("skeleton.decode"),
        "skeleton.codec_bytes": work.note_sum("skeleton.encode"),
        "skeleton.save_s": work.seconds("skeleton.save"),
        "skeleton.load_s": work.seconds("skeleton.load"),
        "skeleton.serialized_bytes": work.note_sum("skeleton.save"),
        "contest.simulate_calls": work.calls("contest.simulate"),
        "contest.simulate_s": work.seconds("contest.simulate"),
        "contest.simulate_us_p50": work.percentile_us("contest.simulate", 50),
        "contest.simulate_us_p99": work.percentile_us("contest.simulate", 99),
        "contest.payment_calls": work.counts["contest.payment"] / work.units,
        "contest.distinct_vectors": distinct / work.units,
        "contest.distinct_ratio": distinct / sims if sims else 0.0,
        "dqn.train_s": train_s,
        "dqn.env_step_calls": work.calls("dqn.env_step"),
        "dqn.env_step_self_s": work.self_time["dqn.env_step"] / work.units,
        "dqn.env_step_us_p50": work.percentile_us("dqn.env_step", 50),
        "dqn.env_step_us_p99": work.percentile_us("dqn.env_step", 99),
        "dqn.update_calls": work.calls("dqn.update"),
        "dqn.update_s": work.seconds("dqn.update"),
        "dqn.update_us_p50": work.percentile_us("dqn.update", 50),
        "dqn.update_us_p99": work.percentile_us("dqn.update", 99),
        "dqn.sample_calls": work.calls("dqn.sample"),
        "dqn.sample_us_p50": work.percentile_us("dqn.sample", 50),
        "dqn.sample_us_p99": work.percentile_us("dqn.sample", 99),
        "dqn.greedy_calls": work.calls("dqn.greedy"),
        "dqn.greedy_s": work.seconds("dqn.greedy"),
        "dqn.env_share": work.seconds("dqn.env_step", "dqn.train") / train_s if train_s else 0.0,
        "dqn.learner_share": learner_s / train_s if train_s else 0.0,
        "dqn.feasible_step_ratio": sum(rewarded) / len(rewarded) if rewarded else 0.0,
        "oracle.award_vectors": work.note_sum("oracle.award_search"),
        "oracle.award_search_s": work.seconds("oracle.award_search"),
        "oracle.effort_combos": work.note_sum("oracle.effort_search"),
        "oracle.effort_search_s": work.seconds("oracle.effort_search"),
        "trace.passes": len(passes),
        "trace.spans": sum(len(s) for s in tracer.spans.values()),
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _) in LAYER_METRICS.items()}
