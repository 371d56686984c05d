"""The names the benchmark harness in perfbench/ reaches into the package by.

perfbench/tracer.py rebinds functions and methods by name, and
perfbench/workloads.py reads attributes of the results it gets back.  A rename
breaks the benchmark's runs, so it is caught here rather than only when they run.
"""

import importlib.util
from pathlib import Path

import numpy as np

from posecontest.dqn import ContestEnv, Mlp, evaluate_policy
from posecontest.oracle import exhaustive_award_search, format_search_ledger

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_rebinds_every_name():
    tracer = load_tracer().Tracer()
    try:
        tracer.install()  # raises AttributeError or KeyError on a missing name
    finally:
        tracer.uninstall()


def test_result_attributes_the_workloads_read(tiny_scenario, tiny_cfg):
    # Built with the keywords perfbench/workloads.py's _Train._compare passes, so
    # retiring either one fails here as well as in the benchmark.
    dqn = tiny_cfg.dqn
    env = ContestEnv(tiny_scenario, reward_mode=dqn.reward_mode, reward_scale=dqn.reward_scale)
    net = Mlp((env.state_size, 4, env.n_actions), np.random.default_rng(0))
    ev = evaluate_policy(net, env, steps=3)
    for name in ("best_state", "best_total_loss", "final_total_loss"):
        assert hasattr(ev, name), name
    result = exhaustive_award_search(tiny_scenario, 3.0)
    for name in ("evaluated", "found_feasible", "best_total_loss"):
        assert hasattr(result, name), name
    # oracle_sweep's check digests the ledger of its search result.
    assert len(format_search_ledger(result).splitlines()) == 1 + len(result.entries) == 1 + result.evaluated
    assert all(hasattr(c, "effort_set") for c in tiny_scenario.contestants)
