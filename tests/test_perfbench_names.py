"""The names the benchmark harness in perfbench/ reaches into the package by.

perfbench/tracer.py rebinds functions and methods by name, and
perfbench/workloads.py calls the package's modules by attribute and reads
attributes of the results it gets back.  A rename breaks the benchmark's runs,
so it is caught here rather than only when they run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from posecontest.dqn import ContestEnv, Mlp, evaluate_policy
from posecontest.oracle import exhaustive_award_search, format_search_ledger

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS_PATH = TRACER_PATH.with_name("workloads.py")


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


def module_names_read(tree):
    """The package modules a workload holds (self.<module> = package.<module>), and (module, name)
    for each attribute the workloads read from one: self.<module>.<name>, and <alias>.<name> in a
    function that binds <alias> = self.<module>, alone or in a tuple."""

    def named(node, name):
        return isinstance(node, ast.Name) and node.id == name

    attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    modules = {node.attr for node in attributes if named(node.value, "package")}

    def module_of(node):
        """The module node names as self.<module>, or None."""
        if isinstance(node, ast.Attribute) and named(node.value, "self") and node.attr in modules:
            return node.attr
        return None

    read = set()
    for function in (node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)):
        aliases = {}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                both_tuples = isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                pairs = zip(target.elts, value.elts) if both_tuples else [(target, value)]
                for t, v in pairs:
                    if isinstance(t, ast.Name) and module_of(v):
                        aliases[t.id] = module_of(v)
        for node in ast.walk(function):
            if isinstance(node, ast.Attribute):
                alias = node.value.id if isinstance(node.value, ast.Name) else None
                module = module_of(node.value) or aliases.get(alias)
                if module:
                    read.add((module, node.attr))
    return modules, read


def test_workloads_read_only_names_the_package_has():
    modules, read = module_names_read(ast.parse(WORKLOADS_PATH.read_text()))
    assert modules == {"config", "dqn", "oracle", "skeleton"}
    # Read through self.<module>, and through the local dqn / oracle / skeleton aliases.
    assert {("config", "build_scenario"), ("dqn", "ContestEnv"), ("dqn", "format_history"),
            ("oracle", "average_baseline"), ("skeleton", "save_sequence")} <= read
    missing = [f"{module}.{name}" for module, name in sorted(read)
               if not hasattr(importlib.import_module(f"posecontest.{module}"), name)]
    assert missing == []


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
