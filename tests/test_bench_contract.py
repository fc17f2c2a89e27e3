"""The benchmark calls package functions by name; they must keep fitting it.

perfbench/spans.py lists the (module, function) pairs the traced run wraps,
and perfbench/workloads.py calls package functions positionally or by
keyword.  Renaming, inlining or re-signing one of them breaks the benchmark,
so it fails here first.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from neelwall.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _load("spans")
PACKAGE, TRACED = _SPANS.PACKAGE, _SPANS.TRACED


def _package_module(module):
    # the traced run looks modules up in sys.modules: the package attribute
    # neelwall.minimize is the function, which shadows the module
    importlib.import_module(f"{PACKAGE}.{module}")
    return sys.modules[f"{PACKAGE}.{module}"]


@pytest.mark.parametrize("module, function", TRACED)
def test_traced_function_resolves(module, function):
    assert callable(getattr(_package_module(module), function, None))


def _workload_calls():
    """Each `nw.<module>.<function>(...)` call of workloads.py, as
    (module, function, positional count, keyword names, line)."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    calls = []
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        owner = getattr(func, "value", None)
        if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(owner, ast.Attribute)):
            continue
        root = owner.value
        if (isinstance(root, ast.Name) and root.id == "nw") or (
                isinstance(root, ast.Attribute) and root.attr == "nw"):
            assert not any(isinstance(a, ast.Starred) for a in node.args)
            assert all(k.arg is not None for k in node.keywords)
            calls.append((owner.attr, func.attr, len(node.args),
                          tuple(k.arg for k in node.keywords), node.lineno))
    return calls


WORKLOAD_CALLS = _workload_calls()


def test_workload_calls_found():
    found = {(c[0], c[1]) for c in WORKLOAD_CALLS}
    assert {("analysis", "solve_cell"), ("analysis", "sweep"),
            ("analysis", "verify"), ("io", "emit")} <= found


@pytest.mark.parametrize(
    "module, function, n_args, keywords, line", WORKLOAD_CALLS,
    ids=[f"{c[0]}.{c[1]}-line{c[4]}" for c in WORKLOAD_CALLS])
def test_workload_call_binds(module, function, n_args, keywords, line):
    target = getattr(_package_module(module), function)
    inspect.signature(target).bind(*range(n_args), **dict.fromkeys(keywords))


def test_baseline_argv_parses(tmp_path):
    baseline = _load("workloads").Baseline({}, 0, str(tmp_path))
    args = build_parser().parse_args(baseline.argv)
    assert args.command == "solve"
    assert args.out == baseline.path
