"""Every exported name resolves, so a deleted function cannot linger in ``__all__``."""

import ast
import importlib
from pathlib import Path

import pytest

import momentineq

MODULES = [
    "momentineq",
    "momentineq.bootstrap",
    "momentineq.cli",
    "momentineq.core",
    "momentineq.dependent",
    "momentineq.errors",
    "momentineq.gaussian",
    "momentineq.inference",
    "momentineq.simulate",
    "momentineq.sn",
    "momentineq.threestep",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []



DELETED = [
    "DegenerateStatistic",
    "max_score_index",
    "nonstudentized_statistic",
    "three_step_sets",
    "gradient_summary",
    "GradientSummary",
    "BootstrapConfig",
    "one_step_critical",
    "select_set",
    "two_step_critical",
    "hybrid_critical",
    "bmb_critical",
    "gradient_bootstrap_critical",
    "covariance_factor",
]


def test_deleted_names_are_gone():
    left = [
        (name, attr)
        for name in MODULES
        for attr in DELETED
        if attr in getattr(importlib.import_module(name), "__all__", ())
        or hasattr(importlib.import_module(name), attr)
    ]
    assert left == []


def package_sources():
    """``(path, syntax tree, innermost function name by node id)`` per package module."""
    for path in sorted(Path(momentineq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        # ast.walk visits outer definitions first, so the innermost one wins
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[id(node)] = fn.name
        yield path, tree, owner


def test_decisions_are_built_only_by_decide():
    builders = []
    for path, tree, owner in package_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "TestDecision":
                    builders.append((path.stem, owner.get(id(node), "<module>")))
    assert builders == [("core", "decide")]


def test_matrix_products_are_taken_only_by_the_blocked_rowmax():
    users = []
    for path, tree, owner in package_sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                users.append((path.stem, owner.get(id(node), "<module>")))
    assert users == [("bootstrap", "_blocked_rowmax")]


def test_blas_threads_are_set_only_by_the_pool_pin():
    users = set()
    for path, tree, owner in package_sources():
        docstrings = {
            id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and id(node) not in docstrings:
                name = node.value
            else:
                continue
            if isinstance(name, str) and "num_threads" in name.lower():
                users.add((path.stem, owner.get(id(node), "<module>")))
    assert users == {("simulate", "_openblas")}


def test_the_monte_carlo_loop_runs_every_method_through_run_tests():
    path = Path(momentineq.__file__).parent / "simulate.py"
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name, node.asname})
    assert "run_tests" in names
    assert "run_test" not in names
