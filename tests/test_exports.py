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
    "_column_sds",
    "exact_scores",
    "_fresh",
    "_critical",
    "_scaled_columns",
]


def test_deleted_names_are_gone():
    left = []
    for name in MODULES:
        module = importlib.import_module(name)
        # a name may also live on as a field or method of the module's classes
        owners = [module] + [
            v for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == name
        ]
        left += [
            (name, attr)
            for attr in DELETED
            for owner in owners
            if attr in getattr(owner, "__all__", ()) or hasattr(owner, attr)
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


def test_column_exponents_are_taken_only_in_core():
    # ``frexp`` picks each column's power-of-two scale; the summary keeps it
    users = set()
    for path, tree, owner in package_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "frexp":
                    users.add(path.stem)
    assert users == {"core"}


def test_matrix_products_are_taken_only_by_the_blocked_rowmax():
    # ``@``, ``@=`` and calls of ``matmul`` or ``dot`` (``np.matmul``, ``a.dot``)
    users = []
    for path, tree, owner in package_sources():
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                product = isinstance(node.op, ast.MatMult)
            elif isinstance(node, ast.Call):
                f = node.func
                product = (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in (
                    "matmul", "dot")
            else:
                product = False
            if product:
                users.append((path.stem, owner.get(id(node), "<module>")))
    assert users == [("bootstrap", "_blocked_rowmax")]


def test_both_schemes_and_the_diagnostics_build_one_studentized_target():
    # MB and EB weight the same centered columns; only the builder differs
    callers = set()
    for path, tree, owner in package_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == (
                        "_studentized_columns"):
                    callers.add((path.stem, owner.get(id(node), "<module>")))
    assert callers == {
        ("bootstrap", "_mb_values"), ("bootstrap", "_eb_values"), ("core", "_diagnostics"),
    }


def test_no_bootstrap_function_takes_a_shift():
    path = Path(momentineq.__file__).parent / "bootstrap.py"
    takers = [
        fn.name for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in ast.walk(fn.args) if isinstance(arg, ast.arg) and arg.arg == "shift"
    ]
    assert takers == []


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


def test_bootstrap_streams_branch_only_in_the_provider():
    # every draw of a test lives on ``stream.child(scheme)``, taken in one place
    owners = []
    for path, tree, owner in package_sources():
        if path.stem == "bootstrap":
            owners += [
                owner.get(id(node), "<module>") for node in ast.walk(tree)
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "child"
            ]
    assert owners == ["draws"]


def test_the_weight_workspace_is_asked_for_only_by_the_draw_loop():
    # the draw loop records which block the workspace holds, so it must be
    # its only writer: the "weights" name and the record stay inside it
    weights, record = set(), set()
    for path, tree, owner in package_sources():
        for node in ast.walk(tree):
            where = path.stem, owner.get(id(node), "<module>")
            if (isinstance(node, ast.Constant) and node.value == "weights"
                    or isinstance(node, ast.Attribute) and node.attr == "weights"):
                weights.add(where)
            elif isinstance(node, ast.Name) and node.id == "_held":
                record.add(where)
    assert weights == {("bootstrap", "_rowmax_draws")}
    assert record == {("bootstrap", "<module>"), ("bootstrap", "_rowmax_draws")}


def test_no_test_keeps_select_or_crit_stream_children():
    users = [
        (path.stem, owner.get(id(node), "<module>"))
        for path, tree, owner in package_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and node.value in ("select", "crit")
    ]
    assert users == []


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
