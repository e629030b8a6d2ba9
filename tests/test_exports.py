"""Every exported name resolves, so a deleted function cannot linger in ``__all__``."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
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


# the package re-exports these modules' ``__all__`` lists, in this order
SUBMODULES = [
    "core", "errors", "gaussian", "sn", "bootstrap", "threestep", "dependent", "inference",
    "simulate",
]

PUBLIC = {
    "CriticalValueSpec", "MomentSummary", "RegularityDiagnostics", "TestDecision",
    "as_sample_matrix", "exceeds", "regularity_diagnostics", "studentized_scores",
    "summarize", "test_statistic",
    "DegenerateColumnError", "GridPointError", "InputError", "UndefinedCriticalValueError",
    "SeededStream",
    "sn_one_step", "sn_select",
    "run_test", "run_tests",
    "ParametricMomentData", "ThreeStepConfig", "three_step_test",
    "BlockPlan", "bmb_test", "default_block_lengths", "make_blocks",
    "ApproxSample", "ConfidenceRegion", "GridPoint", "approximate_two_step_test",
    "invert_region",
    "DesignSpec", "McConfig", "McResult", "PowerCurve", "draw_sample", "power_sweep",
    "run_mc",
}


def test_each_public_name_is_listed_once_in_its_module():
    joined = [
        attr for name in SUBMODULES
        for attr in importlib.import_module(f"momentineq.{name}").__all__
    ]
    assert momentineq.__all__ == joined
    assert len(joined) == len(set(joined))
    assert set(joined) == PUBLIC
    # the package itself spells out no public name
    init = Path(momentineq.__file__).read_text()
    assert [
        node.value for node in ast.walk(ast.parse(init))
        if isinstance(node, ast.Constant) and node.value in PUBLIC
    ] == []


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
    "normal_cdf",
    "normal_quantile",
    "BootstrapDraws",
    "mb_draws",
    "eb_draws",
    "empirical_quantile",
    "standard_normal_draws",
    "_draws",
    "_columns_mask",
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


def test_readme_imports_only_public_names():
    # every ``from momentineq import ...`` in README's python blocks names an exported name
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = [block.split("\n", 1)[1] for block in readme.split("```")[1::2]
              if block.startswith("python\n")]
    imported = [
        alias.name for block in blocks for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "momentineq"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name not in momentineq.__all__] == []


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


def test_counts_are_checked_only_by_check_count():
    # ``operator.index`` turns an integer count into an ``int``; ``numbers`` is not needed
    users, imports = [], []
    for path, tree, owner in package_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "operator.index":
                users.append((path.stem, owner.get(id(node), "<module>")))
            elif isinstance(node, ast.Import):
                imports += [(path.stem, a.name) for a in node.names if a.name == "numbers"]
            elif isinstance(node, ast.ImportFrom) and node.module in ("numbers", "operator"):
                imports += [(path.stem, f"{node.module}.{a.name}") for a in node.names
                            if node.module == "numbers" or a.name == "index"]
    assert set(users) == {("core", "check_count")}
    assert imports == []


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
    assert users == [("bootstrap", "_block_run_rowmax")]


def calls_of(name):
    """``(module, innermost function)`` of every call of a function or method ``name``."""
    return [
        (path.stem, owner.get(id(node), "<module>"))
        for path, tree, owner in package_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_thread_pools_are_built_only_by_the_one_map_over_the_cores():
    assert sorted(calls_of("ThreadPoolExecutor")) == [("bootstrap", "_on_cores")]


def namers(name):
    """``(module, innermost function)`` of every name, attribute and import of ``name``."""
    return {
        (path.stem, owner.get(id(node), "<module>"))
        for path, tree, owner in package_sources() for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.alias) and node.name == name
    }


def test_ndtri_inverts_only_the_sample_uniforms_and_the_sn_tail():
    # the bootstrap multipliers are Box-Muller cosines, not inverted uniforms;
    # bootstrap's ``ndtri`` only names its Box-Muller transform for the tracer
    from scipy.special import ndtri

    from momentineq import bootstrap

    assert namers("ndtri") == {("simulate", "<module>"), ("simulate", "_innovations"),
                               ("sn", "<module>"), ("sn", "_sn_from_tail"),
                               ("bootstrap", "<module>"), ("bootstrap", "_normal_weights")}
    assert bootstrap.ndtri is bootstrap._box_muller
    assert bootstrap.ndtri is not ndtri


def test_raw_outputs_are_read_only_by_the_uniforms_the_placing_and_the_multipliers():
    # each draws one raw Philox output per value, whose stream numpy keeps fixed
    assert namers("random_raw") == {("gaussian", "open_uniform"), ("gaussian", "_placed"),
                                    ("bootstrap", "_normal_weights")}


def test_no_generator_is_moved_or_its_state_touched():
    # every draw continues its generator where the last one left it; only
    # the one placing helper moves a fresh generator to where a draw starts
    touched = [
        (path.stem, owner.get(id(node), "<module>"))
        for path, tree, owner in package_sources() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("state", "advance", "jumped")
    ]
    assert touched == [("gaussian", "_placed")]


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
    assert callers == {("bootstrap", "_target"), ("core", "_diagnostics")}


def test_single_precision_is_chosen_only_by_the_mb_eb_target():
    # every MB and EB pass follows its target's dtype, so this is the one
    # place the precision is chosen; the block multiplier bootstrap builds
    # its own float64 target and stays in double precision by construction
    spellings = {"float32", "single", "f4", "<f4", "=f4"}
    namers = []
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
            if name in spellings:
                namers.append((path.stem, owner.get(id(node), "<module>")))
    assert namers == [("bootstrap", "_target")]


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
    assert users == {("bootstrap", "_openblas")}


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


def test_scipy_signal_is_named_only_by_the_ar_filter():
    # importing scipy.signal loads scipy.stats, optimize and interpolate: most of an import
    users = []
    for path, tree, owner in package_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            else:
                continue
            if any(n == "scipy.signal" or n.startswith("scipy.signal.") for n in names):
                users.append((path.stem, owner.get(id(node), "<module>")))
    assert set(users) == {("simulate", "_apply_ar")}


def fresh(code):
    """Run ``code`` in a new interpreter that imports this package; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(momentineq.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)], env=env, check=True,
        capture_output=True, text=True, timeout=300,
    ).stdout


def test_import_leaves_the_heavy_scipy_modules_to_the_first_ar_draw():
    loaded = fresh("""
        import sys
        import momentineq, momentineq.cli
        heavy = ["scipy.signal", "scipy.stats", "scipy.optimize", "scipy.interpolate",
                 "scipy.linalg"]
        print(*[m for m in heavy if m in sys.modules])
        from momentineq import DesignSpec, SeededStream, draw_sample
        draw_sample(DesignSpec(8, 20, 6, 0.5, "t4"), SeededStream(1))
        print("scipy.signal" in sys.modules)
    """).splitlines()
    assert loaded == ["", "True"]


DRAWS = """
    import hashlib, sys, threading
    from concurrent.futures import ThreadPoolExecutor
    from momentineq import DesignSpec, SeededStream, draw_sample
    assert "scipy.signal" not in sys.modules
    spec = DesignSpec(8, 40, 30, 0.5, "t4")
    both = threading.Barrier(2, timeout=60)

    def draw(i, wait):
        if wait:
            both.wait()  # the two first draws load scipy.signal at the same time
        return draw_sample(spec, SeededStream(3).child(i)).tobytes()

    if {pooled}:
        with ThreadPoolExecutor(2) as pool:
            samples = list(pool.map(draw, range(4), [True] * 4))
    else:
        samples = [draw(i, False) for i in range(4)]
    print(hashlib.sha256(b"".join(samples)).hexdigest())
"""


def test_first_ar_draws_on_two_threads_at_once_match_serial_draws():
    assert fresh(DRAWS.format(pooled=True)) == fresh(DRAWS.format(pooled=False))
