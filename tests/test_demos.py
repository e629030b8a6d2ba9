"""The demo scripts run, and every package name they import exists."""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# 03 runs Monte Carlo cells for about half a minute; only its imports are checked
QUICK = ["01", "02", "04", "05", "06"]


def demo(prefix):
    (path,) = DEMOS.glob(f"{prefix}_*.py")
    return path


@pytest.mark.parametrize("prefix", QUICK)
def test_demo_runs(prefix, capsys):
    runpy.run_path(str(demo(prefix)), run_name="__main__")
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name[:2])
def test_demo_imports_resolve(path):
    missing = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "momentineq":
            module = importlib.import_module(node.module)
            missing += [a.name for a in node.names if not hasattr(module, a.name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "momentineq":
                    importlib.import_module(a.name)
    assert missing == []
