"""The tracer: missing entry points are reported absent, and originals come back.

Run with ``python3 -m pytest bench/test_spans.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

import momentineq.core as core
from spans import Layer, Tracer, default_layers


def test_missing_entry_points_are_absent_not_fatal():
    tracer = Tracer([
        Layer("gone.module", (("momentineq.no_such_module", "f"),)),
        Layer("gone.function", (("momentineq.core", "no_such_function"),)),
        Layer("core.summarize", (("momentineq.core", "summarize"),)),
    ])
    tracer.install()
    try:
        core.summarize(np.eye(3))
    finally:
        tracer.uninstall()
    assert tracer.absent() == ["gone.module", "gone.function"]
    assert tracer.layers["core.summarize"].calls == 1


def test_uninstall_restores_every_original():
    before = core.summarize
    tracer = Tracer(default_layers())
    tracer.install()
    assert core.summarize is not before
    tracer.uninstall()
    assert core.summarize is before
    assert tracer.absent() == []
