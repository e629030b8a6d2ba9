"""Per-layer call counts and times recorded from outside the package.

The tracer wraps the layer entry points as the package's own modules see
them: a module that did ``from .bootstrap import _quantile`` calls its own
global ``_quantile``, so the wrapper replaces that global in every module
listed for the layer.  Nothing under ``src/`` changes, and :meth:`Tracer.
uninstall` puts every original back.  An entry point that cannot be found
(a module or function renamed by a later refactor) is skipped; a layer none
of whose entry points is found is reported as absent.

Each layer keeps only aggregates: calls, seconds and counters such as
flops.  A layer marked ``self_time`` subtracts the time of traced calls
nested in it.  Each thread keeps its own stack of open calls, because
``run_mc`` may run replications on a thread pool.
"""

from __future__ import annotations

import importlib
import math
import sys
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Layer:
    """One traced layer: its entry points and what each call adds to it."""

    name: str
    targets: tuple[tuple[str, str], ...]
    self_time: bool = False
    count: object = None  # f(args, result) -> dict of extra counters
    found: bool = False
    seconds: float = 0.0
    calls: int = 0
    extra: dict = field(default_factory=dict)


def _size(args, result):
    return {"draws": int(getattr(result, "size", 0))}


def _cells(args, result):
    return {"cells": int(getattr(result, "size", 0))}


def _selected(args, result):
    # threshold_select(summary, threshold) -> frozenset of kept columns
    summary = args[0] if args else None
    p = getattr(summary, "p", None)
    if p is None or not hasattr(result, "__len__"):
        return {}
    return {"selected": len(result), "offered": int(p)}


def _rowmax_flop(args, result):
    # _blocked_rowmax(weights, g): products of width _COL_BLOCK, zero-padded
    weights, g = args[0], args[1]
    k, n = weights.shape
    c = g.shape[1]
    width = getattr(sys.modules.get("momentineq.bootstrap"), "_COL_BLOCK", None) or c
    padded = width * math.ceil(c / width)
    return {"flop": 2.0 * k * n * padded, "useful_flop": 2.0 * k * n * c}


def default_layers() -> list[Layer]:
    """The package's layers and the globals through which each is called."""
    mi = "momentineq."
    return [
        Layer("simulate.draw_sample", ((mi + "simulate", "draw_sample"),)),
        Layer("gaussian.open_uniform", tuple(
            (mi + m, "open_uniform") for m in ("gaussian", "bootstrap", "simulate", "dependent")
        ), count=_size),
        Layer("bootstrap.ndtri", ((mi + "bootstrap", "ndtri"),)),
        Layer("bootstrap.eb_counts", ((mi + "bootstrap", "_eb_values"),), self_time=True),
        Layer("bootstrap.mb_pass", ((mi + "bootstrap", "_mb_values"),)),
        Layer("bootstrap.blocked_rowmax", ((mi + "bootstrap", "_blocked_rowmax"),),
              count=_rowmax_flop),
        Layer("bootstrap.quantile", tuple(
            (mi + m, "_quantile") for m in ("bootstrap", "threestep", "dependent")
        )),
        Layer("sn.select", ((mi + "bootstrap", "sn_select"),) + tuple(
            (mi + m, "threshold_select") for m in ("sn", "bootstrap", "threestep")
        ), count=_selected),
        Layer("core.summarize", tuple(
            (mi + m, "summarize") for m in ("core", "bootstrap", "threestep", "dependent")
        )),
        Layer("core.regularity_diagnostics", tuple(
            (mi + m, "regularity_diagnostics") for m in ("bootstrap", "cli")
        )),
        Layer("cli.read_matrix", ((mi + "cli", "read_matrix"),), count=_cells),
        Layer("threestep", ((mi + "cli", "three_step_test"), (mi + "cli", "three_step_sets"))),
        Layer("dependent.bmb", ((mi + "cli", "bmb_test"),)),
        Layer("inference.invert", ((mi + "cli", "invert_region"),)),
        Layer("gaussian.stream", ((mi + "gaussian", "SeededStream.generator"),)),
    ]


class Tracer:
    """Installs timing wrappers and adds each call to its layer's aggregates."""

    def __init__(self, layers: list[Layer]):
        self.layers = {layer.name: layer for layer in layers}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def absent(self) -> list[str]:
        return [name for name, layer in self.layers.items() if not layer.found]

    def install(self) -> None:
        for layer in self.layers.values():
            for module_name, attr in layer.targets:
                owner, leaf = _resolve(module_name, attr)
                if owner is None:
                    continue
                original = getattr(owner, leaf)
                setattr(owner, leaf, self._wrap(layer, original))
                self._patched.append((owner, leaf, original))
                layer.found = True

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: Layer, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # A call nested in a call of the same layer (sn_select calling
            # threshold_select) is part of the outer call, not a second one.
            outer = all(frame[0] is not layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                stack.pop()
            if outer:
                extra = layer.count(args, result) if layer.count is not None else {}
                with tracer._lock:
                    layer.calls += 1
                    layer.seconds += duration - frame[1] if layer.self_time else duration
                    for key, value in extra.items():
                        layer.extra[key] = layer.extra.get(key, 0) + value
            if stack:
                stack[-1][1] += duration
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer.name)
        return wrapper


def _resolve(module_name: str, attr: str):
    """The object holding ``attr`` (``Class.method`` allowed) and the leaf name, or ``(None, None)``."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not callable(getattr(owner, leaf, None)):
        return None, None
    return owner, leaf
