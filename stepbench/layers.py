"""Per-layer self time by wrapping the dycore's public entry points.

The benchmark never edits the program.  For a traced run it rebinds
each public entry point below to a timing wrapper, runs the steps, and
puts every original back.  Wrappers keep a nesting stack, so a layer's
*self* time is its wall time minus the time of the wrapped calls it
made; the self times of every layer plus the step's own remainder
partition the step wall exactly.

Each call also becomes a span (with its step index and parent layer)
in a :class:`repro.obs.Tracer`, written with
:meth:`FlightRecorder.write_chrome_trace`, so ``python -m repro.obs
summary`` reads the result.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

#: Marker set on every wrapper, so a test can prove none is left behind.
WRAPPED_MARK = "__stepbench_layer__"

TRACK = "driver"


def layer_targets() -> list[tuple[str, object, str]]:
    """``(layer, owner, attribute)`` for every wrapped entry point.

    ``owner`` is the defining module for functions (the function is
    rebound wherever a ``repro`` module imported it by name) or the
    class for methods.
    """
    from repro.homme import euler, hypervis, remap, rhs
    from repro.homme.bndry import HaloExchanger
    from repro.homme.distributed import (
        DistributedPrimitiveEquations,
        DistributedShallowWater,
    )
    from repro.homme.element import ElementGeometry
    from repro.homme.timestep import PrimitiveEquationModel
    from repro.mesh.cubed_sphere import CubedSphereMesh
    from repro.network.simmpi import SimMPI
    from repro.parallel.engine import ParallelEngine, PendingRun

    return [
        ("homme.timestep.step", PrimitiveEquationModel, "step"),
        ("homme.distributed.step", DistributedPrimitiveEquations, "step"),
        ("homme.distributed.step", DistributedShallowWater, "step"),
        ("homme.rhs", rhs, "compute_and_apply_rhs"),
        ("homme.euler", euler, "euler_step_subcycled"),
        ("homme.hypervis", hypervis, "advance_hypervis"),
        ("homme.remap", remap, "vertical_remap"),
        ("homme.element.dss_vector", ElementGeometry, "dss_vector"),
        ("homme.element.dss", ElementGeometry, "dss"),
        ("mesh.cubed_sphere.dss", CubedSphereMesh, "dss"),
        ("homme.bndry.exchange", HaloExchanger, "exchange"),
        ("network.simmpi", SimMPI, "isend"),
        ("network.simmpi", SimMPI, "irecv"),
        ("network.simmpi", SimMPI, "wait"),
        ("network.simmpi", SimMPI, "allreduce"),
        ("parallel.engine.dispatch", ParallelEngine, "run"),
        ("parallel.engine.dispatch", ParallelEngine, "submit"),
        ("parallel.engine.wait", PendingRun, "wait"),
    ]


#: Every layer name, in report order.
LAYERS = (
    "homme.timestep.step",
    "homme.distributed.step",
    "homme.rhs",
    "homme.euler",
    "homme.hypervis",
    "homme.remap",
    "homme.element.dss_vector",
    "homme.element.dss",
    "mesh.cubed_sphere.dss",
    "homme.bndry.exchange",
    "network.simmpi",
    "parallel.engine.dispatch",
    "parallel.engine.wait",
)


class LayerTracer:
    """Install timing wrappers, accumulate self time and calls per layer.

    Use as a context manager: entering installs the wrappers, leaving
    restores every original binding, also when a step raises.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Wall time of the outermost wrapped calls (the steps).
        self.root_s = 0.0
        #: Index of the step being traced (a span argument).
        self.step = 0
        self._stack: list[list] = []  # [layer, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer: str, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[1]
                calls[layer] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                else:
                    self.root_s += dur
                tracer.span_at(
                    TRACK, layer, t0 - self._t0, t1 - self._t0, cat="layer",
                    step=self.step, parent=parent[0] if parent else "",
                )

        setattr(wrapper, WRAPPED_MARK, layer)
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for layer, owner, attr in layer_targets():
            if isinstance(owner, type):
                self._patch(owner, attr, self._wrap(layer, owner.__dict__[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original)
            # Rebind the function in every repro module that imported it
            # by name (e.g. ``repro.homme.timestep``), not only where it
            # is defined.
            for name, mod in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) \
                        and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


def leftover_wrappers() -> list[str]:
    """Wrapped entry points still bound anywhere (must be empty)."""
    found = []
    for _layer, owner, attr in layer_targets():
        holders = [owner] if isinstance(owner, type) else [
            mod for name, mod in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for holder in holders:
            if hasattr(getattr(holder, attr, None), WRAPPED_MARK):
                found.append(f"{getattr(holder, '__name__', holder)}.{attr}")
    return found
