"""Task functions and kernel wrappers that put the dycore on real cores.

Two layers live here:

1. **Per-rank tasks** for the distributed models: the element-local
   tendency / laplacian / tracer-advection work of one simulated rank,
   packaged as module-level functions the engine can ship to a worker.
   The driver (``repro.homme.distributed``) routes *both* the serial
   and the parallel path through these same functions, so the two modes
   execute identical float64 streams — bitwise identity by
   construction, with all DSS reductions staying on the driver in fixed
   rank order.

2. **Element-chunked kernels** (:class:`ParallelHommeKernels`): the
   HOMME kernels of one execution path (fused by default) split into
   contiguous element chunks, one chunk per worker, concatenated back
   in chunk order.  Every operator is element-local, so a chunk
   computes exactly the rows it owns and the concatenation is bitwise
   equal to the full-stack call (asserted by
   :func:`cross_validate_parallel`).

Geometry never crosses a queue: the driver registers the per-rank (or
per-chunk) :class:`~repro.homme.element.ElementGeometry` objects in the
fork-inherited context registry *before* the pool starts.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import KernelError
from .engine import ParallelEngine, get_context, register_context, unregister_context

__all__ = [
    "ParallelHommeKernels",
    "cross_validate_parallel",
    "parallel_homme_execution",
]

_ctx_counter = itertools.count()


def fresh_context_key(prefix: str) -> str:
    """A process-unique context key (ids recycle; the counter doesn't)."""
    return f"{prefix}:{next(_ctx_counter)}"


def shard_context_key(base: str, shard: int) -> str:
    """The per-shard context key derived from a model's base key."""
    return f"{base}/s{shard}"


def _task_geom(meta, index_key: str = "rank"):
    """Resolve the geometry a task should compute with.

    Under sharded ownership (the default) ``meta["ctx"]`` names a
    per-shard context entry holding exactly one
    :class:`~repro.homme.element.ElementGeometry` — the only geometry
    this worker's shard ever touches.  A list/tuple entry is the legacy
    replicated layout (one global key holding every shard), still
    resolved through ``meta[index_key]`` so external payloads keep
    working.
    """
    obj = get_context(meta["ctx"])
    if isinstance(obj, (list, tuple)):
        return obj[meta[index_key]]
    return obj


def _path_kernels(meta):
    """Resolve the execution path named in a task meta.

    Every payload the models build names its path; one without a
    ``"path"`` key runs the batched reference kernels.
    """
    from ..backends.functional_exec import homme_execution

    return homme_execution(meta.get("path", "batched"))


def _advect_fn(meta):
    """Single-tracer advection kernel for the path named in a task meta."""
    if meta.get("path") == "fused":
        from ..homme.fused import advect_qdp_fused

        return advect_qdp_fused
    from ..homme.euler import advect_qdp

    return advect_qdp


# ---------------------------------------------------------------------------
# Per-rank tasks for the distributed models
# ---------------------------------------------------------------------------


def sw_stage_task(meta, base_h, base_v, point_h, point_v):
    """One rank's shallow-water RK-stage update (pre-DSS).

    Returns ``(base + dt * tendency)`` for h and v, evaluated with the
    rank's geometry from the registered context.
    """
    geom = _task_geom(meta)
    dh, dv = _path_kernels(meta).sw_rhs(point_h, point_v, geom)
    dt = meta["dt"]
    return base_h + dt * dh, base_v + dt * dv


def prim_stage_task(meta, base_v, base_T, base_dp, point_v, point_T, point_dp):
    """One rank's primitive-equation RK-stage update (pre-DSS)."""
    from ..homme.element import ElementState

    geom = _task_geom(meta)
    E, L, n = point_T.shape[0], point_T.shape[1], point_T.shape[2]
    point = ElementState(
        v=point_v, T=point_T, dp3d=point_dp, qdp=np.zeros((E, 1, L, n, n))
    )
    dv, dT, ddp = _path_kernels(meta).compute_rhs(point, geom)
    dt = meta["dt"]
    return base_v + dt * dv, base_T + dt * dT, base_dp + dt * ddp


def prim_laplace_task(meta, T, v, dp):
    """One rank's hyperviscosity laplacians for all three fields."""
    geom = _task_geom(meta)
    ex = _path_kernels(meta)
    return (
        ex.laplace_wk(T, geom),
        ex.vlaplace(v, geom),
        ex.laplace_wk(dp, geom),
    )


def prim_laplace_wk_task(meta, f):
    """One rank's scalar weak laplacian of a single field.

    The per-field twin of :func:`prim_laplace_task`, used by the
    pipelined hyperviscosity chain: splitting the fused three-field
    task lets the driver's DSS of field *f* overlap worker compute of
    field *f+1* (values are unchanged — each field's laplacian is
    computed by the same operator on the same inputs).
    """
    geom = _task_geom(meta)
    return (_path_kernels(meta).laplace_wk(f, geom),)


def prim_vlaplace_task(meta, v):
    """One rank's vector laplacian of a single field (pipelined twin)."""
    geom = _task_geom(meta)
    return (_path_kernels(meta).vlaplace(v, geom),)


def prim_euler_stage1_task(meta, qdp_q, v):
    """Tracer SSP-RK2 stage 1 (pre-DSS): qdp + sdt * advect(qdp)."""
    geom = _task_geom(meta)
    advect = _advect_fn(meta)
    return (qdp_q + meta["sdt"] * advect(qdp_q, v, geom),)


def prim_euler_stage2_task(meta, qdp_q, st1, v):
    """Tracer SSP-RK2 stage 2 (pre-DSS): 0.5 (qdp + st1 + sdt advect(st1))."""
    geom = _task_geom(meta)
    advect = _advect_fn(meta)
    return (0.5 * (qdp_q + st1 + meta["sdt"] * advect(st1, v, geom)),)


def prim_limit_task(meta, st2):
    """One rank's limiter pass plus its local mass sums.

    Returns ``(limited, before_r, after_r)``; the driver allreduces the
    per-level mass sums across ranks in fixed rank order and applies
    the global fixer scale.
    """
    from ..homme.euler import limit_qdp

    geom = _task_geom(meta)
    limited = limit_qdp(st2, geom, global_fixer=False)
    w = geom.spheremp[:, None]
    before = np.sum(st2 * w, axis=(0, 2, 3))
    after = np.sum(limited * w, axis=(0, 2, 3))
    return limited, before, after


# ---------------------------------------------------------------------------
# Element-chunked batched kernels
# ---------------------------------------------------------------------------


def chunk_sw_rhs_task(meta, h, v):
    geom = _task_geom(meta, "chunk")
    return _path_kernels(meta).sw_rhs(h, v, geom)


def chunk_prim_rhs_task(meta, v, T, dp3d):
    from ..homme.element import ElementState

    geom = _task_geom(meta, "chunk")
    E, L, n = T.shape[0], T.shape[1], T.shape[2]
    state = ElementState(v=v, T=T, dp3d=dp3d, qdp=np.zeros((E, 1, L, n, n)))
    return _path_kernels(meta).compute_rhs(state, geom)


def chunk_laplace_wk_task(meta, f):
    geom = _task_geom(meta, "chunk")
    return (_path_kernels(meta).laplace_wk(f, geom),)


def chunk_vlaplace_task(meta, v):
    geom = _task_geom(meta, "chunk")
    return (_path_kernels(meta).vlaplace(v, geom),)


class ParallelHommeKernels:
    """Element-chunked execution of the HOMME kernels on ``exec_path``.

    Splits the element stack of ``geom`` into ``workers`` contiguous
    chunks, registers per-chunk geometries, and starts (or adopts) a
    :class:`~repro.parallel.engine.ParallelEngine`.  Each kernel call
    fans the chunks out across the pool and concatenates the results in
    chunk order — bitwise identical to the single-call kernel of the
    same path because every operator is element-local.

    Use as a context manager or call :meth:`close` to stop the pool.
    """

    def __init__(
        self,
        geom,
        workers: int = 0,
        validate: bool = False,
        tracer=None,
        engine: ParallelEngine | None = None,
        engine_kwargs: dict | None = None,
        exec_path: str = "fused",
    ) -> None:
        from ..backends.functional_exec import homme_execution
        from ..homme.element import ElementGeometry

        homme_execution(exec_path)  # fail fast on unknown paths
        self.exec_path = exec_path
        self.geom = geom
        nchunks = max(1, int(workers)) if engine is None else max(1, engine.workers)
        nchunks = min(nchunks, geom.nelem)
        bounds = np.linspace(0, geom.nelem, nchunks + 1).astype(int)
        self.chunks = [
            (int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
        ]
        chunk_geoms = [
            ElementGeometry(geom.mesh, geom.elem_ids[lo:hi]) for lo, hi in self.chunks
        ]
        # Warm the tensor caches now so forked workers inherit them.
        for g in chunk_geoms:
            g.tensors  # noqa: B018 - memoizing property access
            if exec_path == "fused":
                g.tensors.fused()
        # One context entry per chunk (sharded ownership): with shard
        # affinity each worker only ever resolves its own chunk's
        # geometry, so its copy-on-write footprint is one chunk, not
        # the whole element stack.
        base = fresh_context_key("homme-chunks")
        self._ctx_key = base
        self._shard_keys = [
            register_context(shard_context_key(base, c), g)
            for c, g in enumerate(chunk_geoms)
        ]
        self._owns_engine = engine is None
        self.engine = engine if engine is not None else ParallelEngine(
            workers=workers, validate=validate, tracer=tracer,
            label="homme-kernels", **(engine_kwargs or {}),
        )

    # -- kernel surface (matches HommeExecution's callables) ----------------

    def _fanout(self, task, arrays_of: list[np.ndarray]) -> list[tuple]:
        payloads = [
            ({"ctx": self._shard_keys[c], "chunk": c, "shard": c,
              "path": self.exec_path},
             tuple(a[lo:hi] for a in arrays_of))
            for c, (lo, hi) in enumerate(self.chunks)
        ]
        return self.engine.run(task, payloads)

    def sw_rhs(self, h, v, geom=None):
        outs = self._fanout(chunk_sw_rhs_task, [h, v])
        return (
            np.concatenate([o[0] for o in outs]),
            np.concatenate([o[1] for o in outs]),
        )

    def compute_rhs(self, state, geom=None, phis=None):
        if phis is not None:
            raise KernelError("parallel compute_rhs does not take phis yet")
        outs = self._fanout(chunk_prim_rhs_task, [state.v, state.T, state.dp3d])
        return tuple(np.concatenate([o[k] for o in outs]) for k in range(3))

    def laplace_wk(self, f, geom=None):
        outs = self._fanout(chunk_laplace_wk_task, [f])
        return np.concatenate([o[0] for o in outs])

    def vlaplace(self, v, geom=None):
        outs = self._fanout(chunk_vlaplace_task, [v])
        return np.concatenate([o[0] for o in outs])

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._owns_engine:
            self.engine.close()
        for key in self._shard_keys:
            unregister_context(key)

    def __enter__(self) -> "ParallelHommeKernels":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def parallel_homme_execution(geom, workers: int = 0, validate: bool = False,
                             exec_path: str = "fused"):
    """A :class:`~repro.backends.functional_exec.HommeExecution`-shaped
    bundle running the selected kernels across real cores.

    Returns ``(execution, kernels)``; close ``kernels`` when done.
    ``exec_path`` selects the element-local kernels each chunk runs
    (``"fused"`` default, or ``"batched"``/``"looped"``).  The tracer
    path follows ``exec_path`` — per-chunk tracer parallelism belongs
    to the distributed models' per-rank engine.
    """
    from ..backends.functional_exec import HommeExecution

    kernels = ParallelHommeKernels(geom, workers=workers, validate=validate,
                                   exec_path=exec_path)
    ex = HommeExecution(
        name=f"parallel[{kernels.engine.workers if kernels.engine.active else 1}]",
        compute_rhs=lambda state, g, phis=None: kernels.compute_rhs(state, g, phis),
        sw_rhs=lambda h, v, g: kernels.sw_rhs(h, v, g),
        laplace_wk=lambda f, g: kernels.laplace_wk(f, g),
        vlaplace=lambda v, g: kernels.vlaplace(v, g),
        euler_path=exec_path,
    )
    return ex, kernels


def cross_validate_parallel(state, geom, workers: int = 2, rtol: float = 1e-12,
                            exec_path: str = "fused"):
    """Run every chunked kernel against its serial twin on ``exec_path``.

    The ``repro.parallel`` mirror of
    :func:`repro.backends.functional_exec.cross_validate_paths`: same
    report shape (max relative disagreement per kernel), same ``rtol``
    gate — but the expectation here is stronger, and the returned
    errors are asserted to be **exactly zero** before the 1e-12 gate is
    even consulted, because chunking must not change a single bit.
    Both sides run the same path's kernels (paths differ from each
    other by roundoff, chunking must not).
    """
    from ..backends.functional_exec import homme_execution
    from ..homme.shallow_water import williamson2_initial

    ser = homme_execution(exec_path)

    def rel(a, c):
        scale = max(float(np.max(np.abs(c))), 1e-300)
        return float(np.max(np.abs(a - c))) / scale

    errs: dict[str, float] = {}
    bitwise = True
    with ParallelHommeKernels(geom, workers=workers, exec_path=exec_path) as par:
        dv_p, dT_p, ddp_p = par.compute_rhs(state, geom)
        dv_s, dT_s, ddp_s = ser.compute_rhs(state, geom)
        sw = williamson2_initial(geom.mesh)
        h, v = sw.h[geom.elem_ids], sw.v[geom.elem_ids]
        dh_p, dvv_p = par.sw_rhs(h, v)
        dh_s, dvv_s = ser.sw_rhs(h, v, geom)
        for name, a, c in (
            ("compute_rhs.dv", dv_p, dv_s),
            ("compute_rhs.dT", dT_p, dT_s),
            ("compute_rhs.ddp", ddp_p, ddp_s),
            ("laplace_wk.T", par.laplace_wk(state.T), ser.laplace_wk(state.T, geom)),
            ("vlaplace.v", par.vlaplace(state.v), ser.vlaplace(state.v, geom)),
            ("sw_rhs.dh", dh_p, dh_s),
            ("sw_rhs.dv", dvv_p, dvv_s),
        ):
            errs[name] = rel(a, c)
            bitwise = bitwise and bool(np.array_equal(a, c))
    worst = max(errs.values())
    if not bitwise or worst > rtol:
        raise KernelError(
            f"parallel/serial cross-validation failed ({exec_path}): "
            f"bitwise={bitwise}, max rel err {worst:.3e} > {rtol:.1e} ({errs})"
        )
    return errs
