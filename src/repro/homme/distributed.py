"""Rank-distributed integrations over SimMPI (shallow water and the
full primitive equations).

The end-to-end demonstration of the communication redesign: the same
RK3 shallow-water step as :class:`~repro.homme.shallow_water.ShallowWaterModel`,
but with the mesh partitioned across simulated MPI ranks and every DSS
performed by :class:`~repro.homme.bndry.HaloExchanger` — pack, send,
(overlap), receive, unpack.  Scalar fields exchange directly; vectors
exchange in the frame-free Cartesian tangent representation (the same
device as :meth:`ElementGeometry.dss_vector`).

The distributed trajectory matches the serial model to roundoff, and
the per-rank clocks expose the overlap-vs-classic timing difference on
a real integration.
"""

from __future__ import annotations

import numpy as np

from .. import constants as C
from ..errors import KernelError
from ..mesh.cubed_sphere import CubedSphereMesh
from ..mesh.partition import SFCPartition
from ..network.simmpi import SimMPI, rank_track
from ..obs.tracer import NULL_TRACER
from ..parallel.dycore import (
    fresh_context_key,
    shard_context_key,
    prim_euler_stage1_task,
    prim_euler_stage2_task,
    prim_laplace_task,
    prim_laplace_wk_task,
    prim_limit_task,
    prim_stage_task,
    prim_vlaplace_task,
    sw_stage_task,
)
from ..parallel.engine import (
    SERIAL_ENGINE,
    ParallelEngine,
    register_context,
    unregister_context,
)
from .bndry import HaloExchanger, exchange_tag
from .element import ElementGeometry
from .shallow_water import SWState, williamson2_initial


def _make_engine(model, workers: int, validate: bool, label: str,
                 pipeline: bool = False, engine_kwargs: dict | None = None):
    """Shared ``workers=``/``pipeline=`` plumbing for the distributed models.

    Publishes **one context entry per rank shard** — rank ``r``'s
    :class:`ElementGeometry` under ``shard_context_key(base, r)`` — in
    the fork-inherited registry (warming the memoized tensor caches
    first, so workers inherit them copy-on-write), then starts the pool
    — or hands back the shared always-serial engine for ``workers <=
    1``.  Combined with the engine's shard-affinity dispatch, a worker
    only ever resolves (and therefore faults in) the shards pinned to
    its slot, instead of the whole replicated geometry list the old
    single-key layout handed every worker.  ``engine_kwargs`` passes
    straight through to :class:`~repro.parallel.engine.ParallelEngine`
    — the supervision, chaos, and integrity knobs of DESIGN.md §12.

    ``pipeline=True`` additionally registers the *split* per-rank
    geometries (slot ``2r`` = rank ``r``'s boundary elements, ``2r+1``
    = its inner elements; ``None`` for an empty subset), each under its
    own per-slot key so the pipelined fanout keeps the same one-shard-
    per-worker ownership.
    """
    model.workers = max(0, int(workers))
    model.validate = bool(validate)
    model.pipeline = bool(pipeline)
    warm_fused = model.exec_path == "fused"
    for g in model.geoms:
        g.tensors  # noqa: B018 - warm the cache before the pool forks
        if warm_fused:
            g.tensors.fused()
    base = fresh_context_key(label)
    model._ctx_key = base
    model._shard_keys = [
        register_context(shard_context_key(base, r), g)
        for r, g in enumerate(model.geoms)
    ]
    model._pipe_shard_keys = None
    if model.pipeline:
        pipe_base = fresh_context_key(label + "-pipe")
        pipe_keys: list[str] = []
        for r in range(model.nranks):
            els = model.part.rank_elements(r)
            for part_i, ix in enumerate((model.hx.local_boundary_idx[r],
                                         model.hx.local_inner_idx[r])):
                g = None
                if len(ix) > 0:
                    g = ElementGeometry(model.mesh, els[ix])
                    g.tensors  # noqa: B018 - warm before the fork
                    if warm_fused:
                        g.tensors.fused()
                pipe_keys.append(register_context(
                    shard_context_key(pipe_base, 2 * r + part_i), g
                ))
        model._pipe_shard_keys = pipe_keys
    if model.workers > 1:
        model.engine = ParallelEngine(
            workers=model.workers, validate=model.validate,
            tracer=model.tracer, label=label, **(engine_kwargs or {}),
        )
    else:
        model.engine = SERIAL_ENGINE


def charge_calibrated_compute(model, steps: int) -> None:
    """Charge calibrated per-element kernel time to every rank's clock.

    The distributed models' SimMPI clocks measure communication (halo
    exchange, pack/unpack memcpy, allreduce combines); per-element
    kernel compute is charged here from the calibrated
    :class:`~repro.perf.scaling.HommePerfModel`, so scaling studies
    built on ``max_rank_time()`` reflect a full step rather than comm
    alone.  The charge is additive (call it after ``run_steps``),
    exactly deterministic, and proportional to each rank's actual shard
    size — SFC load imbalance shows up in the slowest clock.
    """
    from ..perf.scaling import HommePerfModel

    perf = HommePerfModel(model.cfg.ne, model.nranks,
                          nlev=model.cfg.nlev, qsize=model.cfg.qsize)
    per_elem = perf.compute_seconds / perf.elems_per_proc
    for r in range(model.nranks):
        nelem = len(model.part.rank_elements(r))
        model.mpi.compute(r, per_elem * nelem * steps)


def _pipeline_active(model) -> bool:
    """Pipelined dispatch is only meaningful on a live pool."""
    return bool(model.pipeline) and model.engine.active


def _pipelined_fanout(model, task, meta_extra: dict,
                      per_rank_arrays: list[tuple], nout: int) -> list[tuple]:
    """Boundary-first split dispatch of one per-rank stage (DESIGN.md §11).

    Splits every rank's element stack into its boundary and inner rows,
    submits the boundary batch first and the inner batch immediately
    after (into the other shared-memory bank), then collects the
    boundary results and reassembles them **while the workers compute
    the inner batch** — the driver-side combine of batch *k* overlapped
    with worker compute of batch *k+1*.  Reassembly is a pure scatter
    by precomputed indices, and every combine below (DSS, allreduce)
    still runs on the driver in fixed rank order, so the result is
    bitwise identical to the synchronous full-stack dispatch.

    Returns one tuple of ``nout`` full per-rank arrays per rank.
    """
    hx = model.hx
    pends = []
    for part_i, idx_of in ((0, hx.local_boundary_idx),
                           (1, hx.local_inner_idx)):
        payloads, owners = [], []
        for r in range(model.nranks):
            ix = idx_of[r]
            if len(ix) == 0:
                continue
            meta = {"ctx": model._pipe_shard_keys[2 * r + part_i],
                    "rank": 2 * r + part_i, "shard": r, **meta_extra}
            payloads.append((meta, tuple(a[ix] for a in per_rank_arrays[r])))
            owners.append(r)
        pends.append((model.engine.submit(task, payloads), owners, idx_of))
    outs: list[list] = [[None] * nout for _ in range(model.nranks)]
    for pend, owners, idx_of in pends:
        results = pend.wait()
        for r, res in zip(owners, results):
            ix = idx_of[r]
            for k in range(nout):
                if outs[r][k] is None:
                    shape = ((len(hx.rank_elems[r]),) + res[k].shape[1:])
                    outs[r][k] = np.empty(shape, dtype=res[k].dtype)
                outs[r][k][ix] = res[k]
    return [tuple(o) for o in outs]


class _RankDSS:
    """Driver-side DSS shared by the distributed models.

    Every call is one :meth:`HaloExchanger.exchange` over the model's
    communicator, tagged by its (step, stage, slot) position, through
    the partition's assembly plan.  The exchange returns fresh
    C-contiguous arrays, so a stepped state has the same memory layout
    as a restored checkpoint (bitwise restart depends on this).
    """

    def _dss(self, fields: list[np.ndarray], stage: int, slot: int,
             gll_axis: int | None = None) -> list[np.ndarray]:
        """DSS per-rank fields; by default their GLL axes are trailing."""
        if gll_axis is None:
            gll_axis = fields[0].ndim - 2
        outs, _ = self.hx.exchange(
            fields, self.mpi, mode=self.mode,
            tag=exchange_tag(self.step_count, stage, slot, self._epoch),
            gll_axis=gll_axis, boundary_compute=self._bc,
            inner_compute=self._ic,
        )
        return outs

    def _dss_vector(self, vs: list[np.ndarray], stage: int,
                    slot: int) -> list[np.ndarray]:
        """DSS per-rank contravariant (E_r, [L,] n, n, 2) vectors.

        Exchanged in the frame-free Cartesian tangent form the plan
        folds once per rank (the device of
        :meth:`ElementGeometry.dss_vector`).
        """
        plan = self.hx.plan
        ws = [plan.to_cartesian(r, v) for r, v in enumerate(vs)]
        ws = self._dss(ws, stage, slot, gll_axis=1)
        return [plan.from_cartesian(r, w) for r, w in enumerate(ws)]


class DistributedShallowWater(_RankDSS):
    """Shallow-water RK3 over ``nranks`` simulated MPI ranks.

    ``workers > 1`` runs each rank's tendency computation on a real
    core through :class:`repro.parallel.engine.ParallelEngine`; every
    DSS stays on the driver in fixed rank order, so the trajectory is
    bitwise identical to ``workers=0`` (``validate=True`` asserts this
    on every pool dispatch).  Simulated clocks are unaffected either
    way — SimMPI remains the timing model.

    ``pipeline=True`` additionally splits each rank's elements into
    boundary and inner batches and overlaps the driver-side combines
    with worker compute (:func:`_pipelined_fanout`); results stay
    bitwise identical and the simulated clocks are untouched — only
    wall time changes.

    ``exec_path`` selects the element-local kernels each rank task runs
    (``"fused"`` default — the single-pass contraction kernels —
    ``"batched"`` for the readable reference, ``"looped"`` for the
    per-element baseline); the DSS structure is identical across paths.
    """

    def __init__(
        self,
        mesh: CubedSphereMesh,
        nranks: int,
        dt: float | None = None,
        mode: str = "overlap",
        compute_cost_per_element: float = 1.0e-5,
        faults=None,
        tracer=None,
        workers: int = 0,
        validate: bool = False,
        pipeline: bool = False,
        engine_kwargs: dict | None = None,
        exec_path: str = "fused",
    ) -> None:
        from ..backends.functional_exec import homme_execution

        if mode not in ("overlap", "classic"):
            raise KernelError(f"unknown exchange mode {mode!r}")
        homme_execution(exec_path)  # fail fast on unknown paths
        self.exec_path = exec_path
        self.mesh = mesh
        self.nranks = nranks
        self.mode = mode
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.part = SFCPartition(mesh.ne, nranks)
        self.hx = HaloExchanger(mesh, self.part)
        self.mpi = SimMPI(nranks, faults=faults, tracer=self.tracer)
        self.geoms = [
            ElementGeometry(mesh, self.part.rank_elements(r)) for r in range(nranks)
        ]
        _make_engine(self, workers, validate, "dist-sw", pipeline=pipeline,
                     engine_kwargs=engine_kwargs)
        init = williamson2_initial(mesh)
        self.states = [
            SWState(
                h=init.h[self.part.rank_elements(r)].copy(),
                v=init.v[self.part.rank_elements(r)].copy(),
            )
            for r in range(nranks)
        ]
        if dt is None:
            c = float(np.sqrt(C.GRAVITY * init.h.max()))
            dx = 2 * np.pi * mesh.radius / (4 * mesh.ne * (mesh.np - 1))
            dt = 0.25 * dx / c
        self.dt = dt
        self.t = 0.0
        self.step_count = 0
        self._epoch = 0
        # Simulated kernel cost attribution for the overlap window.
        self._cost = compute_cost_per_element
        self._bc = [
            self._cost * len(self.part.boundary_elements(r)) for r in range(nranks)
        ]
        self._ic = [
            self._cost * len(self.part.inner_elements(r)) for r in range(nranks)
        ]

    # -- dynamics -----------------------------------------------------------------

    def _stage(self, bases: list[SWState], points: list[SWState], dt: float,
               stage: int = 0) -> list[SWState]:
        t0s = [self.mpi.now(r) for r in range(self.nranks)]
        if _pipeline_active(self):
            outs = _pipelined_fanout(
                self, sw_stage_task, {"dt": dt, "path": self.exec_path},
                [(bases[r].h, bases[r].v, points[r].h, points[r].v)
                 for r in range(self.nranks)],
                nout=2,
            )
        else:
            outs = self.engine.run(sw_stage_task, [
                ({"ctx": self._shard_keys[r], "rank": r, "shard": r,
                  "dt": dt, "path": self.exec_path},
                 (bases[r].h, bases[r].v, points[r].h, points[r].v))
                for r in range(self.nranks)
            ])
        hs = self._dss([o[0] for o in outs], stage, slot=0)
        vs = self._dss_vector([o[1] for o in outs], stage, slot=1)
        if self.tracer.enabled:
            for r in range(self.nranks):
                self.tracer.span_at(
                    rank_track(r), "rk_stage", t0s[r], self.mpi.now(r),
                    cat="model", stage=stage, step=self.step_count,
                )
        return [SWState(h=h, v=v) for h, v in zip(hs, vs)]

    def step(self) -> None:
        """One distributed RK3 step (three halo-exchange rounds)."""
        t0s = [self.mpi.now(r) for r in range(self.nranks)]
        s0 = self.states
        s1 = self._stage(s0, s0, self.dt / 3.0, stage=1)
        s2 = self._stage(s0, s1, self.dt / 2.0, stage=2)
        self.states = self._stage(s0, s2, self.dt, stage=3)
        if self.tracer.enabled:
            for r in range(self.nranks):
                self.tracer.span_at(
                    rank_track(r), "step", t0s[r], self.mpi.now(r),
                    cat="model", step=self.step_count,
                )
        self.t += self.dt
        self.step_count += 1

    def run_steps(self, n: int) -> None:
        for _ in range(n):
            self.step()

    def close(self) -> None:
        """Stop the worker pool (if any) and drop every shard context."""
        if self.engine is not SERIAL_ENGINE:
            self.engine.close()
        for key in self._shard_keys:
            unregister_context(key)
        if self._pipe_shard_keys is not None:
            for key in self._pipe_shard_keys:
                unregister_context(key)

    def health(self, monitor=None):
        """Run the health rules over the engine (DESIGN.md §13.4)."""
        return self.engine.health(monitor)

    def __enter__(self) -> "DistributedShallowWater":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- checkpointing ------------------------------------------------------------

    def snapshot(self) -> dict[str, np.ndarray]:
        """Everything needed to continue the trajectory bitwise.

        Per-rank prognostic arrays plus the scalar counters (model time,
        step count, tag epoch).
        """
        snap: dict[str, np.ndarray] = {
            "meta": np.array([self.t, self.step_count, self._epoch],
                             dtype=np.float64)
        }
        for r, s in enumerate(self.states):
            snap[f"h_{r}"] = s.h.copy()
            snap[f"v_{r}"] = s.v.copy()
        return snap

    def restore_snapshot(self, snap: dict[str, np.ndarray]) -> None:
        """Reset the prognostic state from a :meth:`snapshot` dict.

        The tag epoch is *not* restored — it strictly increases so a
        replayed step can never match a stale in-flight message from
        the aborted attempt (which is also purged outright).
        """
        if f"h_{self.nranks - 1}" not in snap or f"h_{self.nranks}" in snap:
            raise KernelError("snapshot rank count does not match this model")
        t, steps, _epoch = (float(x) for x in snap["meta"])
        self.t = t
        self.step_count = int(steps)
        self._epoch += 1
        self.mpi.purge_pending()
        self.states = [
            SWState(h=snap[f"h_{r}"].copy(), v=snap[f"v_{r}"].copy())
            for r in range(self.nranks)
        ]

    # -- gathering / diagnostics ------------------------------------------------------

    def gather_state(self) -> SWState:
        """Assemble the global state (for comparison with serial runs)."""
        h = self.hx.gather([s.h for s in self.states])
        v = self.hx.gather([s.v for s in self.states])
        return SWState(h=h, v=v)

    def max_rank_time(self) -> float:
        """Simulated completion time of the slowest rank."""
        return self.mpi.max_time()

    def total_mass(self) -> float:
        s = self.gather_state()
        return float(np.sum(self.mesh.spheremp * s.h))


class DistributedPrimitiveEquations(_RankDSS):
    """The full prim_run distributed across simulated MPI ranks.

    Mirrors :class:`~repro.homme.timestep.PrimitiveEquationModel`'s RK3
    + tracer + hyperviscosity + remap step, with every DSS routed
    through ``bndry_exchangev``.  Column-local work (pressure scans,
    vertical remap, physics) needs no communication — exactly the
    structure the paper exploits.  Trajectories match the serial model
    to roundoff (verified in the tests).

    ``workers > 1`` fans the per-rank tendency, tracer-advection, and
    hyperviscosity work across real cores (see
    :mod:`repro.parallel.dycore`); all DSS and allreduce combines stay
    on the driver in fixed rank order, so the trajectory is bitwise
    identical to ``workers=0``.

    ``pipeline=True`` (with a live pool) overlaps driver-side combines
    with worker compute: the RK stages use the boundary-first split
    dispatch of :func:`_pipelined_fanout`, and hyperviscosity runs a
    per-field depth-2 software pipeline (the DSS of field *f* overlaps
    the laplacian of field *f+1*).  DSS calls keep their slot order, so
    both the trajectory and the simulated clocks are bitwise unchanged.

    ``exec_path`` selects the element-local kernels the per-rank tasks
    run (``"fused"`` default, ``"batched"``, ``"looped"``); the
    exchange/allreduce structure is identical across paths.

    ``combine`` selects how the tracer mass-fixer allreduces charge the
    simulated clocks: ``"flat"`` (default, the recursive-doubling
    estimate — all clocks synchronized) or ``"hierarchical"`` (the
    node → supernode → central-switch combine tree with hop-weighted
    per-level costs, mirroring TaihuLight's topology).  Reduced values
    — and therefore the trajectory — are bitwise identical either way;
    only the clock charging differs.
    """

    def __init__(
        self,
        cfg,
        mesh: CubedSphereMesh,
        init_state,
        nranks: int,
        dt: float,
        mode: str = "overlap",
        faults=None,
        tracer=None,
        workers: int = 0,
        validate: bool = False,
        pipeline: bool = False,
        engine_kwargs: dict | None = None,
        exec_path: str = "fused",
        combine: str = "flat",
    ) -> None:
        from ..backends.functional_exec import homme_execution
        from ..homme.hypervis import nu_for_ne

        if mode not in ("overlap", "classic"):
            raise KernelError(f"unknown exchange mode {mode!r}")
        homme_execution(exec_path)  # fail fast on unknown paths
        self.exec_path = exec_path
        self.cfg = cfg
        self.mesh = mesh
        self.nranks = nranks
        self.mode = mode
        self.dt = dt
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.combine = combine
        self.part = SFCPartition(mesh.ne, nranks)
        self.hx = HaloExchanger(mesh, self.part)
        self.mpi = SimMPI(nranks, faults=faults, tracer=self.tracer,
                          allreduce_algorithm=combine)
        self.geoms = [
            ElementGeometry(mesh, self.part.rank_elements(r)) for r in range(nranks)
        ]
        self.states = [
            type(init_state)(
                v=init_state.v[self.part.rank_elements(r)].copy(),
                T=init_state.T[self.part.rank_elements(r)].copy(),
                dp3d=init_state.dp3d[self.part.rank_elements(r)].copy(),
                qdp=init_state.qdp[self.part.rank_elements(r)].copy(),
            )
            for r in range(nranks)
        ]
        self.nu = nu_for_ne(cfg.ne)
        self.t = 0.0
        self.step_count = 0
        self._epoch = 0
        # No simulated kernel cost in the exchange's overlap window.
        self._bc = self._ic = None
        _make_engine(self, workers, validate, "dist-prim", pipeline=pipeline,
                     engine_kwargs=engine_kwargs)

    # -- one distributed dynamics step ------------------------------------------------

    def _rk_stage(self, bases, points, dt, stage=0):
        t0s = [self.mpi.now(r) for r in range(self.nranks)]
        if _pipeline_active(self):
            outs = _pipelined_fanout(
                self, prim_stage_task, {"dt": dt, "path": self.exec_path},
                [(bases[r].v, bases[r].T, bases[r].dp3d,
                  points[r].v, points[r].T, points[r].dp3d)
                 for r in range(self.nranks)],
                nout=3,
            )
        else:
            outs = self.engine.run(prim_stage_task, [
                ({"ctx": self._shard_keys[r], "rank": r, "shard": r,
                  "dt": dt, "path": self.exec_path},
                 (bases[r].v, bases[r].T, bases[r].dp3d,
                  points[r].v, points[r].T, points[r].dp3d))
                for r in range(self.nranks)
            ])
        Ts = self._dss([o[1] for o in outs], stage, slot=0)
        dps = self._dss([o[2] for o in outs], stage, slot=1)
        vs = self._dss_vector([o[0] for o in outs], stage, slot=2)
        if self.tracer.enabled:
            for r in range(self.nranks):
                self.tracer.span_at(
                    rank_track(r), "rk_stage", t0s[r], self.mpi.now(r),
                    cat="model", stage=stage, step=self.step_count,
                )
        out = []
        for r in range(self.nranks):
            s = bases[r].copy()
            s.v, s.T, s.dp3d = vs[r], Ts[r], dps[r]
            out.append(s)
        return out

    def _hypervis_pipelined(self, s3, metas):
        """Per-field depth-2 software pipeline for hyperviscosity.

        Splits the fused three-field laplacian dispatch into six
        per-field batches so the driver's DSS of one field overlaps
        worker compute of the next, never holding more than two batches
        in flight (the engine's two shared-memory banks).  The DSS
        calls execute in the same slot order 0..5 as the synchronous
        form and each field's laplacian/DSS chain is independent, so
        the values and the simulated clocks are bitwise unchanged.
        """
        eng = self.engine

        def submit(task, fields):
            return eng.submit(
                task, [(metas[r], (fields[r],)) for r in range(self.nranks)]
            )

        def outs(pend):
            return [o[0] for o in pend.wait()]

        p_lapT = submit(prim_laplace_wk_task, [s.T for s in s3])
        p_lapv = submit(prim_vlaplace_task, [s.v for s in s3])
        lap_T = self._dss(outs(p_lapT), stage=5, slot=0)
        p_lapdp = submit(prim_laplace_wk_task, [s.dp3d for s in s3])
        lap_v = self._dss_vector(outs(p_lapv), stage=5, slot=1)
        p_bihT = submit(prim_laplace_wk_task, lap_T)
        lap_dp = self._dss(outs(p_lapdp), stage=5, slot=2)
        p_bihv = submit(prim_vlaplace_task, lap_v)
        bih_T = self._dss(outs(p_bihT), stage=5, slot=3)
        p_bihdp = submit(prim_laplace_wk_task, lap_dp)
        bih_v = self._dss_vector(outs(p_bihv), stage=5, slot=4)
        bih_dp = self._dss(outs(p_bihdp), stage=5, slot=5)
        return bih_T, bih_v, bih_dp

    def step(self) -> None:
        from .remap import vertical_remap
        from .timestep import RSPLIT

        dt = self.dt
        step_t0s = [self.mpi.now(r) for r in range(self.nranks)]
        s0 = self.states
        s1 = self._rk_stage(s0, s0, dt / 3.0, stage=1)
        s2 = self._rk_stage(s0, s1, dt / 2.0, stage=2)
        s3 = self._rk_stage(s0, s2, dt, stage=3)

        # Tracer advection: subcycled SSP-RK2, distributed DSS per stage.
        euler_t0s = [self.mpi.now(r) for r in range(self.nranks)]
        sub = self.cfg.tracer_subcycles
        sdt = dt / sub
        for sub_i in range(sub):
            for q in range(self.cfg.qsize):
                # Three exchanges per (subcycle, tracer): st1, st2, limited.
                slot0 = 3 * (sub_i * self.cfg.qsize + q)
                metas = [
                    {"ctx": self._shard_keys[r], "rank": r, "shard": r,
                     "sdt": sdt, "path": self.exec_path}
                    for r in range(self.nranks)
                ]
                st1 = self._dss([o[0] for o in self.engine.run(
                    prim_euler_stage1_task,
                    [(metas[r], (s3[r].qdp[:, q], s3[r].v))
                     for r in range(self.nranks)],
                )], stage=4, slot=slot0)
                st2 = self._dss([o[0] for o in self.engine.run(
                    prim_euler_stage2_task,
                    [(metas[r], (s3[r].qdp[:, q], st1[r], s3[r].v))
                     for r in range(self.nranks)],
                )], stage=4, slot=slot0 + 1)
                # NOTE: the serial limiter's global fixer needs global
                # sums; the distributed form uses an allreduce (on the
                # driver, in fixed rank order — the determinism rule).
                lim = self.engine.run(
                    prim_limit_task,
                    [(metas[r], (st2[r],)) for r in range(self.nranks)],
                )
                limited = [o[0] for o in lim]
                before = self.mpi.allreduce([o[1] for o in lim])
                after = self.mpi.allreduce([o[2] for o in lim])
                with np.errstate(divide="ignore", invalid="ignore"):
                    scale = np.where(after > 0, before / after, 0.0)
                limited = [arr * np.clip(scale, 0.0, None)[None, :, None, None]
                           for arr in limited]
                limited = self._dss(limited, stage=4, slot=slot0 + 2)
                for r in range(self.nranks):
                    s3[r].qdp[:, q] = limited[r]
        if self.tracer.enabled:
            for r in range(self.nranks):
                self.tracer.span_at(
                    rank_track(r), "euler_step", euler_t0s[r], self.mpi.now(r),
                    cat="model", step=self.step_count,
                )

        # Hyperviscosity (single subcycle configuration assumed small dt).
        # Each biharmonic round is one pool dispatch computing all three
        # field laplacians per rank; the DSS rounds between them stay on
        # the driver.  (Values are unchanged from the per-field form —
        # each field's laplacian/DSS chain is independent.)
        hv_t0s = [self.mpi.now(r) for r in range(self.nranks)]
        hv_metas = [
            {"ctx": self._shard_keys[r], "rank": r, "shard": r,
             "path": self.exec_path}
            for r in range(self.nranks)
        ]
        if _pipeline_active(self):
            bih_T, bih_v, bih_dp = self._hypervis_pipelined(s3, hv_metas)
        else:
            lap = self.engine.run(prim_laplace_task, [
                (hv_metas[r], (s3[r].T, s3[r].v, s3[r].dp3d))
                for r in range(self.nranks)
            ])
            lap_T = self._dss([o[0] for o in lap], stage=5, slot=0)
            lap_v = self._dss_vector([o[1] for o in lap], stage=5, slot=1)
            lap_dp = self._dss([o[2] for o in lap], stage=5, slot=2)
            bih = self.engine.run(prim_laplace_task, [
                (hv_metas[r], (lap_T[r], lap_v[r], lap_dp[r]))
                for r in range(self.nranks)
            ])
            bih_T = self._dss([o[0] for o in bih], stage=5, slot=3)
            bih_v = self._dss_vector([o[1] for o in bih], stage=5, slot=4)
            bih_dp = self._dss([o[2] for o in bih], stage=5, slot=5)
        for r in range(self.nranks):
            s3[r].T = s3[r].T - dt * self.nu * bih_T[r]
            s3[r].v = s3[r].v - dt * self.nu * bih_v[r]
            s3[r].dp3d = s3[r].dp3d - dt * self.nu * bih_dp[r]
        if self.tracer.enabled:
            for r in range(self.nranks):
                self.tracer.span_at(
                    rank_track(r), "hypervis", hv_t0s[r], self.mpi.now(r),
                    cat="model", step=self.step_count,
                )

        self.step_count += 1
        if self.step_count % RSPLIT == 0:
            for r in range(self.nranks):
                s3[r] = vertical_remap(s3[r])
            if self.tracer.enabled:
                for r in range(self.nranks):
                    self.tracer.instant(
                        rank_track(r), "vertical_remap", self.mpi.now(r),
                        cat="model", step=self.step_count,
                    )
        self.t += dt
        self.states = s3
        if self.tracer.enabled:
            for r in range(self.nranks):
                self.tracer.span_at(
                    rank_track(r), "step", step_t0s[r], self.mpi.now(r),
                    cat="model", step=self.step_count - 1,
                )

    def run_steps(self, n: int) -> None:
        for _ in range(n):
            self.step()

    def close(self) -> None:
        """Stop the worker pool (if any) and drop every shard context."""
        if self.engine is not SERIAL_ENGINE:
            self.engine.close()
        for key in self._shard_keys:
            unregister_context(key)
        if self._pipe_shard_keys is not None:
            for key in self._pipe_shard_keys:
                unregister_context(key)

    def health(self, monitor=None):
        """Run the health rules over the engine (DESIGN.md §13.4)."""
        return self.engine.health(monitor)

    def __enter__(self) -> "DistributedPrimitiveEquations":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- checkpointing ------------------------------------------------------------

    def snapshot(self) -> dict[str, np.ndarray]:
        """Everything needed to continue the trajectory bitwise."""
        snap: dict[str, np.ndarray] = {
            "meta": np.array([self.t, self.step_count, self._epoch],
                             dtype=np.float64)
        }
        for r, s in enumerate(self.states):
            snap[f"v_{r}"] = s.v.copy()
            snap[f"T_{r}"] = s.T.copy()
            snap[f"dp3d_{r}"] = s.dp3d.copy()
            snap[f"qdp_{r}"] = s.qdp.copy()
        return snap

    def restore_snapshot(self, snap: dict[str, np.ndarray]) -> None:
        """Reset the prognostic state from a :meth:`snapshot` dict.

        The tag epoch strictly increases (never restored) and pending
        messages are purged, so a replayed step cannot match stale
        in-flight traffic from an aborted attempt.
        """
        if f"T_{self.nranks - 1}" not in snap or f"T_{self.nranks}" in snap:
            raise KernelError("snapshot rank count does not match this model")
        t, steps, _epoch = (float(x) for x in snap["meta"])
        self.t = t
        self.step_count = int(steps)
        self._epoch += 1
        self.mpi.purge_pending()
        for r, s in enumerate(self.states):
            s.v = snap[f"v_{r}"].copy()
            s.T = snap[f"T_{r}"].copy()
            s.dp3d = snap[f"dp3d_{r}"].copy()
            s.qdp = snap[f"qdp_{r}"].copy()

    def gather_state(self):
        from .element import ElementState

        return ElementState(
            v=self.hx.gather([s.v for s in self.states]),
            T=self.hx.gather([s.T for s in self.states]),
            dp3d=self.hx.gather([s.dp3d for s in self.states]),
            qdp=self.hx.gather([s.qdp for s in self.states]),
        )

    def max_rank_time(self) -> float:
        return self.mpi.max_time()
