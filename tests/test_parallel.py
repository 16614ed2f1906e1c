"""Tests for ``repro.parallel``: the real multi-core execution engine.

The contract under test (DESIGN.md §10): workers compute independent
units, every combine happens on the driver in fixed rank/chunk order,
and therefore parallel execution is **bitwise identical** to serial —
on the engine's raw task interface, on the chunked HOMME kernels, and
on whole distributed-model trajectories.
"""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import KernelError
from repro.homme.distributed import (
    DistributedPrimitiveEquations,
    DistributedShallowWater,
)
from repro.homme.element import ElementGeometry, ElementState
from repro.mesh.cubed_sphere import CubedSphereMesh
from repro.obs import MetricsRegistry, Tracer, collect_parallel_engine
from repro.parallel import (
    SERIAL_ENGINE,
    ParallelEngine,
    ParallelError,
    available_cores,
    context_nbytes,
    cross_validate_parallel,
    parallel_homme_execution,
    register_context,
    unregister_context,
    worker_track,
)
from repro.parallel.engine import PIPELINE_BANKS, _ping_task


def _boom_task(meta, arr):
    raise RuntimeError("intentional task failure")


def _sleepy_task(meta, arr):
    import time

    time.sleep(meta.get("sleep", 0.0))
    return (arr + 1.0,)


def _nan_task(meta, arr):
    out = arr.copy()
    out[0] = np.nan
    return (out,)


def _sleep_once_task(meta, arr):
    """Sleeps long on its first execution only (flag file marks it),
    modeling a one-off stall the supervisor must recover from."""
    import os
    import time

    if not os.path.exists(meta["flag"]):
        open(meta["flag"], "w").close()
        time.sleep(meta["sleep"])
    return (arr + 1.0,)


def _noisy_prim_state(ne=4, nlev=8, qsize=2, seed=7):
    mesh = CubedSphereMesh(ne, 4)
    geom = ElementGeometry(mesh)
    cfg = ModelConfig(ne=ne, nlev=nlev, qsize=qsize)
    state = ElementState.isothermal_rest(geom, cfg)
    rng = np.random.default_rng(seed)
    state.v += 1e-5 * rng.standard_normal(state.v.shape)
    state.T += rng.standard_normal(state.T.shape)
    state.qdp[:] = (0.5 + rng.random(state.qdp.shape)) * state.dp3d[:, None]
    return cfg, mesh, geom, state


class TestEngineBasics:
    def test_available_cores_positive(self):
        assert available_cores() >= 1

    def test_worker_track_names(self):
        assert worker_track(3) == "worker/3"

    def test_serial_engine_never_starts_processes(self):
        assert SERIAL_ENGINE.workers == 0
        assert not SERIAL_ENGINE.active
        outs = SERIAL_ENGINE.run(
            _ping_task, [({"add": 2.0}, (np.arange(3.0),))]
        )
        assert np.array_equal(outs[0][0], np.arange(3.0) + 2.0)

    def test_results_in_payload_order(self):
        with ParallelEngine(workers=2) as e:
            assert e.active, e.fallback_reason
            for _ in range(3):  # block reuse across calls
                outs = e.run(_ping_task, [
                    ({"add": float(i)}, (np.arange(5.0),)) for i in range(7)
                ])
                for i, (out,) in enumerate(outs):
                    assert np.array_equal(out, np.arange(5.0) + i)

    def test_task_error_propagates(self):
        with ParallelEngine(workers=2) as e:
            with pytest.raises(KernelError, match="intentional task failure"):
                e.run(_boom_task, [({}, (np.arange(3.0),))])
            assert e.active  # a task bug is not pool death

    def test_pool_start_failure_falls_back_to_serial(self, monkeypatch):
        def broken_ping(self):
            raise KernelError("simulated startup failure")

        monkeypatch.setattr(ParallelEngine, "_ping", broken_ping)
        e = ParallelEngine(workers=2)
        assert not e.active
        assert "startup failure" in e.fallback_reason
        outs = e.run(_ping_task, [({"add": 1.0}, (np.arange(4.0),))])
        assert np.array_equal(outs[0][0], np.arange(4.0) + 1.0)
        e.close()

    def test_validate_flag_recomputes_and_passes(self):
        with ParallelEngine(workers=2, validate=True) as e:
            e.run(_ping_task, [({"add": 0.5}, (np.arange(6.0),))])
            assert e.validations == 1

    def test_close_is_idempotent_and_describe_reports(self):
        e = ParallelEngine(workers=2)
        desc = e.describe()
        assert desc["workers"] == 2 and desc["active"]
        assert len(desc["per_worker"]) == 2
        e.close()
        e.close()
        assert not e.active


class TestSelfHealing:
    """The supervision layer's engine-level behaviour (DESIGN.md §12);
    whole-trajectory chaos scenarios live in test_chaos.py."""

    def test_close_with_outstanding_pending_is_leak_free(self):
        """Satellite: closing an engine with a batch still in flight
        must strand no shared-memory block (resource-tracker
        assertion), and the PendingRun still completes serially."""
        e = ParallelEngine(workers=2)
        pend = e.submit(_ping_task, [
            ({"add": float(i)}, (np.arange(4.0),)) for i in range(3)
        ])
        e.close()
        assert e.leaked_shm() == []
        e.close()  # idempotent
        e.__del__()  # after close: a no-op, not a crash
        for i, (out,) in enumerate(pend.wait()):
            assert np.array_equal(out, np.arange(4.0) + i)
        assert not e.active

    def test_del_without_close_releases_blocks(self):
        e = ParallelEngine(workers=2)
        e.run(_ping_task, [({"add": 1.0}, (np.arange(8.0),))] * 3)
        owned = set(e._owned_shm)
        assert owned  # heartbeat block + input blocks
        e.__del__()
        assert e.leaked_shm() == []

    def test_unsupervised_result_timeout_degrades_whole_pool(self):
        """Satellite: the legacy mid-batch RESULT_TIMEOUT path — with
        supervision off, an overdue batch is pool death, and the call
        completes serially."""
        with ParallelEngine(workers=2, supervise=False,
                            result_timeout=0.5) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            outs = e.run(_sleepy_task, [({"sleep": 2.0}, (np.arange(3.0),))])
            assert np.array_equal(outs[0][0], np.arange(3.0) + 1.0)
            assert not e.active
            assert "timed out" in e.fallback_reason
            assert e.degrade_kinds.get("timeout") == 1
            assert e.recovery["pool_degrades"] == 1

    def test_supervised_overdue_result_recovers_without_degrade(self, tmp_path):
        """The same overdue batch under supervision: the stalled worker
        is killed mid-sleep and its task re-issued (the re-execution
        runs clean) — the pool survives."""
        with ParallelEngine(workers=2, result_timeout=1.0) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            meta = {"flag": str(tmp_path / "stalled"), "sleep": 60.0}
            outs = e.run(_sleep_once_task, [(meta, (np.arange(3.0),))])
            assert np.array_equal(outs[0][0], np.arange(3.0) + 1.0)
            assert e.active
            assert e.recovery["timeouts"] >= 1
            assert e.recovery["respawns"] >= 1
            assert e.recovery["pool_degrades"] == 0

    def test_stale_result_after_recovery_is_dropped(self):
        """Satellite: _route must drop results whose task id is no
        longer tracked (a batch already degraded or re-issued)."""
        from repro.parallel.supervisor import result_crc

        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            before = e.tasks_parallel
            data = (np.zeros(3),)
            e._route((10_000, 0, "ok", data, result_crc(data),
                      0.0, 0.0, "stale"))
            assert e.tasks_parallel == before  # silently dropped
            outs = e.run(_ping_task, [({"add": 1.0}, (np.arange(3.0),))])
            assert np.array_equal(outs[0][0], np.arange(3.0) + 1.0)

    def test_startup_degrade_reason_is_labelled(self, monkeypatch):
        """Satellite: degrade reasons become labelled counters in
        describe() and metrics, not just a last-reason string."""
        def broken_ping(self):
            raise KernelError("simulated startup failure")

        monkeypatch.setattr(ParallelEngine, "_ping", broken_ping)
        e = ParallelEngine(workers=2)
        assert e.degrade_kinds == {"startup": 1}
        assert e.describe()["degrade_reasons"] == {"startup": 1}
        reg = collect_parallel_engine(MetricsRegistry("par"), e)
        assert reg.value("parallel.degrade.reason.startup") == 1
        e.close()

    def test_nonfinite_guard_reexecutes_then_accepts(self):
        """A NaN result is re-executed once; a *recomputed* NaN is the
        function's true output and must be accepted (serial would
        produce it too) — no infinite re-execution loop."""
        with ParallelEngine(workers=2, guard_nonfinite=True) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            (out,), = e.run(_nan_task, [({}, (np.arange(3.0),))])
            assert np.isnan(out[0])
            assert e.recovery["nonfinite_results"] == 1
            assert e.recovery["reexecuted_tasks"] == 1
            assert e.active

    def test_respawn_budget_exhaustion_degrades(self):
        """Recovery gives up when the machine looks sick: respawn
        budget 0 turns the first crash into a whole-pool degrade, and
        the batch still completes serially."""
        from repro.parallel import ChaosSpec

        spec = ChaosSpec(kill_tasks=(2,))  # first post-ping task
        with ParallelEngine(workers=2, chaos=spec, max_respawns=0) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            outs = e.run(_ping_task, [
                ({"add": float(i)}, (np.arange(4.0),)) for i in range(4)
            ])
            for i, (out,) in enumerate(outs):
                assert np.array_equal(out, np.arange(4.0) + i)
            assert not e.active
            assert e.degrade_kinds.get("respawn-budget") == 1
            assert e.recovery["crashes"] >= 1
            assert e.recovery["respawns"] == 0
        assert e.leaked_shm() == []

    def test_recovery_metrics_all_keys_present(self):
        with ParallelEngine(workers=2) as e:
            reg = collect_parallel_engine(MetricsRegistry("par"), e)
        for key in ("respawns", "crashes", "hangs", "timeouts",
                    "redistributed_tasks", "reexecuted_tasks",
                    "corrupt_results", "nonfinite_results",
                    "pool_degrades"):
            assert reg.value(f"parallel.recovery.{key}") == 0


class TestPipelineSubmit:
    def test_two_outstanding_batches_any_wait_order(self):
        """submit/wait with both banks in flight: results stay in
        payload order regardless of collection order."""
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            p1 = e.submit(_ping_task, [
                ({"add": float(i)}, (np.arange(4.0),)) for i in range(3)
            ])
            p2 = e.submit(_ping_task, [
                ({"add": 10.0 + i}, (np.arange(4.0),)) for i in range(2)
            ])
            r2 = p2.wait()  # out of submit order: routes p1's results too
            r1 = p1.wait()
            for i, (out,) in enumerate(r1):
                assert np.array_equal(out, np.arange(4.0) + i)
            for i, (out,) in enumerate(r2):
                assert np.array_equal(out, np.arange(4.0) + 10.0 + i)
            assert e.pipeline_batches >= 1  # p2 overlapped p1
            assert e.pipeline_max_depth >= 5  # 3 + 2 tasks in flight

    def test_depth_beyond_banks_raises(self):
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            pends = [
                e.submit(_ping_task, [({"add": 1.0}, (np.arange(2.0),))])
                for _ in range(PIPELINE_BANKS)
            ]
            with pytest.raises(KernelError, match="pipeline depth"):
                e.submit(_ping_task, [({"add": 1.0}, (np.arange(2.0),))])
            for p in pends:
                p.wait()

    def test_inactive_engine_submit_finishes_serially(self):
        e = ParallelEngine(workers=0)
        pend = e.submit(_ping_task, [({"add": 3.0}, (np.arange(4.0),))])
        assert not pend.parallel
        (out,), = pend.wait()
        assert np.array_equal(out, np.arange(4.0) + 3.0)
        assert e.tasks_serial == 1

    def test_double_wait_raises(self):
        e = ParallelEngine(workers=0)
        pend = e.submit(_ping_task, [({"add": 1.0}, (np.arange(2.0),))])
        pend.wait()
        with pytest.raises(KernelError, match="twice"):
            pend.wait()

    def test_overlap_metrics_populated(self):
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            p1 = e.submit(_ping_task, [({"add": 1.0}, (np.arange(64.0),))] * 2)
            p2 = e.submit(_ping_task, [({"add": 2.0}, (np.arange(64.0),))] * 2)
            p1.wait()
            p2.wait()
            assert e.pipeline_batches == 1
            assert e.pipeline_overlap_seconds > 0.0
            assert 0.0 <= e.overlap_fraction() <= 1.0
            desc = e.describe()["pipeline"]
            assert desc["batches"] == 1
            assert desc["max_depth"] >= 2

    def test_submit_task_error_raised_at_wait(self):
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            pend = e.submit(_boom_task, [({}, (np.arange(3.0),))])
            with pytest.raises(KernelError, match="intentional task failure"):
                pend.wait()
            assert e.active  # a task bug is not pool death


class TestBoundaryInnerSplit:
    def test_split_merge_local_round_trip(self):
        """merge_local(split_local(f)) is the identity — the scatter
        that makes pipelined reassembly byte-exact."""
        from repro.homme.bndry import HaloExchanger
        from repro.mesh.partition import SFCPartition

        mesh = CubedSphereMesh(4, 4)
        part = SFCPartition(mesh.ne, 4)
        hx = HaloExchanger(mesh, part)
        rng = np.random.default_rng(3)
        for r in range(4):
            nel = len(part.rank_elements(r))
            f = rng.standard_normal((nel, 4, 4))
            boundary, inner = hx.split_local(r, f)
            assert len(boundary) + len(inner) == nel
            assert len(boundary) == len(hx.local_boundary_idx[r])
            out = hx.merge_local(r, boundary, inner)
            assert out.dtype == f.dtype
            assert np.array_equal(out, f)


class TestChunkedKernels:
    def test_cross_validate_parallel_is_bitwise(self):
        _, _, geom, state = _noisy_prim_state()
        errs = cross_validate_parallel(state, geom, workers=2)
        assert errs and max(errs.values()) == 0.0

    @pytest.mark.parametrize("path", ["fused", "batched"])
    def test_cross_validate_parallel_per_path(self, path):
        """Chunks compare against the same path's serial kernels."""
        _, _, geom, state = _noisy_prim_state()
        errs = cross_validate_parallel(state, geom, workers=2, exec_path=path)
        assert set(errs) >= {"compute_rhs.dT", "sw_rhs.dh", "vlaplace.v"}
        assert max(errs.values()) == 0.0

    def test_parallel_homme_execution_shapes(self):
        _, _, geom, state = _noisy_prim_state()
        ex, kernels = parallel_homme_execution(geom, workers=2)
        try:
            dv, dT, ddp = ex.compute_rhs(state, geom)
            assert dv.shape == state.v.shape
            assert dT.shape == state.T.shape
            assert ddp.shape == state.dp3d.shape
            lap = ex.laplace_wk(state.T, geom)
            assert lap.shape == state.T.shape
        finally:
            kernels.close()


class TestDistributedBitwise:
    def test_sw_ne8_workers2_matches_serial_bitwise(self):
        """Acceptance criterion: ne8 shallow water, parallel == serial
        to the last bit (validate=True additionally asserts it on every
        pool dispatch)."""
        mesh = CubedSphereMesh(8, 4)
        with DistributedShallowWater(mesh, nranks=4) as ser, \
                DistributedShallowWater(mesh, nranks=4, workers=2,
                                        validate=True) as par:
            ser.run_steps(2)
            par.run_steps(2)
            gs, gp = ser.gather_state(), par.gather_state()
            assert np.array_equal(gs.h, gp.h)
            assert np.array_equal(gs.v, gp.v)
            # Simulated clocks are the timing model either way.
            assert ser.max_rank_time() == par.max_rank_time()
            if par.engine.active:
                assert par.engine.tasks_parallel > 0

    def test_prim_ne4_workers2_matches_serial_bitwise(self):
        """Acceptance criterion: ne4 primitive equations, parallel ==
        serial to the last bit across all prognostic fields."""
        cfg, mesh, _, state = _noisy_prim_state()
        with DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0) as ser, \
            DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0, workers=2,
                validate=True) as par:
            ser.run_steps(2)
            par.run_steps(2)
            gs, gp = ser.gather_state(), par.gather_state()
            for f in ("v", "T", "dp3d", "qdp"):
                assert np.array_equal(getattr(gs, f), getattr(gp, f)), f
            assert ser.max_rank_time() == par.max_rank_time()

    def test_prim_snapshot_restore_under_parallel_engine(self):
        """Satellite: snapshot()/restore_snapshot() round-trip with
        workers=2 reproduces the serial trajectory bitwise — including
        across the rsplit remap boundary."""
        cfg, mesh, _, state = _noisy_prim_state()
        with DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0) as ser, \
            DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0, workers=2) as par:
            ser.run_steps(4)
            par.run_steps(1)
            snap = par.snapshot()
            par.run_steps(1)  # diverge past the snapshot...
            par.restore_snapshot(snap)  # ...and rewind
            par.run_steps(3)
            gs, gp = ser.gather_state(), par.gather_state()
            for f in ("v", "T", "dp3d", "qdp"):
                assert np.array_equal(getattr(gs, f), getattr(gp, f)), f

    def test_sw_ne8_pipelined_matches_serial_bitwise(self):
        """Acceptance criterion: the pipelined mode (boundary/inner
        split dispatch, combines overlapped with worker compute) is
        bitwise identical to serial — validate=True additionally
        recomputes every batch on the driver and compares bitwise."""
        mesh = CubedSphereMesh(8, 4)
        with DistributedShallowWater(mesh, nranks=4) as ser, \
                DistributedShallowWater(mesh, nranks=4, workers=2,
                                        validate=True, pipeline=True) as pip:
            ser.run_steps(2)
            pip.run_steps(2)
            gs, gp = ser.gather_state(), pip.gather_state()
            assert np.array_equal(gs.h, gp.h)
            assert np.array_equal(gs.v, gp.v)
            # Pipelining changes wall time only, never simulated clocks.
            assert ser.max_rank_time() == pip.max_rank_time()
            if pip.engine.active:
                assert pip.engine.pipeline_batches > 0
                assert pip.engine.pipeline_overlap_seconds > 0.0

    def test_prim_ne4_pipelined_matches_serial_bitwise(self):
        """Pipelined primitive equations — split RK fanout plus the
        per-field depth-2 hyperviscosity chain — bitwise vs serial."""
        cfg, mesh, _, state = _noisy_prim_state()
        with DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0) as ser, \
            DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0, workers=2,
                validate=True, pipeline=True) as pip:
            ser.run_steps(2)
            pip.run_steps(2)
            gs, gp = ser.gather_state(), pip.gather_state()
            for f in ("v", "T", "dp3d", "qdp"):
                assert np.array_equal(getattr(gs, f), getattr(gp, f)), f
            assert ser.max_rank_time() == pip.max_rank_time()

    def test_prim_snapshot_restore_under_pipeline(self):
        """snapshot()/restore_snapshot() round-trip stays bitwise under
        pipelined execution, across the rsplit remap boundary."""
        cfg, mesh, _, state = _noisy_prim_state()
        with DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0) as ser, \
            DistributedPrimitiveEquations(
                cfg, mesh, state, nranks=4, dt=30.0, workers=2,
                pipeline=True) as pip:
            ser.run_steps(4)
            pip.run_steps(1)
            snap = pip.snapshot()
            pip.run_steps(1)  # diverge past the snapshot...
            pip.restore_snapshot(snap)  # ...and rewind
            pip.run_steps(3)
            gs, gp = ser.gather_state(), pip.gather_state()
            for f in ("v", "T", "dp3d", "qdp"):
                assert np.array_equal(getattr(gs, f), getattr(gp, f)), f

    def test_serial_workers_knob_is_default_path(self):
        mesh = CubedSphereMesh(4, 4)
        with DistributedShallowWater(mesh, nranks=2) as m:
            assert m.engine is SERIAL_ENGINE
            m.step()


class TestObservability:
    def test_metrics_collected_per_worker(self):
        with ParallelEngine(workers=2) as e:
            e.run(_ping_task, [({"add": 1.0}, (np.arange(8.0),))] * 4)
            was_active = e.active
            reg = collect_parallel_engine(MetricsRegistry("par"), e)
        assert reg.value("parallel.workers") == 2
        assert reg.value("parallel.tasks.parallel") == e.tasks_parallel
        total = sum(
            reg.value(f"parallel.worker.{w}.tasks") for w in range(2)
        )
        assert total >= 4  # ping tasks included
        assert reg.value("parallel.active") == (1.0 if was_active else 0.0)

    def test_pipeline_metrics_collected(self):
        with ParallelEngine(workers=2) as e:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            p1 = e.submit(_ping_task, [({"add": 1.0}, (np.arange(8.0),))] * 2)
            p2 = e.submit(_ping_task, [({"add": 2.0}, (np.arange(8.0),))] * 2)
            p1.wait()
            p2.wait()
            reg = collect_parallel_engine(MetricsRegistry("par"), e)
        assert reg.value("parallel.pipeline.batches") == e.pipeline_batches
        assert reg.value("parallel.pipeline.max_depth") == e.pipeline_max_depth
        assert reg.value("parallel.pipeline.overlap_seconds") > 0.0
        assert 0.0 <= reg.value("parallel.pipeline.overlap_fraction") <= 1.0

    def test_pipeline_spans_land_on_pipeline_track(self):
        tracer = Tracer("pipeline-test")
        e = ParallelEngine(workers=2, tracer=tracer)
        try:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            p1 = e.submit(_ping_task, [({"add": 1.0}, (np.arange(4.0),))] * 2)
            p2 = e.submit(_ping_task, [({"add": 2.0}, (np.arange(4.0),))] * 2)
            p1.wait()
            p2.wait()
            tracks = {ev.track for ev in tracer.recorder.events}
            assert "pipeline" in tracks
        finally:
            e.close()

    def test_worker_spans_land_on_worker_tracks(self):
        tracer = Tracer("parallel-test")
        e = ParallelEngine(workers=2, tracer=tracer)
        try:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            e.run(_ping_task, [({"add": 1.0}, (np.arange(4.0),))] * 3)
            tracks = {ev.track for ev in tracer.recorder.events}
            assert tracks & {worker_track(0), worker_track(1)}
        finally:
            e.close()


class TestShardedContexts:
    """Sharded geometry ownership (DESIGN.md §15): per-shard context
    registry entries, shard-affinity dispatch, fork-snapshot guards,
    and the per-worker memory accounting."""

    def test_register_overwrite_while_pool_live_raises(self):
        key = register_context("test-ctx/overwrite", np.arange(4.0))
        try:
            with ParallelEngine(workers=2) as e:
                if not e.active:
                    pytest.skip(f"pool unavailable: {e.fallback_reason}")
                with pytest.raises(ParallelError, match="overwrite"):
                    register_context(key, np.arange(8.0))
            # Pool closed: overwriting is allowed again.
            register_context(key, np.arange(8.0))
        finally:
            unregister_context(key)

    def test_dispatch_of_post_fork_context_raises(self):
        e = ParallelEngine(workers=2)
        key = None
        try:
            if not e.active:
                pytest.skip(f"pool unavailable: {e.fallback_reason}")
            key = register_context("test-ctx/post-fork", np.arange(4.0))
            with pytest.raises(ParallelError, match="after engine"):
                e.run(_ping_task, [({"add": 1.0, "ctx": key},
                                    (np.arange(3.0),))])
        finally:
            e.close()
            if key is not None:
                unregister_context(key)

    def test_new_key_for_fresh_engine_is_allowed_while_pool_live(self):
        # The legitimate multi-engine pattern: registering a *new* key
        # while another engine's pool is live is fine — the engine that
        # uses it forks later and inherits the entry.
        with ParallelEngine(workers=2, label="first") as first:
            if not first.active:
                pytest.skip(f"pool unavailable: {first.fallback_reason}")
            key = register_context("test-ctx/fresh", np.arange(16.0))
            try:
                with ParallelEngine(workers=2, label="second") as second:
                    if not second.active:
                        pytest.skip(
                            f"pool unavailable: {second.fallback_reason}")
                    outs = second.run(
                        _ping_task,
                        [({"add": 1.0, "ctx": key}, (np.arange(3.0),))],
                    )
                    assert np.array_equal(outs[0][0], np.arange(3.0) + 1.0)
            finally:
                unregister_context(key)

    def test_sharded_sw_context_accounting(self):
        mesh = CubedSphereMesh(4, 4)
        model = DistributedShallowWater(mesh, nranks=4, workers=2)
        try:
            if not model.engine.active:
                pytest.skip(
                    f"pool unavailable: {model.engine.fallback_reason}")
            model.step()
            per_slot = model.engine.context_keys_by_slot
            assert len(per_slot) == 2
            # Shard affinity: each worker touched only its own shards.
            all_keys = [k for keys in per_slot.values() for k in keys]
            assert len(all_keys) == len(set(all_keys))
            peak = model.engine.peak_context_bytes()
            total = model.engine.total_context_bytes()
            assert 0 < peak < total
            desc = model.engine.describe()
            assert desc["context"]["peak_bytes"] == peak
            assert desc["context"]["total_bytes"] == total
        finally:
            model.close()

    def test_task_geom_resolves_shard_and_legacy_list(self):
        from repro.parallel.dycore import _task_geom

        items = ["a", "b", "c"]
        key_list = register_context("test-ctx/legacy-list", items)
        key_item = register_context("test-ctx/shard-item", "solo")
        try:
            assert _task_geom({"ctx": key_list, "rank": 1}) == "b"
            assert _task_geom({"ctx": key_list, "chunk": 2},
                              index_key="chunk") == "c"
            assert _task_geom({"ctx": key_item, "rank": 0}) == "solo"
        finally:
            unregister_context(key_list)
            unregister_context(key_item)

    def test_context_nbytes_counts_arrays_once(self):
        arr = np.zeros(128)
        obj = {"a": arr, "b": arr, "nested": [arr, np.ones(16)]}
        # Deduplicated by id: the shared array counts once.
        assert context_nbytes(obj) == arr.nbytes + np.ones(16).nbytes
