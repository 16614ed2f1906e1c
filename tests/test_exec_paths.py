"""Cross-validation of the batched vs looped execution paths, and the
operator-tensor cache invalidation contract.

The batched path is only trusted because every dispatchable kernel
agrees with its per-element looped twin to 1e-12 on the same inputs —
random states, analytic shallow-water states, and full timestep
trajectories.  The tensor cache is only trusted because mutating the
geometry's metric terms demonstrably never serves stale tensors.
"""

import numpy as np
import pytest

from repro.backends.functional_exec import (
    EXECUTION_PATHS,
    cross_validate_paths,
    homme_execution,
)
from repro.config import ModelConfig
from repro.errors import KernelError
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.euler import euler_step, limit_qdp, tracer_mass
from repro.homme.shallow_water import (
    ShallowWaterModel,
    rossby_haurwitz_initial,
    williamson2_initial,
)
from repro.homme.timestep import PrimitiveEquationModel
from repro.mesh.cubed_sphere import CubedSphereMesh

RTOL = 1e-12


@pytest.fixture(scope="module")
def mesh4():
    return CubedSphereMesh(4, 4)


@pytest.fixture(scope="module")
def prim_setup(mesh4):
    geom = ElementGeometry(mesh4)
    cfg = ModelConfig(ne=4, nlev=6, qsize=3)
    state = ElementState.isothermal_rest(geom, cfg)
    rng = np.random.default_rng(42)
    state.v += 1e-5 * rng.standard_normal(state.v.shape)
    state.T += rng.standard_normal(state.T.shape)
    state.qdp[:] = (0.5 + rng.random(state.qdp.shape)) * state.dp3d[:, None]
    return cfg, geom, state


def rel_err(a, b):
    scale = max(float(np.max(np.abs(a))), 1e-300)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / scale


class TestDispatch:
    def test_registry_has_all_paths(self):
        assert set(EXECUTION_PATHS) == {"batched", "looped", "fused"}
        for ex in EXECUTION_PATHS.values():
            assert callable(ex.compute_rhs) and callable(ex.sw_rhs)

    def test_unknown_path_rejected(self):
        with pytest.raises(KernelError, match="unknown execution path"):
            homme_execution("vectorized")

    def test_sw_model_unknown_path_rejected(self, mesh4):
        with pytest.raises(ValueError, match="unknown exec_path"):
            ShallowWaterModel(mesh4, exec_path="gpu")


class TestCrossValidation:
    def test_random_state_all_kernels(self, prim_setup):
        _, geom, state = prim_setup
        errs = cross_validate_paths(state, geom, rtol=RTOL)
        assert max(errs.values()) <= RTOL

    def test_random_state_with_topography(self, prim_setup):
        _, geom, state = prim_setup
        rng = np.random.default_rng(3)
        phis = 100.0 * rng.random((geom.nelem, geom.np, geom.np))
        errs = cross_validate_paths(state, geom, phis=phis, rtol=RTOL)
        assert max(errs.values()) <= RTOL

    @pytest.mark.parametrize("init", [williamson2_initial, rossby_haurwitz_initial])
    def test_shallow_water_rhs(self, mesh4, init):
        geom = ElementGeometry(mesh4)
        s = init(mesh4)
        b = homme_execution("batched")
        lo = homme_execution("looped")
        dh_b, dv_b = b.sw_rhs(s.h, s.v, geom)
        dh_l, dv_l = lo.sw_rhs(s.h, s.v, geom)
        assert rel_err(dh_b, dh_l) <= RTOL
        assert rel_err(dv_b, dv_l) <= RTOL

    def test_euler_step_batched_vs_looped(self, prim_setup):
        _, geom, state = prim_setup
        out_b = euler_step(state, geom, 60.0, path="batched")
        out_l = euler_step(state, geom, 60.0, path="looped")
        assert rel_err(out_b, out_l) <= RTOL

    def test_euler_step_no_limiter(self, prim_setup):
        _, geom, state = prim_setup
        out_b = euler_step(state, geom, 60.0, limiter=False, path="batched")
        out_l = euler_step(state, geom, 60.0, limiter=False, path="looped")
        assert rel_err(out_b, out_l) <= RTOL

    def test_euler_unknown_path_rejected(self, prim_setup):
        _, geom, state = prim_setup
        with pytest.raises(KernelError, match="unknown euler path"):
            euler_step(state, geom, 60.0, path="simd")

    def test_batched_euler_mass_matches_looped(self, prim_setup):
        # Whatever mass behavior the limiter has (the random state here
        # is deliberately rough), batching must not change it: the two
        # paths produce the same per-tracer mass to roundoff.
        _, geom, state = prim_setup
        m_b = tracer_mass(euler_step(state, geom, 60.0, path="batched"), geom)
        m_l = tracer_mass(euler_step(state, geom, 60.0, path="looped"), geom)
        np.testing.assert_allclose(m_b, m_l, rtol=1e-12)

    def test_limiter_rank5_matches_per_tracer(self, prim_setup):
        _, geom, state = prim_setup
        dirty = state.qdp - 0.6 * np.mean(state.qdp)
        all_at_once = limit_qdp(dirty, geom)
        per_tracer = np.stack(
            [limit_qdp(dirty[:, q], geom) for q in range(dirty.shape[1])], axis=1
        )
        assert rel_err(all_at_once, per_tracer) <= RTOL

    def test_sw_step_trajectories_agree(self, mesh4):
        mb = ShallowWaterModel(mesh4, exec_path="batched")
        ml = ShallowWaterModel(mesh4, exec_path="looped")
        for _ in range(3):
            mb.step()
            ml.step()
        assert rel_err(mb.state.h, ml.state.h) <= RTOL
        assert rel_err(mb.state.v, ml.state.v) <= RTOL

    def test_prim_model_trajectories_agree(self, mesh4, prim_setup):
        cfg, _, state = prim_setup
        mb = PrimitiveEquationModel(
            cfg, mesh=mesh4, init=state.copy(), dt=300.0, exec_path="batched"
        )
        ml = PrimitiveEquationModel(
            cfg, mesh=mesh4, init=state.copy(), dt=300.0, exec_path="looped"
        )
        mb.run_steps(2)
        ml.run_steps(2)
        assert rel_err(mb.state.T, ml.state.T) <= RTOL
        assert rel_err(mb.state.v, ml.state.v) <= RTOL
        assert rel_err(mb.state.dp3d, ml.state.dp3d) <= RTOL
        assert rel_err(mb.state.qdp, ml.state.qdp) <= RTOL


class TestTensorCache:
    def test_tensors_are_memoized(self, mesh4):
        geom = ElementGeometry(mesh4)
        t1 = geom.tensors
        t2 = geom.tensors
        assert t1 is t2

    def test_mutating_metric_terms_rebuilds(self, mesh4):
        geom = ElementGeometry(mesh4)
        f = np.sin(geom.lat)
        from repro.homme import operators as op

        before = op.laplace_sphere_wk(f, geom)
        assert np.max(np.abs(before)) > 0
        old = geom.tensors
        # Double spheremp in place: the weak Laplacian divides by it,
        # so a fresh tensor bundle must exactly halve the result —
        # serving the stale bundle would leave it unchanged.
        geom.spheremp *= 2.0
        new = geom.tensors
        assert new is not old
        assert new.token != old.token
        np.testing.assert_allclose(new.inv_spheremp, 1.0 / geom.spheremp)
        after = op.laplace_sphere_wk(f, geom)
        np.testing.assert_allclose(after, 0.5 * before, rtol=1e-12)

    def test_mutation_visible_through_element_views(self, mesh4):
        geom = ElementGeometry(mesh4)
        view = geom.element_view(5)
        tok = view.tensors.token
        geom.met[5] *= 1.5
        assert view.tensors.token != tok  # view shares parent memory

    def test_explicit_invalidation(self, mesh4):
        geom = ElementGeometry(mesh4)
        t1 = geom.tensors
        geom.invalidate_tensors()
        assert geom.tensors is not t1

    def test_cache_contents_match_geometry(self, mesh4):
        geom = ElementGeometry(mesh4)
        t = geom.tensors
        np.testing.assert_array_equal(t.Dt, geom.D.T)
        np.testing.assert_allclose(t.inv_jac * geom.jac, 1.0)
        np.testing.assert_array_equal(t.met01, geom.met[..., 0, 1])
        np.testing.assert_array_equal(t.metinv11, geom.metinv[..., 1, 1])
        np.testing.assert_allclose(t.inv_spheremp * geom.spheremp, 1.0)

    def test_fused_operands_memoized_per_dtype(self, mesh4):
        geom = ElementGeometry(mesh4)
        t = geom.tensors
        f64 = t.fused(np.float64)
        f32 = t.fused(np.float32)
        assert t.fused(np.float64) is f64
        assert t.fused(np.float32) is f32
        assert f64 is not f32
        assert f64.D.dtype == np.float64 and f32.D.dtype == np.float32
        # Unsupported dtypes fall back to the float64 bundle.
        assert t.fused(np.int64) is f64

    def test_fused_operands_fold_correctly(self, mesh4):
        geom = ElementGeometry(mesh4)
        t = geom.tensors
        f = t.fused()
        np.testing.assert_allclose(f.mi01j, t.metinv01 * t.inv_jac)
        np.testing.assert_allclose(f.wk11, t.wk_fac * t.metinv11 * t.inv_jac)
        np.testing.assert_allclose(f.wk_out, -(t.inv_jac * t.inv_spheremp))
        np.testing.assert_allclose(f.imdj, t.inv_metdet * t.inv_jac)

    def test_fused_operands_invalidate_with_geometry(self, mesh4):
        from repro.homme.fused import laplace_sphere_wk_fused

        geom = ElementGeometry(mesh4)
        field = np.sin(geom.lat)
        before = laplace_sphere_wk_fused(field, geom)
        geom.spheremp *= 2.0
        after = laplace_sphere_wk_fused(field, geom)
        np.testing.assert_allclose(after, 0.5 * before, rtol=1e-12)
        geom.spheremp /= 2.0


class TestFusedPath:
    """The fused contraction path: 1e-12 against batched everywhere, and
    the float32 compute mode within single-precision tolerance of
    float64 (ISSUE 9 acceptance criteria)."""

    def test_fused_kernels_match_batched(self, prim_setup):
        _, geom, state = prim_setup
        errs = cross_validate_paths(state, geom, rtol=RTOL, paths=("fused",))
        assert max(errs.values()) <= RTOL

    def test_fused_kernels_with_topography(self, prim_setup):
        _, geom, state = prim_setup
        rng = np.random.default_rng(7)
        phis = 100.0 * rng.random((geom.nelem, geom.np, geom.np))
        errs = cross_validate_paths(
            state, geom, phis=phis, rtol=RTOL, paths=("fused",)
        )
        assert max(errs.values()) <= RTOL

    @pytest.mark.parametrize("init", [williamson2_initial, rossby_haurwitz_initial])
    def test_fused_sw_rhs(self, mesh4, init):
        geom = ElementGeometry(mesh4)
        s = init(mesh4)
        b = homme_execution("batched")
        fz = homme_execution("fused")
        dh_b, dv_b = b.sw_rhs(s.h, s.v, geom)
        dh_f, dv_f = fz.sw_rhs(s.h, s.v, geom)
        assert rel_err(dh_b, dh_f) <= RTOL
        assert rel_err(dv_b, dv_f) <= RTOL

    @pytest.mark.parametrize("limiter", [True, False])
    def test_fused_euler_step(self, prim_setup, limiter):
        _, geom, state = prim_setup
        out_b = euler_step(state, geom, 60.0, limiter=limiter, path="batched")
        out_f = euler_step(state, geom, 60.0, limiter=limiter, path="fused")
        assert rel_err(out_b, out_f) <= RTOL

    @pytest.mark.parametrize("ne", [4, 8])
    def test_fused_sw_trajectories_agree(self, mesh4, ne):
        mesh = mesh4 if ne == 4 else CubedSphereMesh(8, 4)
        steps = 3 if ne == 4 else 2
        mb = ShallowWaterModel(mesh, exec_path="batched", nu=1e14)
        mf = ShallowWaterModel(mesh, exec_path="fused", nu=1e14)
        for _ in range(steps):
            mb.step()
            mf.step()
        assert rel_err(mb.state.h, mf.state.h) <= RTOL
        assert rel_err(mb.state.v, mf.state.v) <= RTOL

    def test_fused_prim_trajectories_agree(self, mesh4, prim_setup):
        cfg, _, state = prim_setup
        mb = PrimitiveEquationModel(
            cfg, mesh=mesh4, init=state.copy(), dt=300.0, exec_path="batched"
        )
        mf = PrimitiveEquationModel(
            cfg, mesh=mesh4, init=state.copy(), dt=300.0, exec_path="fused"
        )
        mb.run_steps(2)
        mf.run_steps(2)
        assert rel_err(mb.state.T, mf.state.T) <= RTOL
        assert rel_err(mb.state.v, mf.state.v) <= RTOL
        assert rel_err(mb.state.dp3d, mf.state.dp3d) <= RTOL
        assert rel_err(mb.state.qdp, mf.state.qdp) <= RTOL


class TestFloat32Mode:
    """The opt-in float32 compute mode of the fused path: results carry
    the requested dtype and stay within single-precision tolerance of
    the float64 fused results (policy in DESIGN.md §14)."""

    def test_cross_validate_fused(self, prim_setup):
        from repro.homme.fused import cross_validate_fused

        _, geom, state = prim_setup
        errs = cross_validate_fused(state, geom, rtol64=RTOL, rtol32=1e-4)
        f64_worst = max(v for k, v in errs.items() if k.startswith("f64"))
        f32_worst = max(v for k, v in errs.items() if k.startswith("f32"))
        assert f64_worst <= RTOL
        assert f32_worst <= 1e-4

    def test_float32_outputs_carry_dtype(self, prim_setup):
        from repro.homme.fused import (
            compute_rhs_fused,
            laplace_sphere_wk_fused,
            sw_compute_rhs_fused,
            vlaplace_sphere_fused,
        )

        _, geom, state = prim_setup
        dv, dT, ddp = compute_rhs_fused(state, geom, dtype=np.float32)
        assert dv.dtype == dT.dtype == ddp.dtype == np.float32
        assert laplace_sphere_wk_fused(state.T, geom, dtype=np.float32).dtype == np.float32
        assert vlaplace_sphere_fused(state.v, geom, dtype=np.float32).dtype == np.float32
        dh, dvv = sw_compute_rhs_fused(state.T[:, 0], state.v[:, 0], geom, dtype=np.float32)
        assert dh.dtype == np.float32 and dvv.dtype == np.float32

    def test_float32_default_from_input_dtype(self, mesh4):
        from repro.homme.fused import laplace_sphere_wk_fused

        geom = ElementGeometry(mesh4)
        field = np.sin(geom.lat).astype(np.float32)
        out = laplace_sphere_wk_fused(field, geom)
        assert out.dtype == np.float32


class TestDefaultPath:
    """Fused is the default everywhere; the reference and baseline paths
    stay selectable and runnable."""

    MODELS = ("prim", "sw", "dist_sw", "dist_prim", "parallel_kernels")

    @staticmethod
    def _build(kind, mesh4, prim_setup, **kw):
        from repro.homme.distributed import (
            DistributedPrimitiveEquations,
            DistributedShallowWater,
        )
        from repro.parallel import ParallelHommeKernels

        cfg, geom, state = prim_setup
        if kind == "prim":
            return PrimitiveEquationModel(cfg, mesh=mesh4, init=state.copy(),
                                          dt=300.0, **kw)
        if kind == "sw":
            return ShallowWaterModel(mesh4, **kw)
        if kind == "dist_sw":
            return DistributedShallowWater(mesh4, nranks=2, **kw)
        if kind == "dist_prim":
            return DistributedPrimitiveEquations(cfg, mesh4, state.copy(),
                                                 nranks=2, dt=300.0, **kw)
        return ParallelHommeKernels(geom, workers=0, **kw)

    @staticmethod
    def _path(model):
        ex = getattr(model, "exec", None)
        return ex.name if ex is not None else model.exec_path

    @pytest.mark.parametrize("kind", MODELS)
    def test_default_is_fused(self, kind, mesh4, prim_setup):
        model = self._build(kind, mesh4, prim_setup)
        try:
            assert self._path(model) == "fused"
        finally:
            getattr(model, "close", lambda: None)()

    def test_parallel_execution_default_is_fused(self, mesh4):
        from repro.parallel import parallel_homme_execution

        ex, kernels = parallel_homme_execution(ElementGeometry(mesh4))
        try:
            assert kernels.exec_path == "fused"
            assert ex.euler_path == "fused"
        finally:
            kernels.close()

    @pytest.mark.parametrize("path", ["batched", "looped"])
    @pytest.mark.parametrize("kind", MODELS[:4])
    def test_other_paths_build_and_step(self, kind, path, mesh4, prim_setup):
        model = self._build(kind, mesh4, prim_setup, exec_path=path)
        try:
            assert self._path(model) == path
            model.step()
        finally:
            getattr(model, "close", lambda: None)()

    def test_fused_euler_caches_no_tracer_plane(self, prim_setup):
        """The tracer stage reuses the level-replicated planes; no
        (E, Q, L, n, n) copy of a geometry plane is ever cached."""
        _, _, state = prim_setup
        geom = ElementGeometry(CubedSphereMesh(4, 4))
        euler_step(state, geom, 60.0, path="fused")
        fz = geom.tensors.fused()
        assert fz._bcache
        tracer_shape = state.qdp.shape[:3]
        for _, out in fz._bcache.values():
            assert out.ndim <= 4, out.shape
            assert out.shape[:3] != tracer_shape
