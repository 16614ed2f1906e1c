"""The shared-search vertical remap against the per-level reference.

``vertical_remap`` searches each column's source/target interfaces once
and reuses the result for every field.  Its float64 results must be
**bitwise** equal to the straightforward algorithm below, which repeats
the interval search per field and per target level.  Also covered: the
labelled errors on non-finite input and the float32 dtype contract.
"""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.errors import KernelError
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.remap import (
    ppm_edge_values,
    reference_dp,
    remap_ppm,
    vertical_remap,
)
from repro.homme.rhs import PTOP
from repro.mesh.cubed_sphere import CubedSphereMesh

# ---------------------------------------------------------------------------
# Reference: one interval search per field and per target level
# ---------------------------------------------------------------------------


def _reference_edges(a):
    L = a.shape[-1]
    if L >= 4:
        inner = (7.0 * (a[..., 1:-2] + a[..., 2:-1]) - (a[..., 3:] + a[..., :-3])) / 12.0
        first = 0.5 * (a[..., 0] + a[..., 1])
        last = 0.5 * (a[..., -2] + a[..., -1])
        iface = np.concatenate([first[..., None], inner, last[..., None]], axis=-1)
    else:
        iface = 0.5 * (a[..., :-1] + a[..., 1:])
    lo = np.minimum(a[..., :-1], a[..., 1:])
    hi = np.maximum(a[..., :-1], a[..., 1:])
    iface = np.clip(iface, lo, hi)
    aL = np.concatenate([a[..., :1], iface], axis=-1)
    aR = np.concatenate([iface, a[..., -1:]], axis=-1)
    extrema = (aR - a) * (a - aL) <= 0.0
    aL = np.where(extrema, a, aL)
    aR = np.where(extrema, a, aR)
    da = aR - aL
    a6 = 6.0 * (a - 0.5 * (aL + aR))
    aL = np.where(da * a6 > da * da, 3.0 * a - 2.0 * aR, aL)
    aR = np.where(da * a6 < -da * da, 3.0 * a - 2.0 * aL, aR)
    return aL, aR


def _reference_remap(a_src, dp_src, dp_tgt):
    a_src, dp_src, dp_tgt = (np.asarray(x, dtype=np.float64)
                             for x in (a_src, dp_src, dp_tgt))
    L = a_src.shape[-1]
    a = a_src.reshape(-1, L)
    dps = dp_src.reshape(-1, L)
    dpt = dp_tgt.reshape(-1, L)
    ncol = a.shape[0]
    zi_s = np.concatenate([np.zeros((ncol, 1)), np.cumsum(dps, axis=1)], axis=1)
    zi_t = np.concatenate([np.zeros((ncol, 1)), np.cumsum(dpt, axis=1)], axis=1)
    zi_t[:, -1] = zi_s[:, -1]
    aL, aR = _reference_edges(a)
    da = aR - aL
    a6 = 6.0 * (a - 0.5 * (aL + aR))
    cmass = np.concatenate([np.zeros((ncol, 1)), np.cumsum(a * dps, axis=1)], axis=1)
    cols = np.arange(ncol)

    def cumulative_at(z):
        k = np.clip((zi_s[:, :-1] <= z[:, None]).sum(axis=1) - 1, 0, L - 1)
        dz = dps[cols, k]
        xi = np.clip((z - zi_s[cols, k]) / dz, 0.0, 1.0)
        return cmass[cols, k] + dz * (
            aL[cols, k] * xi + 0.5 * (da[cols, k] + a6[cols, k]) * xi**2
            - a6[cols, k] * xi**3 / 3.0
        )

    out = np.empty_like(a)
    m_lo = np.zeros(ncol)
    for kt in range(L):
        m_hi = cmass[:, -1] if kt == L - 1 else cumulative_at(zi_t[:, kt + 1])
        out[:, kt] = (m_hi - m_lo) / dpt[:, kt]
        m_lo = m_hi
    return out.reshape(a_src.shape)


def _reference_vertical_remap(state):
    dp_tgt = reference_dp(state.ps(PTOP), state.nlev, PTOP)

    def last(x):
        return np.moveaxis(x, 1, -1)

    def first(x):
        return np.moveaxis(x, -1, 1)

    dps, dpt = last(state.dp3d), last(dp_tgt)
    T = first(_reference_remap(last(state.T), dps, dpt))
    v = np.stack([first(_reference_remap(last(state.v[..., c]), dps, dpt))
                  for c in range(2)], axis=-1)
    qdp = np.stack([
        first(_reference_remap(last(state.qdp[:, q]) / dps, dps, dpt) * dpt)
        for q in range(state.qsize)
    ], axis=1)
    return ElementState(v=v, T=T, dp3d=dp_tgt, qdp=qdp)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def _columns(L, ncol=64, seed=0, jitter=0.5):
    """Random field on random positive source thicknesses, remapped to
    a random target grid with the same column totals."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((ncol, L)) * 10.0
    dp_src = 1.0 + jitter * (rng.random((ncol, L)) - 0.5)
    dp_tgt = 1.0 + jitter * (rng.random((ncol, L)) - 0.5)
    dp_tgt *= (dp_src.sum(axis=1) / dp_tgt.sum(axis=1))[:, None]
    return a, dp_src, dp_tgt


@pytest.fixture(scope="module")
def floated_state():
    """An ne2 state whose Lagrangian layers have floated off reference."""
    mesh = CubedSphereMesh(2, 4)
    geom = ElementGeometry(mesh)
    cfg = ModelConfig(ne=2, nlev=16, qsize=3)
    state = ElementState.isothermal_rest(geom, cfg)
    rng = np.random.default_rng(5)
    state.T += 5.0 * rng.standard_normal(state.T.shape)
    state.v += 1e-5 * rng.standard_normal(state.v.shape)
    state.dp3d *= 1.0 + 0.1 * (rng.random(state.dp3d.shape) - 0.5)
    state.qdp[:] = (0.5 + rng.random(state.qdp.shape)) * state.dp3d[:, None]
    return state


# ---------------------------------------------------------------------------
# Bitwise equality with the reference
# ---------------------------------------------------------------------------


class TestBitwiseAgainstReference:
    @pytest.mark.parametrize("L", [2, 3, 4, 16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_thickness_perturbations(self, L, seed):
        a, dp_src, dp_tgt = _columns(L, seed=seed)
        assert np.array_equal(remap_ppm(a, dp_src, dp_tgt),
                              _reference_remap(a, dp_src, dp_tgt))

    @pytest.mark.parametrize("L", [2, 3, 4, 16])
    def test_identity_remap(self, L):
        a, dp, _ = _columns(L, seed=3)
        out = remap_ppm(a, dp, dp)
        assert np.array_equal(out, _reference_remap(a, dp, dp))
        np.testing.assert_allclose(out, a, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("L", [3, 4, 16])
    def test_target_interface_on_source_interface(self, L):
        # Uniform source; target moves mass between two halves of the
        # column so its middle interface lands exactly on a source one.
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, L))
        dp_src = np.full((8, L), 2.0)
        dp_tgt = np.full((8, L), 2.0)
        dp_tgt[:, 0] = 1.0
        dp_tgt[:, 1] = 3.0
        out = remap_ppm(a, dp_src, dp_tgt)
        assert np.array_equal(out, _reference_remap(a, dp_src, dp_tgt))
        # Cells above the shared interface at z = 4 keep their means.
        np.testing.assert_allclose(out[:, 2:], a[:, 2:], rtol=1e-12)

    @pytest.mark.parametrize("L", [2, 3, 4, 16])
    def test_leading_column_axes(self, L):
        a, dp_src, dp_tgt = _columns(L, ncol=2 * 3 * 4, seed=6)
        shape = (2, 3, 4, L)
        out = remap_ppm(a.reshape(shape), dp_src.reshape(shape),
                        dp_tgt.reshape(shape))
        assert out.shape == shape
        assert np.array_equal(out.reshape(-1, L),
                              _reference_remap(a, dp_src, dp_tgt))

    def test_vertical_remap_element_layout(self, floated_state):
        out = vertical_remap(floated_state)
        ref = _reference_vertical_remap(floated_state)
        for name in ("T", "v", "dp3d", "qdp"):
            got, want = getattr(out, name), getattr(ref, name)
            assert got.shape == want.shape
            assert np.array_equal(got, want), name

    def test_ppm_edges_match_reference(self):
        a, _, _ = _columns(16, seed=7)
        for got, want in zip(ppm_edge_values(a), _reference_edges(a)):
            assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# Loud failures on bad input
# ---------------------------------------------------------------------------


class TestNonFinite:
    def test_nan_temperature_is_named(self, floated_state):
        state = floated_state.copy()
        state.T[1, 3, 0, 2] = np.nan
        with pytest.raises(KernelError, match=r"non-finite values in T\b"):
            vertical_remap(state)

    def test_nan_thickness_is_named(self, floated_state):
        state = floated_state.copy()
        state.dp3d[0, 5, 1, 1] = np.nan
        with pytest.raises(KernelError, match="dp3d must be positive and finite"):
            vertical_remap(state)

    def test_nan_tracer_is_named(self, floated_state):
        state = floated_state.copy()
        state.qdp[2, 1, 0, 0, 0] = np.nan
        with pytest.raises(KernelError, match=r"qdp\[1\]"):
            vertical_remap(state)

    def test_nan_thickness_rejected_by_remap_ppm(self):
        a, dp_src, dp_tgt = _columns(8)
        dp_src[3, 2] = np.nan
        with pytest.raises(KernelError, match="positive"):
            remap_ppm(a, dp_src, dp_tgt)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_inf_field_rejected(self):
        a, dp_src, dp_tgt = _columns(8)
        a[0, 0] = np.inf
        with pytest.raises(KernelError, match="non-finite"):
            remap_ppm(a, dp_src, dp_tgt)


# ---------------------------------------------------------------------------
# dtype
# ---------------------------------------------------------------------------


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestFloat32:
    def test_remap_ppm_preserves_float32(self):
        a, dp_src, dp_tgt = _columns(16, seed=8)
        out32 = remap_ppm(a.astype(np.float32), dp_src.astype(np.float32),
                          dp_tgt.astype(np.float32))
        assert out32.dtype == np.float32
        assert _rel(out32, remap_ppm(a, dp_src, dp_tgt)) < 1e-5

    def test_vertical_remap_preserves_float32(self, floated_state):
        s = floated_state
        s32 = ElementState(*(x.astype(np.float32) for x in (s.v, s.T, s.dp3d, s.qdp)))
        out32 = vertical_remap(s32)
        out64 = vertical_remap(s)
        for name in ("T", "v", "dp3d", "qdp"):
            got = getattr(out32, name)
            assert got.dtype == np.float32, name
            assert _rel(got, getattr(out64, name)) < 1e-5, name

    def test_integer_input_computes_in_float64(self):
        a = np.arange(8).reshape(2, 4)
        dp = np.ones((2, 4), dtype=np.int64)
        out = remap_ppm(a, dp, dp)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, a)
