"""``vertical_remap``: conservative monotone remap to reference levels.

Table 1: "compute the vertical flux needed to get back to reference
eta-coordinate levels".  After the RK dynamics the Lagrangian layers
have floated; this kernel remaps (u, v, T, q) from the floating
thicknesses ``dp_src`` back to the reference thicknesses
``dp_ref(ps)`` using the piecewise parabolic method (PPM) with the
Colella--Woodward monotonic limiter, mass-conservative by construction
(remapped via the cumulative-integral formulation).

Columns are independent — this is the other kernel class the paper's
8 x 16 layer decomposition (Figure 2) parallelizes across CPE rows.

Every field of one remap shares the source and target grids, so the
column geometry — where each target interface falls in the source
column — is searched once (:func:`_search_columns`) and reused by every
field, the way the paper's Athread rewrite keeps shared arrays resident
across the tracer loop (Section 7, Algorithm 2).  Each field then costs
only its PPM edges, its cumulative mass and one gather (DESIGN.md §17).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelError
from .element import ElementState
from .rhs import PTOP


def _ppm_edges(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`ppm_edge_values` on a levels-first ``(L, ...)`` array.

    Every level slice is then one contiguous block, which keeps the
    memory-bound edge pass on numpy's fast inner loop.
    """
    L = a.shape[0]
    if L < 2:
        raise KernelError("PPM needs at least 2 layers")
    # Interface estimates a_{k+1/2} for k = 0..L-2 (between cells k, k+1).
    iface = np.empty((L - 1,) + a.shape[1:], dtype=a.dtype)
    if L >= 4:
        inner = iface[1:-1]
        np.add(a[1:-2], a[2:-1], out=inner)
        inner *= 7.0
        inner -= a[3:] + a[:-3]
        inner /= 12.0
        iface[0] = 0.5 * (a[0] + a[1])
        iface[-1] = 0.5 * (a[-2] + a[-1])
    else:
        np.add(a[:-1], a[1:], out=iface)
        iface *= 0.5
    # Clamp interface values between adjacent cell means (monotone edges).
    np.clip(iface, np.minimum(a[:-1], a[1:]), np.maximum(a[:-1], a[1:]),
            out=iface)

    aL = np.empty_like(a)
    aR = np.empty_like(a)
    aL[0] = a[0]
    aL[1:] = iface
    aR[:-1] = iface
    aR[-1] = a[-1]

    # Colella-Woodward limiter: local extrema become piecewise constant;
    # overshooting parabolas are reset on one side.  In-place forms of
    # the textbook expressions (same operations, same rounding).
    t = aR - a
    da = a - aL
    t *= da
    extrema = t <= 0.0
    np.copyto(aL, a, where=extrema)
    np.copyto(aR, a, where=extrema)
    np.subtract(aR, aL, out=da)
    a6 = aL + aR                      # a6 = 6 (a - (aL + aR) / 2)
    a6 *= 0.5
    np.subtract(a, a6, out=a6)
    a6 *= 6.0
    dd = da * da
    da *= a6
    a3 = 3.0 * a
    np.multiply(aR, 2.0, out=t)
    np.subtract(a3, t, out=t)
    np.copyto(aL, t, where=da > dd)
    np.negative(dd, out=dd)
    np.multiply(aL, 2.0, out=t)
    np.subtract(a3, t, out=t)
    np.copyto(aR, t, where=da < dd)
    return aL, aR


def ppm_edge_values(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monotone-limited PPM edge values aL, aR per cell.

    ``a`` has layers on the last axis.  Edges use the 4th-order uniform
    formula (the floating Lagrangian grid stays near-uniform in sigma
    between remaps), clamped to the neighbouring cell means to keep the
    reconstruction monotone.
    """
    aL, aR = _ppm_edges(np.moveaxis(np.asarray(a), -1, 0))
    return np.moveaxis(aL, 0, -1), np.moveaxis(aR, 0, -1)


@dataclass(frozen=True)
class _ColumnSearch:
    """Where every interior target interface sits in its source column.

    Built once per remap by :func:`_search_columns` and shared by every
    field remapped between the same two grids.  Arrays are levels-first:
    ``(L, ncol)`` per cell, ``(L - 1, ncol)`` per interior target
    interface.
    """

    #: Source and target thicknesses, ``(L, ncol)``.
    dp_src: np.ndarray
    dp_tgt: np.ndarray
    #: Flat index of the source cell ``k`` holding each interface, valid
    #: in both an ``(L, ncol)`` per-cell array and the ``(L + 1, ncol)``
    #: array of source-interface values (the cumulative mass).
    index: np.ndarray
    #: Source thickness of that cell, and the interface's fractional
    #: position ``xi`` in it (with ``xi**2`` and ``xi**3``).
    dz: np.ndarray
    xi: np.ndarray
    xi2: np.ndarray
    xi3: np.ndarray


def _interface_sums(dp: np.ndarray) -> np.ndarray:
    """Running sums of a levels-first ``(L, ncol)`` array at the L+1
    interfaces, starting from zero.

    One row add per level: the same sequential sum as ``np.cumsum``
    along axis 0, which is about 10x slower at the remap's shapes.
    """
    zi = np.empty((dp.shape[0] + 1,) + dp.shape[1:], dtype=dp.dtype)
    zi[0] = 0.0
    zi[1] = dp[0]
    for k in range(1, dp.shape[0]):
        np.add(zi[k], dp[k], out=zi[k + 1])
    return zi


def _float_dtype(*arrays) -> np.dtype:
    """The floating dtype a remap computes in: float32 stays float32,
    integers and float64 compute in float64."""
    return np.result_type(*arrays, np.float32)


def _check_thickness(dp: np.ndarray, name: str) -> None:
    # ``dp <= 0`` is False for NaN; ``not (dp > 0)`` catches it too.
    if not (dp > 0).all():
        raise KernelError(f"layer thicknesses {name} must be positive and finite")


def _search_columns(
    dp_src: np.ndarray, dp_tgt: np.ndarray,
    names: tuple[str, str] = ("dp_src", "dp_tgt"),
) -> _ColumnSearch:
    """Search the source/target interfaces of every column, vectorised.

    Both grids are levels-first ``(L, ncol)`` and must span the same
    total per column; ``names`` label the two grids in error messages.
    """
    dtype = _float_dtype(dp_src, dp_tgt)
    dps = np.ascontiguousarray(dp_src, dtype=dtype)
    dpt = np.ascontiguousarray(dp_tgt, dtype=dtype)
    if dps.shape != dpt.shape:
        raise KernelError("remap arrays must share shapes")
    _check_thickness(dps, names[0])
    _check_thickness(dpt, names[1])
    L, ncol = dps.shape
    if L < 2:
        raise KernelError("PPM needs at least 2 layers")
    # Totals agree to 1e-10 at float64; float32 sums carry ~L ulps.
    rtol = max(1e-10, 8 * L * float(np.finfo(dtype).eps))
    zi_s = _interface_sums(dps)
    zi_t = _interface_sums(dpt)
    if not np.allclose(zi_s[-1], zi_t[-1], rtol=rtol):
        raise KernelError(
            f"source and target grids ({names[0]}, {names[1]}) must span "
            "the same column mass"
        )
    # Guard against roundoff: force identical totals.
    zi_t[-1] = zi_s[-1]

    # Source cell of each interior target interface: the largest k with
    # zi_s[k] <= z, clipped to L-1 — all L-1 interfaces at once.
    z = zi_t[1:-1]
    k = np.clip(
        np.count_nonzero(zi_s[None, :-1] <= z[:, None], axis=1) - 1, 0, L - 1
    )
    index = k * ncol + np.arange(ncol)
    dz = dps.ravel()[index]
    xi = np.clip((z - zi_s.ravel()[index]) / dz, 0.0, 1.0)
    return _ColumnSearch(dp_src=dps, dp_tgt=dpt, index=index, dz=dz,
                        xi=xi, xi2=xi**2, xi3=xi**3)


def _remap_field(cs: _ColumnSearch, a: np.ndarray, name: str = "a_src") -> np.ndarray:
    """Remap one field's levels-first ``(L, ncol)`` cell means across
    the grids of ``cs``.

    Returns the ``(L, ncol)`` target means; raises a
    :class:`KernelError` naming ``name`` when a result is not finite.
    """
    a = np.ascontiguousarray(a, dtype=cs.dp_src.dtype)
    aL, aR = _ppm_edges(a)
    da = aR - aL
    a6 = 6.0 * (a - 0.5 * (aL + aR))
    # Cumulative mass at source interfaces.
    cmass = _interface_sums(a * cs.dp_src)
    # Cumulative mass at every target interface: the source mass below
    # the holding cell plus the PPM parabola's integral over [0, xi].
    ix = cs.index
    aLk, dak, a6k = aL.take(ix), da.take(ix), a6.take(ix)
    # cmass_k + dz * (aL xi + (da + a6) xi^2 / 2 - a6 xi^3 / 3), in place.
    aLk *= cs.xi
    dak += a6k
    dak *= 0.5
    dak *= cs.xi2
    aLk += dak
    a6k *= cs.xi3
    a6k /= 3.0
    aLk -= a6k
    aLk *= cs.dz
    m = np.empty_like(a)
    np.add(cmass.take(ix), aLk, out=m[:-1])
    m[-1] = cmass[-1]
    out = np.empty_like(m)
    out[0] = m[0]
    np.subtract(m[1:], m[:-1], out=out[1:])
    out /= cs.dp_tgt
    if not np.isfinite(out).all():
        raise KernelError(f"remap produced non-finite values in {name}")
    return out


def remap_ppm(
    a_src: np.ndarray, dp_src: np.ndarray, dp_tgt: np.ndarray
) -> np.ndarray:
    """Remap cell means from source to target layer grids, conservatively.

    All arrays have layers on the **last** axis; leading axes are
    independent columns.  Source and target grids must span the same
    total (sum of dp equal per column).  The one-field case of
    :func:`_search_columns` + :func:`_remap_field`; float32 inputs
    return float32.
    """
    dtype = _float_dtype(a_src, dp_src, dp_tgt)
    a_src = np.asarray(a_src, dtype=dtype)
    dp_src = np.asarray(dp_src, dtype=dtype)
    dp_tgt = np.asarray(dp_tgt, dtype=dtype)
    if a_src.shape != dp_src.shape or dp_src.shape != dp_tgt.shape:
        raise KernelError("remap arrays must share shapes")
    L = a_src.shape[-1]
    ncol = a_src.size // L if L else 0

    def cols(x):
        return x.reshape(ncol, L).T

    out = _remap_field(_search_columns(cols(dp_src), cols(dp_tgt)), cols(a_src))
    return out.T.reshape(a_src.shape)


def reference_dp(ps: np.ndarray, nlev: int, ptop: float = PTOP) -> np.ndarray:
    """Reference (uniform-sigma) layer thicknesses for surface pressure ps.

    dp_k = (ps - ptop) / nlev broadcast over the level axis inserted at
    position 1 of ``ps``'s shape (E, n, n) -> (E, L, n, n).
    """
    dp = (ps - ptop) / nlev
    return np.repeat(dp[:, None], nlev, axis=1)


def vertical_remap(state: ElementState, ptop: float = PTOP) -> ElementState:
    """Remap the full state back to reference levels.

    Velocity and temperature remap mass-weighted (conserving momentum
    and internal energy); tracers remap as qdp directly (conserving
    tracer mass).  The column search runs once and serves every field.
    Returns a new state on the reference grid; raises a labelled
    :class:`KernelError` on a non-positive or non-finite ``dp3d`` and on
    any non-finite remapped field.
    """
    dp_tgt = reference_dp(state.ps(ptop), state.nlev, ptop)
    L = state.nlev
    # (E, L, n, n) <-> levels-first (L, E*n*n) columns.
    lev_shape = (L,) + state.T.shape[:1] + state.T.shape[2:]

    def to_cols(x):
        return np.moveaxis(x, 1, 0).reshape(L, -1)

    def from_cols(x):
        return np.moveaxis(x.reshape(lev_shape), 0, 1)

    cs = _search_columns(to_cols(state.dp3d), to_cols(dp_tgt),
                        names=("dp3d", "reference dp"))
    dtype = cs.dp_src.dtype
    new = ElementState(
        v=np.empty(state.v.shape, dtype=dtype),
        T=np.empty(state.T.shape, dtype=dtype),
        dp3d=dp_tgt,
        qdp=np.empty(state.qdp.shape, dtype=dtype),
    )
    new.T[...] = from_cols(_remap_field(cs, to_cols(state.T), "T"))
    for c in range(2):
        new.v[..., c] = from_cols(
            _remap_field(cs, to_cols(state.v[..., c]), f"v[..., {c}]")
        )
    for q in range(state.qsize):
        # qdp / dp is the conserved-density form: remap mixing ratio and
        # rebuild qdp on the target grid so tracer mass integrates identically.
        qmix = to_cols(state.qdp[:, q]) / cs.dp_src
        new.qdp[:, q] = from_cols(
            _remap_field(cs, qmix, f"qdp[{q}]") * cs.dp_tgt
        )
    return new
