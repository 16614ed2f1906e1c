"""Surface exchange coefficients and boundary-layer vertical diffusion.

The Reed--Jablonowski (2012) simplified boundary layer: the
wind-speed-dependent drag coefficient and the heat/moisture exchange
coefficient that :mod:`~repro.physics.simple_physics` applies as bulk
aerodynamic surface fluxes, plus implicit vertical diffusion through a
given K profile.  The implicit (backward Euler) tridiagonal solve keeps
long physics steps stable — the same reason CAM's own PBL is implicit.
"""

from __future__ import annotations

import numpy as np

#: Exchange coefficient pieces (RJ2012).
CD0 = 7.0e-4
CD1 = 6.5e-5
CD_MAX = 2.0e-3
CE = 1.1e-3  # heat/moisture exchange coefficient


def drag_coefficient(wind_speed: np.ndarray) -> np.ndarray:
    """Wind-dependent surface drag Cd = min(Cd0 + Cd1 |v|, Cd_max)."""
    return np.minimum(CD0 + CD1 * wind_speed, CD_MAX)


def implicit_diffusion(
    x: np.ndarray, K: np.ndarray, dz: np.ndarray, dt: float
) -> np.ndarray:
    """Backward-Euler vertical diffusion d x/dt = d/dz (K d x/dz).

    ``x``, ``K``, ``dz`` have levels on axis 1 (E, L, n, n); zero-flux
    boundaries top and bottom (surface fluxes are applied separately).
    Solves the tridiagonal system per column with the Thomas algorithm,
    vectorized over columns.
    """
    E, L = x.shape[0], x.shape[1]
    # Interface diffusivity (L-1 interior interfaces).
    K_int = 0.5 * (K[:, 1:] + K[:, :-1])
    dz_int = 0.5 * (dz[:, 1:] + dz[:, :-1])
    lam = dt * K_int / (dz_int * 0.5 * (dz[:, 1:] + dz[:, :-1]))

    a = np.zeros_like(x)          # sub-diagonal (couples k with k-1)
    c = np.zeros_like(x)          # super-diagonal (couples k with k+1)
    a[:, 1:] = -lam
    c[:, :-1] = -lam
    b = 1.0 - a - c               # diagonal

    # Thomas algorithm along axis 1.
    cp = np.zeros_like(x)
    dp_ = np.zeros_like(x)
    cp[:, 0] = c[:, 0] / b[:, 0]
    dp_[:, 0] = x[:, 0] / b[:, 0]
    for k in range(1, L):
        denom = b[:, k] - a[:, k] * cp[:, k - 1]
        cp[:, k] = c[:, k] / denom
        dp_[:, k] = (x[:, k] - a[:, k] * dp_[:, k - 1]) / denom
    out = np.empty_like(x)
    out[:, -1] = dp_[:, -1]
    for k in range(L - 2, -1, -1):
        out[:, k] = dp_[:, k] - cp[:, k] * out[:, k + 1]
    return out

