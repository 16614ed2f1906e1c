"""Shallow-water mode for verifying the spectral-element operators.

The shallow-water equations on the sphere share all the horizontal
machinery of the primitive equations (vector-invariant momentum,
flux-form continuity, DSS, hyperviscosity) without the vertical
dimension, and have analytic steady states.  Williamson et al. (1992)
test case 2 — steady geostrophic solid-body flow — is the standard
correctness check: a correct discretization keeps the height error
small for days.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import constants as C
from ..mesh.cubed_sphere import CubedSphereMesh
from .element import ElementGeometry
from . import operators as op


@dataclass
class SWState:
    """Shallow-water prognostics: thickness h (E, n, n), wind v (E, n, n, 2)."""

    h: np.ndarray
    v: np.ndarray

    def copy(self) -> "SWState":
        return SWState(self.h.copy(), self.v.copy())


def williamson2_initial(mesh: CubedSphereMesh, u0: float = 2.0 * np.pi * C.EARTH_RADIUS / (12 * 86400)) -> SWState:
    """Steady geostrophic solid-body flow (Williamson case 2).

    u = u0 cos(lat); gh = gh0 - (R Omega u0 + u0^2/2) sin^2(lat).
    This is an exact steady solution, so any drift is discretization
    error.
    """
    gh0 = 2.94e4
    lat = mesh.lat
    u = u0 * np.cos(lat)
    v = np.zeros_like(u)
    gh = gh0 - (C.EARTH_RADIUS * C.EARTH_OMEGA * u0 + 0.5 * u0**2) * np.sin(lat) ** 2
    vc = mesh.spherical_to_contravariant(u, v)
    return SWState(h=gh / C.GRAVITY, v=vc)


def rossby_haurwitz_initial(mesh: CubedSphereMesh) -> SWState:
    """Rossby--Haurwitz wave (Williamson case 6, wavenumber 4).

    A steadily westward-propagating exact solution of the barotropic
    vorticity equation, the classic "does the dycore keep a coherent
    large-scale wave" test.  Standard parameters: omega = K = 7.848e-6
    1/s, h0 = 8000 m, R = 4.
    """
    w = 7.848e-6
    K = 7.848e-6
    h0 = 8000.0
    Rw = 4.0
    a = mesh.radius
    Om = C.EARTH_OMEGA
    lat, lon = mesh.lat, mesh.lon
    cl = np.cos(lat)

    u = a * w * cl + a * K * cl ** (Rw - 1) * (
        Rw * np.sin(lat) ** 2 - cl**2
    ) * np.cos(Rw * lon)
    v = -a * K * Rw * cl ** (Rw - 1) * np.sin(lat) * np.sin(Rw * lon)

    A = w / 2 * (2 * Om + w) * cl**2 + 0.25 * K**2 * cl ** (2 * Rw) * (
        (Rw + 1) * cl**2 + (2 * Rw**2 - Rw - 2) - 2 * Rw**2 * cl ** (-2)
    )
    B = (
        2 * (Om + w) * K / ((Rw + 1) * (Rw + 2)) * cl**Rw
        * ((Rw**2 + 2 * Rw + 2) - (Rw + 1) ** 2 * cl**2)
    )
    Cc = 0.25 * K**2 * cl ** (2 * Rw) * ((Rw + 1) * cl**2 - (Rw + 2))
    gh = C.GRAVITY * h0 + a**2 * (A + B * np.cos(Rw * lon) + Cc * np.cos(2 * Rw * lon))

    vc = mesh.spherical_to_contravariant(u, v)
    return SWState(h=gh / C.GRAVITY, v=vc)


def sw_compute_rhs(
    h: np.ndarray, v: np.ndarray, geom: ElementGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """Element-local shallow-water tendencies (dh/dt, dv/dt), no DSS.

    The **batched** form: one call covers the whole element stack, with
    geometric factors from the memoized tensor cache.  The per-element
    twin is :func:`repro.homme.looped.sw_compute_rhs_looped`; both are
    timed against each other by ``repro.bench`` (the ne8 RK-step
    speedup committed in ``BENCH_homme.json``).
    """
    t = geom.tensors
    zeta = op.vorticity_sphere(v, geom, t)
    E = op.kinetic_energy(v, geom, t) + C.GRAVITY * h
    grad_E = op.gradient_sphere(E, geom, t)
    kxv = op.k_cross(v, geom, t)
    abs_vort = (zeta + geom.fcor)[..., None]
    dv = -abs_vort * kxv - grad_E
    dh = -op.divergence_sphere(v * h[..., None], geom, t)
    return dh, dv


class ShallowWaterModel:
    """SE shallow-water solver (RK3, optional hyperviscosity).

    ``exec_path`` selects how the element-local kernels (RHS and the
    hyperviscosity Laplacians) are dispatched: ``"fused"`` (default,
    single-pass contractions), ``"batched"`` (whole element stack per
    call, the reference) or ``"looped"`` (one call per element) — see
    :func:`repro.backends.functional_exec.homme_execution`.
    """

    def __init__(
        self,
        mesh: CubedSphereMesh,
        state: SWState | None = None,
        dt: float | None = None,
        nu: float = 0.0,
        exec_path: str = "fused",
    ) -> None:
        self.mesh = mesh
        self.geom = ElementGeometry(mesh)
        self.state = state if state is not None else williamson2_initial(mesh)
        # Gravity-wave CFL: c = sqrt(g h_max).
        if dt is None:
            c = float(np.sqrt(C.GRAVITY * self.state.h.max()))
            dx = 2 * np.pi * mesh.radius / (4 * mesh.ne * (mesh.np - 1))
            dt = 0.25 * dx / c
        self.dt = dt
        self.nu = nu
        self.t = 0.0
        self.exec_path = exec_path
        from ..backends.functional_exec import homme_execution
        from ..errors import KernelError

        try:
            self._exec = homme_execution(exec_path)
        except KernelError:
            # Model-construction contract predates the dispatch registry:
            # a bad path here is a config error, reported as ValueError.
            raise ValueError(f"unknown exec_path {exec_path!r}") from None
        self._rhs_fn = self._exec.sw_rhs

    def _rhs(self, s: SWState) -> tuple[np.ndarray, np.ndarray]:
        return self._rhs_fn(s.h, s.v, self.geom)

    def _stage(self, base: SWState, point: SWState, dt: float) -> SWState:
        dh, dv = self._rhs(point)
        return SWState(
            h=self.geom.dss(base.h + dt * dh),
            v=self.geom.dss_vector(base.v + dt * dv),
        )

    def step(self) -> None:
        """One RK3 step (same scheme as the primitive-equation driver)."""
        s0 = self.state
        s1 = self._stage(s0, s0, self.dt / 3.0)
        s2 = self._stage(s0, s1, self.dt / 2.0)
        s3 = self._stage(s0, s2, self.dt)
        if self.nu > 0:
            # Weak form: exactly mass-conserving under DSS.  The
            # Laplacians dispatch through the selected execution path.
            lap = self._exec.laplace_wk
            vlap = self._exec.vlaplace
            lap_h = self.geom.dss(lap(s3.h, self.geom))
            bih_h = self.geom.dss(lap(lap_h, self.geom))
            s3.h = s3.h - self.dt * self.nu * bih_h
            lap_v = self.geom.dss_vector(vlap(s3.v, self.geom))
            bih_v = self.geom.dss_vector(vlap(lap_v, self.geom))
            s3.v = s3.v - self.dt * self.nu * bih_v
        self.state = s3
        self.t += self.dt

    def run_hours(self, hours: float) -> None:
        n = int(round(hours * 3600.0 / self.dt))
        for _ in range(n):
            self.step()

    def height_l2_error(self, reference: SWState) -> float:
        """Normalized L2 height error against a reference state."""
        w = self.mesh.spheremp
        num = np.sum(w * (self.state.h - reference.h) ** 2)
        den = np.sum(w * reference.h**2)
        return float(np.sqrt(num / den))

    def total_mass(self) -> float:
        """Integral of h (conserved by the flux-form continuity + DSS)."""
        return float(np.sum(self.mesh.spheremp * self.state.h))
