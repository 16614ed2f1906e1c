"""The benchmark's three workloads, built through the public model API.

Each build function makes its inputs from the seed alone: the seed sets the
initial perturbation (bump amplitude and position, tracer amplitudes
and phases, Williamson-2 wind amplitude), never a size, so step cost is
the same for every seed.  ``poison=True`` puts one NaN into the initial
state; the self-tests use it to prove that the output checks trip.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.config import ModelConfig
from repro.homme import diagnostics
from repro.homme.distributed import (
    DistributedPrimitiveEquations,
    DistributedShallowWater,
)
from repro.homme.element import ElementGeometry, ElementState
from repro.homme.shallow_water import williamson2_initial
from repro.homme.testcases import add_temperature_bump, steady_zonal_state
from repro.homme.timestep import PrimitiveEquationModel
from repro.mesh.cubed_sphere import CubedSphereMesh

#: Dynamics step of both primitive-equation workloads [s].  The model's
#: own ``ModelConfig.dt_dynamics`` (1125 s at ne8) turns the jet-plus-
#: bump state non-finite by step 20 (seed 1) without raising; 300 s is
#: stable.
PRIM_DT = 300.0
PRIM_CONFIG = ModelConfig(ne=8, nlev=16, qsize=4)
RANKS = 4
#: Fixed rather than read from the machine, so a workload is the same
#: everywhere.
WORKERS = 2

#: Relative drift of dry (or shallow-water) mass allowed over a run.
MASS_TOL = 1e-12
#: Relative drift of each tracer's mass allowed over a run (the limiter's
#: mass fixer leaves about 4e-7 after the first step, then holds).
TRACER_MASS_TOL = 1e-4


@dataclass
class Run:
    """One built workload: the model plus what its output checks need."""

    model: object
    dt: float
    mass: Callable[[], float]
    tracer_mass: Callable[[], np.ndarray]
    finite: Callable[[], bool]
    distributed: bool
    exec_path: str

    @property
    def engine(self):
        return getattr(self.model, "engine", None)

    @property
    def mpi(self):
        return getattr(self.model, "mpi", None)

    def close(self) -> None:
        close = getattr(self.model, "close", None)
        if close is not None:
            close()


def prim_initial_state(geom: ElementGeometry, cfg: ModelConfig, seed: int,
                       poison: bool = False) -> ElementState:
    """Jet plus a seeded warm bump, with seeded positive tracers."""
    rng = np.random.default_rng(seed)
    state = add_temperature_bump(
        steady_zonal_state(geom, cfg), geom,
        amplitude_k=rng.uniform(0.5, 2.0),
        lat0_deg=rng.uniform(20.0, 60.0),
        lon0_deg=rng.uniform(0.0, 360.0),
    )
    for q in range(cfg.qsize):
        amp = rng.uniform(1e-4, 1e-2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        shape = 1.0 + 0.5 * np.cos(geom.lat) * np.cos(geom.lon - phase)
        state.qdp[:, q] = amp * shape[:, None] * state.dp3d
    if poison:
        state.T[0, 0, 0, 0] = np.nan
    return state


def build_prim_serial(seed: int, poison: bool = False) -> Run:
    mesh = CubedSphereMesh(PRIM_CONFIG.ne)
    geom = ElementGeometry(mesh)
    init = prim_initial_state(geom, PRIM_CONFIG, seed, poison)
    model = PrimitiveEquationModel(PRIM_CONFIG, mesh=mesh, init=init,
                                   dt=PRIM_DT)
    return Run(
        model, model.dt,
        mass=lambda: diagnostics.total_mass(model.state, model.geom),
        tracer_mass=lambda: diagnostics.total_tracer_mass(model.state,
                                                          model.geom),
        finite=lambda: diagnostics.state_is_finite(model.state),
        distributed=False,
        exec_path=model.exec.name,
    )


def build_prim_dist(seed: int, poison: bool = False) -> Run:
    mesh = CubedSphereMesh(PRIM_CONFIG.ne)
    geom = ElementGeometry(mesh)
    init = prim_initial_state(geom, PRIM_CONFIG, seed, poison)
    model = DistributedPrimitiveEquations(
        PRIM_CONFIG, mesh, init, nranks=RANKS, dt=PRIM_DT, workers=WORKERS,
    )
    return Run(
        model, model.dt,
        mass=lambda: diagnostics.total_mass(model.gather_state(), geom),
        tracer_mass=lambda: diagnostics.total_tracer_mass(
            model.gather_state(), geom),
        finite=lambda: diagnostics.state_is_finite(model.gather_state()),
        distributed=True,
        exec_path=model.exec_path,
    )


def build_sw_pipe(seed: int, poison: bool = False) -> Run:
    mesh = CubedSphereMesh(16, 4)
    model = DistributedShallowWater(mesh, nranks=RANKS, workers=WORKERS,
                                    pipeline=True)
    # Williamson-2 with a seeded wind amplitude (height stays balanced),
    # set through the model's public snapshot/restore pair.
    rng = np.random.default_rng(seed)
    default_u0 = inspect.signature(williamson2_initial).parameters["u0"].default
    init = williamson2_initial(mesh, u0=default_u0 * rng.uniform(0.8, 1.2))
    if poison:
        init.h[0, 0, 0] = np.nan
    snap = model.snapshot()
    for r in range(RANKS):
        els = model.part.rank_elements(r)
        snap[f"h_{r}"] = init.h[els]
        snap[f"v_{r}"] = init.v[els]
    model.restore_snapshot(snap)

    def finite() -> bool:
        return all(np.isfinite(s.h).all() and np.isfinite(s.v).all()
                   for s in model.states)

    return Run(
        model, model.dt,
        mass=model.total_mass,
        tracer_mass=lambda: np.zeros(0),
        finite=finite,
        distributed=True,
        exec_path=model.exec_path,
    )


#: Workload name (as in BENCHMARK.json) -> build function.
WORKLOADS = {
    "prim-serial-ne8": build_prim_serial,
    "prim-dist4-ne8": build_prim_dist,
    "sw-dist4-ne16-pipe": build_sw_pipe,
}
