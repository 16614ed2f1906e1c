"""The HOMME / CAM-SE spectral-element dynamical core.

Real numerics for every kernel in the paper's Table 1:

- :mod:`~repro.homme.rhs` — ``compute_and_apply_rhs``: one Runge--Kutta
  stage of the hydrostatic primitive equations on floating Lagrangian
  levels (vector-invariant momentum, layer continuity, thermodynamic
  equation), including the vertical pressure scan the register-
  communication scheme parallelizes;
- :mod:`~repro.homme.euler` — ``euler_step``: SSP-RK2 tracer advection
  with a monotone limiter, subcycled 3x per dynamics step;
- :mod:`~repro.homme.remap` — ``vertical_remap``: conservative monotone
  PPM remap back to reference hybrid levels;
- :mod:`~repro.homme.hypervis` — ``hypervis_dp1/dp2`` and
  ``biharmonic_dp3d``: scalar/vector hyperviscosity via repeated weak
  Laplacians with DSS;
- :mod:`~repro.homme.bndry` — ``bndry_exchangev``: the halo exchange in
  both the classic (pack-buffer, no overlap) and redesigned
  (inner/boundary split, overlap, direct unpack) forms;
- :mod:`~repro.homme.timestep` — ``prim_run``: the full dynamics loop;
- :mod:`~repro.homme.shallow_water` — a shallow-water mode used to
  verify the spectral operators against analytic solutions.

Execution paths.  The models run :mod:`~repro.homme.fused` by default:
single-pass BLAS contractions against preassembled per-mesh operands.
The readable reference is *element-batched*: every operator in
:mod:`~repro.homme.operators` acts on whole stacked ``(nelem, np, np,
...)`` arrays in single numpy calls, reading precomputed per-mesh
operator tensors cached on the geometry (:mod:`~repro.homme.tensors`,
invalidated by metric-term fingerprint); the fused kernels are
cross-validated against it to 1e-12.  :mod:`~repro.homme.looped` is the
per-element dispatch twin — one Python-level call per element, the
analogue of the paper's coarse-grained OpenACC dispatch versus the
Athread whole-stack execution — kept as the benchmark baseline
(``repro.bench``).  Select a path via
:func:`repro.backends.functional_exec.homme_execution` or the
``exec_path`` argument of the model classes.
"""

from .element import ElementGeometry, ElementState
from .timestep import PrimitiveEquationModel

__all__ = ["ElementGeometry", "ElementState", "PrimitiveEquationModel"]
