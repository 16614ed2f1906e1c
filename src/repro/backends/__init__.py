"""Execution backends: Intel / MPE / OpenACC / Athread.

The paper's contribution is not new numerics but new *executions* of
the same numerics.  Each backend here executes a kernel's workload
description against its hardware cost model, producing the simulated
timings that regenerate Table 1 and Figure 5:

- :mod:`~repro.backends.intel` — one Xeon E5-2680v3 core (the paper's
  reference);
- :mod:`~repro.backends.mpe` — the management core alone (the naive
  port: 2--10x slower than the Intel core);
- :mod:`~repro.backends.openacc` — the directive refactoring: 64 CPEs,
  but per-loop-nest copyin/copyout (re-read factors), compiler-limited
  vectorization, launch overheads, and Amdahl serialization on the
  vertically-dependent kernels;
- :mod:`~repro.backends.athread` — the fine-grained redesign: LDM-
  resident reuse, double-buffered DMA, manual vectorization, the
  register-communication scan and the shuffle transposition.

:mod:`~repro.backends.workloads` derives each Table-1 kernel's flop
and byte counts from the model configuration;
:mod:`~repro.backends.scan` and :mod:`~repro.backends.transpose` are
the functional implementations of the two Sunway-specific schemes
(Sections 7.4 and 7.5).

:mod:`~repro.backends.functional_exec` is the *functional* execution
dispatch: :func:`~repro.backends.functional_exec.homme_execution`
selects the fused (default: single-pass BLAS contractions),
element-batched (the reference) or per-element-looped (the dispatch
baseline) implementation of every dycore kernel — the repo-level
analogue of the Athread-vs-OpenACC dispatch-granularity choice — and
:func:`~repro.backends.functional_exec.cross_validate_paths` asserts
the looped and fused paths agree with batched to 1e-12 on the same
inputs.
"""

from .base import KernelWorkload, KernelReport, Backend
from .workloads import table1_workloads, workload_for
from .intel import IntelBackend
from .mpe import MPEBackend
from .openacc import OpenACCBackend
from .athread import AthreadBackend

ALL_BACKENDS = {
    "intel": IntelBackend,
    "mpe": MPEBackend,
    "openacc": OpenACCBackend,
    "athread": AthreadBackend,
}

__all__ = [
    "KernelWorkload",
    "KernelReport",
    "Backend",
    "table1_workloads",
    "workload_for",
    "IntelBackend",
    "MPEBackend",
    "OpenACCBackend",
    "AthreadBackend",
    "ALL_BACKENDS",
]
