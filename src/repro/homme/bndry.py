"""``bndry_exchangev``: the halo exchange behind the distributed DSS.

The paper redesigns this subroutine twice over (Section 7.6):

1. **Computation/communication overlap** — elements are split into a
   *boundary* part (touching another rank) and an *inner* part; the
   boundary part is computed first, its edge data sent asynchronously,
   and the inner part computed while messages fly.  This cut HOMME's
   runtime by up to 23% at scale.
2. **Direct unpack** — the original HOMME funnels both MPI messages and
   intra-node copies through a unified pack/unpack buffer, costing a
   redundant memcpy per exchange; the redesign fetches received data
   straight into the destination elements (another ~30% off the
   dynamical core's memory-copy time).

:class:`HaloExchanger` implements the exchange functionally (weighted
DSS contributions really travel between ranks through
:class:`~repro.network.simmpi.SimMPI`) with both the ``classic`` and
``overlap`` execution disciplines, charging pack/unpack memcpy time and
compute time to each rank's simulated clock.  Every exchange runs the
static schedule of one :class:`~repro.mesh.assembly.AssemblyPlan` built
for the partition, so a field's assembled value is fixed by the
partition alone: classic and overlap modes agree bitwise, serial,
parallel and pipelined drivers agree bitwise, and a one-rank partition
reproduces the serial :meth:`CubedSphereMesh.dss` bitwise.  With more
ranks a shared point sums per-rank partial sums instead of the serial
point-ordered sum, so the result matches the serial DSS to roundoff
(``atol=1e-13`` on unit-scale fields), not bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import constants as C
from ..errors import KernelError, MeshError
from ..mesh.assembly import AssemblyPlan
from ..mesh.cubed_sphere import CubedSphereMesh
from ..mesh.partition import SFCPartition
from ..network.simmpi import SimMPI, rank_track

#: Memory-copy bandwidth for pack/unpack staging [bytes/s] (one CG's share).
MEMCPY_BANDWIDTH = C.SW_MEMORY_BANDWIDTH / C.SW_CORE_GROUPS

#: Tag-space strides for :func:`exchange_tag`.  Python ints are
#: unbounded, so these are namespacing strides, not capacity limits.
TAG_SLOTS = 4096
TAG_STAGES = 16
_TAG_STEPS = 2 ** 32  # steps per epoch before epochs could collide


def exchange_tag(step: int, stage: int, slot: int = 0, epoch: int = 0) -> int:
    """Collision-free message tag for one (step, stage, field-slot).

    The distributed models used to bump a single shared counter per
    exchange, which meant a replayed stage (resilience rollback) or a
    restored checkpoint could reuse a tag against a stale in-flight
    retransmit.  Deriving the tag from its position in the integration —
    plus an ``epoch`` that only ever *increases* on checkpoint restore —
    makes every exchange's tag structurally unique across replays.
    """
    if not 0 <= stage < TAG_STAGES:
        raise KernelError(f"exchange stage {stage} outside 0..{TAG_STAGES - 1}")
    if not 0 <= slot < TAG_SLOTS:
        raise KernelError(f"exchange slot {slot} outside 0..{TAG_SLOTS - 1}")
    return ((epoch * _TAG_STEPS + step) * TAG_STAGES + stage) * TAG_SLOTS + slot


@dataclass
class ExchangeReport:
    """Timing summary of one exchange (simulated seconds).

    ``dropped``/``retransmissions`` count fault-injected losses healed
    by SimMPI's retransmit protocol during this exchange — the DSS
    result is unaffected (the sender's copy is re-posted verbatim), but
    the waiting rank's clock shows the timeout windows it rode out.
    """

    mode: str
    rank_times: list[float] = field(default_factory=list)
    comm_wait: list[float] = field(default_factory=list)
    memcpy_seconds: float = 0.0
    dropped: int = 0
    retransmissions: int = 0

    @property
    def max_time(self) -> float:
        return max(self.rank_times) if self.rank_times else 0.0


class HaloExchanger:
    """Distributed DSS over an SFC partition.

    Builds the partition's :class:`~repro.mesh.assembly.AssemblyPlan`
    once — per rank the local multiplicity classes, per rank pair the
    shared accumulator rows in a canonical (sorted-gid) order — so an
    exchange is pure vectorized gather/scatter with no per-call
    connectivity work.
    """

    def __init__(self, mesh: CubedSphereMesh, part: SFCPartition) -> None:
        if part.ne != mesh.ne:
            raise KernelError("partition and mesh resolutions differ")
        self.mesh = mesh
        self.part = part
        self.nranks = part.nranks

        #: Per rank: owned element ids (curve order).
        self.rank_elems = [part.rank_elements(r) for r in range(self.nranks)]
        self.plan = AssemblyPlan(mesh, self.rank_elems)
        self.boundary_elems = [part.boundary_elements(r) for r in range(self.nranks)]
        self.inner_elems = [part.inner_elements(r) for r in range(self.nranks)]
        # Mask over local elements (in rank_elems order): boundary or not.
        self.local_boundary_mask = [
            part.boundary_mask[e] for e in self.rank_elems
        ]
        # Positions within each rank's local element order of the
        # boundary and inner rows.  The pipelined engine mode dispatches
        # these as separate worker batches (boundary first, inner
        # overlapped with the driver's combines) and reassembles by
        # exactly these indices — a pure scatter, so the reassembled
        # stack is bit-identical to computing the full stack at once.
        self.local_boundary_idx = [
            np.nonzero(m)[0] for m in self.local_boundary_mask
        ]
        self.local_inner_idx = [
            np.nonzero(~m)[0] for m in self.local_boundary_mask
        ]

    # -- core exchange ------------------------------------------------------------

    def exchange(
        self,
        local_fields: list[np.ndarray],
        mpi: SimMPI,
        mode: str = "overlap",
        boundary_compute: list[float] | None = None,
        inner_compute: list[float] | None = None,
        tag: int = 0,
        gll_axis: int = 1,
    ) -> tuple[list[np.ndarray], ExchangeReport]:
        """Run one DSS exchange over all ranks.

        Parameters
        ----------
        local_fields:
            Per rank, array (E_r, *mid, np, np, *trail) of the
            element-local field to make continuous, with the GLL axes
            at ``gll_axis``: (E_r, np, np[, K]) by default,
            (E_r, L, np, np) with ``gll_axis=2``.  Floating dtypes are
            preserved (message bytes follow the dtype).
        mpi:
            The simulated communicator (nranks must match).
        mode:
            "classic" (compute all, pack-buffer staging, no overlap) or
            "overlap" (boundary first, direct unpack, inner overlapped).
        boundary_compute / inner_compute:
            Per-rank simulated seconds of kernel work attributed to the
            boundary / inner element sets.  In classic mode their sum is
            charged before communication; in overlap mode the boundary
            part is charged before the sends and the inner part between
            send and wait — which is what hides the transfer.

        Returns the DSS'd local fields and an :class:`ExchangeReport`.
        """
        if mpi.nranks != self.nranks:
            raise KernelError(
                f"communicator has {mpi.nranks} ranks, partition {self.nranks}"
            )
        if mode not in ("classic", "overlap"):
            raise KernelError(f"unknown exchange mode {mode!r}")
        if len(local_fields) != self.nranks:
            raise KernelError("need one local field array per rank")
        bc = boundary_compute or [0.0] * self.nranks
        ic = inner_compute or [0.0] * self.nranks

        plan = self.plan
        shapes, points = [], []
        for r, f in enumerate(local_fields):
            try:
                points.append(plan.to_points(f, gll_axis, rank=r))
            except MeshError as exc:
                raise KernelError(f"rank {r} field: {exc}") from exc
            shapes.append(np.shape(f))

        report = ExchangeReport(mode=mode)
        dropped0 = mpi.messages_dropped
        retrans0 = mpi.retransmissions
        tracer = mpi.tracer
        # Pack/unpack memcpy: classic stages through the pack buffer
        # (2 copies each way); the redesign packs and unpacks direct (1).
        copies = 2 if mode == "classic" else 1
        accs = []

        # Phase 1: compute + local accumulate + pack + send on every rank.
        for r in range(self.nranks):
            track = rank_track(r)
            t0 = mpi.now(r)
            if mode == "classic":
                # All kernel work happens before any communication.
                mpi.compute(r, bc[r] + ic[r])
            else:
                # Boundary elements first; inner is deferred.
                mpi.compute(r, bc[r])
            if tracer.enabled:
                name = "compute" if mode == "classic" else "compute.boundary"
                tracer.span_at(track, name, t0, mpi.now(r), cat="exchange",
                               tag=tag)
            acc = plan.accumulate(r, points[r])
            accs.append(acc)
            for p in plan.peers[r]:
                payload = acc[plan.rows[r][p]]
                t_pack = copies * payload.nbytes / MEMCPY_BANDWIDTH
                t1 = mpi.now(r)
                mpi.compute(r, t_pack)
                report.memcpy_seconds += t_pack
                if tracer.enabled:
                    tracer.span_at(track, "pack", t1, mpi.now(r),
                                   cat="exchange", peer=p, tag=tag,
                                   nbytes=payload.nbytes, copies=copies)
                    tracer.span_at(track, "send", mpi.now(r), mpi.now(r),
                                   cat="exchange", peer=p, tag=tag,
                                   nbytes=payload.nbytes)
                mpi.isend(r, p, payload, tag=tag)

        # Phase 2: overlap window — inner compute happens while in flight.
        if mode == "overlap":
            for r in range(self.nranks):
                t0 = mpi.now(r)
                mpi.compute(r, ic[r])
                if tracer.enabled:
                    tracer.span_at(rank_track(r), "overlap", t0, mpi.now(r),
                                   cat="exchange", tag=tag)

        # Phase 3: receive, unpack (add into the accumulator rows in
        # peer order), scatter every row back to its points.
        outs: list[np.ndarray] = []
        for r in range(self.nranks):
            acc = accs[r]
            for p in plan.peers[r]:
                rows = plan.rows[r][p]
                data = mpi.wait(mpi.irecv(r, p, tag=tag))
                if data.shape != (len(rows),) + acc.shape[1:]:
                    raise KernelError("halo message length mismatch")
                acc[rows] += data
                t_unpack = copies * data.nbytes / MEMCPY_BANDWIDTH
                t2 = mpi.now(r)
                mpi.compute(r, t_unpack)
                report.memcpy_seconds += t_unpack
                if tracer.enabled:
                    tracer.span_at(rank_track(r), "unpack", t2, mpi.now(r),
                                   cat="exchange", peer=p, tag=tag,
                                   nbytes=data.nbytes, copies=copies)
            plan.scatter(r, acc, points[r])
            outs.append(plan.from_points(points[r], shapes[r], gll_axis))

        report.rank_times = [mpi.now(r) for r in range(self.nranks)]
        report.comm_wait = list(mpi.comm_seconds)
        report.dropped = mpi.messages_dropped - dropped0
        report.retransmissions = mpi.retransmissions - retrans0
        return outs, report

    # -- helpers for tests/benches --------------------------------------------------

    def scatter(self, field: np.ndarray) -> list[np.ndarray]:
        """Split a global (nelem, np, np[, K]) field into per-rank locals."""
        return [field[e] for e in self.rank_elems]

    def split_local(self, rank: int, field: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Split a rank-local element array into (boundary, inner) rows.

        Fancy indexing copies, so the two stacks are contiguous and safe
        to ship through shared memory independently.
        """
        return (field[self.local_boundary_idx[rank]],
                field[self.local_inner_idx[rank]])

    def merge_local(self, rank: int, boundary: np.ndarray,
                    inner: np.ndarray) -> np.ndarray:
        """Reassemble (boundary, inner) rows into local element order.

        The inverse of :meth:`split_local`: a pure scatter by the
        precomputed index arrays — every output row is a byte-exact copy
        of the corresponding input row.
        """
        trailing = boundary.shape[1:] if len(boundary) else inner.shape[1:]
        dtype = boundary.dtype if len(boundary) else inner.dtype
        out = np.empty((len(self.rank_elems[rank]),) + trailing, dtype=dtype)
        out[self.local_boundary_idx[rank]] = boundary
        out[self.local_inner_idx[rank]] = inner
        return out

    def gather(self, locals_: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank locals into a global element array."""
        shape = (self.mesh.nelem,) + locals_[0].shape[1:]
        out = np.empty(shape, dtype=np.result_type(*locals_))
        for r, e in enumerate(self.rank_elems):
            out[e] = locals_[r]
        return out
