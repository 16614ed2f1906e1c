"""The assembly plan: one precompiled schedule behind every DSS.

Direct stiffness summation (DSS) replaces the values a shared GLL point
holds in each element by their spheremp-weighted average.  The mesh
connectivity never changes, so :class:`AssemblyPlan` derives everything
an assembly needs once per (mesh, partition) — the serial mesh is the
one-rank case — and every DSS and halo exchange afterwards is a fixed
sequence of row gathers, multiply-adds and row scatters:

- **Multiplicity classes.**  Each rank's local global ids (gids) are
  grouped by how many of the rank's GLL points they own (1 to 4).  A
  class of ``n`` gids with multiplicity ``m`` is ``m`` static
  ``(n,)`` point-index arrays plus their DSS weights, so the assembled
  sum is an unrolled ``m``-term sum, accumulated in ascending global
  point order — the order the former per-column ``bincount`` used, so
  the serial scalar DSS is bitwise unchanged.  Gids held by one point
  of one rank have weight exactly 1.0 and pass through as a copy.
- **Halo schedule.**  Per rank and peer, the accumulator rows of the
  gids the two ranks share, in sorted-gid order: the pack rows of the
  outgoing message and the unpack rows of the incoming one.
- **Vector frames.**  Contravariant vectors cannot be averaged across
  cube edges (each face has its own frame); they assemble in the
  Cartesian tangent form ``w = A v`` with ``A = radius * e_cov`` and
  return through ``v = B w`` with ``B = radius * metinv * e_cov^T``.
  Both frames are folded once and applied per point: batched 3x2 /
  2x3 matrix products for level stacks, unrolled two- and three-term
  sums over contiguous frame planes for single-level fields.

Fields travel through the plan *point-major*: a 2-D ``(points, C)``
array whose rows are GLL points in local element order and whose ``C``
columns are every level, tracer and component of that point.  A field
whose GLL axes come first, ``(E, n, n, ...)``, already is one; a
level-major field ``(E, L, n, n, ...)`` is transposed in and out by one
copy each.  Every operation preserves the field's floating dtype.
"""

from __future__ import annotations

from math import prod

import numpy as np

from ..errors import MeshError


class AssemblyPlan:
    """Static DSS schedule for a mesh split into element sets (ranks).

    ``rank_elems`` lists each rank's element ids in local order;
    ``None`` is the serial plan (one rank owning every element in mesh
    order).  Attributes:

    - ``peers[r]`` — ranks sharing at least one gid with rank ``r``,
      ascending;
    - ``rows[r][p]`` — rank ``r``'s accumulator rows of the gids it
      shares with ``p``, in ascending gid order (the message layout).
    """

    def __init__(self, mesh, rank_elems: list[np.ndarray] | None = None) -> None:
        self.np = mesh.np
        self.nn = nn = mesh.np * mesh.np
        if rank_elems is None:
            rank_elems = [np.arange(mesh.nelem)]
        self.rank_elems = [np.asarray(e, dtype=np.int64) for e in rank_elems]
        self.nranks = len(self.rank_elems)
        gid = mesh.gid.reshape(-1)
        weight = mesh.dss_weight.reshape(-1)
        mult = mesh.multiplicity
        self._e_cov = mesh.e_cov
        self._metinv = mesh.metinv
        self._radius = mesh.radius

        self._classes: list[list[tuple]] = []
        self._nrows: list[int] = []
        shared_r, shared_g = [], []
        row_of: list[tuple[np.ndarray, np.ndarray]] = []
        for r, els in enumerate(self.rank_elems):
            gpts = (els[:, None] * nn + np.arange(nn)).reshape(-1)
            lg = gid[gpts]
            # Points grouped by gid, ascending global point id within.
            order = np.lexsort((gpts, lg))
            uniq, first, count = np.unique(
                lg[order], return_index=True, return_counts=True
            )
            shared = count < mult[uniq]
            live = (count > 1) | shared
            row = np.full(len(uniq), -1, dtype=np.int64)
            classes = []
            start = 0
            for m in range(1, int(count.max(initial=0)) + 1):
                sel = np.nonzero(live & (count == m))[0]
                if len(sel) == 0:
                    continue
                idx = order[first[sel][:, None] + np.arange(m)]
                row[sel] = start + np.arange(len(sel))
                classes.append((
                    start,
                    tuple(np.ascontiguousarray(idx[:, j]) for j in range(m)),
                    tuple(weight[gpts[idx[:, j]]][:, None] for j in range(m)),
                ))
                start += len(sel)
            self._classes.append(classes)
            self._nrows.append(start)
            row_of.append((uniq, row))
            shared_g.append(uniq[shared])
            shared_r.append(np.full(int(shared.sum()), r, dtype=np.int64))
        self._build_schedule(np.concatenate(shared_r), np.concatenate(shared_g),
                             row_of)
        self._frame_cache: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def _build_schedule(self, ranks: np.ndarray, gids: np.ndarray,
                        row_of: list[tuple[np.ndarray, np.ndarray]]) -> None:
        """Per ordered rank pair, the shared gids as accumulator rows."""
        self.peers: list[list[int]] = [[] for _ in range(self.nranks)]
        self.rows: list[dict[int, np.ndarray]] = [{} for _ in range(self.nranks)]
        if len(gids) == 0:
            return
        o = np.lexsort((ranks, gids))
        ranks, gids = ranks[o], gids[o]
        _, first, count = np.unique(gids, return_index=True, return_counts=True)
        a, b, g = [], [], []
        for k in range(2, int(count.max()) + 1):
            s = first[count == k]
            for i in range(k):
                for j in range(k):
                    if i != j:
                        a.append(ranks[s + i])
                        b.append(ranks[s + j])
                        g.append(gids[s])
        a, b, g = np.concatenate(a), np.concatenate(b), np.concatenate(g)
        o = np.lexsort((g, b, a))
        a, b, g = a[o], b[o], g[o]
        cuts = np.flatnonzero((np.diff(a) != 0) | (np.diff(b) != 0)) + 1
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(a)]):
            r, p = int(a[lo]), int(b[lo])
            uniq, row = row_of[r]
            self.peers[r].append(p)
            self.rows[r][p] = row[np.searchsorted(uniq, g[lo:hi])]

    # -- vector frames ---------------------------------------------------------------

    def _frames(self, rank: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
        """``A`` and ``B`` as contiguous per-entry planes, (3, 2, points)
        and (2, 3, points), in ``dtype``."""
        key = (rank, dtype)
        if key not in self._frame_cache:
            els = self.rank_elems[rank]
            e = self._e_cov[els].reshape(-1, 3, 2)
            b = np.matmul(self._metinv[els].reshape(-1, 2, 2), e.transpose(0, 2, 1))
            self._frame_cache[key] = tuple(
                np.ascontiguousarray((self._radius * m).transpose(1, 2, 0), dtype=dtype)
                for m in (e, b)
            )
        return self._frame_cache[key]

    def _product(self, rank: int, which: int, x: np.ndarray) -> np.ndarray:
        """Per-point frame product: frame ``which`` (0: A, 1: B) times
        ``x`` (points, i, L) -> (points, o, L)."""
        planes = self._frames(rank, x.dtype)[which]
        if x.shape[2] > 1:
            return np.matmul(planes.transpose(2, 0, 1), x)
        # One column per point: matmul would run a tiny product per
        # point; the unrolled sum runs one long loop per frame entry.
        out = np.empty((x.shape[0], planes.shape[0], 1), dtype=x.dtype)
        for o, plane in enumerate(planes):
            row = out[:, o, 0]
            np.multiply(plane[0], x[:, 0, 0], out=row)
            for i in range(1, len(plane)):
                row += plane[i] * x[:, i, 0]
        return out

    # -- point-major layout ----------------------------------------------------------

    def to_points(self, field: np.ndarray, gll_axis: int = 1, rank: int = 0
                  ) -> np.ndarray:
        """A private ``(points, C)`` copy of rank ``rank``'s ``field``.

        ``field`` is (E, *mid, n, n, *trail) with the GLL axes at
        ``gll_axis`` and ``gll_axis + 1``.  Integer input is promoted
        to float64; floating dtypes are kept.
        """
        f = np.asarray(field)
        lead = (len(self.rank_elems[rank]), self.np, self.np)
        if gll_axis < 1 or f.ndim < gll_axis + 2 or (
            (f.shape[0],) + f.shape[gll_axis:gll_axis + 2] != lead
        ):
            raise MeshError(f"expected element axis {lead[0]} and GLL axes "
                            f"{lead[1:]} at {gll_axis}, got {f.shape}")
        dtype = f.dtype if np.issubdtype(f.dtype, np.floating) else np.float64
        E, M, K = _split(f.shape, gll_axis)
        p = np.array(f.reshape(E, M, self.nn, K).transpose(0, 2, 1, 3),
                     dtype=dtype, order="C")
        return p.reshape(E * self.nn, M * K)

    def from_points(self, p: np.ndarray, shape: tuple, gll_axis: int = 1
                    ) -> np.ndarray:
        """The inverse of :meth:`to_points` (C-contiguous)."""
        E, M, K = _split(shape, gll_axis)
        out = p.reshape(E, self.nn, M, K).transpose(0, 2, 1, 3)
        return np.ascontiguousarray(out).reshape(shape)

    # -- assembly ----------------------------------------------------------------------

    def accumulate(self, rank: int, p: np.ndarray) -> np.ndarray:
        """Weighted per-gid sums of the rank's points; (rows, C)."""
        acc = np.empty((self._nrows[rank], p.shape[1]), dtype=p.dtype)
        for start, idx, wts in self._classes[rank]:
            seg = acc[start:start + len(idx[0])]
            np.multiply(p[idx[0]], wts[0], out=seg)
            for i, w in zip(idx[1:], wts[1:]):
                seg += p[i] * w
        return acc

    def scatter(self, rank: int, acc: np.ndarray, p: np.ndarray) -> None:
        """Write every accumulator row back to all of its points, in place."""
        for start, idx, _ in self._classes[rank]:
            seg = acc[start:start + len(idx[0])]
            for i in idx:
                p[i] = seg

    def dss(self, field: np.ndarray, gll_axis: int = 1) -> np.ndarray:
        """Serial DSS of a whole-mesh field (E, *mid, n, n, *trail)."""
        if self.nranks != 1:
            raise MeshError("serial dss needs a one-rank plan")
        p = self.to_points(field, gll_axis)
        self.scatter(0, self.accumulate(0, p), p)
        return self.from_points(p, np.shape(field), gll_axis)

    # -- contravariant vectors ------------------------------------------------------

    def to_cartesian(self, rank: int, v: np.ndarray) -> np.ndarray:
        """``w = A v``: (E, [L,] n, n, 2) -> point-major (E, n, n, 3[, L])."""
        v = np.asarray(v)
        if not np.issubdtype(v.dtype, np.floating):
            v = v.astype(np.float64)
        E, n, nn = len(self.rank_elems[rank]), self.np, self.nn
        if v.shape == (E, n, n, 2):
            return self._product(rank, 0, v.reshape(E * nn, 2, 1)
                                 ).reshape(E, n, n, 3)
        if v.ndim == 5 and v.shape[:1] + v.shape[2:] == (E, n, n, 2):
            L = v.shape[1]
            vt = np.ascontiguousarray(
                v.reshape(E, L, nn, 2).transpose(0, 2, 3, 1)
            ).reshape(E * nn, 2, L)
            return self._product(rank, 0, vt).reshape(E, n, n, 3, L)
        raise MeshError(f"vector field of shape {v.shape} does not match "
                        f"rank {rank}'s ({E}, [L,] {n}, {n}, 2) layout")

    def from_cartesian(self, rank: int, w: np.ndarray) -> np.ndarray:
        """``v = B w``: the inverse layout of :meth:`to_cartesian`."""
        E, n, nn = w.shape[0], self.np, self.nn
        lev = w.shape[4:]
        L = lev[0] if lev else 1
        vt = self._product(rank, 1, w.reshape(E * nn, 3, L))
        if not lev:
            return vt.reshape(E, n, n, 2)
        out = vt.reshape(E, nn, 2, L).transpose(0, 3, 1, 2)
        return np.ascontiguousarray(out).reshape(E, L, n, n, 2)

    def dss_vector(self, v: np.ndarray) -> np.ndarray:
        """Serial DSS of a contravariant vector field (E, [L,] n, n, 2)."""
        if self.nranks != 1:
            raise MeshError("serial dss_vector needs a one-rank plan")
        w = self.to_cartesian(0, v)
        p = w.reshape(w.shape[0] * self.nn, -1)  # fresh array: in place
        self.scatter(0, self.accumulate(0, p), p)
        return self.from_cartesian(0, w)


def _split(shape: tuple, gll_axis: int) -> tuple[int, int, int]:
    """``(E, M, K)``: elements, product of middle axes, of trailing axes."""
    return shape[0], prod(shape[1:gll_axis]), prod(shape[gll_axis + 2:])
