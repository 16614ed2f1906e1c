"""The assembly plan behind every DSS and halo exchange.

Every DSS entry point is checked against a small reference DSS written
independently with ``np.add.at`` over ``mesh.gid``, on every field
layout the dycore uses, for both float64 and float32.
"""

import numpy as np
import pytest

from repro.homme.bndry import HaloExchanger
from repro.homme.distributed import DistributedShallowWater
from repro.homme.element import ElementGeometry
from repro.mesh.cubed_sphere import CubedSphereMesh
from repro.mesh.partition import SFCPartition
from repro.network.simmpi import SimMPI
from repro.resilience.faults import FaultInjector

NE, NP, L, Q = 4, 4, 3, 2


@pytest.fixture(scope="module")
def mesh():
    return CubedSphereMesh(NE, NP)


@pytest.fixture(scope="module")
def geom(mesh):
    return ElementGeometry(mesh)


def reference_dss(mesh, f, gll_axis=1):
    """Conservative DSS by ``np.add.at``: sum(spheremp f) / assembled."""
    g = np.moveaxis(f, (gll_axis, gll_axis + 1), (1, 2))
    flat = g.reshape(mesh.nelem * NP * NP, -1)
    acc = np.zeros((mesh.ngid, flat.shape[1]))
    np.add.at(acc, mesh.gid.reshape(-1), flat * mesh.spheremp.reshape(-1, 1))
    out = (acc / mesh.assembled_spheremp[:, None])[mesh.gid.reshape(-1)]
    return np.moveaxis(out.reshape(g.shape), (1, 2), (gll_axis, gll_axis + 1))


def reference_dss_vector(mesh, v):
    """Contravariant DSS through the Cartesian tangent form, by einsum."""
    lev = v.ndim == 5
    e = mesh.e_cov[:, None] if lev else mesh.e_cov
    metinv = mesh.metinv[:, None] if lev else mesh.metinv
    w = mesh.radius * np.einsum("...xc,...c->...x", e, v)
    w = reference_dss(mesh, w, gll_axis=2 if lev else 1)
    cov = mesh.radius * np.einsum("...xc,...x->...c", e, w)
    return np.einsum("...ij,...j->...i", metinv, cov)


def _field(mesh, shape, seed=0):
    return np.random.default_rng(seed).standard_normal((mesh.nelem,) + shape)


#: Field shape after the element axis, and the position of the GLL axes.
SCALAR_LAYOUTS = {
    "(E,n,n)": ((NP, NP), 1),
    "(E,n,n,K)": ((NP, NP, 3), 1),
    "(E,L,n,n)": ((L, NP, NP), 2),
    "(E,L,n,n,K)": ((L, NP, NP, 3), 2),
    "(E,Q,L,n,n)": ((Q, L, NP, NP), 3),
    "(E,0,L,n,n)": ((0, L, NP, NP), 3),
}

VECTOR_LAYOUTS = {"(E,n,n,2)": (NP, NP, 2), "(E,L,n,n,2)": (L, NP, NP, 2)}


class TestAgainstReference:
    @pytest.mark.parametrize("layout", list(SCALAR_LAYOUTS))
    def test_scalar_layouts(self, mesh, geom, layout):
        shape, gll_axis = SCALAR_LAYOUTS[layout]
        f = _field(mesh, shape)
        out = geom.dss(f, gll_axis=gll_axis)
        ref = reference_dss(mesh, f, gll_axis)
        assert out.shape == f.shape and out.dtype == np.float64
        assert out.flags.c_contiguous
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("layout", list(VECTOR_LAYOUTS))
    def test_vector_layouts(self, mesh, geom, layout):
        v = _field(mesh, VECTOR_LAYOUTS[layout])
        out = geom.dss_vector(v)
        assert out.shape == v.shape and out.flags.c_contiguous
        np.testing.assert_allclose(out, reference_dss_vector(mesh, v),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("layout", ["(E,n,n)", "(E,L,n,n)", "(E,L,n,n,K)"])
    def test_geometry_default_layouts(self, mesh, geom, layout):
        shape, gll_axis = SCALAR_LAYOUTS[layout]
        f = _field(mesh, shape)
        assert np.array_equal(geom.dss(f), mesh.dss(f, gll_axis=gll_axis))

    def test_misplaced_gll_axes_rejected(self, mesh):
        from repro.errors import MeshError

        with pytest.raises(MeshError):
            mesh.dss(_field(mesh, (L, NP, NP)), gll_axis=1)
        with pytest.raises(MeshError):
            mesh.dss(_field(mesh, (NP, NP)), gll_axis=0)

    def test_integer_field_promoted(self, mesh):
        f = np.arange(mesh.nelem * NP * NP).reshape(mesh.nelem, NP, NP)
        out = mesh.dss(f)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, reference_dss(mesh, f.astype(float)),
                                   rtol=1e-15)


class TestProjectionProperties:
    @pytest.mark.parametrize("layout", ["(E,n,n)", "(E,L,n,n)", "(E,Q,L,n,n)"])
    def test_idempotent(self, geom, mesh, layout):
        shape, gll_axis = SCALAR_LAYOUTS[layout]
        once = geom.dss(_field(mesh, shape, seed=1), gll_axis=gll_axis)
        np.testing.assert_allclose(geom.dss(once, gll_axis=gll_axis), once,
                                   rtol=0, atol=1e-14)

    def test_vector_idempotent(self, geom, mesh):
        once = geom.dss_vector(_field(mesh, (L, NP, NP, 2), seed=2))
        np.testing.assert_allclose(geom.dss_vector(once), once,
                                   rtol=0, atol=1e-14)

    def test_conserves_spheremp_integral(self, geom, mesh):
        f = _field(mesh, (L, NP, NP), seed=3)
        w = mesh.spheremp[:, None]
        before = np.sum(f * w, axis=(0, 2, 3))
        after = np.sum(geom.dss(f) * w, axis=(0, 2, 3))
        np.testing.assert_allclose(after, before, rtol=1e-14, atol=0)

    def test_interior_points_pass_through_bitwise(self, mesh):
        f = _field(mesh, (NP, NP), seed=4)
        interior = mesh.multiplicity[mesh.gid] == 1
        assert interior.any()
        assert np.array_equal(mesh.dss(f)[interior], f[interior])


class TestFloat32:
    def _check(self, f32_out, f64_out):
        assert f32_out.dtype == np.float32
        scale = np.abs(f64_out).max()
        assert np.abs(f32_out - f64_out).max() <= 1e-5 * scale

    @pytest.mark.parametrize("layout", ["(E,n,n)", "(E,n,n,K)", "(E,L,n,n)",
                                        "(E,L,n,n,K)", "(E,Q,L,n,n)"])
    def test_scalar_entry_points(self, mesh, geom, layout):
        shape, gll_axis = SCALAR_LAYOUTS[layout]
        f = _field(mesh, shape, seed=5)
        self._check(geom.dss(f.astype(np.float32), gll_axis=gll_axis),
                    geom.dss(f, gll_axis=gll_axis))
        if f.ndim == 3:
            self._check(mesh.dss(f.astype(np.float32)), mesh.dss(f))

    @pytest.mark.parametrize("layout", list(VECTOR_LAYOUTS))
    def test_vector_entry_point(self, mesh, geom, layout):
        v = _field(mesh, VECTOR_LAYOUTS[layout], seed=6)
        self._check(geom.dss_vector(v.astype(np.float32)), geom.dss_vector(v))

    def test_exchange_and_gather(self, mesh):
        hx = HaloExchanger(mesh, SFCPartition(NE, 4))
        f = _field(mesh, (L, NP, NP), seed=7)
        outs32, _ = hx.exchange(hx.scatter(f.astype(np.float32)), SimMPI(4),
                                gll_axis=2)
        outs64, _ = hx.exchange(hx.scatter(f), SimMPI(4), gll_axis=2)
        assert all(o.dtype == np.float32 for o in outs32)
        self._check(hx.gather(outs32), hx.gather(outs64))


#: Messages and bytes of one exchange of an (E, n, n, 3) float64 field
#: at ne4, np4: one message per ordered pair of ranks sharing a point.
PINNED_TRAFFIC = {1: (0, 0), 2: (2, 4608), 4: (12, 8208), 6: (24, 7488)}


class TestHaloExchange:
    @pytest.mark.parametrize("nranks", sorted(PINNED_TRAFFIC))
    def test_gathered_equals_mesh_dss(self, mesh, nranks):
        hx = HaloExchanger(mesh, SFCPartition(NE, nranks))
        f = _field(mesh, (NP, NP, 3), seed=8)
        mpi = SimMPI(nranks)
        outs, _ = hx.exchange(hx.scatter(f), mpi, mode="overlap")
        got = hx.gather(outs)
        if nranks == 1:
            assert np.array_equal(got, mesh.dss(f))  # the serial case
        else:
            np.testing.assert_allclose(got, mesh.dss(f), rtol=0, atol=1e-13)
        assert (mpi.messages_sent, mpi.bytes_sent) == PINNED_TRAFFIC[nranks]
        mpi.finalize()

    @pytest.mark.parametrize("nranks", [2, 4, 6])
    def test_traffic_matches_brute_force_sharing(self, mesh, nranks):
        hx = HaloExchanger(mesh, SFCPartition(NE, nranks))
        gids = [np.unique(mesh.gid[e]) for e in hx.rank_elems]
        shared = [len(np.intersect1d(gids[a], gids[b]))
                  for a in range(nranks) for b in range(nranks) if a != b]
        messages = sum(1 for s in shared if s)
        nbytes = sum(shared) * 3 * 8
        assert PINNED_TRAFFIC[nranks] == (messages, nbytes)

    def test_level_layout_matches_trailing_layout(self, mesh):
        hx = HaloExchanger(mesh, SFCPartition(NE, 4))
        f = _field(mesh, (L, NP, NP), seed=9)
        a, _ = hx.exchange(hx.scatter(f), SimMPI(4), gll_axis=2)
        b, _ = hx.exchange(hx.scatter(np.moveaxis(f, 1, -1)), SimMPI(4))
        for x, y in zip(a, b):
            assert np.array_equal(x, np.moveaxis(y, -1, 1))


class TestMailboxDrains:
    def test_no_dead_keys_after_distributed_steps(self, mesh):
        with DistributedShallowWater(mesh, 4) as model:
            model.run_steps(3)
        assert len(model.mpi._mailbox) == 0
        assert model.mpi.pending_messages() == 0

    def test_lost_queue_drains_after_retransmit(self, mesh):
        with DistributedShallowWater(
                mesh, 4, faults=FaultInjector(drop_messages=[0, 5, 17])) as model:
            model.run_steps(2)
        assert model.mpi.retransmissions >= 3
        assert len(model.mpi._mailbox) == 0 and len(model.mpi._lost) == 0
        assert model.mpi.pending_messages() == 0
