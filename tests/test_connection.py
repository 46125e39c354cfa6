"""Face-exchange (port update) tests.

The hand values come from two unit cubes side by side: for a linear
profile the shared face must take exactly the profile's value at the
interface plane.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from conftest import UNIT_CUBE, box_mesh, jitter_warp
from hexflow.connection import (
    connection_sweep,
    contract_flux_coeffs,
    face_flux,
    face_gradient,
    face_nodal_components,
    one_sided_face_value,
    update_interface,
)
from hexflow.errors import SingularInterfaceError
from hexflow.hexmesh import FACE_AXIS, FACE_PARITY, build_mesh
from hexflow.state import FieldState


def single_cell_mesh(verts):
    return build_mesh(verts, [list(range(8))], [(0, f, "b") for f in range(6)])


def affine_state(mesh, a, c):
    """Nodal and port values of Z = a.x + c sampled at centroids."""
    a = np.asarray(a, dtype=np.float64)
    s = FieldState.uniform(mesh.n_cells)
    s.cell_T = mesh.centroids @ a + c
    s.face_T = np.einsum("cfi,i->cf", mesh.face_centroids, a) + c
    return s


def test_face_nodal_components_matches_literal_oracle():
    rng = np.random.default_rng(31)
    mesh = box_mesh(2, 2, 1, warp=jitter_warp(seed=5, scale=0.03))
    cell_vals = rng.standard_normal(mesh.n_cells)
    face_vals = rng.standard_normal((mesh.n_cells, 6))
    z = face_nodal_components(mesh, cell_vals, face_vals)
    for c in range(mesh.n_cells):
        for f in range(6):
            for mu in range(3):
                if mu == FACE_AXIS[f]:
                    want = 2.0 * FACE_PARITY[f] * cell_vals[c]
                else:
                    want = face_vals[c, 2 * mu + 1] - face_vals[c, 2 * mu]
                assert z[c, f, mu] == want


def test_constant_field_components_on_cube():
    mesh = single_cell_mesh(UNIT_CUBE)
    z = face_nodal_components(mesh, np.array([3.0]), np.full((1, 6), 3.0))
    # plus-x face: only the (signed, doubled) point value survives
    assert np.array_equal(z[0, 1], [-6.0, 0.0, 0.0])
    assert np.array_equal(z[0, 0], [6.0, 0.0, 0.0])


def test_two_cube_interface_value_exact():
    mesh = box_mesh(2, 1, 1, lengths=(2.0, 1.0, 1.0))
    a, c = 0.25, 0.5  # dyadic so the hand value is exact in floats
    s = affine_state(mesh, (a, 0.0, 0.0), c)
    z = face_nodal_components(mesh, s.cell_T, s.face_T)
    sz = contract_flux_coeffs(mesh, z)
    shared = update_interface(mesh, s.cell_T, sz)
    assert shared.shape == (1,)
    assert shared[0] == a * 1.0 + c

    # arbitrary slope through the whole sweep
    s2 = affine_state(mesh, (0.3, 0.0, 0.0), -0.2)
    connection_sweep(mesh, s2)
    got = s2.face_T[mesh.icell_a[0], mesh.iface_a[0]]
    assert abs(got - (0.3 - 0.2)) < 1e-14
    assert s2.port_step == 2


def test_interface_values_affine_exact_on_warped_mesh():
    mesh = box_mesh(3, 3, 2, warp=jitter_warp(seed=6, scale=0.04))
    a = np.array([0.7, -0.3, 0.2])
    s = affine_state(mesh, a, 1.0)
    connection_sweep(mesh, s)
    want = np.einsum("cfi,i->cf", mesh.face_centroids, a) + 1.0
    ia, fa = mesh.icell_a, mesh.iface_a
    assert np.allclose(s.face_T[ia, fa], want[ia, fa], rtol=0, atol=1e-12)


def test_constant_state_is_bitwise_fixed_point():
    mesh = box_mesh(3, 2, 2, warp=jitter_warp(seed=8, scale=0.04))
    s = FieldState.uniform(mesh.n_cells, T=0.3, u=(0.1, -0.2, 0.7), p=5.0)
    before_T = s.face_T.copy()
    before_u = s.face_u.copy()
    connection_sweep(mesh, s)
    assert np.array_equal(s.face_T, before_T)
    assert np.array_equal(s.face_u, before_u)
    assert s.flux.shape == (4, mesh.n_cells, 6)
    assert (s.flux == 0.0).all()


def test_mirrorsymmetric_data_gives_zero_shared_flux():
    mesh = box_mesh(2, 1, 1, lengths=(2.0, 1.0, 1.0))
    s = FieldState.uniform(2, T=0.0)
    s.cell_T = np.array([0.8, 0.8])
    # temperature even about the shared plane; in-plane ports nonzero
    s.face_T = np.array(
        [[0.2, 0.5, 0.4, 0.6, 0.3, 0.9],
         [0.5, 0.2, 0.4, 0.6, 0.3, 0.9]]
    )
    connection_sweep(mesh, s)
    assert s.flux[0, 0, 1] == 0.0
    assert s.flux[0, 1, 0] == 0.0
    # the shared value equals the nodal value by symmetry
    assert s.face_T[0, 1] == 0.8


def test_zero_gradient_default_on_isolated_cube():
    mesh = single_cell_mesh(UNIT_CUBE)
    s = affine_state(mesh, (2.0, 0.0, 0.0), 1.0)
    connection_sweep(mesh, s)
    # one-sided rule puts the nodal value on every face of a cube cell
    assert np.allclose(s.face_T, 2.0 * 0.5 + 1.0, rtol=0, atol=1e-15)
    assert np.allclose(s.flux[0], 0.0, rtol=0, atol=1e-14)


def test_face_flux_linear_field_unit_cube():
    mesh = single_cell_mesh(UNIT_CUBE)
    s = affine_state(mesh, (1.0, 0.0, 0.0), 0.0)
    z = face_nodal_components(mesh, s.cell_T, s.face_T)
    sz = contract_flux_coeffs(mesh, z)
    flux = face_flux(mesh, sz, s.face_T)
    assert np.allclose(flux[0], [-1.0, 1.0, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-15)


def test_flux_antisymmetry_is_exact():
    rng = np.random.default_rng(32)
    mesh = box_mesh(3, 3, 2, warp=jitter_warp(seed=12, scale=0.04))
    s = FieldState.uniform(mesh.n_cells)
    s.cell_T = rng.standard_normal(mesh.n_cells)
    s.face_T = rng.standard_normal((mesh.n_cells, 6))
    s.cell_u = rng.standard_normal((mesh.n_cells, 3))
    s.face_u = rng.standard_normal((mesh.n_cells, 6, 3))
    connection_sweep(mesh, s)
    assert s.flux.shape == (4, mesh.n_cells, 6)
    fa = s.flux[:, mesh.icell_a, mesh.iface_a]
    fb = s.flux[:, mesh.icell_b, mesh.iface_b]
    assert np.array_equal(fa, -fb)


def test_sweep_matches_per_face_loop_in_any_order():
    rng = np.random.default_rng(33)
    mesh = box_mesh(2, 2, 2, warp=jitter_warp(seed=13, scale=0.05))
    s = FieldState.uniform(mesh.n_cells)
    s.cell_T = rng.standard_normal(mesh.n_cells)
    s.face_T = rng.standard_normal((mesh.n_cells, 6))
    z = face_nodal_components(mesh, s.cell_T, s.face_T)
    sz = contract_flux_coeffs(mesh, z)

    expected = s.face_T.copy()
    order = rng.permutation(mesh.n_interior_faces)
    for k in order:
        ca, fa = mesh.icell_a[k], mesh.iface_a[k]
        cb, fb = mesh.icell_b[k], mesh.iface_b[k]
        ga, gb = mesh.pair_coeff[ca, fa], mesh.pair_coeff[cb, fb]
        va, vb = s.cell_T[ca], s.cell_T[cb]
        ta = sz[ca, fa] - ga * va
        tb = sz[cb, fb] - gb * vb
        val = va + (gb * (vb - va) + ta + tb) / (ga + gb)
        expected[ca, fa] = val
        expected[cb, fb] = val
    for c, f in zip(mesh.bcell, mesh.bface):
        g = mesh.pair_coeff[c, f]
        v = s.cell_T[c]
        expected[c, f] = v + (sz[c, f] - g * v) / g

    connection_sweep(mesh, s)
    assert np.array_equal(s.face_T, expected)


def test_face_gradient_constant_is_zero():
    mesh = box_mesh(2, 2, 1, warp=jitter_warp(seed=14, scale=0.04))
    nc = mesh.n_cells
    cells = np.full(nc, 4.2)
    faces = np.full((nc, 6), 4.2)
    grad = face_gradient(mesh, cells, faces, faces)
    assert (grad == 0.0).all()


def test_face_gradient_affine_exact_on_single_cells():
    from conftest import random_hex

    rng = np.random.default_rng(34)
    for _ in range(25):
        mesh = single_cell_mesh(random_hex(rng))
        a = rng.standard_normal(3)
        s = affine_state(mesh, a, 0.7)
        grad = face_gradient(mesh, s.cell_T, s.face_T, s.face_T)
        assert np.allclose(grad, a[None, None, :], rtol=0, atol=1e-12 * np.abs(a).max())


def test_face_gradient_affine_exact_on_sheared_tiling():
    # identical parallelepiped cells: the interface averaging is lossless
    shear = np.array([[1.0, 0.4, 0.1], [0.0, 1.0, -0.3], [0.0, 0.0, 1.0]])
    mesh = box_mesh(3, 2, 2, warp=lambda v: v @ shear.T)
    a = np.array([0.5, 1.5, -2.0])
    s = affine_state(mesh, a, -1.0)
    old = s.face_T.copy()
    connection_sweep(mesh, s)
    grad = face_gradient(mesh, s.cell_T, s.face_T, old)
    ia, fa = mesh.icell_a, mesh.iface_a
    assert np.allclose(grad[ia, fa], a[None, :], rtol=0, atol=1e-12 * np.abs(a).max())


def test_singular_interface_detected():
    fake = SimpleNamespace(
        pair_coeff=np.array([[0.0, 2.0, 0, 0, 0, 0], [-2.0, 0.0, 0, 0, 0, 0]]),
        icell_a=np.array([0]),
        iface_a=np.array([1]),
        icell_b=np.array([1]),
        iface_b=np.array([0]),
    )
    sz = np.ones((2, 6))
    vals = np.zeros(2)
    with pytest.raises(SingularInterfaceError):
        update_interface(fake, vals, sz)
    fake.pair_coeff[0, 1] = 0.0
    with pytest.raises(SingularInterfaceError):
        one_sided_face_value(fake, vals, sz, np.array([0]), np.array([1]))


def test_bc_hook_overrides_enter_flux():
    mesh = single_cell_mesh(UNIT_CUBE)
    s = affine_state(mesh, (1.0, 0.0, 0.0), 0.0)
    old_cell = s.cell_T.copy()
    old_face = s.face_T.copy()

    def hook(m, st):
        st.face_T[0, 1] = 7.0

    connection_sweep(mesh, s, bc_hook=hook)
    assert s.face_T[0, 1] == 7.0
    z = face_nodal_components(mesh, old_cell, old_face)
    sz = contract_flux_coeffs(mesh, z)
    want = sz[0, 1] - mesh.pair_coeff[0, 1] * 7.0
    assert s.flux[0, 0, 1] == want


def test_sweep_requires_node_lead():
    mesh = single_cell_mesh(UNIT_CUBE)
    s = FieldState.uniform(1)
    connection_sweep(mesh, s)
    with pytest.raises(ValueError):
        connection_sweep(mesh, s)
