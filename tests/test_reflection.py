"""Cell-balance (nodal update) tests.

The workhorse oracle is the classical explicit central-difference
stencil, which the scheme must reproduce exactly on regular 1D grids.
"""

import numpy as np
import pytest

from conftest import box_mesh, random_hex
from hexflow.connection import connection_sweep
from hexflow.hexmesh import build_mesh
from hexflow.reflection import (
    MaterialProps,
    SourceField,
    cfl_number,
    nodal_gradient,
    reflection_sweep,
    update_nodes,
)
from hexflow.state import FieldState


def wall_hook(mesh, state):
    """No-slip override: zero velocity ports on every boundary face."""
    state.face_u[mesh.bcell, mesh.bface] = 0.0


def full_step(mesh, state, props, tau, source=None, hook=wall_hook):
    connection_sweep(mesh, state, bc_hook=hook)
    reflection_sweep(mesh, state, props, tau, source=source)


def test_material_props_validation():
    MaterialProps(alpha=1e-5, eta=1e-3, rho_inf=1.2)
    with pytest.raises(ValueError):
        MaterialProps(alpha=-1.0)
    with pytest.raises(ValueError):
        MaterialProps(rho_inf=0.0)
    with pytest.raises(ValueError):
        MaterialProps(T_inf=np.nan)
    with pytest.raises(ValueError):
        SourceField(q=np.array([1.0, np.inf]))
    assert MaterialProps(eta=2.0, rho_inf=4.0).nu == 0.5


def test_nodal_gradient_constant_and_affine():
    rng = np.random.default_rng(41)
    mesh = box_mesh(2, 2, 1)
    assert (nodal_gradient(mesh, np.full((mesh.n_cells, 6), 3.3)) == 0.0).all()
    for _ in range(20):
        cell = build_mesh(
            random_hex(rng), [list(range(8))], [(0, f, "b") for f in range(6)]
        )
        a = rng.standard_normal(3)
        ports = np.einsum("cfi,i->cf", cell.face_centroids, a) + 0.4
        got = nodal_gradient(cell, ports)
        assert np.allclose(got[0], a, rtol=0, atol=1e-12 * np.abs(a).max())


def test_quiescent_isothermal_state_is_bitwise_fixed_point():
    mesh = box_mesh(3, 2, 2)
    props = MaterialProps(alpha=0.1, eta=0.05, rho_inf=1.0, beta=-3e-3,
                          T_inf=300.0, g=(0.0, -9.81, 0.0))
    s = FieldState.uniform(mesh.n_cells, T=300.0, p=101.0)
    for _ in range(3):
        T0, u0 = s.cell_T.copy(), s.cell_u.copy()
        full_step(mesh, s, props, tau=0.01)
        assert np.array_equal(s.cell_T, T0)
        assert np.array_equal(s.cell_u, u0)


def test_uniform_advection_leaves_temperature_nearly_unchanged():
    # convective surface terms cancel through the closed-surface identity
    mesh = box_mesh(2, 2, 2)
    props = MaterialProps(alpha=0.0)
    s = FieldState.uniform(mesh.n_cells, T=5.0, u=(1.0, 2.0, -0.5))
    s.flux = np.zeros((4, mesh.n_cells, 6))
    s.port_step, s.node_step = 2, 1
    newT = update_nodes(mesh, s, props, 0.0, tau=0.1)[0]
    assert np.allclose(newT, 5.0, rtol=0, atol=1e-13)


def _ftcs_heat_oracle(T, r):
    """One explicit step with reflective (zero-flux) ends."""
    padded = np.concatenate([[T[0]], T, [T[-1]]])
    return T + r * (padded[2:] - 2.0 * T + padded[:-2])


def test_matches_heat_stencil_on_1d_grid():
    n, alpha, tau = 12, 0.3, 0.2  # r = 0.06 on unit cells
    mesh = box_mesh(n, 1, 1, lengths=(float(n), 1.0, 1.0))
    props = MaterialProps(alpha=alpha)
    s = FieldState.uniform(n)
    rng = np.random.default_rng(42)
    s.cell_T = rng.uniform(0.0, 1.0, n)
    want = s.cell_T.copy()
    r = alpha * tau  # h = 1
    for step in range(25):
        full_step(mesh, s, props, tau)
        want = _ftcs_heat_oracle(want, r)
        assert np.allclose(s.cell_T, want, rtol=0, atol=1e-13 * (step + 2))


def test_matches_viscous_stencil_for_shear_layer():
    n, eta, rho, tau = 10, 0.4, 2.0, 0.2  # nu = 0.2
    mesh = box_mesh(n, 1, 1, lengths=(float(n), 1.0, 1.0))
    props = MaterialProps(eta=eta, rho_inf=rho)
    s = FieldState.uniform(n)
    rng = np.random.default_rng(43)
    uy = rng.uniform(-1.0, 1.0, n)
    s.cell_u[:, 1] = uy
    s.face_u[:, :, 1] = uy[:, None]

    def hook(mesh_, st):
        # impermeable frictionless channel: block only the normal
        # velocity component so the shear profile stays 1D
        st.face_u[mesh_.bcell, mesh_.bface, 0] = 0.0

    want = uy.copy()
    for step in range(20):
        full_step(mesh, s, props, tau, hook=hook)
        want = _ftcs_heat_oracle(want, props.nu * tau)
        assert np.allclose(s.cell_u[:, 1], want, rtol=0, atol=1e-13 * (step + 2))
    assert np.allclose(s.cell_u[:, 0], 0.0, atol=1e-15)
    assert np.allclose(s.cell_u[:, 2], 0.0, atol=1e-15)


def test_buoyancy_increment_exact():
    mesh = box_mesh(2, 1, 1)
    props = MaterialProps(beta=-3.3e-3, T_inf=300.0, g=(0.0, -9.81, 0.0))
    tau = 0.05
    s = FieldState.uniform(2, T=310.0, p=0.0)
    full_step(mesh, s, props, tau)
    want = tau * (props.beta * 10.0 * -9.81)
    # hot fluid with negative expansion coefficient must move against
    # gravity, i.e. upward
    assert want > 0.0
    assert np.allclose(s.cell_u[:, 1], want, rtol=1e-15, atol=0)
    assert (s.cell_u[:, [0, 2]] == 0.0).all()


def test_single_heated_cell_rises_by_tau_q():
    mesh = box_mesh(3, 1, 1, lengths=(3.0, 1.0, 1.0))
    props = MaterialProps(alpha=0.0)
    q = np.zeros(3)
    q[1] = 4.0
    tau = 0.25
    s = FieldState.uniform(3, T=1.0)
    full_step(mesh, s, props, tau, source=SourceField(q=q))
    assert s.cell_T[1] == 1.0 + tau * 4.0
    assert s.cell_T[0] == 1.0 and s.cell_T[2] == 1.0


def test_three_cell_chain_matches_assembled_oracle():
    mesh = box_mesh(3, 1, 1, lengths=(3.0, 1.0, 1.0))
    props = MaterialProps(alpha=0.5)
    tau = 0.1
    s = FieldState.uniform(3)
    s.cell_T = np.array([1.0, 0.0, 0.5])
    T0 = s.cell_T.copy()
    connection_sweep(mesh, s, bc_hook=wall_hook)
    # assemble the update by hand from the cached fluxes
    want = T0 + (tau / mesh.volumes) * (props.alpha * s.flux[0]).sum(axis=1)
    reflection_sweep(mesh, s, props, tau)
    assert np.array_equal(s.cell_T, want)


def test_global_heat_conserved_in_closed_box():
    mesh = box_mesh(4, 3, 2)
    props = MaterialProps(alpha=2e-3, eta=1e-3, rho_inf=1.0)
    tau = 0.05  # diffusive number 2*alpha*tau/h^2 = 0.0032 per unit... h=0.25
    rng = np.random.default_rng(44)
    s = FieldState.uniform(mesh.n_cells)
    s.cell_T = rng.uniform(0.0, 2.0, mesh.n_cells)
    s.cell_u = 0.1 * rng.standard_normal((mesh.n_cells, 3))
    total0 = float(mesh.volumes @ s.cell_T)
    for _ in range(60):
        full_step(mesh, s, props, tau)
    drift = abs(float(mesh.volumes @ s.cell_T) - total0) / abs(total0)
    assert drift < 1e-13


def test_sweep_validates_preconditions():
    mesh = box_mesh(2, 1, 1)
    props = MaterialProps()
    s = FieldState.uniform(2)
    with pytest.raises(ValueError, match="ports half a step ahead"):
        reflection_sweep(mesh, s, props, 0.1)
    s.port_step, s.node_step = 2, 1
    with pytest.raises(ValueError, match="face sweep"):
        reflection_sweep(mesh, s, props, 0.1)


def test_cfl_number_hand_values():
    mesh = box_mesh(2, 1, 1, lengths=(1.0, 0.5, 0.5))  # h = 0.5
    s = FieldState.uniform(2, u=(2.0, 0.0, 0.0))
    props = MaterialProps(alpha=0.25)
    got = cfl_number(mesh, s, props, tau=0.1)
    assert np.isclose(got, max(2.0 * 0.1 / 0.5, 2 * 0.25 * 0.1 / 0.25))
    quiet = FieldState.uniform(2)
    assert np.isclose(cfl_number(mesh, quiet, props, tau=0.1), 0.2)