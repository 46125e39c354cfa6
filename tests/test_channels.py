"""The stacked pass over T, ux, uy, uz against a per-channel reference.

The reference runs the face sweep, the node update and the coarsening
one scalar channel at a time through the scalar helpers, the way the
sweeps would be written without a channel axis.  The stacked pass must
reproduce it bit for bit, on a jittered box and on the annulus.
"""

import numpy as np
import pytest

from conftest import box_mesh, jitter_warp
from hexflow.coarsen import (
    CoarseningConfig,
    coarsen_cell,
    coarsen_sweep,
    face_area_weights,
)
from hexflow.connection import (
    connection_sweep,
    contract_flux_coeffs,
    face_flux,
    face_nodal_components,
    one_sided_face_value,
    update_interface,
)
from hexflow.reflection import MaterialProps, nodal_gradient, reflection_sweep
from hexflow.sim import annulus_mesh
from hexflow.state import FieldState

PROPS = MaterialProps(alpha=0.03, eta=0.05, rho_inf=1.3, beta=-3e-3,
                      T_inf=0.2, g=(0.4, -9.81, 0.7))
TAU = 0.01


def hook(mesh, state):
    """Boundary overrides: no-slip everywhere, a fixed T on every other face."""
    state.face_u[mesh.bcell, mesh.bface] = 0.0
    state.face_T[mesh.bcell[::2], mesh.bface[::2]] = 1.5


def reference_connection_sweep(mesh, state, bc_hook):
    """Face sweep run once per channel; fluxes as a list T, ux, uy, uz."""
    channels = [(state.cell_T, state.face_T)] + [
        (state.cell_u[:, k], state.face_u[:, :, k]) for k in range(3)]
    sz_all, new_all = [], []
    for cell_vals, old_faces in channels:
        sz = contract_flux_coeffs(
            mesh, face_nodal_components(mesh, cell_vals, old_faces))
        new = old_faces.copy()
        shared = update_interface(mesh, cell_vals, sz)
        new[mesh.icell_a, mesh.iface_a] = shared
        new[mesh.icell_b, mesh.iface_b] = shared
        new[mesh.bcell, mesh.bface] = one_sided_face_value(
            mesh, cell_vals, sz, mesh.bcell, mesh.bface)
        sz_all.append(sz)
        new_all.append(new)
    state.face_T = new_all[0]
    state.face_u = np.stack(new_all[1:], axis=-1)
    bc_hook(mesh, state)
    parts = [state.face_T] + [state.face_u[:, :, k] for k in range(3)]
    return [face_flux(mesh, sz, p) for sz, p in zip(sz_all, parts)]


def reference_node_update(mesh, state, flux, props, tau):
    """Separate T and per-component u updates; returns (T, u)."""
    out_flow = np.einsum("cfi,cfi->cf", state.face_u, mesh.face_vecs)
    net = props.alpha * flux[0] - state.face_T * out_flow
    new_T = state.cell_T + (tau / mesh.volumes) * net.sum(axis=1)
    grad_p = nodal_gradient(mesh, state.face_p)
    buoy = props.beta * (state.cell_T - props.T_inf)
    new_u = np.empty_like(state.cell_u)
    for k in range(3):
        net = props.nu * flux[1 + k] - state.face_u[:, :, k] * out_flow
        new_u[:, k] = (
            state.cell_u[:, k]
            + tau * (buoy * props.g[k] - grad_p[:, k] / props.rho_inf)
            + (tau / mesh.volumes) * net.sum(axis=1))
    return new_T, new_u


def random_state(mesh, seed):
    rng = np.random.default_rng(seed)
    nc = mesh.n_cells
    s = FieldState.uniform(nc)
    s.cell_T = rng.standard_normal(nc)
    s.cell_u = rng.standard_normal((nc, 3))
    s.face_T = rng.standard_normal((nc, 6))
    s.face_u = rng.standard_normal((nc, 6, 3))
    s.face_p = rng.standard_normal((nc, 6))
    return s


MESHES = {
    "jittered-box": lambda: box_mesh(4, 3, 2, warp=jitter_warp(seed=21, scale=0.04)),
    "annulus": lambda: annulus_mesh(3, 18, 1.0, 2.6),
}


@pytest.fixture(params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def test_connection_sweep_matches_per_channel_loop(mesh):
    stacked = random_state(mesh, 1)
    ref = stacked.copy()
    connection_sweep(mesh, stacked, bc_hook=hook)
    flux = reference_connection_sweep(mesh, ref, hook)
    assert np.array_equal(stacked.face_T, ref.face_T)
    assert np.array_equal(stacked.face_u, ref.face_u)
    assert stacked.flux.shape == (4, mesh.n_cells, 6)
    for k in range(4):
        assert np.array_equal(stacked.flux[k], flux[k])


def test_reflection_sweep_matches_per_channel_update(mesh):
    s = random_state(mesh, 2)
    connection_sweep(mesh, s, bc_hook=hook)
    want_T, want_u = reference_node_update(
        mesh, s, list(s.flux), PROPS, TAU)
    reflection_sweep(mesh, s, PROPS, TAU)
    assert np.array_equal(s.cell_T, want_T)
    assert np.array_equal(s.cell_u, want_u)
    assert s.cell_u.flags.c_contiguous


def test_velocity_coarsening_matches_per_component_loop(mesh):
    s = random_state(mesh, 3)
    connection_sweep(mesh, s, bc_hook=hook)
    w = face_area_weights(mesh)
    want = np.stack(
        [coarsen_cell(s.face_u[:, :, k], w) for k in range(3)], axis=1)
    assert coarsen_sweep(mesh, s, CoarseningConfig(period=10), 10)
    assert np.array_equal(s.cell_u, want)
