"""Pressure correction tests."""

import numpy as np
import pytest

from conftest import UNIT_CUBE, box_mesh, jitter_warp, random_hex
from hexflow.errors import PressureConvergenceError
from hexflow.hexmesh import build_mesh
from hexflow.pressure import (
    PressureSolverConfig,
    cell_divergence_integral,
    gradient_flux,
    pressure_face_sweep,
    pressure_iterate,
    pressure_residual,
    project_port_velocities,
)
from hexflow.sim import annulus_mesh
from hexflow.state import FieldState


def single_cell_mesh(verts):
    return build_mesh(verts, [list(range(8))], [(0, f, "b") for f in range(6)])


def ported_state(nc, rng=None):
    s = FieldState.uniform(nc)
    if rng is not None:
        s.cell_p = rng.normal(size=nc)
        s.face_p = rng.normal(size=(nc, 6))
        s.face_u = 0.1 * rng.normal(size=(nc, 6, 3))
    s.advance_ports()
    return s


class TestConfig:
    def test_field_validation(self):
        with pytest.raises(ValueError, match="tolerance"):
            PressureSolverConfig(tolerance=0.0)
        with pytest.raises(ValueError, match="tolerance"):
            PressureSolverConfig(tolerance=float("inf"))


class TestDivergenceIntegral:
    def test_constant_velocity_closed_cell(self):
        rng = np.random.default_rng(21)
        mesh = single_cell_mesh(random_hex(rng))
        u = np.tile([1.3, -0.7, 2.1], (1, 6, 1))
        scale = np.abs(mesh.face_vecs).sum()
        assert abs(cell_divergence_integral(mesh, u)[0]) <= 1e-12 * scale

    def test_unit_cube_linear_profile(self):
        mesh = single_cell_mesh(UNIT_CUBE)
        u = np.zeros((1, 6, 3))
        u[0, :, 0] = mesh.face_centroids[0, :, 0]  # u = (x, 0, 0)
        assert cell_divergence_integral(mesh, u)[0] == 1.0

    def test_matches_dot_sum_oracle(self):
        rng = np.random.default_rng(22)
        mesh = box_mesh(2, 2, 1, warp=jitter_warp(3, 0.1))
        u = rng.normal(size=(mesh.n_cells, 6, 3))
        got = cell_divergence_integral(mesh, u)
        want = np.array([
            sum(np.dot(u[c, f], mesh.face_vecs[c, f]) for f in range(6))
            for c in range(mesh.n_cells)
        ])
        assert np.allclose(got, want, rtol=1e-13, atol=1e-14)


class TestFaceSweep:
    def test_uniform_pressure_unchanged_bitwise(self):
        mesh = box_mesh(3, 2, 1, warp=jitter_warp(4, 0.1))
        p = np.full(mesh.n_cells, 3.5)
        fp = np.full((mesh.n_cells, 6), 3.5)
        assert np.array_equal(pressure_face_sweep(mesh, p, fp), fp)

    def test_two_cube_linear_interface_value(self):
        mesh = box_mesh(2, 1, 1, lengths=(2.0, 1.0, 1.0))
        a, c = 0.25, 0.5  # dyadic so the plane value at x=1 is exact
        p = a * mesh.centroids[:, 0] + c
        fp = a * mesh.face_centroids[:, :, 0] + c
        out = pressure_face_sweep(mesh, p, fp)
        ia, fa = mesh.icell_a[0], mesh.iface_a[0]
        ib, fb = mesh.icell_b[0], mesh.iface_b[0]
        assert out[ia, fa] == a * 1.0 + c
        assert out[ib, fb] == out[ia, fa]

    def test_post_sweep_flux_antisymmetry(self):
        # orthogonal cells: one sweep suffices (no in-plane coupling)
        rng = np.random.default_rng(24)
        mesh = box_mesh(3, 3, 2)
        p = rng.normal(size=mesh.n_cells)
        out = pressure_face_sweep(mesh, p, rng.normal(size=(mesh.n_cells, 6)))
        S = gradient_flux(mesh, p, out)
        mismatch = S[mesh.icell_a, mesh.iface_a] + S[mesh.icell_b, mesh.iface_b]
        assert np.abs(mismatch).max() <= 1e-12 * np.abs(S).max()

    def test_repeated_sweeps_reach_antisymmetric_fluxes_on_warped_mesh(self):
        # skewed cells couple faces through in-plane slots; the sweep is a
        # contraction whose fixed point balances every interface
        rng = np.random.default_rng(27)
        mesh = box_mesh(3, 3, 2, warp=jitter_warp(5, 0.12))
        p = rng.normal(size=mesh.n_cells)
        fp = rng.normal(size=(mesh.n_cells, 6))
        for _ in range(60):
            fp = pressure_face_sweep(mesh, p, fp)
        S = gradient_flux(mesh, p, fp)
        mismatch = S[mesh.icell_a, mesh.iface_a] + S[mesh.icell_b, mesh.iface_b]
        assert np.abs(mismatch).max() <= 1e-12 * np.abs(S).max()


class TestIterate:
    def inject(self, mesh, cell, rng=None):
        """Ports at rest except one cell blowing outward through +x."""
        s = ported_state(mesh.n_cells, rng)
        if rng is None:
            s.face_u = np.zeros((mesh.n_cells, 6, 3))
            s.cell_p = np.zeros(mesh.n_cells)
            s.face_p = np.zeros((mesh.n_cells, 6))
        s.face_u[cell, 1, 0] = 1.0
        nb = mesh.neighbor_cell[cell, 1]
        if nb >= 0:
            s.face_u[nb, 0, 0] = 1.0
        return s

    def test_divergence_free_field_needs_no_iterations(self):
        mesh = box_mesh(3, 3, 1)
        s = FieldState.uniform(mesh.n_cells, u=(0.4, -0.2, 0.0), p=0.0)
        s.face_u[:] = np.array([0.4, -0.2, 0.0])
        s.advance_ports()
        before = s.cell_p.copy()
        iters, history = pressure_iterate(mesh, s, tau=0.1, rho_inf=1.0)
        assert iters == 0
        assert len(history) == 1
        assert np.array_equal(s.cell_p, before)

    def test_injected_divergence_monotone_residual(self):
        mesh = box_mesh(4, 4, 1, lengths=(4.0, 4.0, 1.0))
        s = self.inject(mesh, cell=5)
        cfg = PressureSolverConfig(tolerance=1e-10)
        iters, history = pressure_iterate(mesh, s, 0.1, 1.0, cfg)
        assert 0 < iters <= mesh.n_cells
        assert history[-1] <= 1e-10 * 1.0  # unit faces: flux scale is 1
        hist = np.array(history)
        assert (hist[1:] <= hist[:-1] * (1.0 + 1e-12)).all()
        # solved state balances every cell
        div = cell_divergence_integral(mesh, s.face_u)
        r = pressure_residual(mesh, s.cell_p, s.face_p, div, 0.1, 1.0)
        assert np.abs(r).max() <= 1e-10

    def test_pinning_fixes_additive_constant(self):
        mesh = box_mesh(4, 2, 1, lengths=(4.0, 2.0, 1.0))
        sa = self.inject(mesh, cell=3)
        sb = self.inject(mesh, cell=3)
        sb.cell_p = sb.cell_p + 5.0
        sb.face_p = sb.face_p + 5.0
        cfg = PressureSolverConfig(tolerance=1e-11)
        pressure_iterate(mesh, sa, 0.1, 1.0, cfg)
        pressure_iterate(mesh, sb, 0.1, 1.0, cfg)
        assert sa.cell_p[0] == 0.0
        assert sb.cell_p[0] == 0.0
        assert np.allclose(sa.cell_p, sb.cell_p, atol=1e-9)

    def test_constant_pressure_shift_leaves_residual(self):
        rng = np.random.default_rng(25)
        mesh = box_mesh(3, 2, 2, warp=jitter_warp(6, 0.08))
        p = rng.normal(size=mesh.n_cells)
        fp = rng.normal(size=(mesh.n_cells, 6))
        div = rng.normal(size=mesh.n_cells)
        r0 = pressure_residual(mesh, p, fp, div, 0.1, 1.0)
        r1 = pressure_residual(mesh, p + 10.0, fp + 10.0, div, 0.1, 1.0)
        assert np.allclose(r0, r1, rtol=1e-12, atol=1e-11)

    def test_solves_mesh_without_two_coloring(self):
        # an odd number of sectors closes the ring into an odd cell cycle
        mesh = annulus_mesh(3, 13, 1.0, 2.0)
        s = self.inject(mesh, cell=4)
        flux_scale = np.abs(
            np.einsum("cfk,cfk->cf", s.face_u, mesh.face_vecs)).max()
        iters, history = pressure_iterate(mesh, s, 0.1, 1.0)
        div = cell_divergence_integral(mesh, s.face_u)
        r = pressure_residual(mesh, s.cell_p, s.face_p, div, 0.1, 1.0)
        assert iters > 0
        assert history[-1] <= 1e-8 * flux_scale
        assert np.abs(r).max() <= 1e-8 * flux_scale

    def test_quiescent_ports_use_absolute_threshold(self):
        rng = np.random.default_rng(26)
        mesh = box_mesh(2, 2, 1)
        s = ported_state(mesh.n_cells, rng)
        s.face_u = np.zeros((mesh.n_cells, 6, 3))
        iters, history = pressure_iterate(mesh, s, 0.1, 1.0)
        assert history[-1] <= 1e-8

    def test_nonconvergence_error_carries_diagnostics(self):
        mesh = box_mesh(4, 4, 1, lengths=(4.0, 4.0, 1.0))
        s = self.inject(mesh, cell=5)
        # no float residual reaches this threshold, so the solve stalls
        cfg = PressureSolverConfig(tolerance=1e-300)
        with pytest.raises(PressureConvergenceError, match="stalled") as ei:
            pressure_iterate(mesh, s, 0.1, 1.0, cfg)
        assert ei.value.iterations > 0
        assert ei.value.residual > 0.0

    def test_net_boundary_inflow_fails_before_iterating(self):
        rng = np.random.default_rng(28)
        mesh = box_mesh(4, 3, 2)
        s = ported_state(mesh.n_cells)
        bf = mesh.face_vecs[mesh.bcell, mesh.bface]
        inflow = -rng.uniform(0.5, 1.0, size=len(bf))[:, None] * bf \
            / np.linalg.norm(bf, axis=1, keepdims=True)
        s.face_u[mesh.bcell, mesh.bface] = inflow
        with pytest.raises(PressureConvergenceError,
                           match="net boundary flux") as ei:
            pressure_iterate(mesh, s, 0.1, 1.0)
        assert ei.value.iterations == 0
        assert ei.value.residual > 0.0

    def test_requires_fresh_ports(self):
        mesh = box_mesh(2, 1, 1)
        s = FieldState.uniform(mesh.n_cells)
        with pytest.raises(ValueError, match="fresh velocity ports"):
            pressure_iterate(mesh, s, 0.1, 1.0)

    def test_warm_start_converges_immediately(self):
        mesh = box_mesh(4, 4, 1, lengths=(4.0, 4.0, 1.0))
        s = self.inject(mesh, cell=9)
        cfg = PressureSolverConfig(tolerance=1e-9)
        pressure_iterate(mesh, s, 0.1, 1.0, cfg)
        # rerun from the converged state: the guess is already the answer
        iters, _ = pressure_iterate(mesh, s, 0.1, 1.0, cfg)
        assert iters == 0


class TestPortProjection:
    def smooth_divergent_state(self, mesh, seed=42):
        # boundary-normal components are removed so the total divergence
        # vanishes and the pure-Neumann solve is compatible
        rng = np.random.default_rng(seed)
        s = ported_state(mesh.n_cells)
        cf = mesh.face_centroids
        u = np.zeros((mesh.n_cells, 6, 3))
        for _ in range(5):
            k = rng.integers(1, 4, size=2)
            amp = rng.normal(size=3)
            wave = np.sin(np.pi * k[0] * cf[..., 0]) * np.sin(np.pi * k[1] * cf[..., 1])
            u += amp[None, None, :] * wave[..., None]
        bf = mesh.face_vecs[mesh.bcell, mesh.bface]
        nhat = bf / np.linalg.norm(bf, axis=1, keepdims=True)
        ub = u[mesh.bcell, mesh.bface]
        u[mesh.bcell, mesh.bface] = ub - np.einsum(
            "bk,bk->b", ub, nhat)[:, None] * nhat
        u[mesh.icell_b, mesh.iface_b] = u[mesh.icell_a, mesh.iface_a]
        s.face_u = u
        return s

    def test_budget_settles_to_solver_residual(self):
        # the warped mesh has in-plane coupling, so the solve runs more
        # than one pass
        for warp in (None, jitter_warp(10, 0.01)):
            mesh = box_mesh(8, 8, 1, lengths=(1.0, 1.0, 0.125), warp=warp)
            s = self.smooth_divergent_state(mesh)
            flux_scale = np.abs(
                np.einsum("cfk,cfk->cf", s.face_u, mesh.face_vecs)).max()
            cfg = PressureSolverConfig(tolerance=1e-9)
            _, history = pressure_iterate(mesh, s, tau=0.05, rho_inf=1.0,
                                          config=cfg)
            assert (len(history) > 1) == (warp is not None)
            project_port_velocities(mesh, s, tau=0.05, rho_inf=1.0)
            div = cell_divergence_integral(mesh, s.face_u)
            assert np.abs(div).max() <= 2e-9 * flux_scale

    def test_interior_ports_stay_single_valued(self):
        mesh = box_mesh(4, 3, 2, warp=jitter_warp(9, 0.06))
        s = self.smooth_divergent_state(mesh, seed=7)
        before = s.face_u.copy()
        cfg = PressureSolverConfig(tolerance=1e-8)
        pressure_iterate(mesh, s, 0.1, 1.0, cfg)
        project_port_velocities(mesh, s, 0.1, 1.0)
        a = s.face_u[mesh.icell_a, mesh.iface_a]
        b = s.face_u[mesh.icell_b, mesh.iface_b]
        assert np.array_equal(a, b)
        # boundary slots belong to the boundary rules, not the projection
        assert np.array_equal(s.face_u[mesh.bcell, mesh.bface],
                              before[mesh.bcell, mesh.bface])

    def test_uniform_pressure_is_a_bitwise_noop(self):
        mesh = box_mesh(3, 2, 1)
        s = ported_state(mesh.n_cells)
        rng = np.random.default_rng(13)
        s.face_u = rng.normal(size=(mesh.n_cells, 6, 3))
        s.cell_p = np.full(mesh.n_cells, 7.5)
        s.face_p = np.full((mesh.n_cells, 6), 7.5)
        before = s.face_u.copy()
        project_port_velocities(mesh, s, 0.1, 1.0)
        assert np.array_equal(s.face_u, before)
