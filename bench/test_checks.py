"""Each benchmark check passes on the solver's output and fails on a
deliberately wrong input."""

import numpy as np
import pytest

import checks
import tracing
import workloads
from checks import CheckFailed
from hexflow import build_scenario, connection_sweep, step


def _run(mesh, config, state, steps):
    for k in range(1, steps + 1):
        step(mesh, state, config, k)
    return state


@pytest.fixture(scope="module")
def box():
    mesh, config, state, ref = workloads.box_conduction(seed=5, cells=8)
    return mesh, config, ref, _run(mesh, config, state.copy(), 20)


@pytest.fixture(scope="module")
def cylinder():
    mesh, config, state = build_scenario("cylinder", resolution=10)
    return mesh, config, state, _run(mesh, config, state.copy(), 10)


@pytest.fixture(scope="module")
def annulus():
    mesh, config, state = build_scenario("annulus", resolution=4)
    perm = checks.mirror_map(mesh.centroids, np.abs(mesh.verts).max())
    return mesh, config, perm, _run(mesh, config, state, 20)


def test_decay_factor_matches_one_dimensional_stencil():
    # one explicit step of the 3-point Neumann Laplacian applied to the
    # cosine mode, done by hand on a 1D grid
    n, tau, alpha, m = 12, 0.3 / 144, 1.0, 2
    x = (np.arange(n) + 0.5) / n
    mode = np.cos(np.pi * m * x)
    padded = np.concatenate([mode[:1], mode, mode[-1:]])
    lap = (padded[2:] - 2 * mode + padded[:-2]) * n * n
    stepped = mode + alpha * tau * lap
    lam = workloads.box_decay_factor((n, 1, 1), (1.0, 1.0, 1.0), alpha, tau,
                                     (m, 0, 0))
    assert np.allclose(stepped, lam * mode, rtol=0, atol=1e-14)


def test_eigenmode_check(box):
    mesh, config, ref, state = box
    assert checks.eigenmode_matches(state, ref, 20) < 1e-12
    wrong = dict(ref, decay=ref["decay"] * (1 + 1e-6))
    with pytest.raises(CheckFailed):
        checks.eigenmode_matches(state, wrong, 20)
    with pytest.raises(CheckFailed):
        checks.eigenmode_matches(state, ref, 19)


def test_heat_and_velocity_checks(box):
    mesh, config, ref, state = box
    checks.heat_conserved(mesh, state, ref["heat"], 20)
    checks.velocity_zero(state)
    warm = state.copy()
    warm.cell_T[0] += 1e-6
    with pytest.raises(CheckFailed):
        checks.heat_conserved(mesh, warm, ref["heat"], 20)
    moving = state.copy()
    moving.face_u[3, 2, 1] = 1e-300
    with pytest.raises(CheckFailed):
        checks.velocity_zero(moving)


def test_divergence_check_rejects_unprojected_ports(cylinder):
    mesh, config, initial, state = cylinder
    tol, rho = config.pressure.tolerance, config.props.rho_inf
    assert checks.divergence_bounded(mesh, state, tol, rho) <= 4.0
    raw = initial.copy()
    connection_sweep(mesh, raw, bc_hook=lambda m, s: None)
    with pytest.raises(CheckFailed):
        checks.divergence_bounded(mesh, raw, tol, rho)


def test_port_pair_check_rejects_split_pair(cylinder):
    mesh, config, initial, state = cylinder
    checks.ports_single_valued(mesh, state)
    split = state.copy()
    c, f = mesh.icell_b[7], mesh.iface_b[7]
    split.face_u[c, f, 0] = np.nextafter(split.face_u[c, f, 0], np.inf)
    with pytest.raises(CheckFailed):
        checks.ports_single_valued(mesh, split)


def test_boundary_flux_check(cylinder):
    mesh, config, initial, state = cylinder
    checks.boundary_flux_balanced(mesh, state)
    leak = state.copy()
    cells, faces = mesh.boundary_group("xmin")
    leak.face_u[cells[0], faces[0], 0] *= 1.001
    with pytest.raises(CheckFailed):
        checks.boundary_flux_balanced(mesh, leak)


def test_mirror_check_rejects_asymmetric_nudge(annulus):
    mesh, config, perm, state = annulus
    assert np.abs(state.cell_u).max() > 0.0
    assert checks.mirror_symmetric(state, perm) < checks.MIRROR_RTOL
    nudged = state.copy()
    nudged.cell_u[0, 0] += 0.05 * np.abs(state.cell_u).max()
    with pytest.raises(CheckFailed):
        checks.mirror_symmetric(nudged, perm)


def test_mirror_map_rejects_asymmetric_mesh():
    c = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.5, 1.0, 0.0]])
    with pytest.raises(CheckFailed):
        checks.mirror_map(c, 1.0)


def test_temperature_range_check(annulus):
    mesh, config, perm, state = annulus
    lo = config.bcs["outer"].temperature
    hi = config.bcs["inner"].temperature
    checks.temperature_within(state, lo, hi)
    hot = state.copy()
    hot.cell_T[5] = hi + 1e-6
    with pytest.raises(CheckFailed):
        checks.temperature_within(hot, lo, hi)


def test_traced_replica_matches_step_bit_for_bit(cylinder):
    mesh, config, initial, stepped = cylinder
    tracer = tracing.Tracer()
    replayed = initial.copy()
    infos = [tracing.traced_step(tracer, mesh, replayed, config, k)
             for k in range(1, 11)]
    checks.states_identical(stepped, replayed)
    assert infos[-1]["coarsened"] and infos[0]["sweeps"] > 0
    flipped = replayed.copy()
    flipped.cell_p[3] = np.nextafter(flipped.cell_p[3], -np.inf)
    with pytest.raises(CheckFailed):
        checks.states_identical(stepped, flipped)


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.spans[0][1:3] = [0.0, 5.0]
    tracer.spans[1][1:3] = [1.0, 3.0]
    assert tracer.spans[1][3] == 0
    assert list(tracer.self_times()) == [3.0, 2.0]


def test_step_ms_drops_a_burst_on_one_round():
    import harness
    rounds = [[0.010, 0.020], [0.011, 0.080], [0.010, 0.021]]
    assert harness.step_ms(rounds) == pytest.approx([10.0, 21.0])
