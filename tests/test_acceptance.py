"""Whole-package acceptance gate.

Nine numbered checks, each printing one verdict line. They cover the
guarantees the package advertises: exact affine gradients on arbitrary
hexahedra, agreement with the classical explicit stencil on a box grid,
closed-box conservation, the strength of the pressure projection, the
invariants of cellular coarse-graining, the two-step scattering
identities, and three flow benchmarks (shedding frequency behind a
cylinder, stabilisation of an under-resolved channel by coarse-graining,
and buoyancy direction in a heated annulus).

The flow benchmarks take minutes each; everything before them runs in
seconds. Verdict lines collect in _VERDICTS and the conftest terminal
hook replays them after the run, so they stay visible even while pytest
captures test output.
"""

import math
import time
import warnings
from dataclasses import replace

import numpy as np

from conftest import box_mesh, jitter_warp, random_hex
from hexflow import (
    BoundaryRule,
    CoarseningConfig,
    FieldState,
    HexflowError,
    MaterialProps,
    PressureSolverConfig,
    Probe,
    ProcessHistory,
    SimulationConfig,
    build_mesh,
    build_scenario,
    cell_divergence_integral,
    coarsen_cell,
    coarsen_sweep,
    connection_sweep,
    decompose_incident_outgoing,
    face_gradient,
    nodal_gradient,
    pressure_iterate,
    project_port_velocities,
    reflection_sweep,
    resolve_probe,
    step,
)


_VERDICTS = []


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}  {detail}"
    _VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


def single_cell_mesh(verts):
    return build_mesh(verts, [list(range(8))], [(0, f, "b") for f in range(6)])


def affine_state(mesh, a, c):
    s = FieldState.uniform(mesh.n_cells)
    s.cell_T = mesh.centroids @ a + c
    s.face_T = np.einsum("cfi,i->cf", mesh.face_centroids, a) + c
    return s


def test_criterion_1_geometry_exactness():
    # affine fields must come back exactly on any non-degenerate cell,
    # and every cell's outward face vectors must sum to zero
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst_grad = worst_closure = 0.0
    for _ in range(100):
        mesh = single_cell_mesh(random_hex(rng))
        a = rng.normal(size=3)
        scale = np.abs(a).max()
        s = affine_state(mesh, a, rng.normal())
        gf = face_gradient(mesh, s.cell_T, s.face_T, s.face_T)
        gn = nodal_gradient(mesh, s.face_T)
        worst_grad = max(worst_grad,
                         np.abs(gf - a).max() / scale,
                         np.abs(gn - a).max() / scale)
        f = mesh.face_vecs[0]
        worst_closure = max(worst_closure, np.linalg.norm(f.sum(axis=0))
                            / np.linalg.norm(f, axis=1).sum())
    dt = time.monotonic() - t0
    ok = worst_grad <= 1e-12 and worst_closure <= 1e-12 and dt < 5.0
    _verdict(1, "geometry exactness", ok,
             f"gradient err {worst_grad:.2e}, closure {worst_closure:.2e}, "
             f"{dt:.1f}s")


def test_criterion_2_stencil_equivalence():
    # on the 64-cell slab the full machinery must reproduce the textbook
    # explicit central-difference update step by step, then land on the
    # decayed Fourier mode
    t0 = time.monotonic()
    mesh, config, state = build_scenario("slab")
    n = mesh.n_cells
    x = mesh.centroids[:, 0]
    profile = 300.0 + np.cos(np.pi * x)
    state.cell_T[:] = profile
    state.face_T[:] = profile[:, None]
    r = config.props.alpha * config.tau * n * n
    expect = profile.copy()
    worst = 0.0
    for k in range(1, 1001):
        left = np.concatenate(([expect[0]], expect[:-1]))
        right = np.concatenate((expect[1:], [expect[-1]]))
        expect = expect + r * (left - 2.0 * expect + right)
        step(mesh, state, config, k)
        worst = max(worst, np.abs(state.cell_T - expect).max())

    mesh, config, state = build_scenario("slab")
    state.cell_T[:] = profile
    state.face_T[:] = profile[:, None]
    k_star = int(round(0.1 / config.tau))
    for k in range(1, k_star + 1):
        step(mesh, state, config, k)
    amp = math.exp(-math.pi ** 2 * k_star * config.tau)
    err = np.abs(state.cell_T - (300.0 + amp * np.cos(np.pi * x))).max()
    dt = time.monotonic() - t0
    ok = worst <= 1e-12 and err <= 0.02 * amp and dt < 10.0
    _verdict(2, "stencil equivalence", ok,
             f"stencil diff {worst:.2e} over 1000 steps, analytic L-inf "
             f"{err:.2e} ({err / amp:.3%} of mode), {dt:.1f}s")


def test_criterion_3_closed_box_conservation():
    # volume-weighted temperature in an adiabatic box must not drift
    t0 = time.monotonic()
    mesh = box_mesh(6, 6, 3, warp=jitter_warp(seed=44, scale=0.015))
    state = FieldState.uniform(mesh.n_cells, T=300.0)
    c = mesh.centroids
    state.cell_T += np.sin(2 * np.pi * c[:, 0]) * np.cos(np.pi * c[:, 1])
    state.face_T[:] = state.cell_T[:, None]
    swirl = np.stack([np.sin(np.pi * c[:, 1]), -np.sin(np.pi * c[:, 0]),
                      0.2 * np.cos(np.pi * c[:, 2])], axis=1) * 0.3
    state.cell_u[:] = swirl
    state.face_u[:] = swirl[:, None, :]
    config = SimulationConfig(
        tau=0.002, props=MaterialProps(alpha=0.05, eta=0.02),
        pressure=PressureSolverConfig(tolerance=1e-7),
        bcs={t: BoundaryRule("adiabatic") for t in mesh.tags})
    total0 = float(np.dot(mesh.volumes, state.cell_T))
    for k in range(1, 1001):
        step(mesh, state, config, k)
    drift = abs(float(np.dot(mesh.volumes, state.cell_T)) - total0) / abs(total0)
    dt = time.monotonic() - t0
    ok = drift <= 1e-10
    _verdict(3, "closed-box conservation", ok,
             f"relative drift {drift:.2e} over 1000 steps, {dt:.1f}s")


def test_criterion_4_pressure_projection():
    # a randomized divergent port field must be cleaned by the solve
    # plus port correction, and stay clean through the cell sweep
    t0 = time.monotonic()
    mesh = box_mesh(16, 16, 1, lengths=(1.0, 1.0, 1.0 / 16.0))
    state = FieldState.uniform(mesh.n_cells)
    connection_sweep(mesh, state)
    rng = np.random.default_rng(77)
    cf = mesh.face_centroids
    u = np.zeros((mesh.n_cells, 6, 3))
    for _ in range(6):
        k = rng.integers(1, 4, size=2)
        amp = rng.normal(size=3)
        u += amp[None, None, :] * (np.sin(np.pi * k[0] * cf[..., 0])
                                   * np.sin(np.pi * k[1] * cf[..., 1]))[..., None]
    # solvability needs a closed boundary: remove the wall-normal part,
    # then make shared faces single-valued bit for bit
    bf = mesh.face_vecs[mesh.bcell, mesh.bface]
    nhat = bf / np.linalg.norm(bf, axis=1, keepdims=True)
    ub = u[mesh.bcell, mesh.bface]
    u[mesh.bcell, mesh.bface] = ub - np.einsum("bk,bk->b", ub, nhat)[:, None] * nhat
    u[mesh.icell_b, mesh.iface_b] = u[mesh.icell_a, mesh.iface_a]
    state.face_u[:] = u

    div0 = np.abs(cell_divergence_integral(mesh, state.face_u)).max()
    scale = np.abs(np.einsum("cfk,cfk->cf", state.face_u, mesh.face_vecs)).max()
    cfg = PressureSolverConfig(tolerance=1e-8)
    iters, history = pressure_iterate(mesh, state, tau=0.05, rho_inf=1.0,
                                      config=cfg)
    project_port_velocities(mesh, state, tau=0.05, rho_inf=1.0)
    reflection_sweep(mesh, state, MaterialProps(), tau=0.05)
    div1 = np.abs(cell_divergence_integral(mesh, state.face_u)).max()
    dt = time.monotonic() - t0
    ok = (iters <= 500 and history[-1] <= 1e-8 * scale
          and div1 * 100.0 <= div0 and dt < 30.0)
    _verdict(4, "pressure projection", ok,
             f"{iters} iterations, residual {history[-1] / scale:.2e} of "
             f"flux scale, divergence {div0:.2e} -> {div1:.2e}, {dt:.1f}s")


def test_criterion_5_coarsening_invariants():
    rng = np.random.default_rng(505)
    mesh = box_mesh(3, 2, 2, warp=jitter_warp(seed=12, scale=0.05))
    nc = mesh.n_cells
    s = FieldState.uniform(nc)
    s.cell_T = rng.normal(size=nc)
    s.cell_u = rng.normal(size=(nc, 3))
    s.cell_p = rng.normal(size=nc)
    s.face_T = rng.normal(size=(nc, 6))
    s.face_u = rng.normal(size=(nc, 6, 3))
    s.face_p = rng.normal(size=(nc, 6))
    s.advance_ports()
    faces = {n: getattr(s, n).copy() for n in ("face_T", "face_u", "face_p")}
    cfg = CoarseningConfig(period=10,
                           targets=("velocity", "temperature", "pressure"))
    fired = coarsen_sweep(mesh, s, cfg, 20)
    skeleton = all(np.array_equal(getattr(s, n), faces[n]) for n in faces)
    convex = (
        (s.cell_u >= s.face_u.min(axis=1)).all()
        and (s.cell_u <= s.face_u.max(axis=1)).all()
        and (s.cell_T >= s.face_T.min(axis=1)).all()
        and (s.cell_T <= s.face_T.max(axis=1)).all()
        and (s.cell_p >= s.face_p.min(axis=1)).all()
        and (s.cell_p <= s.face_p.max(axis=1)).all())

    const = FieldState.uniform(nc, T=7.25, u=(0.3, -0.2, 0.1))
    const.cell_p[:] = -2.5
    const.face_p[:] = -2.5
    const.advance_ports()
    cu, cT, cp = const.cell_u.copy(), const.cell_T.copy(), const.cell_p.copy()
    coarsen_sweep(mesh, const, cfg, 10)
    constant = (np.array_equal(const.cell_u, cu)
                and np.array_equal(const.cell_T, cT)
                and np.array_equal(const.cell_p, cp))

    mean = coarsen_cell(np.arange(1.0, 7.0), np.full(6, 1.0 / 6.0))
    ok = bool(fired and skeleton and convex and constant and mean == 3.5)
    _verdict(5, "coarsening invariants", ok,
             f"skeleton {skeleton}, convexity {convex}, constant {constant}, "
             f"ports 1..6 mean {float(mean)}")


def test_criterion_6_scattering_identities():
    # every sampled step of a driven-cavity run must split into incident
    # plus outgoing parts that rebuild both the ports and the nodes
    t0 = time.monotonic()
    mesh, config, state = build_scenario("cavity")
    hist = ProcessHistory()
    shape = state.face_u.shape
    for k in range(1, 101):
        step(mesh, state, config, k)
        hist.record(state.face_u.copy(),
                    np.broadcast_to(state.cell_u[:, None, :], shape).copy())
    view = decompose_incident_outgoing(hist, depth=len(hist.ports))
    scale = max(float(np.abs(p).max()) for p in hist.ports)
    worst_port = worst_node = 0.0
    for m in range(len(hist.ports)):
        arriving = view.outgoing[m - 1] if m else np.zeros(shape)
        worst_port = max(worst_port, np.abs(
            hist.ports[m] - (view.incident[m] + arriving)).max())
        worst_node = max(worst_node, np.abs(
            hist.nodes[m] - (view.incident[m] + view.outgoing[m])).max())
    dt = time.monotonic() - t0
    ok = worst_port <= 1e-12 * scale and worst_node <= 1e-12 * scale
    _verdict(6, "scattering identities", ok,
             f"port defect {worst_port:.2e}, node defect {worst_node:.2e}, "
             f"scale {scale:.2f}, {dt:.1f}s")


def test_criterion_7_vortex_street():
    # Re 150 cylinder wake: the probe behind the obstacle must oscillate
    # at a shedding frequency in the accepted Strouhal band
    t0 = time.monotonic()
    mesh, config, state = build_scenario(
        "cylinder", parameters={"tau": 0.15, "kick": 0.15})
    cell = resolve_probe(mesh, Probe(position=(54.0, 19.5, 0.5)))
    n_steps, settle = 2000, 800
    trace = np.zeros(n_steps)
    for k in range(n_steps):
        step(mesh, state, config, k)
        trace[k] = state.cell_u[cell, 1]
    tail = trace[settle:] - trace[settle:].mean()
    half = len(tail) // 2
    sustained = (tail.std() > 0.05
                 and tail[half:].std() > 0.5 * tail[:half].std())
    power = np.abs(np.fft.rfft(tail * np.hanning(len(tail)))) ** 2
    freqs = np.fft.rfftfreq(len(tail), d=config.tau)
    peak = 1 + int(np.argmax(power[1:]))
    strouhal = freqs[peak] * 8.0  # diameter 8 cells, unit inflow
    dt = time.monotonic() - t0
    ok = sustained and 0.12 <= strouhal <= 0.25 and dt < 300.0
    _verdict(7, "vortex street", ok,
             f"Strouhal {strouhal:.3f}, probe std {tail.std():.3f}, "
             f"sustained {sustained}, {dt:.0f}s")


def test_criterion_8_stability_by_coarse_graining():
    # same under-resolved channel twice: without coarse-graining it must
    # blow past 10x the inflow speed, with it it must stay bounded
    t0 = time.monotonic()
    horizon, bound = 20000, 10.0
    outcome = {}
    for label, period in (("off", None), ("on", 10)):
        mesh, config, state = build_scenario(
            "step", resolution=8,
            parameters={"nu": 0.002, "tau": 0.3, "coarsen_period": period})
        config = replace(config, cfl_warn=np.inf, cfl_error=np.inf)
        peak, blew_at = 0.0, None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for k in range(horizon):
                try:
                    step(mesh, state, config, k)
                except HexflowError:
                    blew_at = k
                    break
                m = float(np.abs(state.cell_u).max())
                peak = max(peak, m)
                if not math.isfinite(m) or m > bound:
                    blew_at = k
                    break
        outcome[label] = (peak, blew_at)
    dt = time.monotonic() - t0
    ok = (outcome["off"][1] is not None and outcome["on"][1] is None
          and outcome["on"][0] <= bound and dt < 300.0)
    _verdict(8, "stability by coarse-graining", ok,
             f"uncoarsened exceeds 10x inflow at step {outcome['off'][1]}, "
             f"coarsened peak {outcome['on'][0]:.2f} over {horizon} steps, "
             f"{dt:.0f}s")


def test_criterion_9_buoyancy_direction():
    # heated inner cylinder: flow above it must rise on time average and
    # heat must pool in the upper half
    t0 = time.monotonic()
    mesh, config, state = build_scenario("annulus", resolution=8)
    c = mesh.centroids
    above = (np.abs(c[:, 0]) < 0.3) & (c[:, 1] > 1.0) & (c[:, 1] < 1.8)
    upper, lower = c[:, 1] > 0.0, c[:, 1] < 0.0
    n_steps, settle = 3000, 1000
    uy = np.zeros(n_steps)
    for k in range(n_steps):
        step(mesh, state, config, k)
        uy[k] = state.cell_u[above, 1].mean()
    rise = float(uy[settle:].mean())
    dT = float(state.cell_T[upper].mean() - state.cell_T[lower].mean())
    dt = time.monotonic() - t0
    ok = rise > 0.02 and dT > 1.0 and dt < 300.0
    _verdict(9, "buoyancy direction", ok,
             f"mean updraft above heated wall {rise:+.3f}, top-bottom "
             f"temperature split {dT:+.2f}, {dt:.0f}s")
