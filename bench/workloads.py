"""Inputs of the step benchmark's three workloads.

Each workload is built through the public API only and comes back as a
``Workload``: mesh, config, the initial state every round starts from,
the number of steps in one round, and what the correctness checks need.

- cylinder-wake: the built-in cylinder scenario at its default
  resolution; the pressure solve is most of every step, and the first
  steps need several times the later sweep counts.
- annulus-convection: the annulus scenario at resolution 16, whose
  cells are genuinely non-orthogonal, so the pressure system couples
  cell and face pressures and a box-only shortcut does not apply.
- box-conduction: a closed 32^3 box with adiabatic walls, u = 0 and no
  pressure stage; the connection sweep and the mesh build dominate.
  The initial temperature is a discrete cosine eigenmode whose wave
  numbers come from the seed.

Only box-conduction draws from the seed.  The other two start from the
scenario's own initial state, which the annulus mirror-symmetry check
relies on, so their seed-to-seed spread is machine noise alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hexflow import (
    BoundaryRule,
    CoarseningConfig,
    FieldState,
    MaterialProps,
    SimulationConfig,
    box_mesh,
    build_scenario,
)

NAMES = ("cylinder-wake", "annulus-convection", "box-conduction")

# steps per round; each is at least 100 so that a single round already
# puts ten samples beyond the 90th percentile
ROUND_STEPS = {"cylinder-wake": 100, "annulus-convection": 200,
               "box-conduction": 100}

ANNULUS_RESOLUTION = 16
BOX_CELLS = 32          # per direction
BOX_T0 = 300.0          # K, mean temperature
BOX_AMPLITUDE = 1.0     # K, amplitude of the initial eigenmode
BOX_ALPHA = 1.0         # thermal diffusivity
BOX_COURANT = 0.1       # alpha * tau / h^2
BOX_MAX_WAVE = 3        # wave numbers are drawn from 0..BOX_MAX_WAVE


@dataclass
class Workload:
    name: str
    mesh: object
    config: SimulationConfig
    initial: FieldState
    round_steps: int
    reference: dict = field(default_factory=dict)


def box_wave_numbers(seed: int) -> tuple:
    """Per-axis cosine wave numbers of the box-conduction initial mode."""
    rng = np.random.default_rng(seed)
    while True:
        m = tuple(int(v) for v in rng.integers(0, BOX_MAX_WAVE + 1, size=3))
        if any(m):
            return m


def box_eigenmode(centroids, lengths, m) -> np.ndarray:
    """prod_d cos(pi m_d x_d / L_d) at the given cell centres."""
    x = np.asarray(centroids, dtype=np.float64)
    mode = np.ones(len(x))
    for d in range(3):
        mode *= np.cos(np.pi * m[d] * x[:, d] / lengths[d])
    return mode


def box_decay_factor(n, lengths, alpha, tau, m) -> float:
    """Per-step factor of the explicit 7-point Neumann Laplacian on mode m.

    lambda = 1 - alpha tau sum_d (2 - 2 cos(pi m_d / n_d)) / h_d^2, the
    eigenvalue of one forward-Euler step on a cell-centred grid with
    zero-flux walls, derived independently of the solver.
    """
    total = 0.0
    for d in range(3):
        h = lengths[d] / n[d]
        total += (2.0 - 2.0 * np.cos(np.pi * m[d] / n[d])) / (h * h)
    return 1.0 - alpha * tau * total


def box_conduction(seed, cells=BOX_CELLS):
    """Closed box with a cosine eigenmode of T and its exact decay."""
    n = (cells,) * 3
    lengths = (1.0, 1.0, 1.0)
    mesh = box_mesh(*n, lengths=lengths)
    h = lengths[0] / n[0]
    tau = BOX_COURANT * h * h / BOX_ALPHA
    config = SimulationConfig(
        tau=tau,
        props=MaterialProps(alpha=BOX_ALPHA),
        coarsening=CoarseningConfig(period=10),
        bcs={tag: BoundaryRule("adiabatic") for tag in mesh.tags})
    m = box_wave_numbers(seed)
    mode = box_eigenmode(mesh.centroids, lengths, m)
    state = FieldState.uniform(mesh.n_cells, T=BOX_T0)
    state.cell_T = BOX_T0 + BOX_AMPLITUDE * mode
    state.face_T = np.repeat(state.cell_T[:, None], 6, axis=1)
    reference = {
        "wave_numbers": m,
        "mode": mode,
        "decay": box_decay_factor(n, lengths, BOX_ALPHA, tau, m),
        "T0": BOX_T0,
        "amplitude": BOX_AMPLITUDE,
        "heat": float(np.dot(mesh.volumes, state.cell_T)),
    }
    return mesh, config, state, reference


def build(name: str, seed: int) -> Workload:
    """Mesh, config and initial state of one workload."""
    if name == "cylinder-wake":
        mesh, config, state = build_scenario("cylinder")
        reference = {}
    elif name == "annulus-convection":
        mesh, config, state = build_scenario(
            "annulus", resolution=ANNULUS_RESOLUTION)
        rules = config.bcs
        reference = {"T_min": rules["outer"].temperature,
                     "T_max": rules["inner"].temperature}
    elif name == "box-conduction":
        mesh, config, state, reference = box_conduction(seed)
    else:
        raise ValueError(f"unknown workload {name!r}; pick from {NAMES}")
    return Workload(name, mesh, config, state, ROUND_STEPS[name], reference)
