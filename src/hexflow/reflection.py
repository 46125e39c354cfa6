"""Cell-balance sweep: advance nodal temperature and velocity.

Each cell integrates its surface exchange over the half-step-fresh
ports: diffusive gradient fluxes (cached by the face sweep), advective
transport through every face, buoyancy from the temperature excess,
the nodal pressure gradient, and volumetric heating.  T and the three
velocity components share one update, stacked channel-first as
(4, nc), and differ only in their diffusion coefficient and source.
The update is explicit and local; all cells advance from the same
read-only port snapshot, so sweep order cannot matter.

Sign note: the thermal expansion coefficient is the relative density
change per kelvin, d(rho)/dT / rho, which is NEGATIVE for ordinary
fluids (about -1/T for an ideal gas).  With gravity pointing down,
e.g. g = (0, -9.81, 0), a negative beta makes hot fluid rise.  Passing
a positive beta silently flips every plume upside down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hexmesh import Mesh
from .state import FieldState, split_channels, stack_channels


@dataclass(frozen=True)
class MaterialProps:
    """Constant fluid properties (Boussinesq: density varies only in
    the gravity term)."""

    alpha: float = 0.0       # thermal diffusivity, m^2/s
    eta: float = 0.0         # dynamic viscosity, Pa s
    rho_inf: float = 1.0     # reference density, kg/m^3
    beta: float = 0.0        # thermal expansion d(rho)/dT / rho, 1/K; < 0 for real fluids
    T_inf: float = 0.0       # reference temperature, K
    g: tuple = (0.0, 0.0, 0.0)  # gravity, m/s^2

    def __post_init__(self):
        if not (self.alpha >= 0.0):
            raise ValueError("alpha must be >= 0")
        if not (self.eta >= 0.0):
            raise ValueError("eta must be >= 0")
        if not (self.rho_inf > 0.0):
            raise ValueError("rho_inf must be > 0")
        vals = (self.alpha, self.eta, self.rho_inf, self.beta, self.T_inf, *self.g)
        if not np.isfinite(vals).all():
            raise ValueError("material properties must be finite")
        object.__setattr__(self, "g", tuple(float(c) for c in self.g))

    @property
    def nu(self) -> float:
        """Kinematic viscosity eta / rho_inf."""
        return self.eta / self.rho_inf


@dataclass(frozen=True)
class SourceField:
    """Volumetric heat source per cell, in temperature units per second."""

    q: object = 0.0  # scalar or (nc,) array

    def __post_init__(self):
        q = np.asarray(self.q, dtype=np.float64)
        if not np.isfinite(q).all():
            raise ValueError("heat source must be finite")
        object.__setattr__(self, "q", q if q.ndim else float(q))


def nodal_gradient(mesh: Mesh, face_values) -> np.ndarray:
    """Cell-centered Cartesian gradient from opposite-face differences.

    Exact for affine fields on any valid cell, because each node vector
    joins the centroids of its two faces exactly.  Shape (nc, 3).
    """
    face_values = np.asarray(face_values, dtype=np.float64)
    d = face_values[:, 1::2] - face_values[:, 0::2]  # (nc, 3)
    return np.einsum("cnm,cm->cn", mesh.gamma, d)


def advective_rates(mesh: Mesh, state: FieldState) -> np.ndarray:
    """u . f volume flow rate through every face, outward positive."""
    return np.einsum("cfi,cfi->cf", state.face_u, mesh.face_vecs)


def update_nodes(mesh: Mesh, state: FieldState, props: MaterialProps,
                 source, tau: float) -> np.ndarray:
    """New nodal T, ux, uy, uz stacked as (4, nc); reads only port-time
    data and the old nodal values.

    Every channel takes cell + tau * source + (tau / V) * (sum over faces
    of its diffusive flux minus its advective transport); the diffusion
    coefficients are (alpha, nu, nu, nu).  ``source`` is (4, nc) or
    broadcasts to it.
    """
    out_flow = advective_rates(mesh, state)
    diffusivity = np.array([props.alpha, props.nu, props.nu, props.nu])
    ports = stack_channels(state.face_T, state.face_u)
    net = diffusivity[:, None, None] * state.flux - ports * out_flow
    cells = stack_channels(state.cell_T, state.cell_u)
    return cells + tau * source + (tau / mesh.volumes) * net.sum(axis=-1)


def reflection_sweep(mesh: Mesh, state: FieldState, props: MaterialProps,
                     tau: float, source=None) -> None:
    """Advance all nodal T and u by one full step, in place.

    Requires a completed face sweep (ports lead, fluxes cached).  The
    sources are the heat source for T and, for u, buoyancy from the
    temperature excess minus the nodal pressure gradient over rho_inf.
    """
    if not state.ready_for_cell_sweep:
        raise ValueError("cell sweep needs ports half a step ahead of nodes")
    if state.flux is None:
        raise ValueError("port fluxes not cached; run the face sweep first")

    if source is None:
        q = 0.0
    elif isinstance(source, SourceField):
        q = source.q
    else:
        q = np.asarray(source, dtype=np.float64)

    grad_p = nodal_gradient(mesh, state.face_p)
    buoy = props.beta * (state.cell_T - props.T_inf)
    sources = np.empty((4, state.n_cells))
    sources[0] = q
    sources[1:] = (buoy * np.array(props.g)[:, None]
                   - grad_p.T / props.rho_inf)
    state.cell_T, state.cell_u = split_channels(
        update_nodes(mesh, state, props, sources, tau))
    state.advance_nodes()


def cfl_number(mesh: Mesh, state: FieldState, props: MaterialProps,
               tau: float) -> float:
    """Worst-cell stability indicator for the explicit update.

    Largest of the advective number |u| tau / h and the two diffusive
    numbers 2 a tau / h^2 (thermal and viscous), over all cells, with h
    the cell's smallest thickness.  Not a sharp bound; values well
    above 1 reliably precede blow-up.
    """
    h = mesh.cell_size
    speed = np.linalg.norm(state.cell_u, axis=1)
    adv = (speed * tau / h).max() if len(h) else 0.0
    diff = 2.0 * max(props.alpha, props.nu) * tau / (h * h).min()
    return float(max(adv, diff))
