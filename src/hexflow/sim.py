"""Time-stepping driver, boundary conditions, and benchmark scenarios.

One full step advances ports then nodes:

    connection sweep (with boundary overrides) -> pressure correction ->
    coarsening (when due) -> reflection sweep -> health check

Boundary rules are applied as port overrides after the interior face
update, so the cached fluxes and the pressure solve both see them.

Scenario builders return (mesh, config, initial state) for a set of
small benchmark flows: a 1D diffusion slab, a lid-driven cavity, a jet
over a backward-facing step, a cylinder wake channel, and a heated
concentric annulus (the one mesh here that exercises genuinely
non-orthogonal cells).
"""

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .coarsen import CoarseningConfig, coarsen_sweep
from .connection import connection_sweep
from .errors import BoundaryTagError, StabilityError
from .hexmesh import Mesh, build_mesh
from .pressure import PressureSolverConfig, pressure_iterate, project_port_velocities
from .reflection import MaterialProps, SourceField, cfl_number, reflection_sweep
from .state import FieldState

BC_KINDS = ("wall", "fixed_temperature", "adiabatic", "inflow", "outflow",
            "symmetry")

BOX_TAGS = ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")

SCENARIOS = ("slab", "cavity", "step", "cylinder", "annulus")


@dataclass(frozen=True)
class BoundaryRule:
    """What happens to the ports of one boundary tag.

    kind:
      wall              no-slip: u = 0, or the given velocity for a moving
                        wall; temperature fixed if given, else adiabatic
      fixed_temperature wall with a required temperature
      adiabatic         wall alias: u = 0, zero normal T gradient
      inflow            prescribed velocity (required) and, if given,
                        temperature
      outflow           zero normal gradient for everything; the net mass
                        defect of the whole boundary is removed here so the
                        pressure problem stays solvable
      symmetry          free slip: the velocity component along the face
                        normal is removed, scalars keep their one-sided
                        values
    """

    kind: str
    velocity: tuple = None
    temperature: float = None

    def __post_init__(self):
        if self.kind not in BC_KINDS:
            raise ValueError(f"unknown boundary kind {self.kind!r}; "
                             f"pick from {BC_KINDS}")
        if self.velocity is not None:
            v = np.asarray(self.velocity, dtype=float)
            if v.shape != (3,) or not np.isfinite(v).all():
                raise ValueError("boundary velocity must be 3 finite components")
            object.__setattr__(self, "velocity", tuple(float(c) for c in v))
        if self.temperature is not None and not np.isfinite(self.temperature):
            raise ValueError("boundary temperature must be finite")
        if self.kind == "inflow" and self.velocity is None:
            raise ValueError("inflow rule needs a velocity")
        if self.kind == "fixed_temperature" and self.temperature is None:
            raise ValueError("fixed_temperature rule needs a temperature")
        if self.kind in ("adiabatic", "outflow", "symmetry"):
            if self.velocity is not None or self.temperature is not None:
                raise ValueError(f"{self.kind} rule takes no values")


PROBE_FIELDS = ("T", "ux", "uy", "uz", "p", "speed")


@dataclass(frozen=True)
class Probe:
    """Samples nodal fields of one cell every step.

    Give either a position (snapped to the nearest cell centroid) or an
    explicit cell index.
    """

    position: tuple = None
    cell: int = None
    fields: tuple = ("T", "ux", "uy", "uz", "p")

    def __post_init__(self):
        if (self.position is None) == (self.cell is None):
            raise ValueError("give a probe exactly one of position or cell")
        for f in self.fields:
            if f not in PROBE_FIELDS:
                raise ValueError(f"unknown probe field {f!r}; "
                                 f"pick from {PROBE_FIELDS}")


def resolve_probe(mesh, probe: Probe) -> int:
    if probe.cell is not None:
        if not 0 <= probe.cell < mesh.n_cells:
            raise ValueError(f"probe cell {probe.cell} outside 0..{mesh.n_cells - 1}")
        return int(probe.cell)
    pos = np.asarray(probe.position, dtype=float)
    return int(np.argmin(((mesh.centroids - pos) ** 2).sum(axis=1)))


def _sample(state, cell, name):
    if name == "T":
        return float(state.cell_T[cell])
    if name == "p":
        return float(state.cell_p[cell])
    if name == "speed":
        return float(np.linalg.norm(state.cell_u[cell]))
    return float(state.cell_u[cell, ("ux", "uy", "uz").index(name)])


@dataclass
class SimulationConfig:
    tau: float
    props: MaterialProps = field(default_factory=MaterialProps)
    q: SourceField = None
    coarsening: CoarseningConfig = None
    pressure: PressureSolverConfig = None
    bcs: dict = field(default_factory=dict)
    n_steps: int = 0
    cadence: int = None
    probes: tuple = ()
    cfl_warn: float = 0.9
    cfl_error: float = 2.0

    def __post_init__(self):
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError("time step tau must be positive and finite")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 0:
            raise ValueError("n_steps must be an integer >= 0")
        if self.cadence is not None and (
                not isinstance(self.cadence, (int, np.integer)) or self.cadence < 1):
            raise ValueError("output cadence must be an integer >= 1")
        for tag, rule in self.bcs.items():
            if not isinstance(rule, BoundaryRule):
                raise ValueError(f"bcs[{tag!r}] is not a BoundaryRule")
        if not (0.0 < self.cfl_warn <= self.cfl_error):
            raise ValueError("need 0 < cfl_warn <= cfl_error")


def apply_boundary_conditions(mesh, state, bcs: dict) -> None:
    """Override boundary ports in place according to the per-tag rules.

    Every mesh tag must have a rule and every rule must name a mesh tag.
    After all rules are applied, any net mass flux through the boundary
    is removed over the outflow faces (area-weighted), keeping the
    pressure problem compatible.
    """
    known = set(mesh.tags)
    stray = set(bcs) - known
    if stray:
        raise BoundaryTagError(
            f"rule(s) for unknown boundary tag(s) {sorted(stray)}")
    missing = known - set(bcs)
    if missing:
        raise BoundaryTagError(
            f"no boundary rule for mesh tag(s) {sorted(missing)}")

    outflow_groups = []
    for tag, rule in bcs.items():
        cells, faces = mesh.boundary_group(tag)
        if rule.kind in ("wall", "adiabatic", "fixed_temperature"):
            vel = rule.velocity if rule.velocity is not None else (0.0, 0.0, 0.0)
            state.face_u[cells, faces] = vel
            if rule.temperature is not None:
                state.face_T[cells, faces] = rule.temperature
        elif rule.kind == "inflow":
            state.face_u[cells, faces] = rule.velocity
            if rule.temperature is not None:
                state.face_T[cells, faces] = rule.temperature
        elif rule.kind == "symmetry":
            fv = mesh.face_vecs[cells, faces]
            nhat = fv / np.linalg.norm(fv, axis=1, keepdims=True)
            u = state.face_u[cells, faces]
            normal = np.einsum("bk,bk->b", u, nhat)
            state.face_u[cells, faces] = u - normal[:, None] * nhat
        elif rule.kind == "outflow":
            outflow_groups.append((cells, faces))

    if outflow_groups:
        net = np.einsum("bk,bk->", state.face_u[mesh.bcell, mesh.bface],
                        mesh.face_vecs[mesh.bcell, mesh.bface])
        cells = np.concatenate([g[0] for g in outflow_groups])
        faces = np.concatenate([g[1] for g in outflow_groups])
        fv = mesh.face_vecs[cells, faces]
        area = np.linalg.norm(fv, axis=1)
        corr = net / area.sum()
        state.face_u[cells, faces] -= corr * (fv / area[:, None])


def step(mesh, state, config: SimulationConfig, step_index: int) -> FieldState:
    """Advance one full cycle and run the health checks."""
    hook = None
    if config.bcs:
        hook = lambda m, s: apply_boundary_conditions(m, s, config.bcs)
    connection_sweep(mesh, state, bc_hook=hook)
    if config.pressure is not None:
        pressure_iterate(mesh, state, config.tau, config.props.rho_inf,
                         config.pressure)
        project_port_velocities(mesh, state, config.tau, config.props.rho_inf)
    if config.coarsening is not None:
        coarsen_sweep(mesh, state, config.coarsening, step_index)
    reflection_sweep(mesh, state, config.props, config.tau, source=config.q)
    state.assert_finite()
    c = cfl_number(mesh, state, config.props, config.tau)
    if c > config.cfl_error:
        raise StabilityError(
            f"step diagnostic {c:.3f} exceeded the hard limit "
            f"{config.cfl_error} at step {step_index}")
    if c > config.cfl_warn:
        warnings.warn("step diagnostic exceeded the advisory limit; "
                      "the run may be unstable", stacklevel=2)
    return state


def run(mesh, state, config: SimulationConfig, writers=()):
    """Loop step(), record probes each step, emit snapshots at cadence.

    Writers are callables (mesh, state, step_index, time).  A snapshot is
    always written at step 0 and after the final step.  Returns the final
    state and one list of (time, {field: value}) records per probe.
    """
    cells = [resolve_probe(mesh, p) for p in config.probes]
    records = [[] for _ in cells]

    def emit(k):
        for writer in writers:
            writer(mesh, state, k, k * config.tau)

    emit(0)
    last = 0
    for k in range(1, config.n_steps + 1):
        step(mesh, state, config, k)
        t = k * config.tau
        for rec, cell, probe in zip(records, cells, config.probes):
            rec.append((t, {f: _sample(state, cell, f) for f in probe.fields}))
        if config.cadence is not None and k % config.cadence == 0:
            emit(k)
            last = k
    if config.n_steps > 0 and last != config.n_steps:
        emit(config.n_steps)
    return state, records


# ---------------------------------------------------------------- meshes

def masked_box_mesh(nx, ny, nz, lengths=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0),
                    keep=None, hole_tag="wall") -> Mesh:
    """Structured box of nx*ny*nz cells, optionally with cells carved out.

    keep(i, j, k) -> bool selects the cells that exist; faces exposed by
    carved-out neighbours are tagged hole_tag, outer faces get BOX_TAGS.
    Vertices, cells and kept cells are numbered with i slowest, k fastest.
    """
    if min(nx, ny, nz) < 1:
        raise ValueError("box needs at least one cell per direction")
    d = np.asarray(lengths, dtype=float) / (nx, ny, nz)
    if not (d > 0).all():
        raise ValueError("box lengths must be positive")

    verts = origin + d * np.indices((nx + 1, ny + 1, nz + 1)).reshape(3, -1).T

    shape = (nx, ny, nz)
    kept = np.ones(shape, dtype=bool)
    if keep is not None:
        kept.flat = [bool(keep(i, j, k)) for i, j, k in itertools.product(
            range(nx), range(ny), range(nz))]
    if not kept.any():
        raise ValueError("mask removed every cell")
    ijk = np.argwhere(kept)  # (n, 3), i slowest

    # vertex id of (i, j, k) is (i * (ny + 1) + j) * (nz + 1) + k; the
    # corners run a fastest, then b, then c
    corner = np.array([[a, b, c] for c in (0, 1) for b in (0, 1) for a in (0, 1)])
    stride = np.array([(ny + 1) * (nz + 1), nz + 1, 1])
    cells = (ijk[:, None, :] + corner) @ stride

    # neighbour status: -1 outside the box, 0 carved out, 1 kept
    status = np.full((nx + 2, ny + 2, nz + 2), -1, dtype=np.int8)
    status[1:-1, 1:-1, 1:-1] = kept
    offsets = np.array([(-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0),
                        (0, 0, -1), (0, 0, 1)])
    nb = status[tuple(np.moveaxis(ijk[:, None, :] + 1 + offsets, -1, 0))]
    bc, bf = np.nonzero(nb < 1)
    boundary = [(c, f, BOX_TAGS[f] if nb[c, f] < 0 else hole_tag)
                for c, f in zip(bc.tolist(), bf.tolist())]
    return build_mesh(verts, cells, boundary)


def box_mesh(nx, ny, nz, lengths=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0)) -> Mesh:
    return masked_box_mesh(nx, ny, nz, lengths, origin)


def annulus_mesh(n_r, n_theta, r_inner, r_outer, thickness=None) -> Mesh:
    """One-cell-thick ring of n_r x n_theta cells between two radii.

    The angular direction closes on itself, so the only boundaries are
    the inner and outer rings ("inner"/"outer") and the spanwise faces
    ("zmin"/"zmax").  Cells are genuinely non-orthogonal.
    """
    if n_r < 1 or n_theta < 3:
        raise ValueError("annulus needs n_r >= 1 and n_theta >= 3")
    if not 0.0 < r_inner < r_outer:
        raise ValueError("need 0 < r_inner < r_outer")
    dr = (r_outer - r_inner) / n_r
    if thickness is None:
        thickness = dr
    dth = 2.0 * math.pi / n_theta

    def vid(ir, j, k):
        return (ir * n_theta + (j % n_theta)) * 2 + k

    verts = np.empty(((n_r + 1) * n_theta * 2, 3))
    for ir in range(n_r + 1):
        r = r_inner + ir * dr
        for j in range(n_theta):
            th = j * dth
            for k in (0, 1):
                verts[vid(ir, j, k)] = (r * math.cos(th), r * math.sin(th),
                                        k * thickness)

    cells = []
    boundary = []
    for ir in range(n_r):
        for j in range(n_theta):
            c = len(cells)
            cells.append([vid(ir + a, j + b, k)
                          for k in (0, 1) for b in (0, 1) for a in (0, 1)])
            if ir == 0:
                boundary.append((c, 0, "inner"))
            if ir == n_r - 1:
                boundary.append((c, 1, "outer"))
            boundary.append((c, 4, "zmin"))
            boundary.append((c, 5, "zmax"))
    return build_mesh(verts, cells, boundary)


# ------------------------------------------------------------- scenarios

def _merged(defaults: dict, parameters) -> dict:
    params = dict(defaults)
    if parameters:
        stray = set(parameters) - set(defaults)
        if stray:
            raise ValueError(f"unknown scenario parameter(s) {sorted(stray)}")
        params.update(parameters)
    return params


def _coarsening(period):
    if period is None:
        return None
    return CoarseningConfig(period=period)


def _spanwise(bcs):
    bcs["zmin"] = BoundaryRule("symmetry")
    bcs["zmax"] = BoundaryRule("symmetry")
    return bcs


def _slab(resolution, parameters):
    n = resolution or 64
    if n < 2:
        raise ValueError("slab needs at least 2 cells")
    p = _merged({"alpha": 1.0, "tau": None, "length": 1.0}, parameters)
    h = p["length"] / n
    tau = p["tau"] if p["tau"] is not None else 0.2 * h * h / p["alpha"]
    mesh = box_mesh(n, 1, 1, lengths=(p["length"], h, h))
    bcs = {tag: BoundaryRule("adiabatic") for tag in BOX_TAGS}
    config = SimulationConfig(
        tau=tau,
        props=MaterialProps(alpha=p["alpha"]),
        bcs=bcs)
    state = FieldState.uniform(mesh.n_cells)
    return mesh, config, state


def _cavity(resolution, parameters):
    n = resolution or 16
    if n < 2:
        raise ValueError("cavity needs at least 2 cells per side")
    p = _merged({"lid_speed": 1.0, "nu": 0.01, "tau": 0.02,
                 "coarsen_period": 10}, parameters)
    mesh = box_mesh(n, n, 1, lengths=(1.0, 1.0, 1.0 / n))
    bcs = _spanwise({
        "xmin": BoundaryRule("wall"),
        "xmax": BoundaryRule("wall"),
        "ymin": BoundaryRule("wall"),
        "ymax": BoundaryRule("wall", velocity=(p["lid_speed"], 0.0, 0.0)),
    })
    config = SimulationConfig(
        tau=p["tau"],
        props=MaterialProps(eta=p["nu"]),
        coarsening=_coarsening(p["coarsen_period"]),
        pressure=PressureSolverConfig(tolerance=1e-6),
        bcs=bcs)
    state = FieldState.uniform(mesh.n_cells)
    return mesh, config, state


def _step_channel(resolution, parameters):
    ny = resolution or 16
    if ny < 4 or ny % 2:
        raise ValueError("step channel needs an even cell count >= 4")
    nx = 3 * ny
    block = ny // 2
    p = _merged({"inflow_speed": 1.0, "nu": 0.05, "tau": 0.3,
                 "coarsen_period": 10}, parameters)
    mesh = masked_box_mesh(
        nx, ny, 1, lengths=(float(nx), float(ny), 1.0),
        keep=lambda i, j, k: not (i < block and j < block))
    bcs = _spanwise({
        "xmin": BoundaryRule("inflow", velocity=(p["inflow_speed"], 0.0, 0.0)),
        "xmax": BoundaryRule("outflow"),
        "ymin": BoundaryRule("wall"),
        "ymax": BoundaryRule("wall"),
        "wall": BoundaryRule("wall"),
    })
    config = SimulationConfig(
        tau=p["tau"],
        props=MaterialProps(eta=p["nu"]),
        coarsening=_coarsening(p["coarsen_period"]),
        pressure=PressureSolverConfig(tolerance=1e-4),
        bcs=bcs)
    state = FieldState.uniform(mesh.n_cells)
    return mesh, config, state


def _cylinder(resolution, parameters):
    ny = resolution or 40
    if ny < 10:
        raise ValueError("cylinder channel needs at least 10 cells across")
    nx = 3 * ny
    diameter = ny / 5.0
    cx, cy = nx / 4.0, ny / 2.0
    p = _merged({"inflow_speed": 1.0, "reynolds": 150.0, "tau": 0.15,
                 "kick": 0.05, "coarsen_period": 10}, parameters)
    u0 = p["inflow_speed"]
    nu = u0 * diameter / p["reynolds"]

    def keep(i, j, k):
        return (i + 0.5 - cx) ** 2 + (j + 0.5 - cy) ** 2 >= (diameter / 2.0) ** 2

    mesh = masked_box_mesh(nx, ny, 1, lengths=(float(nx), float(ny), 1.0),
                           keep=keep)
    bcs = _spanwise({
        "xmin": BoundaryRule("inflow", velocity=(u0, 0.0, 0.0)),
        "xmax": BoundaryRule("outflow"),
        "ymin": BoundaryRule("symmetry"),
        "ymax": BoundaryRule("symmetry"),
        "wall": BoundaryRule("wall"),
    })
    config = SimulationConfig(
        tau=p["tau"],
        props=MaterialProps(eta=nu),
        coarsening=_coarsening(p["coarsen_period"]),
        pressure=PressureSolverConfig(tolerance=1e-4),
        bcs=bcs)
    state = FieldState.uniform(mesh.n_cells, u=(u0, 0.0, 0.0))
    # deterministic cross-stream nudge behind the obstacle so the wake
    # instability does not have to grow from rounding noise alone
    blob = p["kick"] * u0 * np.exp(
        -(((mesh.centroids[:, 0] - (cx + 1.5 * diameter)) ** 2
           + (mesh.centroids[:, 1] - (cy + 0.5 * diameter)) ** 2)
          / (2.0 * diameter ** 2)))
    state.cell_u[:, 1] += blob
    state.face_u[:, :, 1] += blob[:, None]
    return mesh, config, state


def _annulus(resolution, parameters):
    n_r = resolution or 8
    if n_r < 2:
        raise ValueError("annulus needs at least 2 radial cells")
    n_theta = 6 * n_r
    p = _merged({"r_inner": 1.0, "r_outer": 2.6, "T_inner": 310.0,
                 "T_outer": 290.0, "T_ref": 300.0, "beta": -3.3e-3,
                 "nu": 0.023, "alpha": 0.023, "gravity": 9.81, "tau": 0.025,
                 "coarsen_period": 10}, parameters)
    mesh = annulus_mesh(n_r, n_theta, p["r_inner"], p["r_outer"])
    bcs = _spanwise({
        "inner": BoundaryRule("fixed_temperature", temperature=p["T_inner"]),
        "outer": BoundaryRule("fixed_temperature", temperature=p["T_outer"]),
    })
    config = SimulationConfig(
        tau=p["tau"],
        props=MaterialProps(alpha=p["alpha"], eta=p["nu"], beta=p["beta"],
                            T_inf=p["T_ref"], g=(0.0, -p["gravity"], 0.0)),
        coarsening=_coarsening(p["coarsen_period"]),
        pressure=PressureSolverConfig(tolerance=1e-5),
        bcs=bcs)
    state = FieldState.uniform(mesh.n_cells, T=p["T_ref"])
    return mesh, config, state


_BUILDERS = {"slab": _slab, "cavity": _cavity, "step": _step_channel,
             "cylinder": _cylinder, "annulus": _annulus}


def build_scenario(name, resolution=None, parameters=None):
    """Assemble (mesh, config, initial state) for a named benchmark flow."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown scenario {name!r}; pick from {SCENARIOS}")
    return _BUILDERS[name](resolution, parameters)
