"""Field state on the staggered half-step lattice.

Every transported quantity lives twice: once at cell centers (nodal
values) and once on cell faces (port values).  The two populations are
offset by half a time step and advance alternately; a face-exchange
sweep moves the ports forward a full step, a cell-balance sweep moves
the nodes.  Stamps are kept as integer half-step counters so the
offset invariant is exact.

Port storage is redundant per cell: arrays are indexed (cell, local
face), and an interior face's value appears in both adjacent cells'
slots.  The face-exchange sweep writes the identical number to both, so
the redundancy is never a source of disagreement.

The sweeps that move T and u treat them as four channels of one array,
stacked channel-first in the order T, ux, uy, uz: nodal values as
(4, nc), ports as (4, nc, 6).  ``stack_channels`` and ``split_channels``
convert between that layout and the state's public arrays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import HistoryError, NonFiniteStateError


@dataclass
class FieldState:
    """Nodal and port fields plus their half-step stamps.

    ``node_step`` and ``port_step`` count elapsed half-steps; physical
    time is ``step * tau / 2``.  They must always differ by exactly one:
    nodes lead before a face sweep, ports lead before a cell sweep.

    ``flux`` is a transient cache written by the face-exchange sweep
    (gradient flux through each face of T, ux, uy, uz, stacked as
    (4, nc, 6)) and consumed by the cell-balance sweep of the same
    cycle; it is None before the first face sweep.
    """

    cell_T: np.ndarray          # (nc,)
    cell_u: np.ndarray          # (nc, 3)
    cell_p: np.ndarray          # (nc,)
    face_T: np.ndarray          # (nc, 6)
    face_u: np.ndarray          # (nc, 6, 3)
    face_p: np.ndarray          # (nc, 6)
    port_step: int = 0
    node_step: int = 1
    flux: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        nc = self.cell_T.shape[0]
        shapes = {
            "cell_T": (nc,), "cell_u": (nc, 3), "cell_p": (nc,),
            "face_T": (nc, 6), "face_u": (nc, 6, 3), "face_p": (nc, 6),
        }
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ValueError(f"{name} has shape {got}, expected {want}")
        if abs(self.node_step - self.port_step) != 1:
            raise ValueError(
                "node and port stamps must differ by exactly one half-step "
                f"(got node={self.node_step}, port={self.port_step})"
            )

    @property
    def n_cells(self) -> int:
        return self.cell_T.shape[0]

    @property
    def ready_for_face_sweep(self) -> bool:
        return self.node_step == self.port_step + 1

    @property
    def ready_for_cell_sweep(self) -> bool:
        return self.port_step == self.node_step + 1

    def advance_ports(self):
        if not self.ready_for_face_sweep:
            raise ValueError("ports are already ahead of nodes")
        self.port_step += 2

    def advance_nodes(self):
        if not self.ready_for_cell_sweep:
            raise ValueError("nodes are already ahead of ports")
        self.node_step += 2

    @classmethod
    def uniform(cls, nc, T=0.0, u=(0.0, 0.0, 0.0), p=0.0) -> "FieldState":
        """State with identical nodal and port values everywhere."""
        u = np.asarray(u, dtype=np.float64)
        return cls(
            cell_T=np.full(nc, float(T)),
            cell_u=np.tile(u, (nc, 1)),
            cell_p=np.full(nc, float(p)),
            face_T=np.full((nc, 6), float(T)),
            face_u=np.tile(u, (nc, 6, 1)),
            face_p=np.full((nc, 6), float(p)),
        )

    def copy(self) -> "FieldState":
        out = FieldState(
            cell_T=self.cell_T.copy(),
            cell_u=self.cell_u.copy(),
            cell_p=self.cell_p.copy(),
            face_T=self.face_T.copy(),
            face_u=self.face_u.copy(),
            face_p=self.face_p.copy(),
            port_step=self.port_step,
            node_step=self.node_step,
        )
        if self.flux is not None:
            out.flux = self.flux.copy()
        return out

    def assert_finite(self):
        """Raise NonFiniteStateError naming the first bad field."""
        for name in ("cell_T", "cell_u", "cell_p", "face_T", "face_u", "face_p"):
            arr = getattr(self, name)
            if not np.isfinite(arr).all():
                bad = int(np.count_nonzero(~np.isfinite(arr)))
                raise NonFiniteStateError(
                    f"{bad} non-finite entries in {name} at "
                    f"node step {self.node_step}"
                )


def stack_channels(scalar, vector) -> np.ndarray:
    """One C-contiguous channel-first array from a scalar field and a
    vector field with a trailing component axis: (nc, ...) and
    (nc, ..., 3) give (4, nc, ...)."""
    out = np.empty((4,) + scalar.shape)
    out[0] = scalar
    out[1:] = np.moveaxis(vector, -1, 0)
    return out


def split_channels(stacked):
    """Inverse of ``stack_channels``: contiguous copies of the scalar
    field and of the vector field with its components last."""
    return stacked[0].copy(), np.moveaxis(stacked[1:], 0, -1).copy()


def node_boundary_map(channel):
    """Exchange the port and node components of a scattering channel.

    A channel is any (port_part, node_part) pair; the map returns the
    pair with roles swapped.  It is its own inverse.  Crossing from the
    face side of a channel to the cell side turns incident fields into
    outgoing ones and vice versa, which is all the decomposition below
    needs from it.
    """
    port_part, node_part = channel
    return (node_part, port_part)


@dataclass
class ProcessHistory:
    """Recorded (port, node) snapshots of one channel set, oldest first.

    Entry m holds the port values after the m-th face sweep and the
    nodal values half a step later.  ``from_rest`` asserts the process
    was identically zero before the first record; the incident/outgoing
    split below is only defined in that case.
    """

    from_rest: bool = True
    ports: list = field(default_factory=list)
    nodes: list = field(default_factory=list)

    def record(self, port_values, node_values):
        self.ports.append(np.array(port_values, dtype=np.float64, copy=True))
        self.nodes.append(np.array(node_values, dtype=np.float64, copy=True))

    def __len__(self):
        return len(self.ports)


@dataclass
class ScatteringView:
    """Incident/outgoing split of a recorded process.

    ``incident[m]`` is the port-side incident field at record m and
    ``outgoing[m]`` the node-side outgoing field half a step later.
    Both rings are bounded at ``depth`` records (default 2, enough to
    check the reconstruction identities at the newest instant).
    """

    depth: int
    incident: deque
    outgoing: deque


def decompose_incident_outgoing(history: ProcessHistory, depth: int = 2) -> ScatteringView:
    """Split a from-rest process into incident and outgoing fields.

    The split is recursive: nothing is incoming before the start, each
    record's incident part is the port value minus what the previous
    node update sent out, and the outgoing part is the nodal value minus
    what just came in.  The port and node values are recovered exactly
    as the sums of the two parts at matching instants.
    """
    if not history.from_rest:
        raise HistoryError("incident/outgoing split requires a from-rest history")
    if depth < 1:
        raise HistoryError("history depth must be at least 1")
    incident: deque = deque(maxlen=depth)
    outgoing: deque = deque(maxlen=depth)
    prev_out = 0.0
    for zp, zn in zip(history.ports, history.nodes):
        # the node-side outgoing field arrives on the port side through
        # the (self-inverse) port/node exchange
        arriving, _ = node_boundary_map((None, prev_out))
        z_in = zp - arriving
        z_out = zn - z_in
        incident.append(z_in)
        outgoing.append(z_out)
        prev_out = z_out
    return ScatteringView(depth=depth, incident=incident, outgoing=outgoing)


def snapshot(state: FieldState, which=("T", "u", "p")) -> dict:
    """Dense nodal output arrays in cell order; always copies."""
    out = {}
    for name in which:
        if name == "T":
            out["T"] = state.cell_T.copy()
        elif name == "u":
            out["u"] = state.cell_u.copy()
        elif name == "p":
            out["p"] = state.cell_p.copy()
        else:
            raise KeyError(f"unknown field {name!r}")
    return out
