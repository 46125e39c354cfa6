"""Periodic cellular coarse-graining of nodal fields.

Every ``period`` full steps, the nodal value of each targeted field is
replaced by a convex combination of the cell's six port values; all
targeted channels are stacked and contracted together.  Ports
are never touched, so the cell boundary skeleton that the neighbours
see is preserved bit for bit; only sub-cell detail invisible to the
faces is discarded.  Applied at a sensible cadence this acts as a
stabilising filter on under-resolved flow without altering the update
rules themselves.

Weight schemes: "face-area" (w proportional to face area, the default),
"uniform" (1/6 each), or "custom" (caller-supplied convex weights).
"""

import warnings
from dataclasses import dataclass

import numpy as np

SCHEMES = ("face-area", "uniform", "custom")

# target name -> (nodal attr, port attr, number of channels)
_TARGET_FIELDS = {
    "velocity": ("cell_u", "face_u", 3),
    "temperature": ("cell_T", "face_T", 1),
    "pressure": ("cell_p", "face_p", 1),
}

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class CoarseningConfig:
    """Policy knob bundle for the coarse-graining sweep.

    period:   apply every this-many full steps (1-based step counter).
    scheme:   one of SCHEMES.
    targets:  which nodal fields get replaced; velocity only by default.
              Temperature coarsening is available but deliberately off:
              it injects/removes heat and ruins closed-box conservation.
    weights:  required for scheme "custom"; shape (6,) or (n_cells, 6).
    safety_factor: coarsening more often than once per this many steps
              draws a warning (it starts to distort resolved dynamics).
    """

    period: int = 10
    scheme: str = "face-area"
    targets: tuple = ("velocity",)
    weights: object = None
    safety_factor: int = 10

    def __post_init__(self):
        if not isinstance(self.period, (int, np.integer)) or self.period < 1:
            raise ValueError("coarsening period must be an integer >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown coarsening scheme {self.scheme!r}; pick from {SCHEMES}")
        if not self.targets:
            raise ValueError("coarsening targets must not be empty")
        for name in self.targets:
            if name not in _TARGET_FIELDS:
                raise ValueError(
                    f"unknown coarsening target {name!r}; "
                    f"pick from {tuple(_TARGET_FIELDS)}")
        if self.scheme == "custom":
            if self.weights is None:
                raise ValueError("custom scheme needs explicit weights")
        elif self.weights is not None:
            raise ValueError("weights are only accepted with the custom scheme")
        if self.period < self.safety_factor:
            warnings.warn(
                f"coarsening period {self.period} is below the safety factor "
                f"{self.safety_factor}; nodal fields will be smoothed so often "
                "that resolved dynamics may be damped",
                stacklevel=2)


def face_area_weights(mesh) -> np.ndarray:
    """Per-cell weights proportional to face area, shape (n_cells, 6)."""
    areas = mesh.face_areas
    return areas / areas.sum(axis=1, keepdims=True)


def uniform_weights(mesh) -> np.ndarray:
    return np.full((mesh.n_cells, 6), 1.0 / 6.0)


def resolve_weights(mesh, config: CoarseningConfig) -> np.ndarray:
    """Materialize the configured scheme as a validated (n_cells, 6) array."""
    if config.scheme == "face-area":
        return face_area_weights(mesh)
    if config.scheme == "uniform":
        return uniform_weights(mesh)
    w = np.asarray(config.weights, dtype=float)
    if w.shape == (6,):
        w = np.broadcast_to(w, (mesh.n_cells, 6))
    if w.shape != (mesh.n_cells, 6):
        raise ValueError(
            f"custom weights must have shape (6,) or ({mesh.n_cells}, 6), "
            f"got {w.shape}")
    if not np.isfinite(w).all() or w.min() < 0.0:
        raise ValueError("custom weights must be finite and >= 0")
    if np.abs(w.sum(axis=1) - 1.0).max() > _WEIGHT_TOL:
        raise ValueError("custom weights must sum to 1 in every cell")
    return w


def coarsen_cell(port_values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Convex combination of port values along the face axis.

    port_values has the face axis last ((..., 6)), so stacked channels
    go in channel-first as (K, n_cells, 6) against (n_cells, 6) weights.
    Computed anchored to the first port, base + sum(w * (p - base)), so
    a constant set of ports comes back bit-identical regardless of how
    the weights round.
    """
    base = port_values[..., 0]
    return base + np.einsum("...f,...f->...", weights, port_values - base[..., None])


def coarsen_sweep(mesh, state, config: CoarseningConfig, step_index: int) -> bool:
    """Replace targeted nodal fields by port means when a step is due.

    step_index is the 1-based count of completed-or-running full steps;
    the sweep fires when it is a multiple of config.period and returns
    True, otherwise the state is untouched and the return is False.
    All targeted channels (three per vector field, one per scalar) are
    stacked channel-first and coarsened in one contraction.
    """
    if step_index % config.period != 0:
        return False
    if not state.ready_for_cell_sweep:
        raise ValueError("coarsening runs on fresh ports, before the cell sweep")
    w = resolve_weights(mesh, config)
    fields = [_TARGET_FIELDS[name] for name in config.targets]
    # one C-contiguous (K, n_cells, 6) array: einsum's summation order,
    # and so the last bit of the result, depends on the memory layout
    ports = np.empty((sum(n for *_, n in fields), mesh.n_cells, 6))
    k = 0
    for _, face_attr, n in fields:
        ports[k:k + n] = np.moveaxis(
            getattr(state, face_attr).reshape(mesh.n_cells, 6, n), -1, 0)
        k += n
    new = coarsen_cell(ports, w)
    k = 0
    for cell_attr, _, n in fields:
        cells = new[k] if n == 1 else new[k:k + n].T
        setattr(state, cell_attr, cells.copy())
        k += n
    return True
