"""Correctness checks the step benchmark applies to every workload.

Each bound comes from the method (what a converged projection, the
interface rule or a mirror-symmetric set-up guarantees) or from a
reference computed here apart from the solver, never from a recorded
solver output.  A failed check raises ``CheckFailed`` with the worst
value it saw.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(np.float64).eps

# a converged projection leaves each cell's divergence integral at the
# solver residual, at most tolerance * flux scale; the scale is taken
# from the ports after projection here, which may be a little smaller
DIVERGENCE_FACTOR = 4.0
# net boundary flux: sum of O(n_boundary) rounded terms
BOUNDARY_RTOL = 1e-12
# temperature may leave [T_min, T_max] by rounding only
TEMPERATURE_SLACK = 1e-9
# mirror defect of the velocity over max |u|; the mesh, walls and
# gravity are symmetric about x = 0, so only rounding and the SOR
# tolerance, amplified by the flow, break it
MIRROR_RTOL = 1e-2
# eigenmode mismatch relative to the mode amplitude
EIGENMODE_RTOL = 1e-10


class CheckFailed(Exception):
    """A workload's output violates a property of the method."""


def divergence_bounded(mesh, state, tolerance, rho_inf):
    """Cell divergence integrals within a small multiple of the solver
    tolerance times the face flux scale.  Returns the ratio of the worst
    cell to tolerance * scale."""
    face_flux = np.einsum("cfk,cfk->cf", state.face_u, mesh.face_vecs)
    scale = rho_inf * np.abs(face_flux).max()
    threshold = tolerance * scale if scale > 0.0 else tolerance
    worst = rho_inf * np.abs(face_flux.sum(axis=1)).max()
    if worst > DIVERGENCE_FACTOR * threshold:
        cell = int(np.argmax(np.abs(face_flux.sum(axis=1))))
        raise CheckFailed(
            f"divergence integral {worst:.3e} at cell {cell} exceeds "
            f"{DIVERGENCE_FACTOR} x tolerance x flux scale ({threshold:.3e})")
    return worst / threshold


def ports_single_valued(mesh, state):
    """Both sides of every interior face carry the same velocity port,
    bit for bit."""
    a = state.face_u[mesh.icell_a, mesh.iface_a]
    b = state.face_u[mesh.icell_b, mesh.iface_b]
    split = np.flatnonzero((a != b).any(axis=1))
    if len(split):
        k = int(split[0])
        raise CheckFailed(
            f"{len(split)} interior port pairs differ, first between cells "
            f"{int(mesh.icell_a[k])} and {int(mesh.icell_b[k])}")


def boundary_flux_balanced(mesh, state):
    """Net volume flux through the boundary is zero to rounding.
    Returns the net flux over the sum of its magnitudes."""
    q = np.einsum("bk,bk->b", state.face_u[mesh.bcell, mesh.bface],
                  mesh.face_vecs[mesh.bcell, mesh.bface])
    net = abs(q.sum())
    scale = np.abs(q).sum()
    if net > BOUNDARY_RTOL * scale or (scale == 0.0 and net != 0.0):
        raise CheckFailed(
            f"net boundary flux {net:.3e} against a gross flux {scale:.3e}")
    return net / scale if scale > 0.0 else 0.0


def temperature_within(state, t_min, t_max):
    """Nodal temperatures stay inside the range the walls impose."""
    lo, hi = float(state.cell_T.min()), float(state.cell_T.max())
    if lo < t_min - TEMPERATURE_SLACK or hi > t_max + TEMPERATURE_SLACK:
        raise CheckFailed(
            f"temperature range [{lo:.6f}, {hi:.6f}] leaves "
            f"[{t_min}, {t_max}]")


def mirror_map(centroids, size):
    """Index of each cell's mirror image about x = 0.

    Matches cell centres after reflecting x; raises CheckFailed when
    some centre has no image within 1e-9 of ``size``.
    """
    c = np.asarray(centroids, dtype=np.float64)
    image = c * np.array([-1.0, 1.0, 1.0])
    perm = np.empty(len(c), dtype=np.intp)
    for lo in range(0, len(c), 256):
        d = ((image[lo:lo + 256, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        perm[lo:lo + 256] = d.argmin(axis=1)
    gap = np.abs(c[perm] - image).max()
    if gap > 1e-9 * size:
        raise CheckFailed(f"mesh is not mirror-symmetric about x = 0 "
                          f"(centre mismatch {gap:.3e})")
    return perm


def mirror_defect(state, perm):
    """Velocity mirror defect about x = 0 over max |u|.

    The mirror image of u at cell c is (-ux, uy, uz) at perm[c].  A
    resting fluid has no defect.
    """
    u = state.cell_u
    top = np.abs(u).max()
    if top == 0.0:
        return 0.0
    image = u[perm] * np.array([-1.0, 1.0, 1.0])
    return np.abs(image - u).max() / top


def mirror_symmetric(state, perm):
    ratio = mirror_defect(state, perm)
    if ratio > MIRROR_RTOL:
        raise CheckFailed(
            f"mirror defect {ratio:.3e} of max |u| exceeds {MIRROR_RTOL}")
    return ratio


def eigenmode_matches(state, reference, steps):
    """T equals T0 + amplitude * decay**steps * mode to EIGENMODE_RTOL
    of the amplitude.  Returns the worst mismatch over the amplitude."""
    want = reference["T0"] + reference["amplitude"] \
        * reference["decay"] ** steps * reference["mode"]
    err = np.abs(state.cell_T - want).max() / reference["amplitude"]
    if not err <= EIGENMODE_RTOL:
        raise CheckFailed(
            f"temperature is {err:.3e} of the amplitude away from the "
            f"discrete eigenmode after {steps} steps")
    return err


def heat_conserved(mesh, state, heat0, steps):
    """Sum V*T is unchanged up to one rounding per cell and step.

    Every interior flux leaves one cell as the exact negative of what
    enters the other, so only the rounding of the node updates moves the
    total: at most steps * n_cells * eps * max|V*T| in the worst case.
    """
    heat = float(np.dot(mesh.volumes, state.cell_T))
    bound = steps * mesh.n_cells * EPS * np.abs(mesh.volumes * state.cell_T).max()
    if abs(heat - heat0) > bound:
        raise CheckFailed(
            f"heat changed by {heat - heat0:.3e} (rounding bound {bound:.3e})")
    return abs(heat - heat0) / abs(heat0)


def velocity_zero(state):
    """u stays exactly zero at nodes and ports."""
    if state.cell_u.any() or state.face_u.any():
        raise CheckFailed(
            f"velocity left zero: max |u| {np.abs(state.cell_u).max():.3e} "
            f"at nodes, {np.abs(state.face_u).max():.3e} at ports")


def states_identical(a, b):
    """Two states agree bit for bit in every field and stamp."""
    for name in ("cell_T", "cell_u", "cell_p", "face_T", "face_u", "face_p"):
        x, y = getattr(a, name), getattr(b, name)
        if x.shape != y.shape or x.tobytes() != y.tobytes():
            raise CheckFailed(f"traced and untraced runs differ in {name}")
    if (a.node_step, a.port_step) != (b.node_step, b.port_step):
        raise CheckFailed("traced and untraced runs differ in step stamps")


class StepChecks:
    """The checks one workload applies after every step and every round."""

    def __init__(self, workload):
        self.w = workload
        mesh = workload.mesh
        self.perm = None
        if workload.name == "annulus-convection":
            self.perm = mirror_map(mesh.centroids, np.abs(mesh.verts).max())
        self.worst = {}

    def _note(self, key, value):
        self.worst[key] = max(self.worst.get(key, 0.0), float(value))

    def after_step(self, state, k):
        w = self.w
        if w.config.pressure is None:
            return
        mesh = w.mesh
        self._note("divergence_over_tolerance", divergence_bounded(
            mesh, state, w.config.pressure.tolerance, w.config.props.rho_inf))
        ports_single_valued(mesh, state)
        self._note("boundary_flux_rel", boundary_flux_balanced(mesh, state))
        if self.perm is not None:
            temperature_within(state, w.reference["T_min"], w.reference["T_max"])
            self._note("mirror_defect_rel", mirror_symmetric(state, self.perm))

    def after_round(self, state, steps):
        w = self.w
        if w.name != "box-conduction":
            return
        velocity_zero(state)
        self._note("eigenmode_err_rel", eigenmode_matches(state, w.reference, steps))
        self._note("heat_drift_rel", heat_conserved(
            w.mesh, state, w.reference["heat"], steps))
