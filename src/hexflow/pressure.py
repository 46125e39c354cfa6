"""Pressure correction enforcing discrete incompressibility.

After the face sweep has produced fresh velocity ports, each cell
carries a boundary divergence integral I = sum over faces of u.f.  The
nodal pressure field is adjusted until the reconstructed pressure
gradient flux balances it cell by cell:

    tau * (sum over faces of grad-p flux) = rho_inf * I

a pure-Neumann Poisson problem (boundary faces carry zero normal
pressure gradient).  Eliminating the shared port at every interior face
turns each flux into S = H*(p - p_nb) + C, with H fixed by the mesh and
C by the in-plane face fluxes.  For a given C the nodal pressures solve
a symmetric graph Laplacian in H, which Jacobi-preconditioned conjugate
gradients handles; the face pressures are then re-established, C is
refreshed and the pass repeats until every cell balances.  On orthogonal
cells C vanishes and one pass does.  One reference cell is pinned to
remove the additive constant.  The tolerance is the only setting.
"""

import numpy as np
from dataclasses import dataclass

from .connection import (
    contract_flux_coeffs,
    face_nodal_components,
    one_sided_face_value,
    update_interface,
)
from .errors import PressureConvergenceError, SingularInterfaceError

_SINGULAR_RTOL = 1e-14

# conjugate gradients needs at most one iteration per active cell in
# exact arithmetic; a pass that runs past this multiple has stalled
_STALL_FACTOR = 4


@dataclass(frozen=True)
class PressureSolverConfig:
    tolerance: float = 1e-8

    def __post_init__(self):
        if not (self.tolerance > 0.0 and np.isfinite(self.tolerance)):
            raise ValueError("tolerance must be positive and finite")


def cell_divergence_integral(mesh, face_u: np.ndarray) -> np.ndarray:
    """Boundary integral of u.dF per cell from the velocity ports."""
    return np.einsum("cfk,cfk->c", face_u, mesh.face_vecs)


def _tangential_flux_part(mesh, face_p):
    # contraction of the in-plane gradient slots only; normal slots zeroed
    # by feeding zero cell values
    zeros = np.zeros(mesh.n_cells)
    return contract_flux_coeffs(mesh, face_nodal_components(mesh, zeros, face_p))


def gradient_flux(mesh, cell_p: np.ndarray, face_p: np.ndarray) -> np.ndarray:
    """Outward pressure-gradient flux per (cell, face): s.z - g*P."""
    sz = contract_flux_coeffs(mesh, face_nodal_components(mesh, cell_p, face_p))
    return sz - mesh.pair_coeff * face_p


def pressure_residual(mesh, cell_p, face_p, div_integral, tau, rho_inf) -> np.ndarray:
    """Signed per-cell defect tau*(sum of gradient flux) - rho_inf*I."""
    return tau * gradient_flux(mesh, cell_p, face_p).sum(axis=1) \
        - rho_inf * div_integral


def pressure_face_sweep(mesh, cell_p, face_p, sz=None) -> np.ndarray:
    """Re-establish face pressures from nodal values.

    Interior faces get the shared interface value; boundary faces get the
    one-sided zero-normal-gradient value.  ``sz`` may carry precomputed
    reconstruction fluxes for this (cell_p, face_p) pair.
    """
    if sz is None:
        sz = contract_flux_coeffs(mesh, face_nodal_components(mesh, cell_p, face_p))
    new = face_p.copy()
    vals = update_interface(mesh, cell_p, sz)
    new[mesh.icell_a, mesh.iface_a] = vals
    new[mesh.icell_b, mesh.iface_b] = vals
    if len(mesh.bcell):
        new[mesh.bcell, mesh.bface] = one_sided_face_value(
            mesh, cell_p, sz, mesh.bcell, mesh.bface)
    return new


def project_port_velocities(mesh, state, tau: float, rho_inf: float) -> None:
    """Subtract the face-normal pressure gradient from the velocity ports.

    The per-face gradient flux S here is the same discrete quantity the
    Poisson iteration balanced against the divergence integrals, so the
    corrected ports settle the budget cell by cell: after a converged
    solve, each cell's sum of u.f drops to the converged residual over
    rho_inf.  Interior ports move as one shared value per face pair so
    the skeleton stays single-valued; boundary ports are left alone
    (their pressure flux vanishes under the zero-normal-gradient rule,
    and their values belong to the boundary rules).
    """
    if mesh.n_interior_faces == 0:
        return
    S = gradient_flux(mesh, state.cell_p, state.face_p)
    fv = mesh.face_vecs[mesh.icell_a, mesh.iface_a]
    shift = (tau / rho_inf * S[mesh.icell_a, mesh.iface_a]
             / np.einsum("ik,ik->i", fv, fv))[:, None] * fv
    state.face_u[mesh.icell_a, mesh.iface_a] -= shift
    state.face_u[mesh.icell_b, mesh.iface_b] -= shift


def _interface_coupling(mesh):
    """Geometric half of the interface elimination, shape (n_cells, 6).

    Eliminating the shared port between two cells turns the flux into
    S = H*(p - p_nb) + C; this returns H, which depends on the mesh only,
    so the solver hoists it out of its outer loop.  Boundary faces
    carry zeros (their pressure flux vanishes by the boundary rule).
    """
    g = mesh.pair_coeff
    H = np.zeros_like(g)
    ga = g[mesh.icell_a, mesh.iface_a]
    gb = g[mesh.icell_b, mesh.iface_b]
    den = ga + gb
    bad = np.abs(den) <= _SINGULAR_RTOL * (np.abs(ga) + np.abs(gb))
    if bad.any():
        raise SingularInterfaceError(
            "vanishing combined flux coefficient at an interior face")
    h = ga * gb / den
    H[mesh.icell_a, mesh.iface_a] = h
    H[mesh.icell_b, mesh.iface_b] = h
    return H


def _conjugate_gradients(apply, inv_diag, x, b, tol, budget):
    """Jacobi-preconditioned CG on apply(x) = b, updating x in place.

    Stops once the max-norm residual is at most ``tol`` or after
    ``budget`` iterations; returns the iterations used.
    """
    r = b - apply(x)
    # no iteration gets below the rounding of the starting residual
    tol = max(tol, np.finfo(float).eps * np.abs(r).max())
    k = 0
    while k < budget and np.abs(r).max() > tol:
        z = inv_diag * r
        rz_next = r @ z
        d = z if k == 0 else z + (rz_next / rz) * d
        rz = rz_next
        q = apply(d)
        alpha = rz / (d @ q)
        x += alpha * d
        r -= alpha * q
        k += 1
    return k


def pressure_iterate(mesh, state, tau: float, rho_inf: float,
                     config: PressureSolverConfig = None):
    """Drive the pressure field to compensate the velocity divergence.

    Mutates state.cell_p and state.face_p in place and returns
    (iterations_used, residual_history): the conjugate-gradient
    iterations over all passes, and the max-norm cell residual after
    each pass.  The convergence threshold is config.tolerance times the
    largest per-face mass flux magnitude (absolute when the ports are
    entirely quiescent).  Raises PressureConvergenceError when the net
    boundary flux makes the problem unsolvable, or when the solve
    stalls: a pass needs more than a few iterations per active cell, or
    fails to lower the residual.
    """
    if config is None:
        config = PressureSolverConfig()
    if not state.ready_for_cell_sweep:
        raise ValueError("pressure correction runs on fresh velocity ports")

    div = cell_divergence_integral(mesh, state.face_u)
    flux_scale = rho_inf * np.abs(
        np.einsum("cfk,cfk->cf", state.face_u, mesh.face_vecs)).max()
    threshold = config.tolerance * flux_scale if flux_scale > 0.0 else config.tolerance

    resid = np.abs(pressure_residual(
        mesh, state.cell_p, state.face_p, div, tau, rho_inf)).max()
    if resid <= threshold:
        # already balanced: leave the field bit-identical
        return 0, [float(resid)]

    # with the boundary gradient fluxes zeroed by the face sweep, the
    # cell residuals sum to -rho_inf * (net boundary flux) whatever the
    # pressure, so past this bound some cell can never balance
    net = np.einsum("bk,bk->", state.face_u[mesh.bcell, mesh.bface],
                    mesh.face_vecs[mesh.bcell, mesh.bface])
    if rho_inf * abs(net) > mesh.n_cells * threshold:
        raise PressureConvergenceError(
            f"pressure problem is incompatible: net boundary flux {net:.3e} "
            f"leaves a mean cell residual above the threshold {threshold:.3e}",
            iterations=0, residual=float(resid))

    # pin by constant shift: gradients unchanged, cell 0 lands at zero
    p = state.cell_p - state.cell_p[0]
    fp = state.face_p - state.cell_p[0]

    g = mesh.pair_coeff
    nb_cell = np.where(mesh.neighbor_cell < 0, 0, mesh.neighbor_cell)
    # h = ga*gb/(ga+gb) is negative on valid cells, so CG runs on the
    # positive semi-definite negation of the flux operator,
    # sum over faces of W*(p - p_nb)
    W = -_interface_coupling(mesh)
    diag = W.sum(axis=1)
    active = diag > 0.0
    # cells without interior faces get no update and never move
    inv_diag = np.divide(1.0, diag, out=np.zeros_like(diag), where=active)
    limit = _STALL_FACTOR * int(active.sum())

    def apply(v):
        return diag * v - np.einsum("cf,cf->c", W, v[nb_cell])

    ia, fa = mesh.icell_a, mesh.iface_a
    ib, fb = mesh.icell_b, mesh.iface_b
    ga, gb = g[ia, fa], g[ib, fb]
    C = np.zeros_like(g)
    t = _tangential_flux_part(mesh, fp)
    iterations = 0
    history = []
    while resid > threshold:
        # offset half of the interface elimination, from the current
        # in-plane fluxes
        c = (gb * t[ia, fa] - ga * t[ib, fb]) / (ga + gb)
        C[ia, fa] = c
        C[ib, fb] = -c
        b = C.sum(axis=1) - rho_inf * div / tau
        # the constant mode is outside the operator's range; dropping it
        # from b keeps CG stable and spreads the leftover evenly
        if active.any():
            b = np.where(active, b - b[active].mean(), 0.0)
        # the refreshed in-plane fluxes move b again, so after the first
        # pass a tenth of the last residual is close enough
        target = 0.5 * threshold
        if history:
            target = max(target, 0.1 * resid)
        k = _conjugate_gradients(apply, inv_diag, p, b, target / tau, limit)
        iterations += k
        # the in-plane fluxes never see the nodal values, so t feeds the
        # face sweep through sz = t + g*p and is refreshed only after the
        # ports move
        fp = pressure_face_sweep(mesh, p, fp, sz=t + g * p[:, None])
        t = _tangential_flux_part(mesh, fp)
        flux = t + g * (p[:, None] - fp)
        previous = resid
        resid = np.abs(tau * flux.sum(axis=1) - rho_inf * div).max()
        history.append(float(resid))
        if k >= limit or resid >= previous:
            break
    fp = fp - p[0]
    p = p - p[0]
    state.cell_p = p
    state.face_p = fp
    if resid > threshold:
        raise PressureConvergenceError(
            f"pressure iteration stalled at residual {resid:.3e} "
            f"(threshold {threshold:.3e}) after {iterations} iterations",
            iterations=iterations, residual=float(resid))
    return iterations, history
