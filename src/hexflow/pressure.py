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
a symmetric graph Laplacian in H by conjugate gradients, preconditioned
with one V-cycle over a pairwise-aggregation hierarchy (Notay, ETNA 37,
2010): cells are lumped about four at a time per level, the algebraic
twin of the cellular coarse-graining, so one cycle carries the
large-scale modes that point smoothing moves only slowly.  The
hierarchy depends on the mesh only and is built once, on the first
solve, and cached on the mesh.  The face pressures are then
re-established, C is refreshed and the pass repeats until every cell
balances.  On orthogonal cells C vanishes and one pass does.  One
reference cell is pinned to remove the additive constant.  The
tolerance is the only setting.
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

# the aggregation hierarchy stops coarsening at this many rows; that
# level is solved exactly with a dense pseudo-inverse
_COARSEST_ROWS = 200
# damped-Jacobi weight of the V-cycle's smoothing sweeps
_SMOOTHING = 2.0 / 3.0


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
    """Geometric half of the interface elimination, one value per pair.

    Eliminating the shared port between two cells turns the flux into
    S = H*(p - p_nb) + C; this returns H for every interior face pair,
    which depends on the mesh only (boundary faces carry none: their
    pressure flux vanishes by the boundary rule).
    """
    ga = mesh.pair_coeff[mesh.icell_a, mesh.iface_a]
    gb = mesh.pair_coeff[mesh.icell_b, mesh.iface_b]
    den = ga + gb
    bad = np.abs(den) <= _SINGULAR_RTOL * (np.abs(ga) + np.abs(gb))
    if bad.any():
        raise SingularInterfaceError(
            "vanishing combined flux coefficient at an interior face")
    return ga * gb / den


class _Level:
    """Graph Laplacian sum over edges of w*(v_i - v_j), with its smoother.

    Each edge is stored once in ``ei, ej, w`` and in both directions in
    ``rows, cols, w2`` for the product.  ``agg`` maps every node to its
    aggregate on the next level (None on the coarsest).
    """

    def __init__(self, n, ei, ej, w):
        self.n = n
        self.ei, self.ej, self.w = ei, ej, w
        self.rows = np.concatenate([ei, ej])
        self.cols = np.concatenate([ej, ei])
        self.w2 = np.concatenate([w, w])
        self.diag = np.bincount(self.rows, self.w2, n)
        # isolated nodes get no smoothing update
        self.smoother = np.divide(_SMOOTHING, self.diag,
                                  out=np.zeros(n), where=self.diag > 0.0)
        self.agg = None

    def apply(self, v):
        return self.diag * v - np.bincount(self.rows, self.w2 * v[self.cols], self.n)


def _pair_aggregates(n, ei, ej, w):
    """Aggregate index per node from one handshake matching.

    A free edge is matched when it is the strongest free edge at both of
    its ends; sweeps repeat until no free edge is left.  Ties go by a
    fixed scramble of the edge index (ordering by neighbour index leaves
    a uniform grid almost unmatched), so the result is deterministic.
    Unmatched nodes stay alone, except that all isolated nodes share one
    aggregate.  Aggregates are numbered by their lowest node.
    """
    m = len(w)
    scramble = np.arange(m, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    rank = np.empty(m, dtype=np.intp)
    rank[np.lexsort((scramble, w))] = np.arange(m)
    partner = np.full(n, -1)
    free = np.arange(m)
    while len(free):
        a, b, r = ei[free], ej[free], rank[free]
        best = np.full(n, -1)
        np.maximum.at(best, a, r)
        np.maximum.at(best, b, r)
        hit = (best[a] == r) & (best[b] == r)
        partner[a[hit]] = b[hit]
        partner[b[hit]] = a[hit]
        free = free[(partner[a] < 0) & (partner[b] < 0)]
    node = np.arange(n)
    rep = np.where(partner < 0, node, np.minimum(node, partner))
    isolated = np.bincount(np.concatenate([ei, ej]), minlength=n) == 0
    if isolated.any():
        rep[isolated] = isolated.argmax()
    _, agg = np.unique(rep, return_inverse=True)
    return agg


def _contract(agg, n, ei, ej, w):
    """Edges of the graph aggregated into n nodes, parallel edges summed."""
    ci, cj = agg[ei], agg[ej]
    keep = ci != cj
    lo = np.minimum(ci, cj)[keep]
    hi = np.maximum(ci, cj)[keep]
    key, inv = np.unique(lo * n + hi, return_inverse=True)
    return key // n, key % n, np.bincount(inv, w[keep])


def _pseudo_inverse(level):
    """Dense pseudo-inverse of a small graph Laplacian.

    Adding a scaled projector onto the constants of every connected
    component makes the matrix definite; its inverse less that term is
    the pseudo-inverse.  Gauss-Jordan elimination in numpy needs no
    LAPACK call, which unpinned BLAS thread pools make slow.
    """
    n = level.n
    A = np.zeros((n, n))
    np.add.at(A, (level.rows, level.cols), -level.w2)
    A[np.diag_indices(n)] += level.diag
    # components by min-label propagation with pointer jumping
    label = np.arange(n)
    while True:
        new = label.copy()
        np.minimum.at(new, level.rows, label[level.cols])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    U = (label[:, None] == label[None, :]) / np.bincount(label)[label][:, None]
    scale = level.diag.max() if level.diag.max() > 0.0 else 1.0
    A += scale * U
    for k in range(n):
        pivot = A[k, k]
        f = A[:, k].copy()
        f[k] = 0.0
        A[:, k] = 0.0
        A[k, k] = 1.0
        A[k] /= pivot
        A -= np.outer(f, A[k])
    return A - U / scale


class _PressureOperator:
    """Mesh-only part of the pressure solve, built once per mesh.

    ``levels[0]`` is the cell Laplacian with W = -H on every interior
    pair, positive semi-definite because H is negative on valid cells.
    Each further level lumps about four aggregates of the one above by
    two rounds of pairwise matching, and its operator is the aggregated
    graph's Laplacian, which is P^T A P for the piecewise-constant P.
    Coarsening stops at ``_COARSEST_ROWS`` rows, solved exactly.
    """

    def __init__(self, mesh):
        self.levels = [_Level(mesh.n_cells, mesh.icell_a, mesh.icell_b,
                              -_interface_coupling(mesh))]
        while self.levels[-1].n > _COARSEST_ROWS:
            fine = self.levels[-1]
            agg, n = np.arange(fine.n), fine.n
            ei, ej, w = fine.ei, fine.ej, fine.w
            for _ in range(2):
                pairs = _pair_aggregates(n, ei, ej, w)
                n = int(pairs.max()) + 1
                ei, ej, w = _contract(pairs, n, ei, ej, w)
                agg = pairs[agg]
            fine.agg = agg
            self.levels.append(_Level(n, ei, ej, w))
        self.coarse_inverse = _pseudo_inverse(self.levels[-1])
        self.active = self.levels[0].diag > 0.0
        self.limit = _STALL_FACTOR * int(self.active.sum())

    def apply(self, v):
        return self.levels[0].apply(v)

    def precondition(self, r, depth=0):
        """One symmetric V-cycle for A z = r from z = 0: a damped-Jacobi
        sweep before and after the coarse correction."""
        if depth == len(self.levels) - 1:
            return self.coarse_inverse @ r
        level = self.levels[depth]
        z = level.smoother * r
        coarse_r = np.bincount(level.agg, r - level.apply(z))
        z += self.precondition(coarse_r, depth + 1)[level.agg]
        z += level.smoother * (r - level.apply(z))
        return z


def _pressure_operator(mesh):
    """The mesh's cached pressure operator, built on first use."""
    if mesh._pressure_operator is None:
        mesh._pressure_operator = _PressureOperator(mesh)
    return mesh._pressure_operator


def _conjugate_gradients(op, x, b, tol, budget):
    """Conjugate gradients on op.apply(x) = b, updating x in place.

    Preconditioned by one aggregation V-cycle per iteration
    (``op.precondition``).  Stops once the max-norm residual is at most
    ``tol`` or after ``budget`` iterations; returns the iterations used.
    """
    r = b - op.apply(x)
    # no iteration gets below the rounding of the starting residual
    tol = max(tol, np.finfo(float).eps * np.abs(r).max())
    k = 0
    while k < budget and np.abs(r).max() > tol:
        z = op.precondition(r)
        rz_next = r @ z
        d = z if k == 0 else z + (rz_next / rz) * d
        rz = rz_next
        q = op.apply(d)
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
    op = _pressure_operator(mesh)
    active = op.active
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
        k = _conjugate_gradients(op, p, b, target / tau, op.limit)
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
        if k >= op.limit or resid >= previous:
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
