"""Face-exchange sweep: advance port values one full step.

Each cell face carries, per transported scalar, a triple of components
in the cell's node-vector basis: the normal slot holds (twice the
signed) point value, the two in-plane slots hold differences of the
opposite-face port values from the previous sweep.  Contracting such a
triple with the face's flux coefficients gives the flux of the
reconstructed gradient through that face.

At an interior face the new shared port value is the one that makes the
reconstructed fluxes of the two adjacent cells cancel; at a boundary
face the default is the one-sided value that zeroes the reconstructed
normal flux (prescribed-value rules are applied on top by the caller's
hook).  Fluxes are then evaluated against the final port values and
cached on the state for the following cell-balance sweep; the two sides
of every interior face are stored as exact negatives.

The transported channels T, ux, uy, uz are stacked channel-first and
go through one sweep together.  The helpers below take an optional
leading channel axis, so the pressure solve calls the same helpers with
its single scalar field.  All operations are vectorized over (channel,
cell, face) slots; within a sweep no update reads another update's
output, so any evaluation order gives identical results.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularInterfaceError
from .hexmesh import FACE_AXIS, FACE_PARITY, TANGENT_AXES, Mesh
from .state import FieldState, split_channels, stack_channels

_IDX6 = np.arange(6)


def face_nodal_components(mesh: Mesh, cell_values, face_values) -> np.ndarray:
    """Node-side component triples at every face, shape (..., nc, 6, 3).

    ``cell_values`` (shape (..., nc)) are the newest nodal values;
    ``face_values`` (shape (..., nc, 6)) the ports of the previous sweep,
    which supply the in-plane differences.  A leading channel axis, if
    any, is carried through.  The normal slot is 2 * (+1 on minus faces /
    -1 on plus faces) * the nodal value.
    """
    cell_values = np.asarray(cell_values, dtype=np.float64)
    face_values = np.asarray(face_values, dtype=np.float64)
    diffs = face_values[..., 1::2] - face_values[..., 0::2]  # (..., nc, 3)
    z = np.repeat(diffs[..., None, :], 6, axis=-2)
    z[..., _IDX6, FACE_AXIS] = 2.0 * FACE_PARITY * cell_values[..., None]
    return z


def contract_flux_coeffs(mesh: Mesh, z) -> np.ndarray:
    """s . z per (..., cell, face): flux of the node-side reconstruction."""
    return np.einsum("cfm,...cfm->...cf", mesh.s_coeffs, z)


def update_interface(mesh: Mesh, cell_values, sz) -> np.ndarray:
    """New shared port value for every interior face pair, shape (..., nif).

    The value makes the two one-sided reconstructed fluxes exact
    negatives of each other.  It is evaluated as a correction to one
    adjacent nodal value rather than as the raw quotient, so a globally
    constant field is a bitwise fixed point.  The denominator is the sum
    of the two normal flux coefficients, both strictly negative on valid
    cells; a vanishing sum marks broken geometry.
    """
    cell_values = np.asarray(cell_values, dtype=np.float64)
    ga = mesh.pair_coeff[mesh.icell_a, mesh.iface_a]
    gb = mesh.pair_coeff[mesh.icell_b, mesh.iface_b]
    den = ga + gb
    scale = np.abs(ga) + np.abs(gb)
    if np.any(np.abs(den) <= 1e-14 * scale):
        raise SingularInterfaceError(
            "normal flux coefficients cancel across an interior face"
        )
    va = cell_values[..., mesh.icell_a]
    vb = cell_values[..., mesh.icell_b]
    # in-plane parts of the one-sided fluxes (zero for 1D-consistent data)
    ta = sz[..., mesh.icell_a, mesh.iface_a] - ga * va
    tb = sz[..., mesh.icell_b, mesh.iface_b] - gb * vb
    return va + (gb * (vb - va) + ta + tb) / den


def one_sided_face_value(mesh: Mesh, cell_values, sz, cells, faces) -> np.ndarray:
    """Port value zeroing the reconstructed flux through (cells, faces).

    This is the interface rule with the absent neighbor's contribution
    dropped; it implements the zero-normal-gradient boundary default.
    Difference form around the cell's nodal value, as above.
    """
    g = mesh.pair_coeff[cells, faces]
    if np.any(np.abs(g) <= 0.0):
        raise SingularInterfaceError("vanishing normal flux coefficient at boundary")
    v = np.asarray(cell_values, dtype=np.float64)[..., cells]
    return v + (sz[..., cells, faces] - g * v) / g


def repair_tangentials(mesh: Mesh, z) -> np.ndarray:
    """Average the in-plane component slots across every interior face.

    The two adjacent cells measure in-plane differences along their own
    opposite-face pairs, which need not agree on irregular meshes; the
    stored port components take the arithmetic mean of the two (after
    translating axis labels and orientations through the shared edge).
    Returns a copy of ``z`` with interior in-plane slots replaced.
    """
    out = z.copy()
    if mesh.n_interior_faces == 0:
        return out
    ia, fa = mesh.icell_a, mesh.iface_a
    ib, fb = mesh.icell_b, mesh.iface_b
    for slot in range(2):
        ax_a = TANGENT_AXES[fa, slot]
        ax_b = mesh.tang_axis_b[:, slot]
        sign = mesh.tang_sign_b[:, slot]
        mean = 0.5 * (z[ia, fa, ax_a] + sign * z[ib, fb, ax_b])
        out[ia, fa, ax_a] = mean
        out[ib, fb, ax_b] = sign * mean
    return out


def face_gradient(mesh: Mesh, cell_values, new_face_values, old_face_values) -> np.ndarray:
    """Reconstructed Cartesian gradient at every face, shape (nc, 6, 3).

    Normal slot: twice the signed difference between the nodal value and
    the updated port value.  In-plane slots: previous-sweep differences,
    averaged across interior faces.  Constant fields give exactly zero.
    """
    z = face_nodal_components(mesh, cell_values, old_face_values)
    new_face_values = np.asarray(new_face_values, dtype=np.float64)
    z[:, _IDX6, FACE_AXIS] = 2.0 * FACE_PARITY * (
        np.asarray(cell_values, dtype=np.float64)[:, None] - new_face_values
    )
    z = repair_tangentials(mesh, z)
    return np.einsum("cnm,cfm->cfn", mesh.gamma, z)


def face_flux(mesh: Mesh, sz, new_face_values) -> np.ndarray:
    """Gradient flux through every face, outward positive, shape (..., nc, 6).

    Interior pairs are antisymmetric by construction; the neighbor's
    slot is assigned the exact negative so the cancellation survives
    floating point.
    """
    flux = sz - mesh.pair_coeff * np.asarray(new_face_values, dtype=np.float64)
    flux[..., mesh.icell_b, mesh.iface_b] = -flux[..., mesh.icell_a, mesh.iface_a]
    return flux


def connection_sweep(mesh: Mesh, state: FieldState, bc_hook=None) -> None:
    """Advance all ports of T and u by one full step, in place.

    The four transported channels T, ux, uy, uz go through the exchange
    together, stacked channel-first.  Interior faces get the
    flux-matching shared value, boundary faces the zero-normal-gradient
    default; ``bc_hook(mesh, state)``, if given, then overrides tagged
    boundary ports.  Finally the per-face gradient fluxes are evaluated
    against the settled port values and cached in ``state.flux``, shape
    (4, nc, 6) in the channel order of ``stack_channels``.
    """
    if not state.ready_for_face_sweep:
        raise ValueError("connection sweep needs nodes half a step ahead of ports")

    cells = stack_channels(state.cell_T, state.cell_u)
    ports = stack_channels(state.face_T, state.face_u)
    sz = contract_flux_coeffs(mesh, face_nodal_components(mesh, cells, ports))
    if mesh.n_interior_faces:
        shared = update_interface(mesh, cells, sz)
        ports[:, mesh.icell_a, mesh.iface_a] = shared
        ports[:, mesh.icell_b, mesh.iface_b] = shared
    if mesh.n_boundary_faces:
        ports[:, mesh.bcell, mesh.bface] = one_sided_face_value(
            mesh, cells, sz, mesh.bcell, mesh.bface
        )
    state.face_T, state.face_u = split_channels(ports)
    if bc_hook is not None:
        bc_hook(mesh, state)
        ports = stack_channels(state.face_T, state.face_u)
    state.flux = face_flux(mesh, sz, ports)
    state.advance_ports()
