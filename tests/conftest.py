"""Shared helpers for the test suite."""

import itertools
import sys

import numpy as np

from hexflow import sim
from hexflow.hexmesh import Mesh, build_mesh


def pytest_terminal_summary(terminalreporter):
    """Replay acceptance verdict lines after the run, outside capture."""
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "_VERDICTS", None)
    if verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in verdicts:
            terminalreporter.write_line(line)

UNIT_CUBE = np.array(
    [[i & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(8)], dtype=np.float64
)

def random_hex(rng, jitter=0.12):
    """A random valid hexahedron: affine image of the cube plus jitter.

    The affine part is a rotation composed with a bounded positive
    stretch, so orientation is preserved; the per-vertex jitter is small
    enough to keep every cell valid.
    """
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    stretch = np.diag(rng.uniform(0.5, 2.0, size=3))
    shear = np.eye(3) + 0.3 * rng.uniform(-1, 1, size=(3, 3)) * (
        1 - np.eye(3)
    )
    verts = UNIT_CUBE @ (shear @ stretch @ q).T
    verts = verts + jitter * rng.standard_normal((8, 3))
    return verts + rng.uniform(-5, 5, size=3)


def boundary_list(mesh):
    """The mesh's boundary faces as ``build_mesh`` takes them."""
    return [(int(c), int(f), mesh.tags[t])
            for c, f, t in zip(mesh.bcell, mesh.bface, mesh.btag)]


def box_mesh(
    nx, ny, nz, lengths=(1.0, 1.0, 1.0), origin=(0.0, 0.0, 0.0), warp=None
) -> Mesh:
    """Structured box of nx*ny*nz cells with per-side boundary tags.

    ``warp`` may be a callable mapping an (n, 3) vertex array to a
    displaced copy; interior and boundary connectivity are unchanged, so
    the result is a conforming non-orthogonal mesh.
    """
    mesh = sim.box_mesh(nx, ny, nz, lengths, origin)
    if warp is None:
        return mesh
    verts = np.asarray(warp(mesh.verts), dtype=np.float64)
    return build_mesh(verts, mesh.cells, boundary_list(mesh))


def jitter_warp(seed, scale):
    """Vertex displacement field for non-orthogonal conforming boxes."""

    def warp(verts):
        rng = np.random.default_rng(seed)
        return verts + scale * rng.standard_normal(verts.shape)

    return warp


def _cube_rotations():
    """The 24 proper rotations of the reference cube.

    Each comes as ``(vmap, fmap)``: local vertex v of a cell becomes
    local vertex ``vmap[v]`` and local face f becomes face ``fmap[f]``.
    """
    corners = 2 * UNIT_CUBE.astype(int) - 1  # (8, 3) of +-1
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            rot = np.zeros((3, 3), dtype=int)
            rot[range(3), perm] = signs
            if round(np.linalg.det(rot)) != 1:
                continue
            vmap = ((corners @ rot.T > 0) * [1, 2, 4]).sum(axis=1)
            fmap = []
            for f in range(6):
                normal = np.zeros(3, dtype=int)
                normal[f // 2] = 1 if f % 2 else -1
                turned = rot @ normal
                axis = int(np.abs(turned).argmax())
                fmap.append(2 * axis + int(turned[axis] > 0))
            out.append((vmap, fmap))
    return out


def relabel_cells(mesh, seed):
    """``build_mesh`` inputs of the same mesh, every cell randomly turned.

    Each cell's vertex ids are relabelled by an orientation-preserving
    rotation of the reference cube, then the cells and the boundary
    list are shuffled, so neighbouring cells disagree on their local
    axes and the tangential matching is no longer the identity.
    Returns ``(verts, cells, boundary)``.
    """
    rng = np.random.default_rng(seed)
    rotations = _cube_rotations()
    pick = rng.integers(len(rotations), size=mesh.n_cells)
    turned = np.empty_like(mesh.cells)
    for c, r in enumerate(pick):
        turned[c, rotations[r][0]] = mesh.cells[c]
    order = rng.permutation(mesh.n_cells)
    new_index = np.argsort(order)
    boundary = [(int(new_index[c]), rotations[pick[c]][1][f], mesh.tags[t])
                for c, f, t in zip(mesh.bcell, mesh.bface, mesh.btag)]
    boundary = [boundary[i] for i in rng.permutation(len(boundary))]
    return mesh.verts, turned[order], boundary
