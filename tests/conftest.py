"""Shared helpers for the test suite."""

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
    boundary = [(c, f, mesh.tags[t])
                for c, f, t in zip(mesh.bcell, mesh.bface, mesh.btag)]
    verts = np.asarray(warp(mesh.verts), dtype=np.float64)
    return build_mesh(verts, mesh.cells, boundary)


def jitter_warp(seed, scale):
    """Vertex displacement field for non-orthogonal conforming boxes."""

    def warp(verts):
        rng = np.random.default_rng(seed)
        return verts + scale * rng.standard_normal(verts.shape)

    return warp
