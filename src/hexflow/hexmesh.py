"""Non-orthogonal hexahedral cell geometry and mesh topology.

Conventions (normative for the whole package; README repeats them in
prose):

Vertices.  A cell is 8 vertex positions indexed 0..7 with the bit
layout ``v = i + 2*j + 4*k``: bit 0 set means the plus side of local
axis 0, bit 1 the plus side of axis 1, bit 2 the plus side of axis 2.

Edges.  12 directed edges in 3 groups of 4.  Group ``mu`` holds the
edges running from the minus side to the plus side along local axis
``mu``.  The table below is the package-wide labeling:

    id  tail head group     id  tail head group     id  tail head group
     0    0    1    0        4    0    2    1        8    0    4    2
     1    2    3    0        5    1    3    1        9    1    5    2
     2    4    5    0        6    4    6    1       10    2    6    2
     3    6    7    0        7    5    7    1       11    3    7    2

Node vectors.  ``b[mu]`` is the mean of the four group-``mu`` edge
vectors.  It equals, exactly, the vector joining the corner-mean
centroids of the two faces normal to axis ``mu``.

Faces.  Face ``2*mu`` is the minus-side face of axis ``mu``, face
``2*mu + 1`` the plus side, i.e. the order is (-x, +x, -y, +y, -z, +z)
for an axis-aligned cell.  ``FACE_PARITY[f]`` is +1 on minus faces and
-1 on plus faces and carries all orientation bookkeeping in the
face-basis formulas used by the connection, reflection and pressure
modules.  Face vectors are the quadrilateral vector areas (half the
cross product of the two diagonals), stored outward; a flip applied to
reach the outward orientation is recorded per face.

Volume.  Divergence-theorem sum over the 12 boundary triangles obtained
by cutting every face along the diagonal through corner 0 or corner 7.
That triangulation is watertight and identical to the surface of the
six-tetrahedron decomposition around the main diagonal v0-v7, so both
volume definitions agree to rounding.

Meshes.  ``build_mesh`` is the one place cell geometry is derived and
validated: it rejects non-finite coordinates, repeated vertex ids,
coincident vertex positions, collapsed faces, inverted or
ill-conditioned cells and open cell surfaces.  It pairs faces by
sorting their vertex quadruples, so equal keys fall into runs (one face
is boundary, two an interior pair, more an error), and reads the
tangential axis matching of each pair from small lookup tables.

Geometry arrays are immutable after construction; sweeps may read them
from any number of workers without locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateCellError,
    InvertedCellError,
    MeshError,
    MeshFormatError,
)

# ---------------------------------------------------------------------------
# labeling tables

EDGE_TABLE: tuple[tuple[int, int, int], ...] = (
    (0, 1, 0), (2, 3, 0), (4, 5, 0), (6, 7, 0),
    (0, 2, 1), (1, 3, 1), (4, 6, 1), (5, 7, 1),
    (0, 4, 2), (1, 5, 2), (2, 6, 2), (3, 7, 2),
)

# outward corner cycles (for a positively oriented cell) per face;
# the (corner0, corner2) diagonal always touches vertex 0 or vertex 7,
# which is what ties the face triangulation to the 6-tet volume split
FACE_CORNERS = np.array(
    [
        [0, 4, 6, 2],   # -x
        [1, 3, 7, 5],   # +x
        [0, 1, 5, 4],   # -y
        [2, 6, 7, 3],   # +y
        [0, 2, 3, 1],   # -z
        [4, 5, 7, 6],   # +z
    ],
    dtype=np.intp,
)

FACE_AXIS = np.array([0, 0, 1, 1, 2, 2], dtype=np.intp)
FACE_PARITY = np.array([1, -1, 1, -1, 1, -1], dtype=np.float64)
# the two in-plane axes of each face, in ascending order
TANGENT_AXES = np.array(
    [[1, 2], [1, 2], [0, 2], [0, 2], [0, 1], [0, 1]], dtype=np.intp
)

# face diagonals written as edge-vector sums: d1 = e[D1A] + e[D1B],
# d2 = e[D2P] - e[D2M]; the raw face vector is 0.5 * d1 x d2
_D1A = np.array([8, 5, 0, 10, 4, 2], dtype=np.intp)
_D1B = np.array([6, 11, 9, 3, 1, 7], dtype=np.intp)
_D2P = np.array([4, 9, 8, 1, 0, 6], dtype=np.intp)
_D2M = np.array([8, 5, 0, 10, 4, 2], dtype=np.intp)

_EDGE_TAILS = np.array([t for t, _, _ in EDGE_TABLE], dtype=np.intp)
_EDGE_HEADS = np.array([h for _, h, _ in EDGE_TABLE], dtype=np.intp)

# representative edge of each in-plane axis of each face, in
# TANGENT_AXES order: the first edge of that group lying on the face
_FACE_TANGENT_EDGE = np.array(
    [[4, 8], [5, 9], [0, 8], [1, 10], [0, 4], [2, 6]], dtype=np.intp
)

# local vertex pair (p, q) -> group of the edge joining them (-1 when
# they share no edge) and +1/-1 as p -> q runs with/against that edge
_EDGE_GROUPS = np.array([g for _, _, g in EDGE_TABLE], dtype=np.intp)
_PAIR_AXIS = np.full((8, 8), -1, dtype=np.intp)
_PAIR_AXIS[_EDGE_TAILS, _EDGE_HEADS] = _EDGE_GROUPS
_PAIR_AXIS[_EDGE_HEADS, _EDGE_TAILS] = _EDGE_GROUPS
_PAIR_SIGN = np.zeros((8, 8), dtype=np.float64)
_PAIR_SIGN[_EDGE_TAILS, _EDGE_HEADS] = 1.0
_PAIR_SIGN[_EDGE_HEADS, _EDGE_TAILS] = -1.0

_COND_LIMIT = 1e8


# ---------------------------------------------------------------------------
# per-cell geometry operations (all accept (..., 8, 3) vertex stacks)

def compute_edge_vectors(verts: np.ndarray) -> np.ndarray:
    """Directed edge vectors, shape (..., 12, 3), per the edge table."""
    verts = np.asarray(verts, dtype=np.float64)
    return verts[..., _EDGE_HEADS, :] - verts[..., _EDGE_TAILS, :]


def compute_node_vectors(edge_vectors: np.ndarray) -> np.ndarray:
    """Group means of the edges, shape (..., 3, 3); row mu is b[mu]."""
    e = np.asarray(edge_vectors, dtype=np.float64)
    return 0.25 * (
        e[..., 0::4, :] + e[..., 1::4, :] + e[..., 2::4, :] + e[..., 3::4, :]
    )


def compute_face_vectors(edge_vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Outward face vectors from edge vectors.

    Returns ``(face_vecs, flipped)`` with shapes (..., 6, 3) and
    (..., 6).  Each raw vector is half the cross product of the face
    diagonals (the exact vector area of the possibly warped
    quadrilateral); it is flipped to point outward when needed, with the
    flip recorded.  Outward is decided by the sign of the projection on
    the matching node vector, which also guards against degenerate
    faces.
    """
    e = np.asarray(edge_vectors, dtype=np.float64)
    d1 = e[..., _D1A, :] + e[..., _D1B, :]
    d2 = e[..., _D2P, :] - e[..., _D2M, :]
    raw = 0.5 * np.cross(d1, d2)

    b = compute_node_vectors(e)
    # projection of each face vector on its axis node vector
    proj = np.einsum("...fi,...fi->...f", raw, b[..., FACE_AXIS, :])
    side = -FACE_PARITY  # -1 on minus faces, +1 on plus faces
    want = proj * side  # must be > 0 for an outward vector

    scale = np.linalg.norm(raw, axis=-1) * np.linalg.norm(
        b[..., FACE_AXIS, :], axis=-1
    )
    bad = np.abs(proj) <= 1e-14 * np.maximum(scale, 1e-300)
    if np.any(bad):
        raise DegenerateCellError(
            "face vector orthogonal to its axis node vector "
            "(zero-area or collapsed face)"
        )
    flipped = want < 0.0
    out = np.where(flipped[..., None], -raw, raw)
    return out, flipped


def compute_volume(verts: np.ndarray) -> np.ndarray | float:
    """Cell volume by the divergence theorem over the triangulated surface.

    Faces are cut along their (corner0, corner2) diagonal, so the result
    equals the six-tetrahedron decomposition around the v0-v7 diagonal
    exactly (same watertight surface).  Raises InvertedCellError when
    the result is not positive.
    """
    v = np.asarray(verts, dtype=np.float64)
    o = v.mean(axis=-2, keepdims=True)
    r = v - o  # positions relative to the vertex mean, for conditioning
    c0 = r[..., FACE_CORNERS[:, 0], :]
    c1 = r[..., FACE_CORNERS[:, 1], :]
    c2 = r[..., FACE_CORNERS[:, 2], :]
    c3 = r[..., FACE_CORNERS[:, 3], :]
    # signed tet volumes against the centroid, both triangles per face
    t1 = np.einsum("...fi,...fi->...f", c0, np.cross(c1, c2))
    t2 = np.einsum("...fi,...fi->...f", c0, np.cross(c2, c3))
    vol = (t1 + t2).sum(axis=-1) / 6.0
    if np.any(vol <= 0.0):
        raise InvertedCellError("non-positive cell volume (vertex order is wrong-handed)")
    return vol if vol.ndim else float(vol)


def compute_gamma(node_vectors: np.ndarray) -> np.ndarray:
    """Gradient-recovery matrix: the inverse of the node-vector rows.

    With ``node_vectors[mu]`` as rows, gamma satisfies
    ``gamma @ (node_vectors @ a) == a`` for any vector ``a``: it maps
    the triple of directional differences along the node vectors back to
    the Cartesian gradient.  Raises DegenerateCellError when the matrix
    is ill-conditioned beyond 1e8.
    """
    nv = np.asarray(node_vectors, dtype=np.float64)
    sig = np.linalg.svd(nv, compute_uv=False)
    cond = sig[..., 0] / np.where(sig[..., -1] > 0.0, sig[..., -1], np.inf)
    if np.any(~np.isfinite(cond)) or np.any(cond > _COND_LIMIT):
        raise DegenerateCellError(
            f"node-vector matrix condition number exceeds {_COND_LIMIT:g}"
        )
    return np.linalg.inv(nv)


def compute_s_coeffs(face_vectors: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Flux coefficients per face: s[f] = gamma^T @ face_vec[f].

    Contracting a face-basis difference triple with s[f] gives the flux
    of the recovered gradient through face f.  Shape (..., 6, 3).
    """
    return np.einsum("...ij,...fi->...fj", gamma, face_vectors)


# ---------------------------------------------------------------------------
# mesh

@dataclass
class Mesh:
    """Conforming hexahedral mesh with precomputed cell metrics.

    Interior faces are stored as flat pair arrays: entry k couples
    ``(icell_a[k], iface_a[k])`` with ``(icell_b[k], iface_b[k])``.
    The tangential matching arrays translate in-plane axis components
    between the two sides: in-plane axis ``TANGENT_AXES[fa][slot]`` of
    side a corresponds to axis ``tang_axis_b[k, slot]`` of side b with
    relative sign ``tang_sign_b[k, slot]``, as determined from the
    shared edge directions.

    All arrays are set read-only after construction.
    """

    verts: np.ndarray          # (nv, 3)
    cells: np.ndarray          # (nc, 8) vertex ids
    face_vecs: np.ndarray      # (nc, 6, 3) outward
    volumes: np.ndarray        # (nc,)
    gamma: np.ndarray          # (nc, 3, 3)
    s_coeffs: np.ndarray       # (nc, 6, 3)
    centroids: np.ndarray      # (nc, 3)
    face_centroids: np.ndarray  # (nc, 6, 3)
    face_areas: np.ndarray     # (nc, 6)
    pair_coeff: np.ndarray     # (nc, 6): 2 * parity * s_coeffs along the face axis
    cell_size: np.ndarray      # (nc,): min axis thickness, for step diagnostics

    icell_a: np.ndarray        # (nif,)
    iface_a: np.ndarray
    icell_b: np.ndarray
    iface_b: np.ndarray
    tang_axis_b: np.ndarray    # (nif, 2)
    tang_sign_b: np.ndarray    # (nif, 2)

    bcell: np.ndarray          # (nbf,)
    bface: np.ndarray          # (nbf,)
    btag: np.ndarray           # (nbf,) int index into tags
    tags: tuple[str, ...]

    neighbor_cell: np.ndarray  # (nc, 6), -1 where boundary
    neighbor_face: np.ndarray  # (nc, 6), -1 where boundary

    _tag_groups: dict = field(default_factory=dict, repr=False)

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.verts.shape[0]

    @property
    def n_interior_faces(self) -> int:
        return self.icell_a.shape[0]

    @property
    def n_boundary_faces(self) -> int:
        return self.bcell.shape[0]

    def boundary_group(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        """(cells, faces) arrays of all boundary faces carrying ``tag``."""
        if tag not in self._tag_groups:
            raise MeshError(f"unknown boundary tag {tag!r}")
        return self._tag_groups[tag]

    def freeze(self):
        for name in (
            "verts", "cells", "face_vecs",
            "volumes", "gamma", "s_coeffs", "centroids", "face_centroids",
            "face_areas", "pair_coeff", "cell_size",
            "icell_a", "iface_a", "icell_b", "iface_b",
            "tang_axis_b", "tang_sign_b", "bcell", "bface", "btag",
            "neighbor_cell", "neighbor_face",
        ):
            getattr(self, name).flags.writeable = False


def build_mesh(vertices, hexes, boundary) -> Mesh:
    """Assemble and validate a mesh.

    Parameters
    ----------
    vertices : (nv, 3) float array-like
    hexes : (nc, 8) int array-like, vertex ids in the package bit layout
    boundary : iterable of (cell, face, tag) declaring every exterior face

    Every local face must end up either in exactly one interior pair
    (matched by its sorted vertex quadruple) or in exactly one boundary
    entry; anything else raises MeshError.  Interior pairs are ordered by
    ``6 * cell + face`` of side a, the lower of the two; boundary faces
    by their own ``6 * cell + face``; tags by first appearance in
    ``boundary``.  Paired faces are checked to carry equal-magnitude,
    anti-parallel outward vectors.
    """
    verts = np.asarray(vertices, dtype=np.float64)
    cells = np.asarray(hexes, dtype=np.intp)
    if verts.ndim != 2 or verts.shape[1] != 3:
        raise MeshError(f"vertex array must be (nv, 3), got {verts.shape}")
    if not np.isfinite(verts).all():
        raise MeshError("non-finite vertex coordinate")
    if cells.ndim != 2 or cells.shape[1] != 8:
        raise MeshError(f"cell array must be (nc, 8), got {cells.shape}")
    if cells.size and (cells.min() < 0 or cells.max() >= len(verts)):
        raise MeshError("cell references a vertex id out of range")
    nc = cells.shape[0]
    if nc == 0:
        raise MeshError("mesh has no cells")

    ids = np.sort(cells, axis=1)
    repeats = (ids[:, 1:] == ids[:, :-1]).any(axis=1)
    if repeats.any():
        raise DegenerateCellError(f"cell {repeats.argmax()} repeats a vertex id")
    v8 = verts[cells]  # (nc, 8, 3)
    # coincident vertices collapse an edge and poison every later step;
    # compared pair by pair so no temporary outgrows (nc, 3)
    coincident = np.zeros(nc, dtype=bool)
    for i in range(8):
        for j in range(i + 1, 8):
            coincident |= (v8[:, i] == v8[:, j]).all(axis=1)
    if coincident.any():
        raise DegenerateCellError(
            f"cell {coincident.argmax()} has coincident vertices")
    edge_vecs = compute_edge_vectors(v8)
    node_vecs = compute_node_vectors(edge_vecs)
    face_vecs, _ = compute_face_vectors(edge_vecs)
    volumes = np.atleast_1d(compute_volume(v8))
    gamma = compute_gamma(node_vecs)
    centroids = v8.mean(axis=1)
    face_centroids = v8[:, FACE_CORNERS, :].mean(axis=2)

    # closed-surface check: outward vectors of every cell sum to zero
    closure = np.abs(face_vecs.sum(axis=1)).max(axis=1)
    areas0 = np.linalg.norm(face_vecs, axis=2)
    if np.any(closure > 1e-12 * np.maximum(areas0.max(axis=1), 1e-300)):
        raise MeshError("cell surface does not close (face vectors do not cancel)")

    declared = np.full(nc * 6, -1, dtype=np.intp)  # tag index per local face
    tag_index: dict[str, int] = {}
    for entry in boundary:
        c, f, tag = int(entry[0]), int(entry[1]), str(entry[2])
        if not (0 <= c < nc and 0 <= f < 6):
            raise MeshError(f"boundary entry ({c}, {f}) out of range")
        if declared[6 * c + f] >= 0:
            raise MeshError(f"boundary face ({c}, {f}) declared twice")
        declared[6 * c + f] = tag_index.setdefault(tag, len(tag_index))

    # ---- face pairing: sort the faces' vertex quadruples into runs of
    # equal keys; the stable sort lists each run in 6 * cell + face order
    keys = np.sort(cells[:, FACE_CORNERS], axis=2).reshape(nc * 6, 4)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    starts = np.flatnonzero(
        np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    runs = np.diff(np.r_[starts, nc * 6])
    if (runs > 2).any():
        k = (runs > 2).argmax()
        quad = tuple(int(v) for v in keys[starts[k]])
        raise MeshError(f"vertex quadruple {quad} is shared by {runs[k]} faces")

    single = np.sort(order[starts[runs == 1]])
    free = single[declared[single] < 0]
    if len(free):
        c, f = divmod(int(free[0]), 6)
        raise MeshError(
            f"face {f} of cell {c} is neither shared nor declared as boundary"
        )
    side_a = order[starts[runs == 2]]
    side_b = order[starts[runs == 2] + 1]
    by_a = np.argsort(side_a)
    side_a, side_b = side_a[by_a], side_b[by_a]
    icell_a, iface_a = np.divmod(side_a, 6)
    icell_b, iface_b = np.divmod(side_b, 6)
    listed = (declared[side_a] >= 0) | (declared[side_b] >= 0)
    if listed.any():
        k = listed.argmax()
        raise MeshError(
            f"shared face between cells {icell_a[k]} and {icell_b[k]} also "
            "appears in the boundary list"
        )

    # tangential matching: locate the ends of each in-plane axis edge of
    # side a among the vertices of cell b; the pair must be an edge there
    edges = _FACE_TANGENT_EDGE[iface_a]                       # (nif, 2)
    ends = cells[icell_a[:, None, None],
                 np.stack([_EDGE_TAILS[edges], _EDGE_HEADS[edges]], axis=-1)]
    local = (cells[icell_b][:, None, None, :] == ends[..., None]).argmax(axis=-1)
    tang_axis_b = _PAIR_AXIS[local[..., 0], local[..., 1]]
    tang_sign_b = _PAIR_SIGN[local[..., 0], local[..., 1]]
    skew = (tang_axis_b < 0).any(axis=1)
    if skew.any():
        k = skew.argmax()
        raise MeshError(
            f"shared face between cells {icell_a[k]} and {icell_b[k]} is not "
            "an edge-conforming quadrilateral"
        )

    # paired outward vectors must cancel up to rounding; they are then
    # snapped to exact negations (a sub-ulp adjustment) so face exchange
    # and transport terms cancel bitwise across every interior face
    if len(icell_a):
        va = face_vecs[icell_a, iface_a]
        vb = face_vecs[icell_b, iface_b]
        mag = np.linalg.norm(va, axis=1)
        if np.any(np.linalg.norm(va + vb, axis=1) > 1e-12 * mag):
            raise MeshError("paired interior faces are not anti-parallel")
        face_vecs[icell_b, iface_b] = -va

    face_areas = np.linalg.norm(face_vecs, axis=2)
    s_coeffs = compute_s_coeffs(face_vecs, gamma)
    pair_coeff = 2.0 * FACE_PARITY[None, :] * s_coeffs[:, np.arange(6), FACE_AXIS]
    # per-axis thickness = volume / largest opposing face area
    thick = volumes[:, None] / np.maximum(
        np.maximum(face_areas[:, 0::2], face_areas[:, 1::2]), 1e-300
    )
    cell_size = thick.min(axis=1)

    neighbor_cell = np.full((nc, 6), -1, dtype=np.intp)
    neighbor_face = np.full((nc, 6), -1, dtype=np.intp)
    neighbor_cell[icell_a, iface_a] = icell_b
    neighbor_face[icell_a, iface_a] = iface_b
    neighbor_cell[icell_b, iface_b] = icell_a
    neighbor_face[icell_b, iface_b] = iface_a

    mesh = Mesh(
        verts=verts,
        cells=cells,
        face_vecs=face_vecs,
        volumes=volumes,
        gamma=gamma,
        s_coeffs=s_coeffs,
        centroids=centroids,
        face_centroids=face_centroids,
        face_areas=face_areas,
        pair_coeff=pair_coeff,
        cell_size=cell_size,
        icell_a=icell_a,
        iface_a=iface_a,
        icell_b=icell_b,
        iface_b=iface_b,
        tang_axis_b=tang_axis_b,
        tang_sign_b=tang_sign_b,
        bcell=single // 6,
        bface=single % 6,
        btag=declared[single],
        tags=tuple(tag_index),
        neighbor_cell=neighbor_cell,
        neighbor_face=neighbor_face,
    )
    groups = {}
    for i, tag in enumerate(mesh.tags):
        sel = mesh.btag == i
        groups[tag] = (mesh.bcell[sel].copy(), mesh.bface[sel].copy())
    mesh._tag_groups = groups
    mesh.freeze()
    return mesh


# ---------------------------------------------------------------------------
# plain-text mesh files
#
# Format (version 1), whitespace separated, '#' starts a comment line:
#
#   hexflow-mesh 1
#   <n_vertices> <n_cells> <n_boundary_faces>
#   x y z                       (n_vertices lines)
#   v0 v1 v2 v3 v4 v5 v6 v7     (n_cells lines, package vertex order)
#   cell face tag               (n_boundary_faces lines, face in 0..5)

def read_mesh_file(path) -> Mesh:
    """Parse a plain-text mesh file and build the mesh."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    lines = []
    for lineno, text in enumerate(raw, start=1):
        text = text.strip()
        if text and not text.startswith("#"):
            lines.append((lineno, text))
    if not lines:
        raise MeshFormatError(f"{path}: empty mesh file")

    def bad(lineno, why):
        return MeshFormatError(f"{path}:{lineno}: {why}")

    lineno, header = lines[0]
    parts = header.split()
    if parts[:1] != ["hexflow-mesh"] or len(parts) != 2 or parts[1] != "1":
        raise bad(lineno, "expected header 'hexflow-mesh 1'")
    if len(lines) < 2:
        raise bad(lineno, "missing counts line")
    lineno, counts = lines[1]
    try:
        nv, nc, nb = (int(x) for x in counts.split())
    except ValueError:
        raise bad(lineno, "counts line must hold three integers") from None
    need = 2 + nv + nc + nb
    if len(lines) != need:
        raise MeshFormatError(
            f"{path}: expected {need} content lines for counts "
            f"{nv} {nc} {nb}, found {len(lines)}"
        )

    verts = np.empty((nv, 3), dtype=np.float64)
    for i in range(nv):
        lineno, text = lines[2 + i]
        try:
            vals = [float(x) for x in text.split()]
        except ValueError:
            raise bad(lineno, "vertex line must hold three floats") from None
        if len(vals) != 3:
            raise bad(lineno, "vertex line must hold three floats")
        verts[i] = vals

    hexes = np.empty((nc, 8), dtype=np.intp)
    for i in range(nc):
        lineno, text = lines[2 + nv + i]
        try:
            ids = [int(x) for x in text.split()]
        except ValueError:
            raise bad(lineno, "cell line must hold eight vertex ids") from None
        if len(ids) != 8:
            raise bad(lineno, "cell line must hold eight vertex ids")
        hexes[i] = ids

    boundary = []
    for i in range(nb):
        lineno, text = lines[2 + nv + nc + i]
        parts = text.split()
        if len(parts) != 3:
            raise bad(lineno, "boundary line must be 'cell face tag'")
        try:
            c, f = int(parts[0]), int(parts[1])
        except ValueError:
            raise bad(lineno, "boundary line must start with two integers") from None
        boundary.append((c, f, parts[2]))

    try:
        return build_mesh(verts, hexes, boundary)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from exc


def write_mesh_file(mesh: Mesh, path) -> None:
    """Write a mesh back out in the version-1 plain-text format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("hexflow-mesh 1\n")
        fh.write(f"{mesh.n_vertices} {mesh.n_cells} {mesh.n_boundary_faces}\n")
        for x, y, z in mesh.verts:
            fh.write(f"{float(x)!r} {float(y)!r} {float(z)!r}\n")
        for row in mesh.cells:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")
        for c, f, t in zip(mesh.bcell, mesh.bface, mesh.btag):
            fh.write(f"{int(c)} {int(f)} {mesh.tags[int(t)]}\n")
