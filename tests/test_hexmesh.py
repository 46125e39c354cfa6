"""Geometry and topology tests.

Derived quantities are checked against independent constructions kept
deliberately naive: direct vertex differences for edges, corner-diagonal
cross products for faces, and a six-tetrahedron decomposition around the
main diagonal for volumes.
"""

import re

import numpy as np
import pytest

from conftest import UNIT_CUBE, boundary_list, box_mesh, jitter_warp, random_hex
from hexflow.errors import (
    DegenerateCellError,
    InvertedCellError,
    MeshError,
    MeshFormatError,
)
from hexflow.hexmesh import (
    EDGE_TABLE,
    FACE_AXIS,
    FACE_CORNERS,
    FACE_PARITY,
    build_mesh,
    compute_edge_vectors,
    compute_face_vectors,
    compute_gamma,
    compute_node_vectors,
    compute_s_coeffs,
    compute_volume,
    read_mesh_file,
    write_mesh_file,
)

# ring of vertices adjacent to neither end of the main diagonal, in
# cyclic order; consecutive pairs are cell edges
_DIAG_RING = [1, 3, 2, 6, 4, 5]


def oracle_edge_vectors(verts):
    return np.array([verts[h] - verts[t] for t, h, _ in EDGE_TABLE])


def oracle_face_vector(verts, f):
    c0, c1, c2, c3 = verts[FACE_CORNERS[f]]
    return 0.5 * np.cross(c2 - c0, c3 - c1)


def oracle_volume_tets(verts):
    """Six signed tetrahedra sharing the main diagonal."""
    total = 0.0
    ring = _DIAG_RING
    for a, b in zip(ring, ring[1:] + ring[:1]):
        m = np.stack([verts[a] - verts[0], verts[b] - verts[0], verts[7] - verts[0]])
        total += np.linalg.det(m) / 6.0
    return total


def one_cell(verts):
    """Single-cell mesh with all six faces declared as boundary."""
    return build_mesh(verts, [list(range(8))], [(0, f, "wall") for f in range(6)])


def node_vectors(verts):
    return compute_node_vectors(compute_edge_vectors(verts))


def test_edge_table_shape():
    groups = [g for _, _, g in EDGE_TABLE]
    assert groups == [0] * 4 + [1] * 4 + [2] * 4
    for t, h, g in EDGE_TABLE:
        # every edge runs from the minus to the plus side of its axis
        assert (t >> g) & 1 == 0 and (h >> g) & 1 == 1
        assert t ^ h == 1 << g


def test_edge_vectors_unit_cube():
    e = compute_edge_vectors(UNIT_CUBE)
    expect = np.zeros((12, 3))
    expect[0:4, 0] = 1.0
    expect[4:8, 1] = 1.0
    expect[8:12, 2] = 1.0
    assert np.array_equal(e, expect)


def test_edge_vectors_match_vertex_differences():
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = random_hex(rng)
        assert np.array_equal(compute_edge_vectors(v), oracle_edge_vectors(v))


def test_node_vectors_are_edge_group_means():
    rng = np.random.default_rng(12)
    v = random_hex(rng)
    e = compute_edge_vectors(v)
    b = compute_node_vectors(e)
    for mu in range(3):
        assert np.allclose(b[mu], e[4 * mu : 4 * mu + 4].mean(axis=0), rtol=0, atol=1e-15)


def test_node_vectors_join_opposite_face_centroids():
    # the corner-mean centroids of the two axis-mu faces differ by
    # exactly b[mu]; the connection formulas lean on this identity
    rng = np.random.default_rng(13)
    for _ in range(20):
        v = random_hex(rng)
        m = one_cell(v)
        b = node_vectors(v)
        for mu in range(3):
            gap = m.face_centroids[0, 2 * mu + 1] - m.face_centroids[0, 2 * mu]
            assert np.allclose(gap, b[mu], rtol=1e-13, atol=1e-14)
        assert np.allclose(
            m.face_centroids[0] - m.centroids[0],
            0.5 * FACE_PARITY[:, None] * -b[FACE_AXIS],
            rtol=1e-12,
            atol=1e-13,
        )


def test_face_vectors_unit_cube():
    m = one_cell(UNIT_CUBE)
    expect = np.array(
        [
            [-1, 0, 0], [1, 0, 0],
            [0, -1, 0], [0, 1, 0],
            [0, 0, -1], [0, 0, 1],
        ],
        dtype=float,
    )
    assert np.allclose(m.face_vecs[0], expect, rtol=0, atol=0)
    _, flipped = compute_face_vectors(compute_edge_vectors(UNIT_CUBE))
    assert not flipped.any()


def test_face_vectors_match_diagonal_cross_product():
    rng = np.random.default_rng(14)
    for _ in range(50):
        v = random_hex(rng)
        fv, flipped = compute_face_vectors(compute_edge_vectors(v))
        for f in range(6):
            raw = oracle_face_vector(v, f)
            want = -raw if flipped[f] else raw
            assert np.allclose(fv[f], want, rtol=1e-13, atol=1e-15)


def test_face_vectors_flip_on_mirrored_cell():
    mirrored = UNIT_CUBE.copy()
    mirrored[:, 0] = -mirrored[:, 0]
    fv, flipped = compute_face_vectors(compute_edge_vectors(mirrored))
    # a reflection reverses every corner cycle, so every face flips
    assert flipped.all()


def test_surface_closes():
    rng = np.random.default_rng(15)
    for _ in range(50):
        fv = one_cell(random_hex(rng)).face_vecs[0]
        gap = np.abs(fv.sum(axis=0)).max()
        assert gap <= 1e-12 * np.linalg.norm(fv, axis=1).max()


def test_volume_unit_and_affine():
    assert compute_volume(UNIT_CUBE) == 1.0
    sheared = UNIT_CUBE.copy()
    sheared[:, 0] += 0.3 * sheared[:, 1]  # volume-preserving shear
    assert abs(compute_volume(sheared) - 1.0) < 1e-15
    assert abs(compute_volume(2.5 * UNIT_CUBE) - 2.5**3) < 1e-12


def test_volume_matches_tet_decomposition():
    rng = np.random.default_rng(7)
    warped = UNIT_CUBE + 0.12 * rng.standard_normal((8, 3))
    # frozen from the tet oracle for this exact seed
    assert abs(oracle_volume_tets(warped) - 1.077229327262171) < 1e-14
    assert abs(compute_volume(warped) - 1.077229327262171) < 1e-12

    rng = np.random.default_rng(16)
    for _ in range(200):
        v = random_hex(rng)
        want = oracle_volume_tets(v)
        assert abs(compute_volume(v) - want) <= 1e-10 * abs(want)


def test_inverted_cell_rejected():
    mirrored = UNIT_CUBE.copy()
    mirrored[:, 0] = -mirrored[:, 0]
    with pytest.raises(InvertedCellError):
        compute_volume(mirrored)


def test_coincident_vertices_rejected():
    bad = UNIT_CUBE.copy()
    bad[6] = bad[7]
    with pytest.raises(DegenerateCellError, match="cell 0 has coincident vertices"):
        one_cell(bad)


def test_flat_cell_rejected():
    flat = UNIT_CUBE.copy()
    flat[:, 2] = 0.0
    with pytest.raises(DegenerateCellError):
        one_cell(flat)


def test_gamma_inverts_node_matrix():
    rng = np.random.default_rng(17)
    for _ in range(50):
        v = random_hex(rng)
        gamma = one_cell(v).gamma[0]
        assert np.allclose(gamma @ node_vectors(v), np.eye(3), rtol=0, atol=1e-12)


def test_s_coeffs_unit_cube():
    m = one_cell(UNIT_CUBE)
    expect = np.array(
        [
            [-1, 0, 0], [1, 0, 0],
            [0, -1, 0], [0, 1, 0],
            [0, 0, -1], [0, 0, 1],
        ],
        dtype=float,
    )
    assert np.allclose(m.s_coeffs[0], expect, rtol=0, atol=1e-15)


def test_s_coeffs_contract_gradients():
    # s[f] turns directional differences along the node vectors into
    # the flux of the corresponding uniform gradient through face f
    rng = np.random.default_rng(18)
    for _ in range(30):
        v = random_hex(rng)
        m = one_cell(v)
        a = rng.standard_normal(3)
        d = node_vectors(v) @ a
        for f in range(6):
            want = m.face_vecs[0, f] @ a
            got = m.s_coeffs[0, f] @ d
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_scaling_laws():
    rng = np.random.default_rng(19)
    v = random_hex(rng)
    lam = 3.7
    g1 = one_cell(v)
    g2 = one_cell(lam * v)
    assert np.allclose(g2.face_vecs, lam**2 * g1.face_vecs, rtol=1e-12)
    assert np.allclose(g2.gamma, g1.gamma / lam, rtol=1e-12)
    assert np.allclose(g2.s_coeffs, lam * g1.s_coeffs, rtol=1e-12)
    assert np.isclose(g2.volumes[0], lam**3 * g1.volumes[0], rtol=1e-12)


def test_pair_coeff_negative_on_valid_cells():
    rng = np.random.default_rng(20)
    for _ in range(50):
        s_coeffs = one_cell(random_hex(rng)).s_coeffs[0]
        for f in range(6):
            coeff = 2.0 * FACE_PARITY[f] * s_coeffs[f, FACE_AXIS[f]]
            assert coeff < 0.0


def test_box_mesh_counts():
    m = box_mesh(3, 2, 1)
    assert m.n_cells == 6
    assert m.n_interior_faces == 2 * 2 * 1 + 3 * 1 * 1
    assert m.n_boundary_faces == 2 * (2 * 1 + 3 * 1 + 3 * 2)
    assert sorted(m.tags) == ["xmax", "xmin", "ymax", "ymin", "zmax", "zmin"]
    cells, faces = m.boundary_group("xmin")
    assert len(cells) == 2 and (faces == 0).all()
    with pytest.raises(MeshError):
        m.boundary_group("nonsense")


def test_box_mesh_neighbor_maps():
    m = box_mesh(3, 1, 1)
    # the middle cell of a 3x1x1 row touches both ends through its x faces
    assert m.neighbor_cell[1, 0] == 0 and m.neighbor_cell[1, 1] == 2
    assert m.neighbor_face[1, 0] == 1 and m.neighbor_face[1, 1] == 0
    assert (m.neighbor_cell[1, 2:] == -1).all()


def test_paired_faces_exactly_antiparallel():
    m = box_mesh(3, 3, 2, warp=jitter_warp(seed=3, scale=0.04))
    va = m.face_vecs[m.icell_a, m.iface_a]
    vb = m.face_vecs[m.icell_b, m.iface_b]
    assert np.array_equal(va, -vb)


def test_tangent_match_identity_on_boxes():
    m = box_mesh(2, 2, 2)
    for k in range(m.n_interior_faces):
        fa = m.iface_a[k]
        assert np.array_equal(m.tang_axis_b[k], [1, 2] if fa < 2 else ([0, 2] if fa < 4 else [0, 1]))
        assert np.array_equal(m.tang_sign_b[k], [1.0, 1.0])


def test_unmatched_face_rejected():
    # drop one boundary declaration
    with pytest.raises(MeshError, match="neither shared nor declared"):
        build_mesh(
            UNIT_CUBE,
            [list(range(8))],
            [(0, f, "wall") for f in range(5)],
        )


def test_boundary_on_shared_face_rejected():
    m = box_mesh(2, 1, 1)  # only to borrow its vertex layout
    boundary = [(c, f, "wall") for c in range(2) for f in range(6) if not (c == 0 and f == 1)]
    with pytest.raises(MeshError, match="also appears"):
        build_mesh(m.verts, m.cells, boundary)


def test_bad_vertex_reference_rejected():
    with pytest.raises(MeshError, match="out of range"):
        build_mesh(UNIT_CUBE, [[0, 1, 2, 3, 4, 5, 6, 99]], [])


def test_repeated_vertex_id_rejected():
    with pytest.raises(DegenerateCellError):
        build_mesh(UNIT_CUBE, [[0, 1, 2, 3, 4, 5, 6, 6]], [])


def test_non_finite_vertex_rejected():
    for value in (np.nan, np.inf):
        verts = UNIT_CUBE.copy()
        verts[3, 1] = value
        with pytest.raises(MeshError, match="non-finite vertex coordinate"):
            one_cell(verts)


def test_coincident_vertices_in_mesh_name_the_cell():
    m = box_mesh(3, 1, 1)
    verts = m.verts.copy()
    # move vertex 6 of the last cell onto its vertex 7: a valid-looking
    # wedge that every other check lets through
    verts[m.cells[2, 6]] = verts[m.cells[2, 7]]
    with pytest.raises(DegenerateCellError, match="cell 2 has coincident vertices"):
        build_mesh(verts, m.cells, boundary_list(m))


def test_boundary_entry_declared_twice_rejected():
    boundary = [(0, f, "wall") for f in range(6)] + [(0, 3, "lid")]
    with pytest.raises(MeshError, match=r"boundary face \(0, 3\) declared twice"):
        build_mesh(UNIT_CUBE, [list(range(8))], boundary)


@pytest.mark.parametrize("entry", [(1, 0), (-1, 0), (0, 6), (0, -1)])
def test_boundary_entry_out_of_range_rejected(entry):
    c, f = entry
    boundary = [(0, k, "wall") for k in range(6)] + [(c, f, "wall")]
    with pytest.raises(MeshError, match=rf"boundary entry \({c}, {f}\) out of range"):
        build_mesh(UNIT_CUBE, [list(range(8))], boundary)


def test_face_shared_by_three_cells_rejected():
    # a third cell reuses the shared +x face of a 2-cell row and sits on
    # top of the second cell with vertex ids of its own
    m = box_mesh(2, 1, 1)
    extra = np.arange(m.n_vertices, m.n_vertices + 4)
    far = m.cells[1, [1, 3, 5, 7]]
    third = m.cells[1].copy()
    third[[1, 3, 5, 7]] = extra
    verts = np.vstack([m.verts, m.verts[far]])
    cells = np.vstack([m.cells, third])
    shared = tuple(sorted(int(v) for v in m.cells[0, FACE_CORNERS[1]]))
    boundary = [(c, f, "wall") for c in range(3) for f in range(6)
                if (c, f) not in ((0, 1), (1, 0), (2, 0))]
    with pytest.raises(MeshError, match=re.escape(
            f"vertex quadruple {shared} is shared by 3 faces")):
        build_mesh(verts, cells, boundary)


def test_shared_face_with_crossed_vertex_cycle_rejected():
    # cell 1 lists the four ids of cell 0's +x face in a bow-tie order
    # (1, 7, 5, 3 around its -x face), so ids 1 and 7, a diagonal of
    # cell 0's face, form an edge of cell 1; the face is skewed enough
    # that both cells are still valid hexahedra
    verts = np.array([
        [0.06, -0.06, 0.29], [1.05, -0.24, 0.16], [0.59, 1.43, -0.32],
        [0.43, 0.72, 0.02], [-1.05, -0.10, 0.44], [0.67, -0.25, 0.86],
        [0.19, 1.47, 0.94], [1.62, 0.70, 1.16], [2.41, 0.04, -0.34],
        [1.59, 0.79, 0.10], [1.55, -0.09, 0.93], [2.24, 1.10, 1.16]])
    boundary = ([(0, f, "wall") for f in (0, 2, 3, 4, 5)]
                + [(1, f, "wall") for f in (1, 2, 3, 4, 5)])
    conforming = [1, 8, 3, 9, 5, 10, 7, 11]
    crossed = [1, 8, 3, 9, 7, 10, 5, 11]
    mesh = build_mesh(verts, [list(range(8)), conforming], boundary)
    assert mesh.n_interior_faces == 1
    with pytest.raises(MeshError, match="shared face between cells 0 and 1 is not "
                       "an edge-conforming quadrilateral"):
        build_mesh(verts, [list(range(8)), crossed], boundary)


def test_cell_size_is_min_thickness():
    m = box_mesh(1, 1, 1, lengths=(2.0, 1.0, 0.5))
    assert np.isclose(m.cell_size[0], 0.5)


def test_mesh_file_roundtrip(tmp_path):
    m = box_mesh(3, 2, 2, warp=jitter_warp(seed=9, scale=0.03))
    path = tmp_path / "grid.mesh"
    write_mesh_file(m, path)
    back = read_mesh_file(path)
    assert np.array_equal(back.verts, m.verts)
    assert np.array_equal(back.cells, m.cells)
    assert back.tags == m.tags
    assert np.array_equal(back.btag, m.btag)
    assert np.array_equal(back.volumes, m.volumes)


def test_mesh_file_comments_and_errors(tmp_path):
    path = tmp_path / "grid.mesh"
    path.write_text(
        "# a comment\nhexflow-mesh 1\n8 1 6\n"
        + "".join(
            f"{x} {y} {z}\n" for x, y, z in UNIT_CUBE
        )
        + "0 1 2 3 4 5 6 7\n"
        + "".join(f"0 {f} wall\n" for f in range(6))
    )
    m = read_mesh_file(path)
    assert m.n_cells == 1 and m.n_boundary_faces == 6

    bad = tmp_path / "bad.mesh"
    bad.write_text("hexmesh 2\n")
    with pytest.raises(MeshFormatError, match="header"):
        read_mesh_file(bad)

    bad.write_text("hexflow-mesh 1\n8 1 6\nnot a vertex\n")
    with pytest.raises(MeshFormatError):
        read_mesh_file(bad)

    bad.write_text(
        "hexflow-mesh 1\n1 0 0\n0.0 zzz 0.0\n"
    )
    with pytest.raises(MeshFormatError, match="bad.mesh:3"):
        read_mesh_file(bad)
