"""Array face pairing in build_mesh against the dict-and-loop reference.

The reference keys every local face by its sorted vertex quadruple in a
dict, walks the keys in first-appearance order and matches the tangent
axes of each shared face edge by edge, the way the pairing reads
without array operations.  build_mesh must reproduce every topology
array exactly: on the scenario meshes, a jittered box, a 13-sector
annulus and meshes whose cells are turned by random cube rotations.
"""

import numpy as np
import pytest

from conftest import boundary_list, box_mesh, jitter_warp, relabel_cells
from hexflow.hexmesh import EDGE_TABLE, FACE_CORNERS, TANGENT_AXES, build_mesh
from hexflow.sim import SCENARIOS, annulus_mesh, build_scenario

# local vertex pair -> (edge id, +1 if the pair is in table order)
_EDGE_BY_PAIR = {}
for _eid, (_t, _h, _g) in enumerate(EDGE_TABLE):
    _EDGE_BY_PAIR[(_t, _h)] = (_eid, 1)
    _EDGE_BY_PAIR[(_h, _t)] = (_eid, -1)

# one representative edge of each tangential group lying on each face
_FACE_GROUP_EDGE = {}
for _f in range(6):
    _corners = set(FACE_CORNERS[_f])
    for _eid, (_t, _h, _g) in enumerate(EDGE_TABLE):
        if _t in _corners and _h in _corners and (_f, _g) not in _FACE_GROUP_EDGE:
            _FACE_GROUP_EDGE[(_f, _g)] = _eid


def _face_key(cell_verts, f):
    return tuple(sorted(int(cell_verts[c]) for c in FACE_CORNERS[f]))


def _tangent_match(cells, ca, fa, cb, fb):
    axes = np.empty(2, dtype=np.intp)
    signs = np.empty(2, dtype=np.float64)
    pos_b = {int(g): i for i, g in enumerate(cells[cb])}
    for slot in range(2):
        eid = _FACE_GROUP_EDGE[(fa, int(TANGENT_AXES[fa][slot]))]
        t, h, _ = EDGE_TABLE[eid]
        eid_b, sign = _EDGE_BY_PAIR[(pos_b[int(cells[ca][t])],
                                     pos_b[int(cells[ca][h])])]
        axes[slot] = EDGE_TABLE[eid_b][2]
        signs[slot] = sign
    return axes, signs


def reference_topology(cells, boundary):
    """Topology arrays of a valid mesh, by dicts and loops."""
    cells = np.asarray(cells, dtype=np.intp)
    nc = len(cells)
    by_key = {}
    for c in range(nc):
        for f in range(6):
            by_key.setdefault(_face_key(cells[c], f), []).append((c, f))
    declared = {}
    tag_index = {}
    for c, f, tag in boundary:
        declared[(c, f)] = tag
        tag_index.setdefault(tag, len(tag_index))
    ia, fa_, ib, fb_, t_axes, t_signs = [], [], [], [], [], []
    bc, bf, bt = [], [], []
    for members in by_key.values():
        assert len(members) in (1, 2)
        if len(members) == 1:
            c, f = members[0]
            bc.append(c)
            bf.append(f)
            bt.append(tag_index[declared[(c, f)]])
        else:
            (ca, fa), (cb, fb) = members
            axes, signs = _tangent_match(cells, ca, fa, cb, fb)
            ia.append(ca)
            fa_.append(fa)
            ib.append(cb)
            fb_.append(fb)
            t_axes.append(axes)
            t_signs.append(signs)
    out = {
        "icell_a": np.asarray(ia, dtype=np.intp),
        "iface_a": np.asarray(fa_, dtype=np.intp),
        "icell_b": np.asarray(ib, dtype=np.intp),
        "iface_b": np.asarray(fb_, dtype=np.intp),
        "tang_axis_b": np.asarray(t_axes, dtype=np.intp).reshape(-1, 2),
        "tang_sign_b": np.asarray(t_signs, dtype=np.float64).reshape(-1, 2),
        "bcell": np.asarray(bc, dtype=np.intp),
        "bface": np.asarray(bf, dtype=np.intp),
        "btag": np.asarray(bt, dtype=np.intp),
        "neighbor_cell": np.full((nc, 6), -1, dtype=np.intp),
        "neighbor_face": np.full((nc, 6), -1, dtype=np.intp),
    }
    for k in range(len(ia)):
        out["neighbor_cell"][ia[k], fa_[k]] = ib[k]
        out["neighbor_face"][ia[k], fa_[k]] = fb_[k]
        out["neighbor_cell"][ib[k], fb_[k]] = ia[k]
        out["neighbor_face"][ib[k], fb_[k]] = fa_[k]
    return out, tuple(tag_index)


def mesh_inputs(mesh):
    return mesh.verts, mesh.cells, boundary_list(mesh)


def jittered_box():
    return box_mesh(5, 4, 3, warp=jitter_warp(seed=3, scale=0.03))


def ring():
    return annulus_mesh(3, 13, 1.0, 2.0)


INPUTS = {
    **{name: lambda name=name: mesh_inputs(build_scenario(name)[0])
       for name in SCENARIOS},
    "jittered-box": lambda: mesh_inputs(jittered_box()),
    "annulus-13": lambda: mesh_inputs(ring()),
    "turned-box": lambda: relabel_cells(jittered_box(), seed=7),
    "turned-annulus": lambda: relabel_cells(ring(), seed=8),
    "turned-cylinder": lambda: relabel_cells(build_scenario("cylinder")[0],
                                             seed=9),
}


@pytest.mark.parametrize("name", list(INPUTS))
def test_pairing_matches_loop_reference(name):
    verts, cells, boundary = INPUTS[name]()
    mesh = build_mesh(verts, cells, boundary)
    want, tags = reference_topology(cells, boundary)
    assert mesh.tags == tags
    for field, expect in want.items():
        got = getattr(mesh, field)
        assert got.dtype == expect.dtype, field
        assert np.array_equal(got, expect), field


@pytest.mark.parametrize("name", ["turned-box", "turned-annulus"])
def test_turned_cells_exercise_tangent_matching(name):
    mesh = build_mesh(*INPUTS[name]())
    identity = TANGENT_AXES[mesh.iface_a]
    turned = ((mesh.tang_axis_b != identity) | (mesh.tang_sign_b != 1.0)).any(axis=1)
    assert turned.sum() > mesh.n_interior_faces // 2
