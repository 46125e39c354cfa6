import numpy as np
import pytest

from hexflow.errors import HistoryError, NonFiniteStateError
from hexflow.state import (
    FieldState,
    ProcessHistory,
    decompose_incident_outgoing,
    node_boundary_map,
    snapshot,
)


def test_uniform_state_and_stamps():
    s = FieldState.uniform(4, T=300.0, u=(1.0, 0.0, 0.0), p=101325.0)
    assert s.n_cells == 4
    assert s.ready_for_face_sweep and not s.ready_for_cell_sweep
    assert (s.cell_T == 300.0).all() and (s.face_T == 300.0).all()
    assert (s.face_u[..., 0] == 1.0).all() and (s.face_u[..., 1] == 0.0).all()

    s.advance_ports()
    assert s.ready_for_cell_sweep
    with pytest.raises(ValueError):
        s.advance_ports()
    s.advance_nodes()
    assert s.ready_for_face_sweep
    assert (s.node_step, s.port_step) == (3, 2)


def test_bad_stamp_gap_rejected():
    s = FieldState.uniform(1)
    with pytest.raises(ValueError, match="half-step"):
        FieldState(
            cell_T=s.cell_T, cell_u=s.cell_u, cell_p=s.cell_p,
            face_T=s.face_T, face_u=s.face_u, face_p=s.face_p,
            port_step=0, node_step=4,
        )


def test_shape_validation():
    s = FieldState.uniform(3)
    with pytest.raises(ValueError, match="face_u"):
        FieldState(
            cell_T=s.cell_T, cell_u=s.cell_u, cell_p=s.cell_p,
            face_T=s.face_T, face_u=np.zeros((3, 6)), face_p=s.face_p,
        )


def test_assert_finite():
    s = FieldState.uniform(2)
    s.assert_finite()
    s.face_u[1, 3, 2] = np.inf
    with pytest.raises(NonFiniteStateError, match="face_u"):
        s.assert_finite()


def test_copy_is_deep():
    s = FieldState.uniform(2, T=1.0)
    assert s.copy().flux is None
    s.flux = np.ones((4, 2, 6))
    c = s.copy()
    c.cell_T[0] = 99.0
    c.flux[0, 0, 0] = 99.0
    assert s.cell_T[0] == 1.0
    assert s.flux[0, 0, 0] == 1.0


def test_node_boundary_map_swaps_and_inverts():
    a, b = np.arange(6.0), np.arange(6.0) * 10
    swapped = node_boundary_map((a, b))
    assert swapped[0] is b and swapped[1] is a
    back = node_boundary_map(swapped)
    assert back[0] is a and back[1] is b


def test_node_boundary_map_componentwise():
    rng = np.random.default_rng(21)
    ports = rng.standard_normal((5, 6))
    nodes = rng.standard_normal((5, 6))
    got_p, got_n = node_boundary_map((ports, nodes))
    # per-channel oracle: swap each slot independently
    for c in range(5):
        for f in range(6):
            want = (nodes[c, f], ports[c, f])
            assert (got_p[c, f], got_n[c, f]) == want


def test_decompose_zero_process():
    h = ProcessHistory()
    for _ in range(4):
        h.record(np.zeros(3), np.zeros(3))
    view = decompose_incident_outgoing(h, depth=4)
    assert all((z == 0).all() for z in view.incident)
    assert all((z == 0).all() for z in view.outgoing)


def test_decompose_impulse_base_case():
    h = ProcessHistory()
    h.record(np.array([2.5]), np.array([0.0]))
    view = decompose_incident_outgoing(h)
    # nothing was outgoing before the start, so the whole first port
    # value is incident
    assert view.incident[0][0] == 2.5
    assert view.outgoing[0][0] == -2.5


def _recursion_oracle(ports, nodes):
    z_in, z_out = [], []
    prev = np.zeros_like(ports[0])
    for zp, zn in zip(ports, nodes):
        i = zp - prev
        o = zn - i
        z_in.append(i)
        z_out.append(o)
        prev = o
    return z_in, z_out


def test_decompose_matches_recursion_oracle():
    rng = np.random.default_rng(22)
    ports = [rng.standard_normal((4, 6)) for _ in range(3)]
    nodes = [rng.standard_normal((4, 6)) for _ in range(3)]
    h = ProcessHistory()
    for zp, zn in zip(ports, nodes):
        h.record(zp, zn)
    view = decompose_incident_outgoing(h, depth=3)
    want_in, want_out = _recursion_oracle(ports, nodes)
    for got, want in zip(view.incident, want_in):
        assert np.array_equal(got, want)
    for got, want in zip(view.outgoing, want_out):
        assert np.array_equal(got, want)


def test_reconstruction_identities_hold():
    rng = np.random.default_rng(23)
    ports = [rng.standard_normal(8) for _ in range(5)]
    nodes = [rng.standard_normal(8) for _ in range(5)]
    h = ProcessHistory()
    for zp, zn in zip(ports, nodes):
        h.record(zp, zn)
    view = decompose_incident_outgoing(h, depth=5)
    z_in = list(view.incident)
    z_out = list(view.outgoing)
    for m in range(5):
        arrived = z_out[m - 1] if m else np.zeros(8)
        assert np.allclose(ports[m], arrived + z_in[m], rtol=1e-12, atol=0)
        assert np.allclose(nodes[m], z_in[m] + z_out[m], rtol=1e-12, atol=0)


def test_depth_bounds_ring():
    h = ProcessHistory()
    for i in range(6):
        h.record(np.array([float(i)]), np.array([0.0]))
    view = decompose_incident_outgoing(h, depth=2)
    assert len(view.incident) == 2 and len(view.outgoing) == 2


def test_not_from_rest_rejected():
    h = ProcessHistory(from_rest=False)
    h.record(np.zeros(2), np.zeros(2))
    with pytest.raises(HistoryError):
        decompose_incident_outgoing(h)
    with pytest.raises(HistoryError):
        decompose_incident_outgoing(ProcessHistory(), depth=0)


def test_snapshot_copies_in_cell_order():
    s = FieldState.uniform(1, T=7.0)
    out = snapshot(s)
    assert out["T"].shape == (1,) and out["u"].shape == (1, 3)
    assert out["T"][0] == 7.0

    s2 = FieldState.uniform(5, T=3.0, p=2.0)
    s2.cell_T[:] = np.arange(5.0)
    out2 = snapshot(s2, which=("T", "p"))
    assert np.array_equal(out2["T"], np.arange(5.0))
    assert (out2["p"] == 2.0).all()
    assert "u" not in out2
    out2["T"][0] = -1.0
    assert s2.cell_T[0] == 0.0
    with pytest.raises(KeyError):
        snapshot(s2, which=("vorticity",))
