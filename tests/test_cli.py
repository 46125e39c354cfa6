"""Config parsing, snapshot writers, and command-line entry tests."""

import csv

import numpy as np
import pytest

from hexflow.errors import ConfigError
from hexflow.hexmesh import write_mesh_file
from hexflow.pressure import PressureSolverConfig
from hexflow.sim import BoundaryRule, Probe, box_mesh, build_scenario
from hexflow.state import FieldState
from hexflow import cli


def write_config(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# Independent reader for the legacy ASCII VTK unstructured-grid layout
# (header, POINTS, CELLS, CELL_TYPES, CELL_DATA with SCALARS/VECTORS
# sections).  Used as the oracle for the writer below.
def read_legacy_vtk(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0].startswith("# vtk DataFile Version")
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    body = " ".join(lines[4:]).split()
    pos = 0

    def take(n):
        nonlocal pos
        out = body[pos:pos + n]
        pos += n
        return out

    assert take(1) == ["POINTS"]
    n_pts = int(take(1)[0])
    take(1)  # dtype
    points = np.array(take(3 * n_pts), dtype=float).reshape(n_pts, 3)

    assert take(1) == ["CELLS"]
    n_cells = int(take(1)[0])
    size = int(take(1)[0])
    raw = np.array(take(size), dtype=int)
    cells, j = [], 0
    while j < len(raw):
        count = raw[j]
        cells.append(raw[j + 1:j + 1 + count])
        j += count + 1
    assert len(cells) == n_cells

    assert take(1) == ["CELL_TYPES"]
    assert int(take(1)[0]) == n_cells
    types = np.array(take(n_cells), dtype=int)

    assert take(1) == ["CELL_DATA"]
    assert int(take(1)[0]) == n_cells
    data = {}
    while pos < len(body):
        section = take(1)[0]
        if section == "SCALARS":
            name = take(1)[0]
            take(2)  # dtype, component count
            assert take(2)[0] == "LOOKUP_TABLE"
            data[name] = np.array(take(n_cells), dtype=float)
        elif section == "VECTORS":
            name = take(1)[0]
            take(1)  # dtype
            data[name] = np.array(take(3 * n_cells), dtype=float).reshape(n_cells, 3)
        else:
            raise AssertionError(f"unexpected section {section!r}")
    return points, cells, types, data


class TestParseConfig:
    def test_minimal_config_applies_scenario_defaults(self, tmp_path):
        path = write_config(tmp_path, "scenario = cavity\nsteps = 100\n")
        cfg = cli.parse_config(path)
        assert cfg.scenario == "cavity"
        assert cfg.n_steps == 100
        assert cfg.cadence is None
        assert cfg.tau == 0.02
        assert cfg.coarsening.period == 10
        assert cfg.pressure is not None
        assert cfg.output_dir == "out"
        assert cfg.output_format == "csv"

    def test_relaxation_out_of_range_names_field_and_line(self, tmp_path):
        path = write_config(
            tmp_path,
            "scenario = cavity\nsteps = 1\npressure.relaxation = 2.5\n")
        # the solver has no relaxation factor: any value is a stale key
        with pytest.raises(ConfigError,
                           match=r"unknown key 'pressure\.relaxation'") as err:
            cli.parse_config(path)
        assert ":3" in str(err.value)

    def test_malformed_line_is_reported_precisely(self, tmp_path):
        path = write_config(tmp_path, "scenario = slab\nwhat is this\n")
        with pytest.raises(ConfigError, match=r":2"):
            cli.parse_config(path)

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "scenario = slab\nvelocity.max = 3\n")
        with pytest.raises(ConfigError, match="velocity.max"):
            cli.parse_config(path)

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, "scenario = slab\nsteps = 1\nsteps = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            cli.parse_config(path)

    def test_scenario_or_mesh_required(self, tmp_path):
        path = write_config(tmp_path, "steps = 1\n")
        with pytest.raises(ConfigError, match="scenario"):
            cli.parse_config(path)

    def test_scenario_and_mesh_conflict(self, tmp_path):
        path = write_config(tmp_path,
                            "scenario = slab\nmesh = grid.txt\ntau = 0.1\n")
        with pytest.raises(ConfigError, match="both"):
            cli.parse_config(path)

    def test_unknown_scenario_parameter(self, tmp_path):
        path = write_config(tmp_path, "scenario = slab\nparam.bogus = 1\n")
        with pytest.raises(ConfigError, match="bogus"):
            cli.parse_config(path)

    def test_bad_integer_value(self, tmp_path):
        path = write_config(tmp_path, "scenario = slab\nsteps = many\n")
        with pytest.raises(ConfigError, match=r":2"):
            cli.parse_config(path)

    def test_probe_forms(self, tmp_path):
        path = write_config(tmp_path, (
            "scenario = slab\n"
            "probe = 0.5,0.5,0.02 T speed\n"
            "probe = cell 3\n"))
        cfg = cli.parse_config(path)
        assert cfg.probes[0] == Probe(position=(0.5, 0.5, 0.02),
                                      fields=("T", "speed"))
        assert cfg.probes[1] == Probe(cell=3)

    def test_boundary_override(self, tmp_path):
        path = write_config(tmp_path, (
            "scenario = cavity\n"
            "bc.ymax = wall 2.0 0 0\n"
            "bc.xmin = fixed_temperature T=350\n"))
        cfg = cli.parse_config(path)
        assert cfg.bcs["ymax"] == BoundaryRule("wall", velocity=(2.0, 0.0, 0.0))
        assert cfg.bcs["xmin"].temperature == 350.0

    def test_boundary_rule_errors_carry_the_line(self, tmp_path):
        path = write_config(tmp_path, "scenario = cavity\nbc.ymax = inflow\n")
        with pytest.raises(ConfigError, match=r":2"):
            cli.parse_config(path)
        path = write_config(tmp_path, "scenario = cavity\nbc.lid = wall\n",
                            name="other.cfg")
        with pytest.raises(ConfigError, match="lid"):
            cli.parse_config(path)

    def test_coarsening_off(self, tmp_path):
        path = write_config(tmp_path, "scenario = cavity\ncoarsen.period = off\n")
        assert cli.parse_config(path).coarsening is None

    def test_pressure_toggle_and_defaults(self, tmp_path):
        # slab has no pressure solve; switching it on applies the
        # documented default (tolerance 1e-8)
        path = write_config(tmp_path, (
            "scenario = slab\n"
            "pressure.enabled = on\n"))
        cfg = cli.parse_config(path)
        assert cfg.pressure == PressureSolverConfig(tolerance=1e-8)
        path = write_config(tmp_path, (
            "scenario = cavity\npressure.enabled = off\n"), name="off.cfg")
        assert cli.parse_config(path).pressure is None

    def test_material_overrides_merge_with_scenario_props(self, tmp_path):
        path = write_config(tmp_path, (
            "scenario = cavity\n"
            "material.alpha = 0.5\n"
            "material.gravity = 0 -9.81 0\n"))
        cfg = cli.parse_config(path)
        assert cfg.props.alpha == 0.5
        assert cfg.props.eta == 0.01
        assert cfg.props.g == (0.0, -9.81, 0.0)

    def test_mesh_branch(self, tmp_path):
        mesh = box_mesh(2, 1, 1, lengths=(2.0, 1.0, 1.0))
        mesh_path = tmp_path / "pair.mesh"
        write_mesh_file(mesh, mesh_path)
        lines = [f"mesh = {mesh_path}", "tau = 0.05", "initial.T = 5.0"]
        lines += [f"bc.{t} = adiabatic" for t in
                  ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")]
        path = write_config(tmp_path, "\n".join(lines) + "\n")
        cfg = cli.parse_config(path)
        assert cfg.mesh_path == str(mesh_path)
        assert cfg.scenario is None
        assert cfg.tau == 0.05
        assert cfg.initial_T == 5.0
        assert cfg.coarsening.period == 10
        assert cfg.pressure is not None

    def test_mesh_branch_requires_tau(self, tmp_path):
        path = write_config(tmp_path, "mesh = grid.txt\n")
        with pytest.raises(ConfigError, match="tau"):
            cli.parse_config(path)


class TestEmitConfig:
    @pytest.mark.filterwarnings("ignore:coarsening period")
    def test_round_trip_reproduces_every_setting(self, tmp_path):
        path = write_config(tmp_path, (
            "scenario = slab\n"
            "resolution = 8\n"
            "steps = 40\n"
            "cadence = 10\n"
            "tau = 0.0005\n"
            "param.alpha = 0.7\n"
            "material.beta = -0.003\n"
            "pressure.enabled = on\n"
            "pressure.tolerance = 1e-06\n"
            "coarsen.period = 4\n"
            "output.format = vtk-legacy\n"
            "probe = 0.25,0.0625,0.0625 T\n"
            "bc.xmin = fixed_temperature T=310\n"))
        first = cli.parse_config(path)
        emitted = cli.emit_config(first)
        second = cli.parse_config(write_config(tmp_path, emitted, name="redo.cfg"))
        assert first == second
        assert cli.emit_config(second) == emitted

    def test_mesh_branch_round_trip(self, tmp_path):
        mesh = box_mesh(1, 1, 1)
        mesh_path = tmp_path / "cube.mesh"
        write_mesh_file(mesh, mesh_path)
        lines = [f"mesh = {mesh_path}", "tau = 0.01", "initial.u = 0.1 0 0",
                 "coarsen.period = off", "pressure.enabled = off"]
        lines += [f"bc.{t} = wall" for t in
                  ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")]
        first = cli.parse_config(write_config(tmp_path, "\n".join(lines) + "\n"))
        second = cli.parse_config(
            write_config(tmp_path, cli.emit_config(first), name="redo.cfg"))
        assert first == second


class TestSnapshotWriters:
    def make_state(self, mesh, seed=7):
        rng = np.random.default_rng(seed)
        state = FieldState.uniform(mesh.n_cells)
        state.cell_T[:] = rng.normal(size=mesh.n_cells)
        state.cell_u[:] = rng.normal(size=(mesh.n_cells, 3))
        state.cell_p[:] = rng.normal(size=mesh.n_cells)
        return state

    def test_csv_single_cell(self, tmp_path):
        mesh = box_mesh(1, 1, 1)
        state = FieldState.uniform(1, T=2.0, u=(3.0, 4.0, 0.0), p=1.5)
        out = cli.write_snapshot(state, mesh, tmp_path / "snap.csv", "csv")
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cx", "cy", "cz", "T", "ux", "uy", "uz", "p", "speed"]
        assert len(rows) == 2
        values = [float(v) for v in rows[1]]
        assert values == [0.5, 0.5, 0.5, 2.0, 3.0, 4.0, 0.0, 1.5, 5.0]

    def test_csv_matches_state_exactly(self, tmp_path):
        mesh = box_mesh(3, 2, 1)
        state = self.make_state(mesh)
        out = cli.write_snapshot(state, mesh, tmp_path / "snap.csv", "csv")
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        got = np.array([[float(v) for v in row] for row in rows])
        assert np.array_equal(got[:, 3], state.cell_T)
        assert np.array_equal(got[:, 4:7], state.cell_u)
        assert np.array_equal(got[:, 7], state.cell_p)
        assert np.array_equal(got[:, :3], mesh.centroids)

    def test_constant_field_gives_constant_column(self, tmp_path):
        mesh = box_mesh(2, 2, 1)
        state = FieldState.uniform(4, T=300.0)
        out = cli.write_snapshot(state, mesh, tmp_path / "snap.csv", "csv")
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {row[3] for row in rows} == {"300.0"}

    def test_vtk_reread_by_independent_reader(self, tmp_path):
        mesh = box_mesh(3, 2, 1, lengths=(3.0, 2.0, 1.0))
        state = self.make_state(mesh, seed=13)
        out = cli.write_snapshot(state, mesh, tmp_path / "snap.vtk", "vtk-legacy")
        points, cells, types, data = read_legacy_vtk(out)
        assert np.array_equal(points, mesh.verts)
        assert np.all(types == 12)
        # undo the VTK hexahedron corner ordering (an involution)
        unmapped = np.array([c[[0, 1, 3, 2, 4, 5, 7, 6]] for c in cells])
        assert np.array_equal(unmapped, mesh.cells)
        assert np.array_equal(data["T"], state.cell_T)
        assert np.array_equal(data["velocity"], state.cell_u)
        assert np.array_equal(data["p"], state.cell_p)
        assert np.array_equal(data["speed"],
                              np.linalg.norm(state.cell_u, axis=1))

    def test_single_cell_vtk_counts(self, tmp_path):
        mesh = box_mesh(1, 1, 1)
        state = FieldState.uniform(1, T=1.0)
        out = cli.write_snapshot(state, mesh, tmp_path / "one.vtk", "vtk")
        points, cells, types, data = read_legacy_vtk(out)
        assert len(cells) == 1 and len(cells[0]) == 8
        assert points.shape == (8, 3)

    def test_writers_are_bytewise_deterministic(self, tmp_path):
        mesh = box_mesh(2, 2, 1)
        state = self.make_state(mesh, seed=3)
        a = cli.write_snapshot(state, mesh, tmp_path / "a.vtk", "vtk")
        b = cli.write_snapshot(state, mesh, tmp_path / "b.vtk", "vtk")
        assert open(a, "rb").read() == open(b, "rb").read()
        c = cli.write_snapshot(state, mesh, tmp_path / "a.csv", "csv")
        d = cli.write_snapshot(state, mesh, tmp_path / "b.csv", "csv")
        assert open(c, "rb").read() == open(d, "rb").read()

    def test_unknown_format(self, tmp_path):
        mesh = box_mesh(1, 1, 1)
        with pytest.raises(ValueError, match="format"):
            cli.write_snapshot(FieldState.uniform(1), mesh,
                               tmp_path / "x.bin", "hdf5")


class TestMain:
    def test_validate_mesh_prints_counts(self, tmp_path, capsys):
        mesh = box_mesh(2, 1, 1, lengths=(2.0, 1.0, 1.0))
        path = tmp_path / "pair.mesh"
        write_mesh_file(mesh, path)
        assert cli.main(["validate-mesh", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cells: 2" in out
        assert "boundary faces: 10" in out

    @pytest.mark.parametrize("fault, message", [
        ("nan", "non-finite vertex coordinate"),
        ("wedge", "cell 0 has coincident vertices"),
    ])
    def test_validate_mesh_rejects_bad_vertices(self, tmp_path, capsys,
                                                fault, message):
        corners = [[i & 1, (i >> 1) & 1, (i >> 2) & 1] for i in range(8)]
        if fault == "nan":
            corners[5][2] = float("nan")
        else:
            corners[6] = corners[7]  # a wedge of volume 2/3
        path = tmp_path / f"{fault}.mesh"
        path.write_text(
            "hexflow-mesh 1\n8 1 6\n"
            + "".join(f"{x} {y} {z}\n" for x, y, z in corners)
            + "0 1 2 3 4 5 6 7\n"
            + "".join(f"0 {f} wall\n" for f in range(6)))
        assert cli.main(["validate-mesh", str(path)]) == 1
        captured = capsys.readouterr()
        assert "mesh OK" not in captured.out
        assert captured.err.strip() == f"error: {path}: {message}"

    def test_validate_mesh_missing_file(self, tmp_path, capsys):
        assert cli.main(["validate-mesh", str(tmp_path / "nope.mesh")]) == 1
        assert "error" in capsys.readouterr().err

    def test_run_slab_writes_snapshots(self, tmp_path):
        code = cli.main(["run", "--scenario", "slab", "--steps", "100",
                         "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "snap_000000.csv").is_file()
        assert (tmp_path / "out" / "snap_000100.csv").is_file()

    def test_run_with_probe_writes_trace(self, tmp_path):
        code = cli.main(["run", "--scenario", "slab", "--steps", "4",
                         "--probe", "0.9,0.05,0.05",
                         "--output-dir", str(tmp_path / "out")])
        assert code == 0
        with open(tmp_path / "out" / "probes.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "probe", "field", "value"]
        assert len(rows) == 1 + 4 * 5

    def test_mesh_file_run_with_default_pressure_settings(self, tmp_path):
        mesh, _, _ = build_scenario("cylinder")
        mesh_path = tmp_path / "cylinder.mesh"
        write_mesh_file(mesh, mesh_path)
        path = write_config(tmp_path, "\n".join([
            f"mesh = {mesh_path}", "tau = 0.15", "steps = 2",
            "initial.u = 1 0 0", "material.eta = 0.053",
            "bc.xmin = inflow 1 0 0", "bc.xmax = outflow",
            "bc.ymin = symmetry", "bc.ymax = symmetry",
            "bc.zmin = symmetry", "bc.zmax = symmetry", "bc.wall = wall",
            f"output.dir = {tmp_path / 'out'}"]) + "\n")
        assert cli.main(["run", "--config", path]) == 0
        assert (tmp_path / "out" / "snap_000002.csv").is_file()

    def test_run_config_file_with_flag_override(self, tmp_path, capsys):
        path = write_config(tmp_path, "scenario = slab\nsteps = 2\n")
        out_dir = tmp_path / "files"
        code = cli.main(["run", "--config", path, "--steps", "3",
                         "--output-dir", str(out_dir), "--format", "vtk-legacy"])
        assert code == 0
        assert (out_dir / "snap_000003.vtk").is_file()

    def test_unknown_flag_exits_2(self, capsys):
        assert cli.main(["run", "--frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self, capsys):
        assert cli.main([]) == 2

    def test_bad_scenario_exits_1(self, capsys):
        assert cli.main(["run", "--scenario", "tornado"]) == 1
        assert "error" in capsys.readouterr().err

    def test_emit_config_output_parses_back(self, tmp_path, capsys):
        assert cli.main(["emit-config", "--scenario", "slab",
                         "--steps", "3"]) == 0
        text = capsys.readouterr().out
        path = write_config(tmp_path, text)
        cfg = cli.parse_config(path)
        assert cfg.scenario == "slab" and cfg.n_steps == 3

    def test_run_coarsen_period_flag(self, tmp_path):
        code = cli.main(["run", "--scenario", "cavity", "--resolution", "8",
                         "--steps", "2", "--coarsen-period", "off",
                         "--output-dir", str(tmp_path / "o")])
        assert code == 0
