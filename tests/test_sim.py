"""Driver, boundary-condition, and scenario tests."""

import math

import numpy as np
import pytest

from hexflow.errors import BoundaryTagError, StabilityError
from hexflow.reflection import MaterialProps
from hexflow.sim import (BOX_TAGS, BoundaryRule, Probe, SimulationConfig,
                         annulus_mesh, apply_boundary_conditions, box_mesh,
                         build_scenario, masked_box_mesh, resolve_probe, run,
                         step)
from hexflow.state import FieldState


def adiabatic_box_bcs():
    return {tag: BoundaryRule("adiabatic") for tag in BOX_TAGS}


class TestBoundaryRule:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown boundary kind"):
            BoundaryRule("slip")

    def test_inflow_needs_velocity(self):
        with pytest.raises(ValueError, match="velocity"):
            BoundaryRule("inflow")

    def test_fixed_temperature_needs_value(self):
        with pytest.raises(ValueError, match="temperature"):
            BoundaryRule("fixed_temperature")

    def test_valueless_kinds_reject_values(self):
        for kind in ("adiabatic", "outflow", "symmetry"):
            with pytest.raises(ValueError, match="takes no values"):
                BoundaryRule(kind, velocity=(1.0, 0.0, 0.0))

    def test_velocity_shape_and_finiteness(self):
        with pytest.raises(ValueError):
            BoundaryRule("wall", velocity=(1.0, 0.0))
        with pytest.raises(ValueError):
            BoundaryRule("inflow", velocity=(np.nan, 0.0, 0.0))
        with pytest.raises(ValueError):
            BoundaryRule("fixed_temperature", temperature=np.inf)


class TestApplyBoundaryConditions:
    def test_missing_rule_is_an_error(self):
        mesh = box_mesh(2, 1, 1)
        state = FieldState.uniform(mesh.n_cells)
        bcs = adiabatic_box_bcs()
        del bcs["ymax"]
        with pytest.raises(BoundaryTagError, match="ymax"):
            apply_boundary_conditions(mesh, state, bcs)

    def test_unknown_tag_is_an_error(self):
        mesh = box_mesh(2, 1, 1)
        state = FieldState.uniform(mesh.n_cells)
        bcs = adiabatic_box_bcs()
        bcs["lid"] = BoundaryRule("wall")
        with pytest.raises(BoundaryTagError, match="lid"):
            apply_boundary_conditions(mesh, state, bcs)

    def test_wall_zeroes_velocity_ports(self):
        mesh = box_mesh(1, 1, 1)
        state = FieldState.uniform(1, u=(0.7, -0.3, 0.2))
        apply_boundary_conditions(mesh, state,
                                  {tag: BoundaryRule("wall") for tag in BOX_TAGS})
        assert np.all(state.face_u == 0.0)
        assert np.all(state.cell_u[0] == (0.7, -0.3, 0.2))

    def test_moving_wall_and_fixed_temperature(self):
        mesh = box_mesh(1, 1, 1)
        state = FieldState.uniform(1, T=300.0)
        bcs = adiabatic_box_bcs()
        bcs["ymax"] = BoundaryRule("wall", velocity=(2.0, 0.0, 0.0))
        bcs["xmin"] = BoundaryRule("fixed_temperature", temperature=350.0)
        apply_boundary_conditions(mesh, state, bcs)
        assert np.all(state.face_u[0, 3] == (2.0, 0.0, 0.0))
        assert state.face_T[0, 0] == 350.0
        assert np.all(state.face_T[0, 1:] == 300.0)

    def test_symmetry_removes_only_the_normal_component(self):
        mesh = box_mesh(1, 1, 1)
        rng = np.random.default_rng(11)
        state = FieldState.uniform(1)
        state.face_u[:] = rng.normal(size=(1, 6, 3))
        before = state.face_u.copy()
        apply_boundary_conditions(mesh, state,
                                  {t: BoundaryRule("symmetry") for t in BOX_TAGS})
        # axis-aligned faces: the normal slot vanishes, tangentials survive
        for face, axis in zip(range(6), (0, 0, 1, 1, 2, 2)):
            assert state.face_u[0, face, axis] == 0.0
            keep = [k for k in range(3) if k != axis]
            np.testing.assert_allclose(state.face_u[0, face, keep],
                                       before[0, face, keep], rtol=0, atol=1e-15)

    def test_inflow_sets_ports(self):
        mesh = box_mesh(2, 1, 1, lengths=(2.0, 1.0, 1.0))
        state = FieldState.uniform(2)
        bcs = adiabatic_box_bcs()
        bcs["xmin"] = BoundaryRule("inflow", velocity=(1.5, 0.0, 0.0),
                                   temperature=290.0)
        apply_boundary_conditions(mesh, state, bcs)
        assert np.all(state.face_u[0, 0] == (1.5, 0.0, 0.0))
        assert state.face_T[0, 0] == 290.0

    def test_outflow_balances_the_boundary_mass_flux(self):
        mesh = box_mesh(4, 2, 1, lengths=(4.0, 2.0, 1.0))
        rng = np.random.default_rng(5)
        state = FieldState.uniform(mesh.n_cells)
        state.face_u[:] = rng.normal(size=state.face_u.shape)
        bcs = {
            "xmin": BoundaryRule("inflow", velocity=(1.0, 0.2, 0.0)),
            "xmax": BoundaryRule("outflow"),
            "ymin": BoundaryRule("wall"),
            "ymax": BoundaryRule("wall"),
            "zmin": BoundaryRule("symmetry"),
            "zmax": BoundaryRule("symmetry"),
        }
        apply_boundary_conditions(mesh, state, bcs)
        net = np.einsum("bk,bk->", state.face_u[mesh.bcell, mesh.bface],
                        mesh.face_vecs[mesh.bcell, mesh.bface])
        assert abs(net) < 1e-12


class TestProbes:
    def test_needs_exactly_one_anchor(self):
        with pytest.raises(ValueError, match="exactly one"):
            Probe()
        with pytest.raises(ValueError, match="exactly one"):
            Probe(position=(0.0, 0.0, 0.0), cell=3)

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="vorticity"):
            Probe(cell=0, fields=("vorticity",))

    def test_position_snaps_to_nearest_centroid(self):
        mesh = box_mesh(8, 1, 1)
        assert resolve_probe(mesh, Probe(position=(0.99, 0.5, 0.5))) == 7
        assert resolve_probe(mesh, Probe(position=(0.0, 0.0, 0.0))) == 0

    def test_cell_index_is_validated(self):
        mesh = box_mesh(2, 1, 1)
        with pytest.raises(ValueError, match="outside"):
            resolve_probe(mesh, Probe(cell=2))


class TestConfig:
    def test_tau_must_be_positive_finite(self):
        for tau in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tau"):
                SimulationConfig(tau=tau)

    def test_step_count_and_cadence(self):
        with pytest.raises(ValueError, match="n_steps"):
            SimulationConfig(tau=0.1, n_steps=-1)
        with pytest.raises(ValueError, match="n_steps"):
            SimulationConfig(tau=0.1, n_steps=2.5)
        with pytest.raises(ValueError, match="cadence"):
            SimulationConfig(tau=0.1, cadence=0)

    def test_bcs_must_hold_rules(self):
        with pytest.raises(ValueError, match="BoundaryRule"):
            SimulationConfig(tau=0.1, bcs={"xmin": "wall"})

    def test_cfl_thresholds(self):
        with pytest.raises(ValueError, match="cfl"):
            SimulationConfig(tau=0.1, cfl_warn=0.0)
        with pytest.raises(ValueError, match="cfl"):
            SimulationConfig(tau=0.1, cfl_warn=1.5, cfl_error=1.0)


class TestStep:
    @pytest.mark.filterwarnings("ignore:coarsening period")
    def test_uniform_rest_state_is_an_exact_fixed_point(self):
        from hexflow.coarsen import CoarseningConfig
        from hexflow.pressure import PressureSolverConfig
        mesh = box_mesh(3, 2, 1)
        config = SimulationConfig(
            tau=0.05,
            props=MaterialProps(alpha=0.4, eta=0.3),
            coarsening=CoarseningConfig(period=3),
            pressure=PressureSolverConfig(),
            bcs=adiabatic_box_bcs())
        state = FieldState.uniform(mesh.n_cells, T=300.0, p=101.0)
        for k in range(1, 13):
            step(mesh, state, config, k)
        assert np.all(state.cell_T == 300.0)
        assert np.all(state.cell_u == 0.0)
        assert np.all(state.cell_p == 101.0)
        assert np.all(state.face_T == 300.0)
        assert np.all(state.face_u == 0.0)
        assert np.all(state.face_p == 101.0)
        assert state.port_step == 24 and state.node_step == 25

    def test_slab_matches_explicit_diffusion_update(self):
        # adiabatic 1D rod: the full cycle must reproduce the classic
        # forward-in-time, centred-in-space update with mirrored ends
        n = 16
        mesh, config, state = build_scenario("slab", resolution=n)
        x = mesh.centroids[:, 0]
        profile = np.cos(np.pi * x) + 0.3 * np.cos(3 * np.pi * x)
        state.cell_T[:] = profile
        state.face_T[:] = profile[:, None]

        h = 1.0 / n
        r = config.props.alpha * config.tau / h ** 2
        expect = profile.copy()
        n_steps = 50
        for _ in range(n_steps):
            left = np.concatenate(([expect[0]], expect[:-1]))
            right = np.concatenate((expect[1:], [expect[-1]]))
            expect = expect + r * (left - 2.0 * expect + right)

        for k in range(1, n_steps + 1):
            step(mesh, state, config, k)
        np.testing.assert_allclose(state.cell_T, expect, rtol=1e-12, atol=1e-13)

    def test_hard_stability_limit_raises(self):
        mesh, config, state = build_scenario(
            "slab", resolution=16, parameters={"tau": 2.0 / 256.0})
        with pytest.raises(StabilityError, match="hard limit"):
            step(mesh, state, config, 1)

    def test_advisory_limit_warns(self):
        mesh, config, state = build_scenario(
            "slab", resolution=16, parameters={"tau": 0.5 / 256.0})
        with pytest.warns(UserWarning, match="advisory"):
            step(mesh, state, config, 1)


class TestRun:
    def test_zero_steps_emits_initial_snapshot_only(self):
        mesh, config, state = build_scenario("slab", resolution=8)
        calls = []
        run(mesh, state, config,
            writers=(lambda m, s, k, t: calls.append(k),))
        assert calls == [0]

    def test_cadence_emission_pattern(self):
        mesh, config, state = build_scenario("slab", resolution=8)
        config.n_steps = 5
        config.cadence = 2
        calls = []
        run(mesh, state, config,
            writers=(lambda m, s, k, t: calls.append((k, t)),))
        assert [k for k, _ in calls] == [0, 2, 4, 5]
        assert calls[1][1] == pytest.approx(2 * config.tau)

    def test_final_snapshot_without_cadence(self):
        mesh, config, state = build_scenario("slab", resolution=8)
        config.n_steps = 3
        calls = []
        run(mesh, state, config,
            writers=(lambda m, s, k, t: calls.append(k),))
        assert calls == [0, 3]

    def test_sparse_cadence_still_emits_the_end(self):
        mesh, config, state = build_scenario("slab", resolution=8)
        config.n_steps = 3
        config.cadence = 5
        calls = []
        run(mesh, state, config,
            writers=(lambda m, s, k, t: calls.append(k),))
        assert calls == [0, 3]

    def test_probe_traces(self):
        mesh, config, state = build_scenario("slab", resolution=8)
        state.cell_T[:] = mesh.centroids[:, 0]
        state.face_T[:] = state.cell_T[:, None]
        config.n_steps = 4
        config.probes = (Probe(cell=4),
                         Probe(position=(0.99, 0.0, 0.0), fields=("T", "speed")))
        _, records = run(mesh, state, config)
        assert len(records) == 2
        assert all(len(rec) == 4 for rec in records)
        times = [t for t, _ in records[0]]
        np.testing.assert_allclose(times, config.tau * np.arange(1, 5))
        assert set(records[1][0][1]) == {"T", "speed"}
        assert records[1][-1][1]["speed"] == 0.0

    def test_runs_are_bitwise_deterministic(self):
        final = []
        for _ in range(2):
            mesh, config, state = build_scenario("cavity", resolution=8)
            config.n_steps = 5
            run(mesh, state, config)
            final.append(state)
        a, b = final
        for name in ("cell_T", "cell_u", "cell_p", "face_T", "face_u", "face_p"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestGenerators:
    def test_box_dimensions_must_be_positive(self):
        with pytest.raises(ValueError):
            box_mesh(0, 1, 1)

    def test_mask_must_keep_something(self):
        with pytest.raises(ValueError, match="mask"):
            masked_box_mesh(2, 2, 1, keep=lambda i, j, k: False)

    def test_masked_box_tags_the_hole(self):
        mesh = masked_box_mesh(4, 4, 1, keep=lambda i, j, k: (i, j) != (1, 1),
                               hole_tag="obstacle")
        assert mesh.n_cells == 15
        cells, faces = mesh.boundary_group("obstacle")
        assert len(cells) == 4
        # hole faces sit half a cell away from the removed cell's centre
        targets = mesh.face_centroids[cells, faces]
        d = np.linalg.norm(targets - (0.375, 0.375, 0.5), axis=1)
        np.testing.assert_allclose(d, 0.125, atol=1e-12)

    @staticmethod
    def loop_masked_box(nx, ny, nz, lengths, origin, keep, hole_tag="wall"):
        """Per-vertex, per-cell and per-face loop build of a masked box."""
        d = np.asarray(lengths, dtype=float) / (nx, ny, nz)

        def vid(i, j, k):
            return (i * (ny + 1) + j) * (nz + 1) + k

        verts = np.empty(((nx + 1) * (ny + 1) * (nz + 1), 3))
        for i in range(nx + 1):
            for j in range(ny + 1):
                for k in range(nz + 1):
                    verts[vid(i, j, k)] = origin + d * (i, j, k)
        index, cells = {}, []
        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    if keep(i, j, k):
                        index[(i, j, k)] = len(cells)
                        cells.append([vid(i + a, j + b, k + c) for c in (0, 1)
                                      for b in (0, 1) for a in (0, 1)])
        offsets = ((-1, 0, 0), (1, 0, 0), (0, -1, 0), (0, 1, 0),
                   (0, 0, -1), (0, 0, 1))
        boundary = []
        for (i, j, k), c in index.items():
            for f, (oi, oj, ok) in enumerate(offsets):
                n = (i + oi, j + oj, k + ok)
                if not all(0 <= n[a] < (nx, ny, nz)[a] for a in range(3)):
                    boundary.append((c, f, BOX_TAGS[f]))
                elif n not in index:
                    boundary.append((c, f, hole_tag))
        return verts, cells, boundary

    @pytest.mark.parametrize("case", ["box", "step", "cylinder", "holes-3d"])
    def test_masked_box_matches_loop_build(self, case):
        n, lengths, origin = (5, 1, 1), (1.0, 0.2, 0.2), (0.0, 0.0, 0.0)
        keep = lambda i, j, k: True  # noqa: E731
        if case == "step":
            n, lengths = (12, 4, 1), (12.0, 4.0, 1.0)
            keep = lambda i, j, k: not (i < 2 and j < 2)  # noqa: E731
        elif case == "cylinder":
            n, lengths = (48, 16, 1), (48.0, 16.0, 1.0)
            keep = lambda i, j, k: (  # noqa: E731
                (i + 0.5 - 12.0) ** 2 + (j + 0.5 - 8.0) ** 2 >= 1.6 ** 2)
        elif case == "holes-3d":
            n, lengths, origin = (4, 3, 5), (0.3, 1.7, 2.9), (-0.1, 0.2, 5.3)
            keep = lambda i, j, k: (i + 2 * j + k) % 4 != 1  # noqa: E731
        verts, cells, boundary = self.loop_masked_box(
            *n, lengths, origin, keep, hole_tag="hole")
        mesh = masked_box_mesh(*n, lengths=lengths, origin=origin, keep=keep,
                               hole_tag="hole")
        assert np.array_equal(mesh.verts, verts)
        assert np.array_equal(mesh.cells, cells)
        got = [(int(c), int(f), mesh.tags[t])
               for c, f, t in zip(mesh.bcell, mesh.bface, mesh.btag)]
        assert sorted(got) == sorted(boundary)
        assert mesh.tags == tuple(dict.fromkeys(t for *_, t in boundary))

    def test_annulus_counts_and_volume(self):
        mesh = annulus_mesh(4, 12, 1.0, 2.0, thickness=0.3)
        assert mesh.n_cells == 48
        assert (mesh.volumes > 0).all()
        dth = 2 * math.pi / 12
        expect = 0.5 * math.sin(dth) * 12 * (4.0 - 1.0) * 0.3
        assert mesh.volumes.sum() == pytest.approx(expect, rel=1e-12)

    def test_annulus_boundary_groups(self):
        mesh = annulus_mesh(4, 12, 1.0, 2.0)
        assert len(mesh.boundary_group("inner")[0]) == 12
        assert len(mesh.boundary_group("outer")[0]) == 12
        assert len(mesh.boundary_group("zmin")[0]) == 48
        assert sorted(mesh.tags) == ["inner", "outer", "zmax", "zmin"]

    def test_annulus_argument_validation(self):
        with pytest.raises(ValueError):
            annulus_mesh(0, 12, 1.0, 2.0)
        with pytest.raises(ValueError):
            annulus_mesh(4, 12, 2.0, 1.0)


class TestScenarios:
    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("tornado")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="parameter"):
            build_scenario("cavity", parameters={"bogus": 1.0})

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            build_scenario("slab", resolution=1)
        with pytest.raises(ValueError):
            build_scenario("step", resolution=7)

    def test_cavity_layout(self):
        mesh, config, state = build_scenario("cavity")
        assert mesh.n_cells == 256
        assert set(config.bcs) == set(mesh.tags)
        assert config.bcs["ymax"].velocity == (1.0, 0.0, 0.0)
        assert config.pressure is not None
        assert state.cell_T.shape == (256,)

    def test_cavity_spins_up(self):
        mesh, config, state = build_scenario("cavity", resolution=8)
        for k in range(1, 9):
            step(mesh, state, config, k)
        state.assert_finite()
        assert np.abs(state.cell_u[:, 1]).max() > 1e-6

    def test_step_channel_carves_the_corner(self):
        mesh, config, state = build_scenario("step")
        assert mesh.n_cells == 48 * 16 - 64
        assert len(mesh.boundary_group("xmin")[0]) == 8
        assert config.bcs["xmin"].kind == "inflow"
        assert config.bcs["xmax"].kind == "outflow"

    def test_cylinder_has_an_obstacle_and_a_nudge(self):
        mesh, config, state = build_scenario("cylinder", resolution=20)
        assert mesh.n_cells < 60 * 20
        assert "wall" in mesh.tags
        assert np.abs(state.cell_u[:, 1]).max() > 0.0
        assert np.all(state.cell_u[:, 0] == 1.0)

    def test_annulus_scenario_props(self):
        mesh, config, state = build_scenario("annulus", resolution=4)
        assert mesh.n_cells == 4 * 24
        assert config.props.beta < 0.0
        assert config.props.g[1] < 0.0
        assert np.all(state.cell_T == 300.0)
        assert config.bcs["inner"].temperature == 310.0
