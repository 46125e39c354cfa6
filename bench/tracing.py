"""Spans around the solver's layers, recorded from the benchmark side.

``traced_step`` replays ``hexflow.step`` one layer call at a time, each
inside a span, so the traced run reports where a step's time goes
without any instrumentation inside the package.  It must make the same
calls in the same order as ``hexflow.sim.step``; the traced run checks
that by comparing its final state with an untraced run bit for bit.

Spans are kept in memory as [name, start, end, parent] and written out
when the run ends.  A span's self time is its duration minus that of its
direct children (the boundary hook inside the connection sweep is one).
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager

import numpy as np

import hexflow.sim as sim
from hexflow import (
    StabilityError,
    apply_boundary_conditions,
    cfl_number,
    coarsen_sweep,
    connection_sweep,
    pressure_iterate,
    project_port_velocities,
    reflection_sweep,
)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._open[-1] if self._open else -1])
        self._open.append(idx)
        try:
            yield idx
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def durations(self) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.spans])

    def self_times(self) -> np.ndarray:
        """Duration of each span minus the durations of its children."""
        own = self.durations()
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def dump(self) -> list:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[name, start - t0, end - t0, parent]
                for name, start, end, parent in self.spans]


@contextmanager
def traced_mesh_build(tracer):
    """Time the mesh generators' calls to build_mesh as a child span."""
    build = sim.build_mesh

    def wrapped(*args, **kwargs):
        with tracer.span("hexmesh.build_mesh"):
            return build(*args, **kwargs)

    sim.build_mesh = wrapped
    try:
        yield
    finally:
        sim.build_mesh = build


def kinetic_energy(mesh, state) -> float:
    """Nodal kinetic energy per unit density, sum of V |u|^2 / 2."""
    return 0.5 * float(np.dot(mesh.volumes, (state.cell_u ** 2).sum(axis=1)))


def traced_step(tracer, mesh, state, config, step_index) -> dict:
    """``hexflow.step`` with one span per layer call.

    Returns what the step's layers reported: pressure sweeps, the final
    pressure residual over the flux scale, and the nodal kinetic energy
    before and after a coarsening event; plus the span indices of the
    step, its pressure calls and its coarsening call.
    """
    info = {"sweeps": 0, "residual_rel": None, "coarsened": False}
    with tracer.span("sim.step") as root:
        hook = None
        if config.bcs:
            def hook(m, s):
                with tracer.span("sim.boundary"):
                    apply_boundary_conditions(m, s, config.bcs)
        with tracer.span("connection.sweep"):
            connection_sweep(mesh, state, bc_hook=hook)
        # the pressure spans enclose the stage's on/off test, so a run
        # with the stage off still times what the stage costs it
        pressure, rho = config.pressure, config.props.rho_inf
        if pressure is not None:
            scale = rho * np.abs(np.einsum(
                "cfk,cfk->cf", state.face_u, mesh.face_vecs)).max()
        with tracer.span("pressure.iterate") as solve:
            if pressure is not None:
                sweeps, history = pressure_iterate(
                    mesh, state, config.tau, rho, pressure)
        with tracer.span("pressure.project") as project:
            if pressure is not None:
                project_port_velocities(mesh, state, config.tau, rho)
        info["pressure_spans"] = (solve, project)
        if pressure is not None:
            info["sweeps"] = sweeps
            if scale > 0.0:
                info["residual_rel"] = history[-1] / scale
        if config.coarsening is not None:
            due = step_index % config.coarsening.period == 0
            if due:
                info["ke_before"] = kinetic_energy(mesh, state)
            with tracer.span("coarsen.sweep") as info["coarsen_span"]:
                info["coarsened"] = coarsen_sweep(
                    mesh, state, config.coarsening, step_index)
            if due:
                info["ke_after"] = kinetic_energy(mesh, state)
        with tracer.span("reflection.sweep"):
            reflection_sweep(mesh, state, config.props, config.tau,
                             source=config.q)
        with tracer.span("state.finite_check"):
            state.assert_finite()
        with tracer.span("reflection.cfl"):
            c = cfl_number(mesh, state, config.props, config.tau)
        if c > config.cfl_error:
            raise StabilityError(
                f"step diagnostic {c:.3f} exceeded the hard limit "
                f"{config.cfl_error} at step {step_index}")
        if c > config.cfl_warn:
            warnings.warn("step diagnostic exceeded the advisory limit; "
                          "the run may be unstable", stacklevel=2)
    info["span"] = root
    return info
