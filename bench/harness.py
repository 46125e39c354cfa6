"""Rounds of timed steps and the metrics computed from them.

Imported by run.py once the thread pools are pinned and the checkout's
hexflow is on the path.
"""

import resource
import sys
import time

import numpy as np

import checks
import tracing
import workloads
from checks import CheckFailed
from hexflow import HexflowError, step


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Runner:
    """Rounds of steps from the initial state, with their checks."""

    def __init__(self, workload, checker):
        self.w = workload
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, fn, *args):
        try:
            fn(*args)
        except CheckFailed as exc:
            if len(self.failures) < 10:
                log(f"check failed: {exc}")
            self.failures.append(str(exc))

    def round(self, stepper, rounds):
        """One round; stepper(state, k) runs step k.  Appends the round's
        step times to rounds if every step ran, and returns the state."""
        w = self.w
        state = w.initial.copy()
        self.attempted += w.round_steps
        times = []
        for k in range(1, w.round_steps + 1):
            t = time.perf_counter()
            try:
                stepper(state, k)
            except HexflowError as exc:
                log(f"step {k} failed: {type(exc).__name__}: {exc}")
                self.failed += w.round_steps - k + 1
                return state
            times.append(time.perf_counter() - t)
            self.check(self.checker.after_step, state, k)
        self.check(self.checker.after_round, state, w.round_steps)
        rounds.append(times)
        return state


def timed_loop(seconds, body):
    """Repeat body() while a repeat of the last one fits in the budget."""
    start = time.perf_counter()
    count = 0
    while True:
        t = time.perf_counter()
        body()
        count += 1
        now = time.perf_counter()
        if (now - start) + (now - t) > seconds:
            return count


def step_ms(rounds):
    """Typical wall time of each step of a round, in ms.

    Every round repeats the same steps from the same state, so step k
    does the same work in each; the median over rounds of step k's time
    drops a burst of load from the shared host that hits one round.
    """
    return np.median(np.asarray(rounds), axis=0) * 1e3


def percentiles_ms(rounds):
    ms = step_ms(rounds)
    return float(np.percentile(ms, 50)), float(np.percentile(ms, 90))


def untraced(args, out, process_age):
    w = workloads.build(args.workload, args.seed)
    setup_s = process_age()
    runner = Runner(w, checks.StepChecks(w))
    rounds = []

    def stepper(state, k):
        step(w.mesh, state, w.config, k)

    timed_loop(args.seconds, lambda: runner.round(stepper, rounds))
    ms = step_ms(rounds)
    p50, p90 = percentiles_ms(rounds)
    beyond = int(np.count_nonzero(ms > p90))
    metrics = {
        "setup_s": (setup_s, "s"),
        "cell_steps_per_s": (w.mesh.n_cells * len(ms) / (ms.sum() / 1e3),
                             "cell-steps/s"),
        "step_ms_p50": (p50, "ms"),
        "step_ms_p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    out["info"] = {"cells": w.mesh.n_cells, "rounds": len(rounds),
                   "round_steps": w.round_steps,
                   "samples": len(rounds) * w.round_steps,
                   "beyond_p90": beyond, "checks": runner.checker.worst,
                   "reference": _printable(w.reference)}
    return runner, metrics


def traced(args, out):
    tracer = tracing.Tracer()
    with tracing.traced_mesh_build(tracer), tracer.span("sim.generator"):
        w = workloads.build(args.workload, args.seed)
    runner = Runner(w, checks.StepChecks(w))
    plain_rounds, traced_rounds, infos = [], [], []

    def plain(state, k):
        step(w.mesh, state, w.config, k)

    def replay(state, k):
        info = tracing.traced_step(tracer, w.mesh, state, w.config, k)
        info["k"] = k
        infos.append(info)

    def pair():
        a = runner.round(plain, plain_rounds)
        b = runner.round(replay, traced_rounds)
        runner.check(checks.states_identical, a, b)

    rounds = timed_loop(args.seconds, pair)

    names = [s[0] for s in tracer.spans]
    own = tracer.self_times()
    dur = tracer.durations()

    def total(name, values=own):
        return float(sum(v for n, v in zip(names, values) if n == name))

    n_steps = len(infos)

    def per_step(name):
        return total(name) * 1e3 / n_steps

    sweeps = sum(i["sweeps"] for i in infos)
    iterate_ms = total("pressure.iterate") * 1e3
    residuals = [i["residual_rel"] for i in infos if i["residual_rel"] is not None]
    events = [i for i in infos if i["coarsened"]]
    event_ms = [dur[i["coarsen_span"]] * 1e3 for i in events]
    removed = [(i["ke_before"] - i["ke_after"]) / i["ke_before"]
               for i in events if i["ke_before"] > 0.0]
    trace_p50, _ = percentiles_ms(traced_rounds)
    plain_p50, _ = percentiles_ms(plain_rounds)
    metrics = {
        "pressure.iterate_ms_per_step": (iterate_ms / n_steps, "ms"),
        "pressure.sweeps_total": (sweeps / rounds, "count"),
        "pressure.sweeps_first_step": (
            float(np.mean([i["sweeps"] for i in infos if i["k"] == 1])),
            "count"),
        "pressure.ms_per_sweep": (iterate_ms / (sweeps or n_steps), "ms"),
        "pressure.residual_rel_max": (max(residuals, default=0.0), "ratio"),
        "pressure.project_ms_per_step": (per_step("pressure.project"), "ms"),
        "connection.ms_per_step": (per_step("connection.sweep"), "ms"),
        "sim.boundary_ms_per_step": (per_step("sim.boundary"), "ms"),
        "reflection.ms_per_step": (per_step("reflection.sweep"), "ms"),
        "reflection.cfl_ms_per_step": (per_step("reflection.cfl"), "ms"),
        "state.finite_check_ms_per_step": (per_step("state.finite_check"), "ms"),
        "hexmesh.build_mesh_s": (total("hexmesh.build_mesh", dur), "s"),
        "sim.generator_s": (total("sim.generator"), "s"),
        "coarsen.events": (len(events) / rounds, "count"),
        "coarsen.ms_per_event": (float(np.mean(event_ms)) if event_ms else 0.0,
                                 "ms"),
        "coarsen.ke_removed_frac": (float(np.mean(removed)) if removed else 0.0,
                                    "ratio"),
        "trace.step_ms_p50": (trace_p50, "ms"),
        "trace.overhead_frac": ((trace_p50 - plain_p50) / plain_p50, "ratio"),
    }

    def pressure_share(first):
        chosen = [i for i in infos if i["k"] >= first]
        spent = sum(dur[j] for i in chosen for j in i["pressure_spans"])
        return spent / sum(dur[i["span"]] for i in chosen)

    out["info"] = {
        "cells": w.mesh.n_cells, "pairs": rounds, "round_steps": w.round_steps,
        "traced_steps": n_steps, "untraced_step_ms_p50": plain_p50,
        "pressure_share": pressure_share(1),
        "pressure_share_from_step_11": pressure_share(11),
        "checks": runner.checker.worst,
    }
    out["spans"] = tracer.dump()
    return runner, metrics


def _printable(reference):
    return {k: v for k, v in reference.items() if not hasattr(v, "shape")}
