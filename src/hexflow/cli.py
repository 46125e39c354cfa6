"""Command-line front end: config files, mesh checks, snapshot output.

Config files are plain ``key = value`` text.  Blank lines and lines
starting with ``#`` are skipped.  A run is based either on a built-in
scenario or on a mesh file:

    scenario = cavity            pick one of the built-in flows
    resolution = 16              scenario resolution knob
    param.<name> = <number|off>  scenario parameter override
    mesh = path/to/grid.mesh     alternative: run a mesh file directly
    initial.T / initial.u / initial.p   uniform start values (mesh runs)

    steps = 200                  cycles to run (default 0)
    cadence = 50                 snapshot every so many steps
    tau = 0.02                   time step override
    cfl.warn = 0.9               advisory stability threshold
    cfl.error = 2.0              hard stability threshold

    material.alpha / eta / rho_inf / beta / T_inf = <number>
    material.gravity = gx gy gz

    pressure.enabled = on|off    default: scenario's choice (on for mesh runs)
    pressure.tolerance = 1e-8    residual bound relative to the face flux scale

    coarsen.period = 10|off
    coarsen.scheme = face-area|uniform
    coarsen.targets = velocity temperature

    output.dir = out
    output.format = csv|vtk-legacy

    bc.<tag> = kind [vx vy vz] [T=value]     boundary rule override
    probe = x,y,z [field ...]                repeatable; or: cell N [field ...]

Keys inside a group override the scenario's settings field by field;
everything else keeps its documented default.  ``coarsen.period = off``
and ``pressure.enabled = off`` disable those stages outright.
"""

import argparse
import csv
import dataclasses
import os
import re
import sys

import numpy as np

from .coarsen import CoarseningConfig
from .errors import ConfigError, HexflowError
from .hexmesh import read_mesh_file
from .pressure import PressureSolverConfig
from .reflection import MaterialProps
from .sim import (BoundaryRule, Probe, SimulationConfig, build_scenario, run)
from .state import FieldState, snapshot

SNAPSHOT_FORMATS = ("csv", "vtk-legacy")

# VTK_HEXAHEDRON wants the bottom quad counterclockwise then the top;
# the package bit layout stores the x-axis fastest
_VTK_ORDER = (0, 1, 3, 2, 4, 5, 7, 6)


@dataclasses.dataclass
class RunConfig(SimulationConfig):
    """SimulationConfig plus the plumbing a command-line run needs."""

    scenario: str = None
    resolution: int = None
    parameters: dict = dataclasses.field(default_factory=dict)
    mesh_path: str = None
    initial_T: float = 0.0
    initial_u: tuple = (0.0, 0.0, 0.0)
    initial_p: float = 0.0
    output_dir: str = "out"
    output_format: str = "csv"

    def __post_init__(self):
        super().__post_init__()
        if (self.scenario is None) == (self.mesh_path is None):
            raise ValueError("need a scenario or a mesh file, not both")
        if self.output_format not in SNAPSHOT_FORMATS:
            raise ValueError(f"output format must be one of {SNAPSHOT_FORMATS}")


# ------------------------------------------------------------- parsing

_LINE_RE = re.compile(r"^([A-Za-z][\w.-]*)\s*=\s*(.+)$")

_MATERIAL_KEYS = {
    "material.alpha": "alpha",
    "material.eta": "eta",
    "material.rho_inf": "rho_inf",
    "material.beta": "beta",
    "material.T_inf": "T_inf",
}


def _read_entries(path):
    """(key -> (value, where)) plus the repeatable probe entries."""
    pairs = {}
    probes = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}:{lineno}"
            m = _LINE_RE.match(line)
            if m is None:
                raise ConfigError(f"{where}: expected 'key = value'")
            key, value = m.group(1), m.group(2).strip()
            if key == "probe":
                probes.append((value, where))
            elif key in pairs:
                raise ConfigError(f"{where}: duplicate key {key!r}")
            else:
                pairs[key] = (value, where)
    return pairs, probes


def _conv(entry, fn, what):
    value, where = entry
    try:
        return fn(value)
    except (ValueError, TypeError):
        raise ConfigError(f"{where}: {what}, got {value!r}") from None


def _floats3(value):
    parts = tuple(float(t) for t in value.replace(",", " ").split())
    if len(parts) != 3:
        raise ValueError(value)
    return parts


def _bool(value):
    low = value.lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ValueError(value)


def _parse_bc(value) -> BoundaryRule:
    tokens = value.replace(",", " ").split()
    kind, rest = tokens[0], tokens[1:]
    temperature = None
    if rest and rest[-1].startswith("T="):
        temperature = float(rest[-1][2:])
        rest = rest[:-1]
    velocity = None
    if rest:
        if len(rest) != 3:
            raise ValueError("a boundary velocity needs exactly 3 components")
        velocity = tuple(float(t) for t in rest)
    return BoundaryRule(kind, velocity=velocity, temperature=temperature)


def _parse_probe(value) -> Probe:
    tokens = value.replace(",", " ").split()
    if tokens and tokens[0] == "cell":
        if len(tokens) < 2:
            raise ValueError("cell probe needs an index")
        anchor = {"cell": int(tokens[1])}
        names = tokens[2:]
    else:
        if len(tokens) < 3:
            raise ValueError("probe needs three coordinates")
        anchor = {"position": tuple(float(t) for t in tokens[:3])}
        names = tokens[3:]
    if names:
        return Probe(fields=tuple(names), **anchor)
    return Probe(**anchor)


def _assemble(pairs, probes, origin) -> RunConfig:
    pairs = dict(pairs)

    def take(key):
        return pairs.pop(key, None)

    ent = take("scenario")
    scenario = ent[0] if ent else None
    ent = take("mesh")
    mesh_path = ent[0] if ent else None
    if scenario and mesh_path:
        raise ConfigError(f"{origin}: give a scenario or a mesh file, not both")
    if not scenario and not mesh_path:
        raise ConfigError(f"{origin}: a scenario or a mesh file is required")

    ent = take("resolution")
    resolution = _conv(ent, int, "expected an integer") if ent else None

    params = {}
    for key in [k for k in pairs if k.startswith("param.")]:
        entry = pairs.pop(key)
        if entry[0].lower() in ("off", "none"):
            params[key[6:]] = None
        else:
            params[key[6:]] = _conv(entry, float, "expected a number")

    base = None
    tags = None
    if scenario:
        try:
            mesh, base, _ = build_scenario(scenario, resolution, params)
        except ValueError as exc:
            raise ConfigError(f"{origin}: {exc}") from None
        tags = set(mesh.tags)

    # material properties: field-by-field override of the base set
    mat = {}
    mat_where = origin
    for key, attr in _MATERIAL_KEYS.items():
        ent = take(key)
        if ent:
            mat[attr] = _conv(ent, float, "expected a number")
            mat_where = ent[1]
    ent = take("material.gravity")
    if ent:
        mat["g"] = _conv(ent, _floats3, "expected three numbers")
        mat_where = ent[1]
    props = base.props if base else MaterialProps()
    if mat:
        try:
            props = dataclasses.replace(props, **mat)
        except ValueError as exc:
            raise ConfigError(f"{mat_where}: {exc}") from None

    # pressure solver group
    ent = take("pressure.enabled")
    enabled = _conv(ent, _bool, "expected on or off") if ent else None
    pressure = base.pressure if base else PressureSolverConfig()
    ent = take("pressure.tolerance")
    if ent:
        tolerance = _conv(ent, float, "bad value for pressure.tolerance")
        try:
            pressure = PressureSolverConfig(tolerance=tolerance)
        except ValueError as exc:
            raise ConfigError(f"{ent[1]}: {exc}") from None
    elif pressure is None and enabled is True:
        pressure = PressureSolverConfig()
    if enabled is False:
        pressure = None

    # coarsening group; period off wins over everything else
    co = {}
    co_where = origin
    ent = take("coarsen.period")
    period_off = False
    if ent:
        if ent[0].lower() in ("off", "none"):
            period_off = True
        else:
            co["period"] = _conv(ent, int, "expected an integer")
            co_where = ent[1]
    ent = take("coarsen.scheme")
    if ent:
        co["scheme"] = ent[0]
        co_where = ent[1]
    ent = take("coarsen.targets")
    if ent:
        co["targets"] = tuple(ent[0].replace(",", " ").split())
        co_where = ent[1]
    coarsening = base.coarsening if base else CoarseningConfig()
    if period_off:
        coarsening = None
    elif co:
        try:
            coarsening = dataclasses.replace(coarsening or CoarseningConfig(),
                                             **co)
        except ValueError as exc:
            raise ConfigError(f"{co_where}: {exc}") from None

    # boundary rules
    bcs = dict(base.bcs) if base else {}
    for key in [k for k in pairs if k.startswith("bc.")]:
        value, where = pairs.pop(key)
        tag = key[3:]
        if tags is not None and tag not in tags:
            raise ConfigError(f"{where}: boundary tag {tag!r} does not exist "
                              f"in scenario {scenario!r}")
        try:
            bcs[tag] = _parse_bc(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None

    probe_objs = []
    for value, where in probes:
        try:
            probe_objs.append(_parse_probe(value))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None

    # initial state values only make sense when we build the state ourselves
    initial = {"T": 0.0, "u": (0.0, 0.0, 0.0), "p": 0.0}
    for key, fn in (("initial.T", float), ("initial.u", _floats3),
                    ("initial.p", float)):
        ent = take(key)
        if ent:
            if scenario:
                raise ConfigError(f"{ent[1]}: {key} applies to mesh-file runs; "
                                  "scenarios define their own initial state")
            initial[key[8:]] = _conv(ent, fn, "bad initial value")

    ent = take("tau")
    if ent:
        tau = _conv(ent, float, "expected a number")
    elif base:
        tau = base.tau
    else:
        raise ConfigError(f"{origin}: tau is required with a mesh file")

    ent = take("steps")
    steps = _conv(ent, int, "expected an integer") if ent else 0
    ent = take("cadence")
    cadence = _conv(ent, int, "expected an integer") if ent else None
    ent = take("cfl.warn")
    cfl_warn = _conv(ent, float, "expected a number") if ent else (
        base.cfl_warn if base else 0.9)
    ent = take("cfl.error")
    cfl_error = _conv(ent, float, "expected a number") if ent else (
        base.cfl_error if base else 2.0)

    ent = take("output.dir")
    output_dir = ent[0] if ent else "out"
    ent = take("output.format")
    if ent:
        fmt = {"csv": "csv", "vtk": "vtk-legacy", "vtk-legacy": "vtk-legacy"}.get(ent[0])
        if fmt is None:
            raise ConfigError(f"{ent[1]}: output format must be csv or vtk-legacy")
    else:
        fmt = "csv"

    if pairs:
        key, (_, where) = next(iter(pairs.items()))
        raise ConfigError(f"{where}: unknown key {key!r}")

    try:
        return RunConfig(
            tau=tau, props=props, q=base.q if base else None,
            coarsening=coarsening, pressure=pressure, bcs=bcs,
            n_steps=steps, cadence=cadence, probes=tuple(probe_objs),
            cfl_warn=cfl_warn, cfl_error=cfl_error,
            scenario=scenario, resolution=resolution, parameters=params,
            mesh_path=mesh_path, initial_T=initial["T"],
            initial_u=initial["u"], initial_p=initial["p"],
            output_dir=output_dir, output_format=fmt)
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from None


def parse_config(path) -> RunConfig:
    """Read and validate a config file.  Errors carry file:line."""
    pairs, probes = _read_entries(path)
    return _assemble(pairs, probes, str(path))


def _format_bc(rule: BoundaryRule) -> str:
    parts = [rule.kind]
    if rule.velocity is not None:
        parts += [repr(float(c)) for c in rule.velocity]
    if rule.temperature is not None:
        parts.append(f"T={float(rule.temperature)!r}")
    return " ".join(parts)


def _format_probe(probe: Probe) -> str:
    if probe.cell is not None:
        head = f"cell {probe.cell}"
    else:
        head = " ".join(repr(float(c)) for c in probe.position)
    return head + " " + " ".join(probe.fields)


def emit_config(config: RunConfig) -> str:
    """Render a config as text that parses back to identical settings."""
    lines = []
    if config.scenario:
        lines.append(f"scenario = {config.scenario}")
        if config.resolution is not None:
            lines.append(f"resolution = {config.resolution}")
    else:
        lines.append(f"mesh = {config.mesh_path}")
    for name in sorted(config.parameters):
        value = config.parameters[name]
        lines.append(f"param.{name} = "
                     + ("off" if value is None else repr(float(value))))
    lines.append(f"steps = {config.n_steps}")
    if config.cadence is not None:
        lines.append(f"cadence = {config.cadence}")
    lines.append(f"tau = {float(config.tau)!r}")
    lines.append(f"cfl.warn = {float(config.cfl_warn)!r}")
    lines.append(f"cfl.error = {float(config.cfl_error)!r}")
    lines.append(f"output.dir = {config.output_dir}")
    lines.append(f"output.format = {config.output_format}")
    p = config.props
    for key, attr in _MATERIAL_KEYS.items():
        lines.append(f"{key} = {float(getattr(p, attr))!r}")
    lines.append("material.gravity = "
                 + " ".join(repr(float(c)) for c in p.g))
    if config.pressure is None:
        lines.append("pressure.enabled = off")
    else:
        lines.append("pressure.enabled = on")
        lines.append(f"pressure.tolerance = {float(config.pressure.tolerance)!r}")
    if config.coarsening is None:
        lines.append("coarsen.period = off")
    else:
        lines.append(f"coarsen.period = {config.coarsening.period}")
        lines.append(f"coarsen.scheme = {config.coarsening.scheme}")
        lines.append("coarsen.targets = " + " ".join(config.coarsening.targets))
    if config.mesh_path:
        lines.append(f"initial.T = {float(config.initial_T)!r}")
        lines.append("initial.u = "
                     + " ".join(repr(float(c)) for c in config.initial_u))
        lines.append(f"initial.p = {float(config.initial_p)!r}")
    for tag in sorted(config.bcs):
        lines.append(f"bc.{tag} = {_format_bc(config.bcs[tag])}")
    for probe in config.probes:
        lines.append(f"probe = {_format_probe(probe)}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- writers

def write_snapshot(state, mesh, path, fmt="csv"):
    """Write the nodal fields of one instant; returns the path written."""
    path = str(path)
    if fmt == "csv":
        _write_csv(state, mesh, path)
    elif fmt in ("vtk", "vtk-legacy"):
        _write_vtk(state, mesh, path)
    else:
        raise ValueError(f"unknown snapshot format {fmt!r}")
    return path


def _write_csv(state, mesh, path):
    fields = snapshot(state)
    speed = np.linalg.norm(fields["u"], axis=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("cx", "cy", "cz", "T", "ux", "uy", "uz", "p", "speed"))
        for c in range(mesh.n_cells):
            row = (*mesh.centroids[c], fields["T"][c], *fields["u"][c],
                   fields["p"][c], speed[c])
            writer.writerow([repr(float(v)) for v in row])


def _scalar_section(fh, name, values):
    fh.write(f"SCALARS {name} double 1\n")
    fh.write("LOOKUP_TABLE default\n")
    for v in values:
        fh.write(f"{float(v)!r}\n")


def _write_vtk(state, mesh, path):
    fields = snapshot(state)
    speed = np.linalg.norm(fields["u"], axis=1)
    with open(path, "w", newline="") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("hexflow snapshot\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.n_vertices} double\n")
        for pt in mesh.verts:
            fh.write(" ".join(repr(float(c)) for c in pt) + "\n")
        fh.write(f"CELLS {mesh.n_cells} {9 * mesh.n_cells}\n")
        for cell in mesh.cells:
            fh.write("8 " + " ".join(str(int(cell[i])) for i in _VTK_ORDER)
                     + "\n")
        fh.write(f"CELL_TYPES {mesh.n_cells}\n")
        for _ in range(mesh.n_cells):
            fh.write("12\n")
        fh.write(f"CELL_DATA {mesh.n_cells}\n")
        _scalar_section(fh, "T", fields["T"])
        fh.write("VECTORS velocity double\n")
        for u in fields["u"]:
            fh.write(" ".join(repr(float(c)) for c in u) + "\n")
        _scalar_section(fh, "p", fields["p"])
        _scalar_section(fh, "speed", speed)


def write_probe_trace(records, path):
    """Tidy per-sample rows: time, probe id, field, value."""
    path = str(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("time", "probe", "field", "value"))
        for pid, rec in enumerate(records):
            for t, values in rec:
                for name, value in values.items():
                    writer.writerow((repr(float(t)), pid, name,
                                     repr(float(value))))
    return path


# -------------------------------------------------------------- entry

def _flag_pairs(args):
    where = "<command line>"
    pairs = {}

    def put(key, value):
        if value is not None:
            pairs[key] = (str(value), where)

    put("scenario", args.scenario)
    put("resolution", args.resolution)
    put("steps", args.steps)
    put("cadence", args.cadence)
    put("tau", args.tau)
    put("mesh", args.mesh)
    put("output.dir", args.output_dir)
    put("output.format", args.format)
    put("coarsen.period", args.coarsen_period)
    probes = [(value, where) for value in (args.probe or [])]
    return pairs, probes


def _settings(args) -> RunConfig:
    if args.config:
        pairs, probes = _read_entries(args.config)
        origin = args.config
    else:
        pairs, probes = {}, []
        origin = "<command line>"
    flag_pairs, flag_probes = _flag_pairs(args)
    pairs.update(flag_pairs)
    probes = list(probes) + flag_probes
    return _assemble(pairs, probes, origin)


def _realize(config: RunConfig):
    if config.scenario:
        mesh, _, state = build_scenario(config.scenario, config.resolution,
                                        config.parameters)
        return mesh, state
    mesh = read_mesh_file(config.mesh_path)
    state = FieldState.uniform(mesh.n_cells, T=config.initial_T,
                               u=config.initial_u, p=config.initial_p)
    return mesh, state


def _cmd_run(args) -> int:
    config = _settings(args)
    mesh, state = _realize(config)
    os.makedirs(config.output_dir, exist_ok=True)
    ext = "vtk" if config.output_format == "vtk-legacy" else "csv"

    def writer(m, s, k, t):
        name = os.path.join(config.output_dir, f"snap_{k:06d}.{ext}")
        write_snapshot(s, m, name, config.output_format)

    _, records = run(mesh, state, config, writers=(writer,))
    if config.probes:
        write_probe_trace(records, os.path.join(config.output_dir, "probes.csv"))
    print(f"ran {config.n_steps} steps on {mesh.n_cells} cells; "
          f"snapshots in {config.output_dir}")
    return 0


def _cmd_validate(args) -> int:
    mesh = read_mesh_file(args.mesh_file)
    print(f"vertices: {mesh.n_vertices}")
    print(f"cells: {mesh.n_cells}")
    print(f"interior faces: {mesh.n_interior_faces}")
    print(f"boundary faces: {mesh.n_boundary_faces}")
    counts = np.bincount(mesh.btag, minlength=len(mesh.tags))
    print("tags: " + " ".join(f"{tag}({counts[i]})"
                              for i, tag in enumerate(mesh.tags)))
    print("mesh OK")
    return 0


def _cmd_emit(args) -> int:
    sys.stdout.write(emit_config(_settings(args)))
    return 0


def _add_run_flags(parser):
    parser.add_argument("--config", help="config file path")
    parser.add_argument("--scenario", help="built-in flow name")
    parser.add_argument("--resolution", type=int)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--cadence", type=int)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--mesh", help="mesh file path")
    parser.add_argument("--output-dir", dest="output_dir")
    parser.add_argument("--format", choices=("csv", "vtk", "vtk-legacy"))
    parser.add_argument("--coarsen-period", dest="coarsen_period",
                        help="integer period, or 'off'")
    parser.add_argument("--probe", action="append",
                        help="x,y,z [field ...] or: cell N [field ...]")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hexflow",
        description="finite-volume flow solver on hexahedral meshes")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario or a mesh file")
    _add_run_flags(p_run)
    p_run.set_defaults(handler=_cmd_run)
    p_val = sub.add_parser("validate-mesh", help="load a mesh file and "
                           "print its counts")
    p_val.add_argument("mesh_file")
    p_val.set_defaults(handler=_cmd_validate)
    p_emit = sub.add_parser("emit-config", help="print the fully resolved "
                            "config for the given flags")
    _add_run_flags(p_emit)
    p_emit.set_defaults(handler=_cmd_emit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (HexflowError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
