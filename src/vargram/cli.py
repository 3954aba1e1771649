"""Command-line front end over the analysis modules.

Eight subcommands mirror the library layout: simulate, energy, gramian,
residual, rank, pd-scan, verify, and example (a one-shot bundle around
the built-in cubic example).  Each parser is built by _command, and
command <name> runs _cmd_<name>.  All numeric output is written as CSV
with '.' decimals, ',' separators, and 17 significant digits, or as JSON
by verify.json_text (sorted keys), so identical invocations produce
byte-identical files; a JSON result at one point is printed and, with
--out, written as the same bytes (_emit_json).
Randomized sample points come from a seeded splitmix64 stream.
verify solves each energy flow segment from one start once per command
(integrate.shared_flows): each check re-seeds the sampler, so thm5 draws
thm4's samples and shares their flows; nothing is kept once the command
returns.  example draws all checks from one stream, so no check repeats
another's flows and it opens no such scope.

Exit codes: 0 on success, 1 when an analysis fails (divergence, blow-up,
bad field), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import multiprocessing
import os
import re
import sys
from typing import Sequence

import numpy as np

from . import energy as energy_mod
from . import gramian as gramian_mod
from . import rank as rank_mod
from . import verify as verify_mod
from .expr import ExprError, parse_system_spec
from .integrate import IntegrationError, integrate_ivp, shared_flows
from .sampling import SplitMix64
from .systems import (SystemModel, closed_loop_prolonged, dual_closed_loop,
                      dual_open, from_spec, prolong, registry, registry_names,
                      two_copy)

DEFAULT_SEED = 1234567891


class CliError(RuntimeError):
    """Analysis-level failure: reported on stderr, exit code 1."""


# ---------------------------------------------------------------- parsing

def _parse_floats(text: str, label: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise CliError(f"{label}: expected comma-separated numbers, got {text!r}")


def _parse_point(text: str, flag: str, system: SystemModel) -> list[float]:
    """A point or vector given as --flag, checked to have the system's n
    components."""
    values = _parse_floats(text, f"--{flag}")
    if len(values) != system.n:
        raise CliError(f"--{flag} needs {system.n} components for system "
                       f"{system.name!r}, got {len(values)}")
    return values


def _parse_region(text: str) -> list[tuple[float, float]]:
    vals = _parse_floats(text, "--region")
    if len(vals) % 2 != 0 or not vals:
        raise CliError("--region needs an even count: lo1,hi1,lo2,hi2,...")
    region = []
    for lo, hi in zip(vals[0::2], vals[1::2]):
        if not hi > lo:
            raise CliError(f"--region interval [{lo:g}, {hi:g}] is empty")
        region.append((lo, hi))
    return region


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        shape = tuple(int(tok) for tok in text.lower().split("x"))
    except ValueError:
        raise CliError(f"--grid: expected counts like 21x21, got {text!r}")
    if not shape or any(g < 1 for g in shape):
        raise CliError("--grid counts must be positive")
    return shape


def _checked_box(system: SystemModel, region, shape):
    """(region, shape), each checked to have the system's n dims; shape
    None is a grid not given."""
    if len(region) != system.n:
        raise CliError(f"--region covers {len(region)} dims, system has {system.n}")
    if shape is not None and len(shape) != system.n:
        raise CliError(f"--grid has {len(shape)} dims, system has {system.n}")
    return region, shape


def _grid_box(args, system: SystemModel, command: str):
    """The checked (region, shape) of --region and --grid, the grid branch
    of a command that takes either --x or both."""
    if args.region is None or args.grid is None:
        raise CliError(f"{command} needs either --x or both --region and --grid")
    return _checked_box(system, _parse_region(args.region), _parse_grid(args.grid))


def _system_source(args) -> tuple[str, str]:
    if getattr(args, "spec", None):
        return ("file", os.path.abspath(args.spec))
    return ("registry", args.system)


def _system_from_source(source: tuple[str, str]) -> SystemModel:
    """Build the system a --spec file or a --system name names; the one
    loader of every subcommand and of the pd-scan workers."""
    kind, value = source
    if kind == "file":
        try:
            with open(value, "rb") as fh:
                return from_spec(parse_system_spec(fh.read()))
        except FileNotFoundError:
            raise CliError(f"spec file not found: {value}")
        except ExprError as exc:
            raise CliError(f"bad system spec: {exc}")
    try:
        return registry(value)
    except ValueError as exc:
        raise CliError(str(exc))


def _load_system(args) -> SystemModel:
    return _system_from_source(_system_source(args))


def _build_field(system: SystemModel, field_name: str, **options):
    """Resolve a --field name to a pointwise matrix field; options (tol,
    fixed_horizon) go to an empirical Gramian field."""
    if field_name.startswith("cert-"):
        key = field_name[len("cert-"):]
        if key not in system.certificates:
            known = ", ".join(sorted(system.certificates)) or "none"
            raise CliError(f"system {system.name!r} has no certificate {key!r} "
                           f"(available: {known})")
        return system.certificates[key]
    if field_name == "empirical-Q":
        return gramian_mod.EmpiricalGramianField(system, "obs", **options)
    if field_name == "empirical-R":
        return gramian_mod.EmpiricalGramianField(system, "ctrl", **options)
    raise CliError(f"unknown field {field_name!r}: use cert-<name>, "
                   f"empirical-Q, or empirical-R")


# ---------------------------------------------------------------- output

def _out_dir(args) -> str:
    """The --out directory, "." without one; _write_text makes it, so a
    command that fails before it writes leaves none."""
    return getattr(args, "out", None) or "."


def _write_text(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _emit_json(args, filename: str, payload: dict) -> int:
    """Write payload as JSON to stdout and, with --out, to filename there;
    exit code 0."""
    text = verify_mod.json_text(payload)
    sys.stdout.write(text)
    if args.out:
        _write_text(os.path.join(_out_dir(args), filename), text)
    return 0


def _csv_text(header: Sequence[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell.replace(",", ";"))
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(f"{float(cell):.17g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _grid_csv(points: np.ndarray, names: Sequence[str], rows) -> str:
    """One CSV line per grid point: its coordinates x1..xn, then its row."""
    header = [f"x{i + 1}" for i in range(points.shape[1])] + list(names)
    return _csv_text(header, [[*point, *row] for point, row in zip(points, rows)])


def emit_plot_script(csv_path: str, kind: str, grid_shape: Sequence[int] | None = None,
                     value_column: int = 4, title: str = "") -> str:
    """Write a self-contained gnuplot script next to an existing CSV.

    kind 'timeseries' plots every column against the first; 'heatmap'
    renders one value column over the first two coordinates (grid_shape
    sets the dgrid3d resolution).  Returns the script path.
    """
    if not os.path.exists(csv_path):
        raise CliError(f"csv not found: {csv_path}")
    if kind not in ("timeseries", "heatmap"):
        raise ValueError(f"unknown plot kind {kind!r}: use timeseries or heatmap")
    base = os.path.basename(csv_path)
    name = title or os.path.splitext(base)[0]
    if kind == "timeseries":
        text = (
            "set datafile separator ','\n"
            f"set title '{name}'\n"
            "set xlabel 't'\n"
            "set key outside\n"
            "set grid\n"
            f"plot for [i=2:*] '{base}' using 1:i with lines title columnheader(i)\n"
        )
    else:
        g1, g2 = (int(grid_shape[0]), int(grid_shape[1])) if grid_shape else (21, 21)
        text = (
            "set datafile separator ','\n"
            f"set title '{name}'\n"
            "set view map\n"
            f"set dgrid3d {g2},{g1}\n"
            "set pm3d at b\n"
            f"splot '{base}' using 1:2:{int(value_column)} with pm3d notitle\n"
        )
    return _write_text(os.path.splitext(csv_path)[0] + ".gp", text)


# ---------------------------------------------------------------- simulate

# mode -> the vector flag giving its second initial vector, if any
_MODES = {"open-loop": None, "closed-loop": None, "prolonged": "dx0",
          "closed-loop-prolonged": "dx0", "two-copy": "x0p",
          "dual-closed-loop": "dp0", "dual-open": "dp0"}


def _partner(args, flag: str | None, what: str, system: SystemModel) -> list[float] | None:
    """The vector flag `what` uses, parsed as a point of system, or None if
    it is not given; CliError if any other vector flag is given."""
    for other in ("dx0", "dp0", "x0p"):
        if other != flag and getattr(args, other, None) is not None:
            raise CliError(f"{what} does not use --{other}")
    value = getattr(args, flag) if flag else None
    return None if value is None else _parse_point(value, flag, system)


def _simulate_table(system: SystemModel, mode: str, x0, second, tf: float,
                    samples: int):
    """Run one simulation mode and tabulate states plus derived outputs at
    samples evenly spaced times on [0, tf]."""
    n = system.n
    times = np.linspace(0.0, tf, samples)
    header = ["t"] + [f"x{i + 1}" for i in range(n)]

    if mode in ("open-loop", "closed-loop"):
        rhs = system.closed_loop_field() if mode == "closed-loop" else system.f
        z0, outputs = np.asarray(x0, dtype=float), {}
    else:
        builders = {
            "prolonged": (prolong, "dx"),
            "closed-loop-prolonged": (closed_loop_prolonged, "dx"),
            "two-copy": (two_copy, "x2"),
            "dual-closed-loop": (dual_closed_loop, "dp"),
            "dual-open": (dual_open, "dp"),
        }
        build, block = builders[mode]
        aug = build(system)
        if second is None:
            raise CliError(f"mode {mode} needs --{_MODES[mode]}")
        rhs, z0, outputs = aug.rhs, aug.pack(**{"x": x0, block: second}), aug.outputs
        header += [f"{block}{i + 1}" for i in range(n)]
    states = integrate_ivp(rhs, z0, (0.0, tf)).at(times)

    out_names = sorted(outputs)
    values = [outputs[name](states) for name in out_names]  # each (samples, p)
    for name, value in zip(out_names, values):
        header += [f"{name}{i + 1}" for i in range(value.shape[1])]
    return header, np.concatenate([times[:, None], states, *values], axis=1).tolist()


def _cmd_simulate(args) -> int:
    if not (math.isfinite(args.tf) and args.tf > 0):
        raise CliError(f"--tf must be a finite number > 0, got {args.tf:g}")
    if args.samples < 2:
        raise CliError(f"--samples must be at least 2, got {args.samples}")
    system = _load_system(args)
    x0 = _parse_point(args.x0, "x0", system)
    second = _partner(args, _MODES[args.mode], f"mode {args.mode}", system)
    header, rows = _simulate_table(system, args.mode, x0, second,
                                   args.tf, args.samples)
    out = _out_dir(args)
    csv_path = os.path.join(out, "trajectory.csv")
    _write_text(csv_path, _csv_text(header, rows))
    print(csv_path)
    if args.plot:
        print(emit_plot_script(csv_path, "timeseries"))
    return 0


# ---------------------------------------------------------------- energy

_ENERGY_KINDS = ("diff-obs", "diff-ctrl", "incr-obs", "incr-ctrl")


def _cmd_energy(args) -> int:
    system = _load_system(args)
    x0 = _parse_point(args.x0, "x0", system)
    flag = "dx0" if args.kind.startswith("diff") else "x0p"
    partner = _partner(args, flag, f"kind {args.kind}", system)
    if partner is None:
        raise CliError(f"kind {args.kind} needs --{flag}")
    fn = {
        "diff-obs": energy_mod.diff_observability,
        "diff-ctrl": energy_mod.diff_controllability_fb,
        "incr-obs": energy_mod.incr_observability,
        "incr-ctrl": energy_mod.incr_controllability_fb,
    }[args.kind]
    ev = fn(system, x0, partner, tol=args.tol)
    return _emit_json(args, "energy.json", {
        "kind": args.kind, "system": system.name, "x0": x0, "partner": partner,
        "value": ev.value, "error_estimate": ev.error_estimate, "horizon": ev.horizon,
        "direction": ev.direction})


# ---------------------------------------------------------------- gramian

def _cmd_gramian(args) -> int:
    system = _load_system(args)
    x = _parse_point(args.x, "x", system)
    fn = (gramian_mod.empirical_obs_gramian if args.kind == "obs"
          else gramian_mod.empirical_ctrl_gramian)
    res = fn(system, x, tol=args.tol)
    return _emit_json(args, "gramian.json", {
        "kind": args.kind, "system": system.name, "x": x,
        "matrix": [[float(v) for v in row] for row in res.matrix],
        "truncation_error": res.truncation_error, "horizon": res.horizon})


# ---------------------------------------------------------------- residual

def _residual_csv(system: SystemModel, equations, points) -> str:
    """Residual norms at each grid point of each (equation, field) pair."""
    rows = []
    for point in points:
        for equation, field_obj in equations:
            for rep in gramian_mod.EQUATIONS[equation](system, field_obj, point):
                rows.append([*point, rep.equation_id, rep.frobenius_norm])
    header = [f"x{i + 1}" for i in range(points.shape[1])] \
        + ["equation_id", "frobenius_norm"]
    return _csv_text(header, rows)


def _cmd_residual(args) -> int:
    system = _load_system(args)
    field_obj = _build_field(system, args.field, fixed_horizon=40.0)
    if args.x is not None:
        x = _parse_point(args.x, "x", system)
        reports = gramian_mod.EQUATIONS[args.equation](system, field_obj, x)
        return _emit_json(args, "residual.json", {
            "system": system.name, "field": args.field, "x": x,
            "residuals": [{"equation_id": r.equation_id, "frobenius_norm": r.frobenius_norm,
                           "matrix": [[float(v) for v in row] for row in r.residual]}
                          for r in reports]})
    points = gramian_mod.grid_points(*_grid_box(args, system, "residual"))
    csv_path = os.path.join(_out_dir(args), "residuals.csv")
    _write_text(csv_path, _residual_csv(system, [(args.equation, field_obj)], points))
    print(csv_path)
    return 0


# ---------------------------------------------------------------- rank

_MATRICES = {"ctrl": rank_mod.ctrl_bracket_matrix,
             "access": rank_mod.strong_access_matrix,
             "obs": rank_mod.obs_codistribution}


def _rank_grid(system: SystemModel, builder, region, shape, depth, csv_path: str):
    """Sweep one rank builder over a grid, write its CSV, return the results."""
    points = gramian_mod.grid_points(region, shape)
    results = rank_mod.rank_sweep(builder, system, points, depth=depth)
    rows = []
    for res in results:
        sigma_max, sigma_min = res.sigma_extremes()
        rows.append((res.rank, sigma_min, sigma_max))
    _write_text(csv_path, _grid_csv(points, ["rank", "sigma_min", "sigma_max"], rows))
    return results


def _cmd_rank(args) -> int:
    system = _load_system(args)
    builder = _MATRICES[args.matrix]
    if args.x is not None:
        x = _parse_point(args.x, "x", system)
        res = builder(system, x, depth=args.depth)
        return _emit_json(args, "rank.json", {
            "system": system.name, "matrix": args.matrix, "x": x, "depth": res.depth,
            "rank": res.rank, "note": "rank is at least this at the tested depth",
            "singular_values": [float(s) for s in res.singular_values],
            "columns_or_rows": [[float(v) for v in row] for row in res.matrix]})
    region, shape = _grid_box(args, system, "rank")
    csv_path = os.path.join(_out_dir(args), "rank.csv")
    _rank_grid(system, builder, region, shape, args.depth, csv_path)
    print(csv_path)
    return 0


# ---------------------------------------------------------------- pd-scan

_POOL_FIELD = None  # a pd-scan worker's (setup, field), built at its first point


def _scan_eval(task):
    """scan_value at a point of a pd-scan task (source, field_name, tol,
    point), on the field of that setup, which a worker builds at its first
    point and keeps: a set-up error is raised by the task, and so reaches
    the parent through pool.map."""
    global _POOL_FIELD
    *setup, point = task
    if _POOL_FIELD is None or _POOL_FIELD[0] != setup:
        source, field_name, tol = setup
        _POOL_FIELD = setup, _build_field(_system_from_source(source), field_name, tol=tol,
                                          fixed_horizon=None)
    return gramian_mod.scan_value(_POOL_FIELD[1], point)


def _scan_grid(system: SystemModel, source, field_name: str, tol: float, jobs: int,
               region, shape, csv_path: str) -> gramian_mod.PDScan:
    """Scan a field over a grid, across up to jobs worker processes (no
    more than there are points), and write scan.csv-style rows to csv_path.

    Workers rebuild the system from its source name, and the field, at
    their first point (_scan_eval), so results are independent of how
    the grid is sharded; assembly order follows the grid either way.
    One worker is no worker: the scan then runs here, on system.
    """
    points = gramian_mod.grid_points(region, shape)
    workers = min(jobs, len(points))
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            values = pool.map(_scan_eval, [(source, field_name, tol, tuple(p))
                                           for p in points])
    else:
        field_obj = _build_field(system, field_name, tol=tol, fixed_horizon=None)
        values = [gramian_mod.scan_value(field_obj, tuple(p)) for p in points]
    scan = gramian_mod.scan_from_values(region, shape, points, values)
    rows = zip(scan.min_eigs, scan.dets, scan.statuses)
    _write_text(csv_path, _grid_csv(points, ["min_eig", "det", "status"], rows))
    return scan


def _cmd_pd_scan(args) -> int:
    source = _system_source(args)
    system = _system_from_source(source)
    region, shape = _checked_box(system, _parse_region(args.region), _parse_grid(args.grid))
    if args.plot and len(shape) != 2:
        raise CliError(f"--plot draws a heatmap over two dims, --grid has {len(shape)}")
    _build_field(system, args.field)  # a bad --field fails before a pool starts
    csv_path = os.path.join(_out_dir(args), "scan.csv")
    scan = _scan_grid(system, source, args.field, args.tol, args.jobs, region, shape,
                      csv_path)
    print(csv_path)
    print(f"positive definite everywhere: {scan.all_positive_definite()}")
    if args.plot:
        print(emit_plot_script(csv_path, "heatmap", grid_shape=shape,
                               value_column=len(region) + 2, title="det"))
    return 0


# ---------------------------------------------------------------- verify

_CHECKS = ("thm1", "thm2", "thm3", "thm4", "thm5", "cor7")
_THEOREMS = _CHECKS + ("all",)


def _draw_pairs(rng: SplitMix64, region, count: int):
    return [(rng.point_in_box(region), rng.point_in_box(region))
            for _ in range(count)]


def _draw_tangent_samples(rng: SplitMix64, region, count: int):
    unit = [(-1.0, 1.0)] * len(region)
    return [(rng.point_in_box(region), rng.point_in_box(unit))
            for _ in range(count)]


_DEFAULT_FIELDS = {"thm5": "empirical-Q", "cor7": "cert-P"}


def _run_theorem(system: SystemModel, theorem: str, rng: SplitMix64, region, counts,
                 grid, field_name: str | None, tol: float) -> verify_mod.Report:
    """Draw one theorem's samples from region with rng, and check them.

    counts holds how many pairs (thm1, thm3), tangent samples (thm2, thm4)
    and harness samples (thm5, cor7) to draw.  grid is the (region, shape)
    of the thm5/cor7 rank and definiteness scans, and field_name their
    matrix field (None picks the theorem's default; cor7's, cert-P, may be
    missing, which leaves cor7 inconclusive).
    """
    pairs, samples, harness = counts
    check = getattr(verify_mod, f"check_{theorem}")
    if theorem in ("thm1", "thm3"):
        return check(system, _draw_pairs(rng, region, pairs), tol=tol)
    if theorem in ("thm2", "thm4"):
        return check(system, _draw_tangent_samples(rng, region, samples), tol=tol)
    if field_name is None and theorem == "cor7" and "P" not in system.certificates:
        field_obj = None  # no default field: check_cor7 reports it inconclusive
    else:
        field_obj = _build_field(system, field_name or _DEFAULT_FIELDS[theorem], tol=tol,
                                 fixed_horizon=40.0)
    grid_region, grid_shape = grid
    drawn = _draw_tangent_samples(rng, region, harness)
    if theorem == "thm5":
        return check(system, field_obj, grid_region, drawn, grid_shape=grid_shape, tol=tol)
    return check(system, field_obj, grid_region, drawn, grid_shape=grid_shape)


def _cmd_verify(args) -> int:
    system = _load_system(args)
    region = _parse_region(args.region) if args.region \
        else system.meta.get("default_region")
    if region is None:
        raise CliError("--region is required (system declares no default)")
    grid = _checked_box(system, region, _parse_grid(args.grid) if args.grid else None)
    if args.pairs < 1 or args.samples < 1:
        raise CliError("--pairs and --samples must be at least 1")
    names = list(_CHECKS) if args.theorem == "all" else [args.theorem]
    if args.field is not None and not _DEFAULT_FIELDS.keys().isdisjoint(names):
        _build_field(system, args.field)  # a bad --field fails before any check
    out = _out_dir(args)
    counts = (args.pairs, args.samples, min(args.samples, 5))
    verdicts = {}
    with shared_flows():
        for name in names:
            report = _run_theorem(system, name, SplitMix64(args.seed), region, counts,
                                  grid, args.field, args.tol)
            path = os.path.join(out, f"report_{name}.json" if len(names) > 1
                                else "report.json")
            _write_text(path, report.to_json())
            verdicts[name] = report.verdict
            print(f"{name}: {report.verdict} -> {path}")
    if len(names) > 1:
        _write_text(os.path.join(out, "summary.json"), verify_mod.json_text(
            {"system": system.name, "seed": args.seed, "verdicts": verdicts}))
    if args.strict and any(v != "pass" for v in verdicts.values()):
        return 1
    return 0


# ---------------------------------------------------------------- example

def _cmd_example(args) -> int:
    args_system = "paper_sec5"
    system = registry(args_system)
    out = _out_dir(args)
    quick = args.quick
    grid = (5, 5) if quick else (21, 21)
    pair_count = 3 if quick else 10
    sample_count = 3 if quick else 10
    rng = SplitMix64(args.seed)
    files = []

    def record(path):
        files.append(os.path.basename(path))
        return path

    # Decaying dual and variational responses from (0.1, 0.1).
    for tag, mode, vec in (("fig1_dual_response", "dual-closed-loop", "dp"),
                           ("fig2_variational_response", "prolonged", "dx")):
        header, rows = _simulate_table(system, mode, [0.1, 0.1], [1.0, 0.0],
                                       10.0, 501)
        csv_path = os.path.join(out, f"{tag}.csv")
        record(_write_text(csv_path, _csv_text(header, rows)))
        record(emit_plot_script(csv_path, "timeseries"))

    # Gramian positivity scan over the example region.
    region = system.meta["default_region"]
    scan_path = record(os.path.join(out, "fig3_gramian_scan.csv"))
    scan = _scan_grid(system, ("registry", args_system), "empirical-Q", args.tol,
                      args.jobs, region, grid, scan_path)
    record(emit_plot_script(scan_path, "heatmap", grid_shape=grid,
                            value_column=4, title="det"))

    # Bracket and codistribution rank sweeps.
    rank_region = [(-1.0, 1.0), (-1.0, 1.0)]
    ctrl_path = record(os.path.join(out, "bracket_rank.csv"))
    ctrl = _rank_grid(system, rank_mod.ctrl_bracket_matrix, rank_region, grid, 2,
                      ctrl_path)
    obs_path = record(os.path.join(out, "obs_rank.csv"))
    _rank_grid(system, rank_mod.obs_codistribution, rank_region, grid, 1, obs_path)

    # Certificate residuals on a 5x5 patch.
    res_pts = gramian_mod.grid_points([(-0.5, 0.5), (-0.5, 0.5)], (5, 5))
    record(_write_text(os.path.join(out, "certificate_residuals.csv"), _residual_csv(
        system, [("dLya_con", system.certificates["P"]),
                 ("dRicc", system.certificates["R"])], res_pts)))

    # Theorem reports near the origin, all drawn from one rng.
    near = [(-0.1, 0.1), (-0.1, 0.1)]
    harness_shape = (3, 3) if quick else (5, 5)
    grids = {"thm5": (region, harness_shape),
             "cor7": ([(-0.5, 0.5), (-0.5, 0.5)], harness_shape)}
    verdicts = {}
    for name in _CHECKS:
        report = _run_theorem(system, name, rng, near, (pair_count, sample_count, 3),
                              grids.get(name), None, args.tol)
        verdicts[name] = report.verdict
        record(_write_text(os.path.join(out, f"report_{name}.json"),
                           report.to_json()))
        print(f"{name}: {report.verdict}")

    summary = {"system": args_system, "seed": args.seed, "quick": quick,
               "grid": list(grid), "verdicts": verdicts,
               "positive_definite_everywhere": scan.all_positive_definite(),
               "bracket_rank_always_2": all(r.rank == 2 for r in ctrl),
               "files": sorted(files)}
    record(_write_text(os.path.join(out, "summary.json"), verify_mod.json_text(summary)))
    print(os.path.join(out, "summary.json"))
    return 0


# ---------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts values like -0.5,0.5,-0.5,0.5.

    The stock negative-number heuristic only covers lone numbers, so
    comma-joined coordinate lists starting with a minus would be taken
    for option names.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d")


def _command(sub, name: str, help: str, *examples: str, system: bool = True):
    """The subparser of command name, run by _cmd_<name>, whose help ends
    in its example invocations; with system, it takes --system and
    --spec."""
    p = sub.add_parser(name, help=help, formatter_class=argparse.RawDescriptionHelpFormatter,
                       epilog="examples:\n" + "".join(f"  $ vargram {name} {example}\n"
                                                      for example in examples))
    p.set_defaults(func=globals()["_cmd_" + name.replace("-", "_")])
    if system:
        p.add_argument("--system", default="paper_sec5",
                       help=f"registry name (one of: {', '.join(registry_names())})")
        p.add_argument("--spec", default=None,
                       help="JSON system description file (overrides --system)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vargram",
        description="Variational energy, Gramian, and rank analysis of "
                    "control-affine systems.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = _command(sub, "simulate", "integrate one system mode and write trajectory.csv",
                 "--system paper_sec5 --mode dual-closed-loop --x0 0.1,0.1 --dp0 1,0 --tf 10",
                 "--system linear_2x2 --mode prolonged --x0 0,0 --dx0 1,0 --tf 5 --plot")
    p.add_argument("--mode", choices=tuple(_MODES), default="prolonged")
    p.add_argument("--x0", required=True, help="initial state, comma-separated")
    p.add_argument("--dx0", default=None, help="variational initial vector")
    p.add_argument("--dp0", default=None, help="dual variational initial vector")
    p.add_argument("--x0p", default=None, help="second-copy initial state")
    p.add_argument("--tf", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=501)
    p.add_argument("--out", default=None)
    p.add_argument("--plot", action="store_true",
                   help="also write a gnuplot script")

    p = _command(sub, "energy", "one energy functional value as JSON",
                 "--system paper_sec5 --kind diff-obs --x0 0,0 --dx0 1,0",
                 "--system paper_sec5 --kind incr-ctrl --x0 0.05,0 --x0p 0.1,0.05")
    p.add_argument("--kind", choices=_ENERGY_KINDS, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--dx0", default=None)
    p.add_argument("--x0p", default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)

    p = _command(sub, "gramian", "empirical Gramian at one point as JSON",
                 "--system paper_sec5 --kind obs --x 0,0",
                 "--system linear_2x2 --kind ctrl --x 0,0 --tol 1e-10")
    p.add_argument("--kind", choices=("obs", "ctrl"), required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)

    p = _command(sub, "residual", "matrix-equation residuals at a point or over a grid",
                 "--system paper_sec5 --equation dLya_con --field cert-P --x 0.3,-0.2",
                 "--system paper_sec5 --equation dRicc --field cert-R"
                 " --region -0.5,0.5,-0.5,0.5 --grid 5x5")
    p.add_argument("--equation", choices=tuple(gramian_mod.EQUATIONS), required=True)
    p.add_argument("--field", required=True,
                   help="cert-<name>, empirical-Q, or empirical-R")
    p.add_argument("--x", default=None)
    p.add_argument("--region", default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--out", default=None)

    p = _command(sub, "rank", "bracket or codistribution rank at a point or over a grid",
                 "--system paper_sec5 --matrix ctrl --x 0,0 --depth 2",
                 "--system paper_sec5 --matrix obs --region -1,1,-1,1 --grid 21x21 --depth 1")
    p.add_argument("--matrix", choices=tuple(_MATRICES), required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--region", default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", default=None)

    p = _command(sub, "pd-scan", "positive-definiteness scan of a matrix field",
                 "--system paper_sec5 --field empirical-Q --region -0.3,0.3,-0.3,0.3"
                 " --grid 21x21",
                 "--system paper_sec5 --field cert-P --region -0.5,0.5,-0.5,0.5 --grid 5x5"
                 " --plot")
    p.add_argument("--field", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--plot", action="store_true")

    p = _command(sub, "verify", "run a theorem check and write report.json",
                 "--system paper_sec5 --theorem cor7 --region -0.5,0.5,-0.5,0.5",
                 "--system linear_2x2 --theorem all --region -0.2,0.2,-0.2,0.2"
                 " --pairs 3 --samples 3")
    p.add_argument("--theorem", choices=_THEOREMS, required=True)
    p.add_argument("--region", default=None,
                   help="defaults to the system's declared region, if any")
    p.add_argument("--grid", default=None, help="grid for rank/pd items, like 5x5")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--field", default=None,
                   help="matrix field for thm5/cor7 (default empirical-Q/cert-P)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 unless every verdict is pass")
    p.add_argument("--out", default=None)

    p = _command(sub, "example", "full built-in example bundle: figures, scans, reports",
                 "--out runs/example", "--out runs/quick --quick --jobs 4", system=False)
    p.add_argument("--out", default="example_output")
    p.add_argument("--quick", action="store_true",
                   help="small grids and few samples, for smoke runs")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=1e-8)

    return parser


def _check_tol_and_jobs(args) -> None:
    """Reject, in whichever subcommand takes them, a --tol that is not a
    finite number > 0 and a --jobs below 1."""
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise CliError(f"--tol must be a finite number > 0, got {tol:g}")
    if getattr(args, "jobs", 1) < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_tol_and_jobs(args)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (IntegrationError, ExprError, ValueError) as exc:
        print(f"analysis failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
