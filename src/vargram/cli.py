"""Command-line front end over the analysis modules.

Eight subcommands mirror the library layout: simulate, energy, gramian,
residual, rank, pd-scan, verify, and example (a one-shot bundle around
the built-in cubic example).  All numeric output is written as CSV with
'.' decimals, ',' separators, and 17 significant digits, or as JSON with
sorted keys, so identical invocations produce byte-identical files.
Randomized sample points come from a seeded splitmix64 stream.

Exit codes: 0 on success, 1 when an analysis fails (divergence, blow-up,
bad field), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
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
from .calculus import matrix_at
from .expr import ExprError, parse_system_spec
from .integrate import IntegrationError, integrate_ivp
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


def _build_field(system: SystemModel, field_name: str, tol: float,
                 fixed_horizon: float | None):
    """Resolve a --field name to a pointwise matrix field."""
    if field_name.startswith("cert-"):
        key = field_name[len("cert-"):]
        if key not in system.certificates:
            known = ", ".join(sorted(system.certificates)) or "none"
            raise CliError(f"system {system.name!r} has no certificate {key!r} "
                           f"(available: {known})")
        return system.certificates[key]
    if field_name == "empirical-Q":
        return gramian_mod.EmpiricalGramianField(system, "obs", tol=tol,
                                                 fixed_horizon=fixed_horizon)
    if field_name == "empirical-R":
        return gramian_mod.EmpiricalGramianField(system, "ctrl", tol=tol,
                                                 fixed_horizon=fixed_horizon)
    raise CliError(f"unknown field {field_name!r}: use cert-<name>, "
                   f"empirical-Q, or empirical-R")


# ---------------------------------------------------------------- output

def _out_dir(args) -> str:
    out = getattr(args, "out", None) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_text(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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
        field = system.closed_loop_field() if mode == "closed-loop" else system.f
        states = integrate_ivp(field, np.asarray(x0, dtype=float), (0.0, tf)).at(times)
        return header, [[t] + [float(v) for v in z] for t, z in zip(times, states)]

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
    z0 = aug.pack(**{"x": x0, block: second})
    states = integrate_ivp(aug.rhs, z0, (0.0, tf)).at(times)

    out_names = sorted(aug.outputs)
    header += [f"{block}{i + 1}" for i in range(n)]
    outputs = [[np.atleast_1d(aug.outputs[name](z)) for name in out_names] for z in states]
    for name, values in zip(out_names, outputs[0]):
        header += [f"{name}{i + 1}" for i in range(len(values))]
    return header, [[t] + [float(v) for v in np.concatenate([z, *outs])]
                    for t, z, outs in zip(times, states, outputs)]


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
    payload = {"kind": args.kind, "system": system.name, "x0": x0,
               "partner": partner, "value": ev.value,
               "error_estimate": ev.error_estimate, "horizon": ev.horizon,
               "direction": ev.direction}
    text = _json_text(payload)
    sys.stdout.write(text)
    if args.out:
        _write_text(os.path.join(_out_dir(args), "energy.json"), text)
    return 0


# ---------------------------------------------------------------- gramian

def _cmd_gramian(args) -> int:
    system = _load_system(args)
    x = _parse_point(args.x, "x", system)
    fn = (gramian_mod.empirical_obs_gramian if args.kind == "obs"
          else gramian_mod.empirical_ctrl_gramian)
    res = fn(system, x, tol=args.tol)
    payload = {"kind": args.kind, "system": system.name, "x": x,
               "matrix": [[float(v) for v in row] for row in res.matrix],
               "truncation_error": res.truncation_error, "horizon": res.horizon}
    text = _json_text(payload)
    sys.stdout.write(text)
    if args.out:
        _write_text(os.path.join(_out_dir(args), "gramian.json"), text)
    return 0


# ---------------------------------------------------------------- residual

_EQUATIONS = ("dLya_ob", "dRicc", "dLya_con", "dLya_open")


def _residual_reports(system: SystemModel, equation: str, field_obj, x):
    if equation == "dLya_ob":
        return [gramian_mod.lyap_residual_obs(system, field_obj, x)]
    if equation == "dRicc":
        return list(gramian_mod.riccati_residual(system, field_obj, x))
    if equation == "dLya_con":
        return list(gramian_mod.lyap_residual_ctrl(system, field_obj, x))
    if equation == "dLya_open":
        return [gramian_mod.lyap_residual_open(system, field_obj, x)]
    raise CliError(f"unknown equation {equation!r}")


def _residual_csv(system: SystemModel, equations, points) -> str:
    """Residual norms at each grid point of each (equation, field) pair."""
    rows = []
    for point in points:
        for equation, field_obj in equations:
            for rep in _residual_reports(system, equation, field_obj, point):
                rows.append([*point, rep.equation_id, rep.frobenius_norm])
    header = [f"x{i + 1}" for i in range(points.shape[1])] \
        + ["equation_id", "frobenius_norm"]
    return _csv_text(header, rows)


def _cmd_residual(args) -> int:
    system = _load_system(args)
    field_obj = _build_field(system, args.field, args.tol, fixed_horizon=40.0)
    if args.x is not None:
        x = _parse_point(args.x, "x", system)
        reports = _residual_reports(system, args.equation, field_obj, x)
        payload = {"system": system.name, "field": args.field, "x": x,
                   "residuals": [{"equation_id": r.equation_id,
                                  "frobenius_norm": r.frobenius_norm,
                                  "matrix": [[float(v) for v in row]
                                             for row in r.residual]}
                                 for r in reports]}
        text = _json_text(payload)
        sys.stdout.write(text)
        if args.out:
            _write_text(os.path.join(_out_dir(args), "residual.json"), text)
        return 0
    if args.region is None or args.grid is None:
        raise CliError("residual needs either --x or both --region and --grid")
    out = _out_dir(args)
    points = gramian_mod.grid_points(*_checked_box(system, _parse_region(args.region),
                                                    _parse_grid(args.grid)))
    csv_path = os.path.join(out, "residuals.csv")
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
    _write_text(csv_path, rank_mod.sweep_to_csv(points, results))
    return results


def _cmd_rank(args) -> int:
    system = _load_system(args)
    builder = _MATRICES[args.matrix]
    if args.x is not None:
        x = _parse_point(args.x, "x", system)
        res = builder(system, x, depth=args.depth)
        payload = {"system": system.name, "matrix": args.matrix, "x": x,
                   "depth": res.depth, "rank": res.rank,
                   "note": "rank is at least this at the tested depth",
                   "singular_values": [float(s) for s in res.singular_values],
                   "columns_or_rows": [[float(v) for v in row]
                                       for row in res.matrix]}
        text = _json_text(payload)
        sys.stdout.write(text)
        if args.out:
            _write_text(os.path.join(_out_dir(args), "rank.json"), text)
        return 0
    if args.region is None or args.grid is None:
        raise CliError("rank needs either --x or both --region and --grid")
    out = _out_dir(args)
    csv_path = os.path.join(out, "rank.csv")
    region, shape = _checked_box(system, _parse_region(args.region), _parse_grid(args.grid))
    _rank_grid(system, builder, region, shape, args.depth, csv_path)
    print(csv_path)
    return 0


# ---------------------------------------------------------------- pd-scan

_POOL_FIELD = None


def _scan_init(source, field_name, tol, fixed_horizon):
    global _POOL_FIELD
    system = _system_from_source(source)
    _POOL_FIELD = _build_field(system, field_name, tol, fixed_horizon)


def _scan_eval(point):
    try:
        return ("ok", matrix_at(_POOL_FIELD, point).tolist())
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}")


def _scan_grid(source, field_name: str, tol: float, jobs: int, region, shape,
               csv_path: str) -> gramian_mod.PDScan:
    """Scan a field over a grid, optionally across worker processes, and
    write scan.csv-style rows to csv_path.

    Workers rebuild the system from its source name, so results are
    independent of how the grid is sharded; assembly order follows the
    grid either way.
    """
    points = gramian_mod.grid_points(region, shape)
    if jobs > 1:
        with multiprocessing.Pool(
                jobs, initializer=_scan_init,
                initargs=(source, field_name, tol, None)) as pool:
            values = pool.map(_scan_eval, [tuple(p) for p in points])
    else:
        _scan_init(source, field_name, tol, None)
        values = [_scan_eval(tuple(p)) for p in points]
    scan = gramian_mod.scan_from_values(region, shape, points, values)
    _write_text(csv_path, scan.to_csv())
    return scan


def _cmd_pd_scan(args) -> int:
    source = _system_source(args)
    system = _system_from_source(source)
    region, shape = _checked_box(system, _parse_region(args.region), _parse_grid(args.grid))
    if args.plot and len(shape) != 2:
        raise CliError(f"--plot draws a heatmap over two dims, --grid has {len(shape)}")
    csv_path = os.path.join(_out_dir(args), "scan.csv")
    scan = _scan_grid(source, args.field, args.tol, args.jobs, region, shape, csv_path)
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
    matrix field (None picks the theorem's default).
    """
    pairs, samples, harness = counts
    check = getattr(verify_mod, f"check_{theorem}")
    if theorem in ("thm1", "thm3"):
        return check(system, _draw_pairs(rng, region, pairs), tol=tol)
    if theorem in ("thm2", "thm4"):
        return check(system, _draw_tangent_samples(rng, region, samples), tol=tol)
    field_obj = _build_field(system, field_name or _DEFAULT_FIELDS[theorem], tol,
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
    out = _out_dir(args)
    names = list(_CHECKS) if args.theorem == "all" else [args.theorem]
    counts = (args.pairs, args.samples, min(args.samples, 5))
    verdicts = {}
    for name in names:
        report = _run_theorem(system, name, SplitMix64(args.seed), region, counts,
                              grid, args.field, args.tol)
        path = os.path.join(out, f"report_{name}.json" if len(names) > 1
                            else "report.json")
        _write_text(path, report.to_json())
        verdicts[name] = report.verdict
        print(f"{name}: {report.verdict} -> {path}")
    if len(names) > 1:
        _write_text(os.path.join(out, "summary.json"), _json_text(
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
    scan = _scan_grid(("registry", args_system), "empirical-Q", args.tol, args.jobs,
                      region, grid, scan_path)
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
    record(_write_text(os.path.join(out, "summary.json"), _json_text(summary)))
    print(os.path.join(out, "summary.json"))
    return 0


# ---------------------------------------------------------------- parser

def _add_system_args(p: argparse.ArgumentParser, with_spec: bool = True):
    p.add_argument("--system", default="paper_sec5",
                   help=f"registry name (one of: {', '.join(registry_names())})")
    if with_spec:
        p.add_argument("--spec", default=None,
                       help="JSON system description file (overrides --system)")


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that accepts values like -0.5,0.5,-0.5,0.5.

    The stock negative-number heuristic only covers lone numbers, so
    comma-joined coordinate lists starting with a minus would be taken
    for option names.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d|^-\.\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vargram",
        description="Variational energy, Gramian, and rank analysis of "
                    "control-affine systems.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser(
        "simulate", help="integrate one system mode and write trajectory.csv",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  $ vargram simulate --system paper_sec5 --mode dual-closed-loop"
               " --x0 0.1,0.1 --dp0 1,0 --tf 10\n"
               "  $ vargram simulate --system linear_2x2 --mode prolonged"
               " --x0 0,0 --dx0 1,0 --tf 5 --plot\n")
    _add_system_args(p)
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
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "energy", help="one energy functional value as JSON",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  $ vargram energy --system paper_sec5 --kind diff-obs"
               " --x0 0,0 --dx0 1,0\n"
               "  $ vargram energy --system paper_sec5 --kind incr-ctrl"
               " --x0 0.05,0 --x0p 0.1,0.05\n")
    _add_system_args(p)
    p.add_argument("--kind", choices=_ENERGY_KINDS, required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--dx0", default=None)
    p.add_argument("--x0p", default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser(
        "gramian", help="empirical Gramian at one point as JSON",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  $ vargram gramian --system paper_sec5 --kind obs --x 0,0\n"
               "  $ vargram gramian --system linear_2x2 --kind ctrl --x 0,0"
               " --tol 1e-10\n")
    _add_system_args(p)
    p.add_argument("--kind", choices=("obs", "ctrl"), required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gramian)

    p = sub.add_parser(
        "residual", help="matrix-equation residuals at a point or over a grid",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  $ vargram residual --system paper_sec5 --equation dLya_con"
               " --field cert-P --x 0.3,-0.2\n"
               "  $ vargram residual --system paper_sec5 --equation dRicc"
               " --field cert-R --region -0.5,0.5,-0.5,0.5 --grid 5x5\n")
    _add_system_args(p)
    p.add_argument("--equation", choices=_EQUATIONS, required=True)
    p.add_argument("--field", required=True,
                   help="cert-<name>, empirical-Q, or empirical-R")
    p.add_argument("--x", default=None)
    p.add_argument("--region", default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_residual)

    p = sub.add_parser(
        "rank", help="bracket or codistribution rank at a point or over a grid",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  $ vargram rank --system paper_sec5 --matrix ctrl --x 0,0"
               " --depth 2\n"
               "  $ vargram rank --system paper_sec5 --matrix obs"
               " --region -1,1,-1,1 --grid 21x21 --depth 1\n")
    _add_system_args(p)
    p.add_argument("--matrix", choices=tuple(_MATRICES), required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--region", default=None)
    p.add_argument("--grid", default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser(
        "pd-scan", help="positive-definiteness scan of a matrix field",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  $ vargram pd-scan --system paper_sec5 --field empirical-Q"
               " --region -0.3,0.3,-0.3,0.3 --grid 21x21\n"
               "  $ vargram pd-scan --system paper_sec5 --field cert-P"
               " --region -0.5,0.5,-0.5,0.5 --grid 5x5 --plot\n")
    _add_system_args(p)
    p.add_argument("--field", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=_cmd_pd_scan)

    p = sub.add_parser(
        "verify", help="run a theorem check and write report.json",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  $ vargram verify --system paper_sec5 --theorem cor7"
               " --region -0.5,0.5,-0.5,0.5\n"
               "  $ vargram verify --system linear_2x2 --theorem all"
               " --region -0.2,0.2,-0.2,0.2 --pairs 3 --samples 3\n")
    _add_system_args(p)
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
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "example", help="full built-in example bundle: figures, scans, reports",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="examples:\n"
               "  $ vargram example --out runs/example\n"
               "  $ vargram example --out runs/quick --quick --jobs 4\n")
    p.add_argument("--out", default="example_output")
    p.add_argument("--quick", action="store_true",
                   help="small grids and few samples, for smoke runs")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=_cmd_example)

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
