"""The four benchmark workloads: inputs, one timed round, and its checks.

A workload makes its inputs from the workload seed, builds its systems
once (`setup`), and then runs identical rounds (`run_round`, the only
timed code).  `collect` turns a round's result into plain data outside
the timed part, and `failed` returns the keys of the round's operations
that raised and of those whose output a check in checks.py rejects.  In
untraced runs `time_calls` records the wall interval of each call the
round makes to the functions in `timed_calls`, in call order, into
`calls`.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import checks
from spans import Stopwatch

# --------------------------------------------------------------- helpers


def _cli(argv) -> int:
    import vargram.cli

    errors = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):
        code = vargram.cli.main([str(a) for a in argv])
    if code != 0:
        sys.stderr.write(errors.getvalue())
    return code


def _probe_registry(*names):
    return {"modules": ["vargram", "vargram.cli"], "registry": list(names), "specs": []}


class Workload:
    name = ""
    ops_per_round = 0
    timed_calls: tuple[tuple[str, str], ...] = ()  # (module, function)
    calls: list[tuple[float, float]] | None = None

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = Path(work_dir)
        self.rng = np.random.default_rng(int(seed))

    def probe_plan(self) -> dict:
        """What a fresh interpreter imports and builds to measure setup_s."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self):
        raise NotImplementedError

    def collect(self, result):
        return result

    def prepare_checks(self, first) -> None:
        """Compute the independent references, once, from the first output."""

    def failed(self, output) -> tuple[set, set]:
        """(operations that raised or left no output, outputs a check rejects)"""
        raise NotImplementedError

    def estimate_misses(self, output) -> int:
        return 0

    def time_calls(self) -> None:
        """Start recording (start, end) of each call to `timed_calls`."""
        self.calls = []
        self.watch = Stopwatch(self.calls)
        for module, function in self.timed_calls:
            self.watch.patch(importlib.import_module(module), function)

    def untime_calls(self) -> None:
        self.watch.uninstall()
        self.calls = None

    def call_groups(self, latencies: list[float]) -> list[float]:
        """The samples behind call_p50_ms, from one round's call latencies."""
        return list(latencies)


# --------------------------------------------------------------- verify_sec5

# One pair for thm1/thm3 (each costs two path integrals of 24 inner
# energies) and two tangent samples for thm2/thm4/thm5 keep a round near
# 14 s at reference speed; the 3x3 grid is thm5/cor7's rank and
# definiteness grid.  The verify seed is the CLI's default, fixed so that
# every workload seed runs the same work.  On it thm4's first sample is
# inconclusive (its ladder does not settle), every round: the one known
# failed operation.
VERIFY_SEED = 1234567891
VERIFY_ARGS = ["verify", "--system", "paper_sec5", "--theorem", "all", "--pairs", 1,
               "--samples", 2, "--grid", "3x3", "--seed", VERIFY_SEED]
THEOREMS = ("thm1", "thm2", "thm3", "thm4", "thm5", "cor7")
ENERGIES = tuple(("vargram.energy", f) for f in (
    "diff_observability", "incr_observability", "diff_controllability_fb",
    "incr_controllability_fb"))
GRAMIANS = (("vargram.gramian", "empirical_obs_gramian"),
            ("vargram.gramian", "empirical_ctrl_gramian"))


class VerifySec5(Workload):
    name = "verify_sec5"
    ops_per_round = len(THEOREMS)
    # energies only: thm5's Gramians form a cluster of their own, and a
    # median taken across the gap between clusters is unsteady
    timed_calls = ENERGIES

    def probe_plan(self):
        return _probe_registry("paper_sec5")

    def setup(self):
        import vargram.systems

        vargram.systems.registry("paper_sec5")
        self.out = self.work_dir / "verify"

    def run_round(self):
        return _cli(VERIFY_ARGS + ["--out", self.out])

    def collect(self, code):
        reports = {"exit_code": code, "bytes": {}}
        for name in THEOREMS + ("summary",):
            path = self.out / ("summary.json" if name == "summary" else f"report_{name}.json")
            if path.exists():
                raw = path.read_bytes()
                reports["bytes"][name] = raw
                reports[name] = json.loads(raw)
            path.unlink(missing_ok=True)
        reports.setdefault("summary", {"verdicts": {}})
        return reports

    def failed(self, output):
        inconclusive, wrong = checks.check_verify(output)
        return {name for name in THEOREMS if name not in output} | inconclusive, wrong



# --------------------------------------------------------------- gramian_scan

# An odd grid puts the origin on a grid point; (-0.3, 0.3)^2 is the
# system's default region.  Three seeded grid points (and the origin)
# get an independent scipy integration.
SCAN_GRID = (5, 5)
SCAN_REGION = "-0.3,0.3,-0.3,0.3"
SCAN_FIELDS = ("empirical-Q", "empirical-R")
SCAN_REFERENCE_POINTS = 3


def read_scan(path: Path) -> list[tuple]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [(float(r["x1"]), float(r["x2"]), float(r["min_eig"]), float(r["det"]),
                 r["status"]) for r in csv.DictReader(fh)]


class GramianScan(Workload):
    name = "gramian_scan"
    ops_per_round = len(SCAN_FIELDS) * SCAN_GRID[0] * SCAN_GRID[1]
    timed_calls = GRAMIANS

    def probe_plan(self):
        return _probe_registry("paper_sec5")

    def setup(self):
        import vargram.systems

        vargram.systems.registry("paper_sec5")

    def scan_args(self, field_name, jobs=1, grid=SCAN_GRID):
        out = self.work_dir / f"scan-{field_name}-jobs{jobs}"
        return ["pd-scan", "--system", "paper_sec5", "--field", field_name, "--region",
                SCAN_REGION, "--grid", "x".join(map(str, grid)), "--jobs", jobs,
                "--out", out], out / "scan.csv"

    def run_round(self):
        return [_cli(self.scan_args(f)[0]) for f in SCAN_FIELDS]

    def collect(self, codes):
        scans = {}
        for field_name, code in zip(SCAN_FIELDS, codes):
            path = self.scan_args(field_name)[1]
            scans[field_name] = read_scan(path) if code == 0 and path.exists() else []
            path.unlink(missing_ok=True)
        return scans

    def prepare_checks(self, first):
        rows = first["empirical-Q"]
        self.references = {}
        if not rows:
            return
        picks = self.rng.choice(len(rows), size=SCAN_REFERENCE_POINTS, replace=False)
        points = [rows[i][:2] for i in sorted(picks)]
        points += [r[:2] for r in rows if abs(r[0]) < 1e-12 and abs(r[1]) < 1e-12]
        for point in points:
            self.references[point] = checks.sec5_gramians(point)

    def failed(self, output):
        expected = SCAN_GRID[0] * SCAN_GRID[1]
        raised = set()
        for field_name, rows in output.items():
            raised |= {(field_name, r[0], r[1]) for r in rows if r[4] != "ok"}
            raised |= {(field_name, i) for i in range(len(rows), expected)}
        return raised, checks.check_scan(output, self.references) - raised

    def call_groups(self, latencies):
        # both Gramians at one grid point: the Q scan's calls come first
        points = len(latencies) // 2
        return [latencies[i] + latencies[points + i] for i in range(points)]


# --------------------------------------------------------------- rank_sweep

# The inclusive grid has a line on x1 = -1, where the depth-1
# codistribution of paper_sec5 drops rank.
RANK_GRID = 13
RANK_SYSTEMS = ("paper_sec5", "linear_2x2")
RANK_CONFIGS = (("ctrl", 3), ("access", 3), ("obs", 1), ("obs", 3))
RANK_SYMPY_POINTS = 6


class RankSweep(Workload):
    name = "rank_sweep"
    ops_per_round = len(RANK_SYSTEMS) * len(RANK_CONFIGS) * RANK_GRID ** 2
    timed_calls = tuple(("vargram.rank", f) for f in (
        "ctrl_bracket_matrix", "strong_access_matrix", "obs_codistribution"))

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        axis = np.linspace(-1.0, 1.0, RANK_GRID)
        mesh = np.meshgrid(axis, axis, indexing="ij")
        self.points = np.stack([m.ravel() for m in mesh], axis=-1)
        self.sample_idx = set(int(i) for i in self.rng.choice(len(self.points),
                                                              RANK_SYMPY_POINTS,
                                                              replace=False))

    def probe_plan(self):
        plan = _probe_registry(*RANK_SYSTEMS)
        plan["modules"] = ["vargram", "vargram.rank"]
        return plan

    def setup(self):
        import vargram.systems

        self.systems = {name: vargram.systems.registry(name) for name in RANK_SYSTEMS}

    def run_round(self):
        import vargram.rank as rank

        builders = {"ctrl": rank.ctrl_bracket_matrix, "access": rank.strong_access_matrix,
                    "obs": rank.obs_codistribution}
        out = {}
        for system_name in RANK_SYSTEMS:
            for kind, depth in RANK_CONFIGS:
                try:
                    out[(system_name, kind, depth)] = rank.rank_sweep(
                        builders[kind], self.systems[system_name], self.points,
                        depth=depth)
                except (ArithmeticError, ValueError) as exc:
                    out[(system_name, kind, depth)] = exc
        return out

    def collect(self, result):
        return {key: ([r.rank for r in results], [r.matrix for r in results])
                for key, results in result.items() if not isinstance(results, Exception)}

    def prepare_checks(self, first):
        self.sec5_refs = checks.sec5_rank_references()

    def failed(self, output):
        raised = {(s, k, d, i) for s in RANK_SYSTEMS for k, d in RANK_CONFIGS
                  if (s, k, d) not in output for i in range(len(self.points))}
        return raised, checks.check_ranks(output, self.points, self.sample_idx,
                                          self.sec5_refs)

    def call_groups(self, latencies):
        # every matrix the round builds at one grid point
        return np.reshape(latencies, (-1, len(self.points))).sum(axis=0).tolist()


# --------------------------------------------------------------- linear_spec

OSC_ZETA = 0.1
OPERATIONS = ("diff_obs", "incr_obs", "diff_ctrl", "incr_ctrl", "gramian_obs",
              "gramian_ctrl")
# Fixed spectra, and an output row fixed in companion coordinates, keep
# every seed's Gramians equal up to a rotation, so that horizons and cost
# barely depend on the seed, which draws the rotation, the points and the
# unit tangents.  The closed loops A + BK are anti-stable so that the
# backward feedback energies decay.
SPECTRA = {
    "n3": ((-0.6, -0.8 + 0.6j, -0.8 - 0.6j), (0.5, 0.7 + 0.5j, 0.7 - 0.5j)),
    "n4": ((-0.4 + 0.8j, -0.4 - 0.8j, -0.9 + 0.3j, -0.9 - 0.3j),
           (0.4, 0.6, 0.8 + 0.4j, 0.8 - 0.4j)),
}


def _number(v: float) -> str:
    return repr(float(v))


def _linear_form(row) -> str:
    text = ""
    for j, c in enumerate(row):
        if c == 0.0:
            continue
        term = f"{_number(abs(c))}*x{j + 1}"
        if not text:
            text = ("-" if c < 0 else "") + term
        else:
            text += (" - " if c < 0 else " + ") + term
    return text or "0"


def spec_document(name, a, b, c, k) -> dict:
    """A --spec JSON system for x' = A x + B u, y = C x, u = K x."""
    return {"name": name, "n": a.shape[0], "m": b.shape[1], "p": c.shape[0],
            "f": [_linear_form(row) for row in a],
            "g": [[_number(v) for v in row] for row in b],
            "h": [_linear_form(row) for row in c],
            "k": [_linear_form(row) for row in k]}


def _companion_system(stable, anti_stable, rng):
    """Random realization with drift spectrum `stable` and A + BK spectrum
    `anti_stable`: companion form with output x1, then a seeded rotation."""
    n = len(stable)
    drift = np.real(np.poly(stable))
    closed = np.real(np.poly(anti_stable))
    a = np.zeros((n, n))
    a[:-1, 1:] = np.eye(n - 1)
    a[-1, :] = -drift[::-1][:-1]
    b = np.zeros((n, 1))
    b[-1, 0] = 1.0
    k = (drift[::-1][:-1] - closed[::-1][:-1]).reshape(1, n)
    c = np.zeros((1, n))
    c[0, 0] = 1.0
    t, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return t @ a @ t.T, t @ b, c @ t.T, k @ t.T


def linear_systems(rng) -> list[tuple]:
    """(name, A, B, C, K), with every matrix entry as written into the spec."""
    systems = [("oscillator", np.array([[0.0, 1.0], [-1.0, -2.0 * OSC_ZETA]]),
                np.array([[0.0], [1.0]]), np.array([[1.0, 0.0]]), np.array([[0.0, 0.6]]))]
    for name, (stable, anti) in SPECTRA.items():
        systems.append((name,) + _companion_system(stable, anti, rng))
    return systems


class LinearSpec(Workload):
    name = "linear_spec"
    ops_per_round = 3 * len(OPERATIONS)
    timed_calls = ENERGIES + GRAMIANS

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.matrices = linear_systems(self.rng)
        self.spec_texts = [json.dumps(spec_document(*m)) for m in self.matrices]
        self.inputs = []
        for name, a, b, c, k in self.matrices:
            n = a.shape[0]
            x0 = self.rng.uniform(-1.0, 1.0, n)
            dx0 = self.rng.uniform(-1.0, 1.0, n)
            dx0 /= np.linalg.norm(dx0)
            q, w = checks.lyapunov_oracles(a, b, c, k)
            self.inputs.append((x0, dx0, q, w))

    def probe_plan(self):
        return {"modules": ["vargram"], "registry": [], "specs": self.spec_texts}

    def setup(self):
        import vargram.expr
        import vargram.systems

        self.systems = [vargram.systems.from_spec(vargram.expr.parse_system_spec(text))
                        for text in self.spec_texts]

    def _call(self, kind, system, x0, dx0):
        import vargram.energy as energy
        import vargram.gramian as gramian

        if kind == "diff_obs":
            return energy.diff_observability(system, x0, dx0)
        if kind == "incr_obs":
            return energy.incr_observability(system, x0, x0 + dx0)
        if kind == "diff_ctrl":
            return energy.diff_controllability_fb(system, x0, dx0)
        if kind == "incr_ctrl":
            return energy.incr_controllability_fb(system, x0, x0 + dx0)
        if kind == "gramian_obs":
            return gramian.empirical_obs_gramian(system, x0)
        return gramian.empirical_ctrl_gramian(system, x0)

    def run_round(self):
        results = []
        for system, (x0, dx0, _q, _w) in zip(self.systems, self.inputs):
            for kind in OPERATIONS:
                try:
                    results.append(self._call(kind, system, x0, dx0))
                except (ArithmeticError, RuntimeError, ValueError) as exc:
                    results.append(exc)
        return results

    def collect(self, results):
        ops = []
        it = iter(results)
        for x0, dx0, q, w in self.inputs:
            for kind in OPERATIONS:
                res = next(it)
                oracle_matrix = q if kind.endswith("obs") else w
                op = {"kind": kind, "value": None, "error_estimate": None}
                if kind.startswith("gramian"):
                    op["oracle"] = oracle_matrix
                    if not isinstance(res, Exception):
                        op["value"] = np.asarray(res.matrix, dtype=float)
                else:
                    op["oracle"] = 0.5 * float(dx0 @ oracle_matrix @ dx0)
                    if not isinstance(res, Exception):
                        op["value"] = float(res.value)
                        op["error_estimate"] = float(res.error_estimate)
                ops.append(op)
        return ops

    def failed(self, output):
        raised = {i for i, op in enumerate(output) if op["value"] is None}
        return raised, checks.check_linear(output) - raised

    def call_groups(self, latencies):
        # the six operations on one system: single calls differ by up to
        # nine times, so their median jumps between kinds from seed to seed
        per_system = len(OPERATIONS)
        return [sum(latencies[i:i + per_system])
                for i in range(0, len(latencies), per_system)]

    def estimate_misses(self, output):
        return checks.estimate_misses(output)


WORKLOADS = {cls.name: cls for cls in (VerifySec5, GramianScan, RankSweep, LinearSpec)}
