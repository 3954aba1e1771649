"""Span tracing around vargram's module boundaries, applied from outside.

Nothing in the program is edited.  `install` replaces public functions of
the vargram modules with timing wrappers in every vargram module that
imported them, patches a few methods on their classes, and wraps the
field callables of each SystemModel that `registry` or `from_spec`
hands out.  Each wrapped call opens a frame on one stack; when it closes,
its duration minus the time of its child frames is its self time.

Coarse boundaries (CLI writes, theorem checks, energies, Gramians,
quadrature calls, solver calls, rank builders) are kept as spans: name,
start, end, parent span and run identifier, held in memory and written
out by `write`.  The per-evaluation boundaries (field callables,
Jacobians, brackets, dense-output lookups, right-hand-side and integrand
callbacks) run hundreds of thousands of times per round, so they are
only tallied: count and self time, charged to their parent as child time.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

clock = time.perf_counter

# per-layer metrics, all reported per round (expr.parse_s excepted)
COUNTS = ("systems.field_evals", "calculus.jacobian_calls", "integrate.solve_calls",
          "integrate.rhs_evals", "integrate.steps", "integrate.dense_evals",
          "integrate.quad_nodes", "integrate.horizon_doublings", "energy.evals",
          "gramian.gramians")


def replace_everywhere(module, attr: str, replacement, undo: list) -> None:
    """Put replacement in place of module.attr in every vargram module that
    imported it, so calls between modules go through it too; undo collects
    (owner, attr, original) for restoring."""
    original = getattr(module, attr)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "vargram" or mod_name.startswith("vargram."):
            if getattr(mod, attr, None) is original:
                undo.append((mod, attr, original))
                setattr(mod, attr, replacement)


def restore(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
    undo.clear()


class Stopwatch:
    """(start, end) of every call to a few API functions, for untraced runs."""

    def __init__(self, intervals: list[tuple[float, float]]):
        self.intervals = intervals
        self._undo: list[tuple] = []

    def patch(self, module, attr: str) -> None:
        fn = getattr(module, attr)
        intervals = self.intervals

        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                intervals.append((start, clock()))

        replace_everywhere(module, attr, timed, self._undo)

    def uninstall(self) -> None:
        restore(self._undo)


SELF_TIMES = ("expr.eval_s", "systems.field_s", "calculus.jacobian_s", "calculus.bracket_s",
              "integrate.solve_s", "integrate.rhs_s", "integrate.dense_s", "integrate.quad_s",
              "energy.eval_s", "gramian.gramian_s", "rank.build_s", "verify.check_s")
INCLUSIVE_TIMES = ("energy.path_integral_s", "energy.ladder_s", "gramian.residual_s",
                   "jacobi.s", "cli.write_s")
UNITS = {**{name: "count" for name in COUNTS},
         **{name: "s" for name in SELF_TIMES + INCLUSIVE_TIMES},
         "expr.parse_s": "s", "gramian.field_hit_ratio": "ratio",
         "energy.estimate_misses": "count", "trace.run_s": "s"}


class Tracer:
    """One stack of open frames plus the tallies and spans they leave."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.stack: list[list] = []  # [name, start, child_s, span_id, self_key]
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.memo_calls = 0
        self.memo_hits = 0
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ frames

    def exclude(self, seconds: float) -> None:
        """Keep time spent outside the program (host-speed samples) out of
        the self time of the frame it interrupted."""
        if self.stack:
            self.stack[-1][2] += seconds

    def parent_name(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    def parent_self_key(self) -> str | None:
        return self.stack[-1][4] if self.stack else None

    def call(self, name: str, fn, args, kwargs, *, self_key=None, incl_key=None,
             span=True, on_result=None):
        parent = self.stack[-1] if self.stack else None
        span_id = len(self.spans) if span else None
        if span:
            self.spans.append(None)  # reserve the id; filled in on close
        frame = [name, 0.0, 0.0, span_id, self_key]
        self.stack.append(frame)
        frame[1] = start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            self.stack.pop()
            dur = end - start
            if parent is not None:
                parent[2] += dur
            if self_key is not None:
                self.self_s[self_key] += dur - frame[2]
            if incl_key is not None:
                self.incl_s[incl_key] += dur
            if span:
                parent_span = next((f[3] for f in reversed(self.stack)
                                    if f[3] is not None), None)
                self.spans[span_id] = (span_id, parent_span, name, start, end)
            else:
                leaf = self.leaves[name]
                leaf[0] += 1
                leaf[1] += dur - frame[2]
        if on_result is not None:
            on_result(result)
        return result

    def wrap(self, fn, name: str, **opts):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, **opts)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # ------------------------------------------------------------ patching

    def replace(self, module, attr: str, replacement) -> None:
        replace_everywhere(module, attr, replacement, self._patched)

    def patch_function(self, module, attr: str, name: str, **opts) -> None:
        self.replace(module, attr, self.wrap(getattr(module, attr), name, **opts))

    def patch_method(self, cls, attr: str, replacement):
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        restore(self._patched)

    def instrument_system(self, system, source: str):
        """Wrap f, g, h, k of one SystemModel; spec-built fields walk an AST."""
        key = "expr.eval_s" if source == "spec" else "systems.field_s"
        for field_name in ("f", "g", "h", "k"):
            field_obj = getattr(system, field_name)
            if field_obj is None or getattr(field_obj.func, "__wrapped__", None):
                continue
            field_obj.func = self.wrap(field_obj.func, "systems.field",
                                       self_key=key, span=False)
        return system

    # ------------------------------------------------------------ output

    def metrics(self, rounds: int, speed: float) -> dict[str, float]:
        """Per-round layer metrics (expr.parse_s is the one-off set-up).

        Times are multiplied by `speed`, the timed part's seconds at
        reference speed per wall second, to read like run_s.
        """
        out: dict[str, float] = {}
        per = 1.0 / rounds
        leaf_counts = {
            "systems.field_evals": self.leaves["systems.field"][0],
            "calculus.jacobian_calls": self.leaves["calculus.jacobian"][0],
            "integrate.dense_evals": self.counts["integrate.dense_evals"],
        }
        for key in COUNTS:
            total = leaf_counts.get(key, self.counts[key])
            value = total * per
            out[key] = int(value) if float(value).is_integer() else value
        for key in SELF_TIMES:
            out[key] = self.self_s[key] * per * speed
        for key in INCLUSIVE_TIMES:
            out[key] = self.incl_s[key] * per * speed
        out["expr.parse_s"] = self.incl_s["expr.parse_s"] * speed
        out["gramian.field_hit_ratio"] = (self.memo_hits / self.memo_calls
                                          if self.memo_calls else 0.0)
        return out

    def write(self, path) -> None:
        """JSON lines: one per span, then one per tallied leaf boundary."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                span_id, parent, name, start, end = span
                fh.write(json.dumps({"run": self.run_id, "span": span_id,
                                     "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")
            for name, (count, self_time) in sorted(self.leaves.items()):
                fh.write(json.dumps({"run": self.run_id, "leaf": name,
                                     "calls": count, "self_s": self_time}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import vargram.calculus as calculus
    import vargram.cli as cli
    import vargram.energy as energy
    import vargram.expr as expr
    import vargram.gramian as gramian
    import vargram.integrate as integrate
    import vargram.jacobi as jacobi
    import vargram.rank as rank
    import vargram.systems as systems
    import vargram.verify as verify

    t = tracer

    # expr / systems: spec parsing, and the models the workload runs on
    t.patch_function(expr, "parse_system_spec", "expr.parse", incl_key="expr.parse_s")
    original_from_spec = systems.from_spec
    original_registry = systems.registry

    def from_spec(spec):
        model = t.call("expr.from_spec", original_from_spec, (spec,), {},
                       incl_key="expr.parse_s")
        return t.instrument_system(model, "spec")

    def registry(name):
        return t.instrument_system(original_registry(name), "registry")

    t.replace(systems, "from_spec", from_spec)
    t.replace(systems, "registry", registry)

    # calculus: Jacobians and brackets
    for attr in ("jacobian", "jacobian_scalars", "matrix_jacobian_scalars",
                 "frozen_input_jacobian_scalars"):
        t.patch_function(calculus, attr, "calculus.jacobian",
                         self_key="calculus.jacobian_s", span=False)
    for attr in ("ad_closed_loop_scalars", "ad_standard_scalars", "lie_scalar"):
        t.patch_function(calculus, attr, "calculus.bracket",
                         self_key="calculus.bracket_s", span=False)

    # integrate: solver calls with their RHS callbacks, dense output, quadrature
    real_solve_ivp = integrate.solve_ivp

    def solve_ivp(fun, t_span, y0, **kwargs):
        rhs = t.wrap(fun, "integrate.rhs", self_key="integrate.rhs_s", span=False)
        return t.call("integrate.solve_ivp", real_solve_ivp, (rhs, t_span, y0), kwargs,
                      self_key="integrate.solve_s", on_result=_count_solve)

    def _count_solve(sol):
        t.counts["integrate.solve_calls"] += 1
        t.counts["integrate.rhs_evals"] += int(sol.nfev)
        t.counts["integrate.steps"] += len(sol.t) - 1

    t.replace(integrate, "solve_ivp", solve_ivp)

    def dense(method):
        def traced(self, *args):
            if t.parent_name() != "integrate.dense":
                t.counts["integrate.dense_evals"] += 1
            return t.call("integrate.dense", method, (self,) + args, {},
                          self_key="integrate.dense_s", span=False)
        return traced

    t.patch_method(integrate.Trajectory, "at", dense(integrate.Trajectory.at))
    t.patch_method(integrate.HorizonFlow, "state", dense(integrate.HorizonFlow.state))

    real_improper = integrate.improper_time_integral

    def improper_time_integral(integrand, direction, **kwargs):
        caller_key = t.parent_self_key()
        wrapped = t.wrap(integrand, "integrate.integrand", self_key=caller_key, span=False)
        initial = kwargs.get("initial_horizon", 20.0)

        def count(res):
            t.counts["integrate.quad_nodes"] += res.nodes_used
            t.counts["integrate.horizon_doublings"] += round(math.log2(res.horizon / initial))

        return t.call("integrate.improper_time_integral", real_improper,
                      (wrapped, direction), kwargs, self_key="integrate.quad_s",
                      on_result=count)

    real_quadrature = integrate.quadrature_finite

    def quadrature_finite(f, a, b, order=12):
        nested = t.parent_name() == "integrate.improper_time_integral"
        if not nested:
            f = t.wrap(f, "integrate.integrand", self_key=t.parent_self_key(), span=False)

        def count(res):
            if not nested:
                t.counts["integrate.quad_nodes"] += res.nodes_used

        return t.call("integrate.quadrature_finite", real_quadrature, (f, a, b, order), {},
                      self_key="integrate.quad_s", on_result=count)

    t.replace(integrate, "improper_time_integral", improper_time_integral)
    t.replace(integrate, "quadrature_finite", quadrature_finite)

    # energy
    def count_energy(_res):
        t.counts["energy.evals"] += 1

    for attr in ("diff_observability", "incr_observability", "diff_controllability_fb",
                 "incr_controllability_fb"):
        t.patch_function(energy, attr, "energy." + attr, self_key="energy.eval_s",
                         on_result=count_energy)
    t.patch_function(energy, "path_energy_integral", "energy.path_energy_integral",
                     incl_key="energy.path_integral_s")
    t.patch_function(energy, "quadratic_limit", "energy.quadratic_limit",
                     incl_key="energy.ladder_s")

    # gramian
    def count_gramian(_res):
        t.counts["gramian.gramians"] += 1

    for attr in ("empirical_obs_gramian", "empirical_ctrl_gramian"):
        t.patch_function(gramian, attr, "gramian." + attr, self_key="gramian.gramian_s",
                         on_result=count_gramian)
    for attr in ("lyap_residual_obs", "riccati_residual", "lyap_residual_ctrl",
                 "lyap_residual_open"):
        t.patch_function(gramian, attr, "gramian." + attr, incl_key="gramian.residual_s")

    field_call = gramian.EmpiricalGramianField.__call__

    def memo_call(self, xs):
        t.memo_calls += 1
        if tuple(float(v) for v in xs) in self._cache:
            t.memo_hits += 1
        return field_call(self, xs)

    t.patch_method(gramian.EmpiricalGramianField, "__call__", memo_call)

    # rank and jacobi
    for attr in ("ctrl_bracket_matrix", "strong_access_matrix", "obs_codistribution"):
        t.patch_function(rank, attr, "rank." + attr, self_key="rank.build_s")
    for attr in ("numeric_rank", "determinant_and_min_eigenvalue"):
        t.patch_function(jacobi, attr, "jacobi." + attr, incl_key="jacobi.s")

    # verify and cli
    for attr in ("check_thm1", "check_thm2", "check_thm3", "check_thm4", "check_thm5",
                 "check_cor7"):
        t.patch_function(verify, attr, "verify." + attr, self_key="verify.check_s")
    t.patch_function(cli, "_write_text", "cli.write", incl_key="cli.write_s")
