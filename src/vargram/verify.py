"""Empirical theorem checks with explicit margins and error budgets.

Each check runs the relevant energies or matrix conditions on supplied
samples and reports per-sample margins against an additive error budget.
Verdict semantics: any margin beyond its budget on the wrong side is a
"fail" (a numerical counterexample); failed hypotheses or non-convergent
extrapolations make the run "inconclusive" rather than silently passing;
"pass" means every sample landed on the right side within budget.
Numerical evidence witnesses theorems on samples, it does not prove them.

The six checks share three claim shapes, each one function fed by a
per-theorem table: a path integral of a differential energy bounding a
pair energy (thm1, thm3), a small-gap limit of a pair energy against a
differential one (thm2, thm4), and a three-item harness with cyclic
implications (thm5, cor7).

The path bound and the three-item harness run inside an
integrate.shared_flows() scope, so a decay fit and the energies from the
same start solve their flow once.  (A small-gap limit asks for no flow
twice: its ladder pairs start from distinct states.)  An enclosing scope
(the verify command opens one) shares flows across checks too.  A decay
fit reads that flow at its accepted steps through
integrate.fit_exponential, the fit that also estimates the energies'
tails, so no check builds a dense output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .energy import (LinePath, diff_controllability_fb, diff_observability,
                     incr_controllability_fb, incr_observability, pair_flow,
                     path_energy_integral, quadratic_limit)
from .gramian import EQUATIONS, grid_points, pd_scan, points_read, prefetch
from .integrate import (INITIAL_HORIZON, MIN_FIT_SAMPLES, IntegrationError, _solved,
                        fit_exponential, shared_flows)
from .rank import ctrl_bracket_matrix, obs_codistribution
from .systems import SystemModel, dual_closed_loop, prolong

EQUALITY_TOL = 1e-4
# largest residual of the supplied matrix field's equations on the region
# probe for which thm5 and cor7 are still checked
RESIDUAL_TOL = 1e-3


@dataclass
class DecayEstimate:
    """Exponential fit |signal| ~ c * exp(-lam * |t|) toward the far end."""

    c: float
    lam: float
    fit_window: tuple[float, float]
    residual: float
    flagged: bool = False
    note: str = ""

    def as_dict(self) -> dict:
        return {"c": self.c, "lam": self.lam,
                "fit_window": list(self.fit_window), "residual": self.residual,
                "flagged": self.flagged, "note": self.note}


@dataclass
class Sample:
    """One tested relation: margin = lhs - rhs, judged against budget."""

    inputs: dict
    lhs: float
    rhs: float
    budget: float
    relation: str = "ge"  # "ge": lhs >= rhs - budget; "eq": |lhs - rhs| <= budget
    note: str = ""

    @property
    def margin(self) -> float:
        return self.lhs - self.rhs

    def ok(self) -> bool:
        if self.relation == "eq":
            return abs(self.margin) <= self.budget
        return self.margin >= -self.budget

    def as_dict(self) -> dict:
        d = {"inputs": self.inputs, "lhs": self.lhs, "rhs": self.rhs,
             "margin": self.margin, "budget": self.budget,
             "relation": self.relation}
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class Report:
    """Outcome of one theorem check over a sample set."""

    theorem_id: str
    verdict: str
    samples: list = field(default_factory=list)
    decay_fits: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"theorem": self.theorem_id, "verdict": self.verdict,
                "samples": [s.as_dict() for s in self.samples],
                "decay_fits": [d.as_dict() if isinstance(d, DecayEstimate) else d
                               for d in self.decay_fits],
                "notes": list(self.notes)}

    def to_json(self) -> str:
        return json_text(self.as_dict())


def json_text(obj) -> str:
    """The text of every JSON file and JSON output of vargram: sorted keys,
    two-space indent and a final newline, so equal objects give equal
    bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _settle(samples: Sequence[Sample], failures: Sequence[str]) -> str:
    """Counterexamples dominate, then failed hypotheses, then pass."""
    if any(not s.ok() for s in samples):
        return "fail"
    if failures:
        return "inconclusive"
    return "pass"


def _floor(*values: float) -> float:
    """Additive budget floor for the integrator's relative tolerance."""
    return 1e-9 * sum(abs(v) for v in values) + 1e-12


def fit_decay(signal) -> DecayEstimate:
    """Exponential fit on the far half of a sampled signal.

    signal is a (times, values) pair, the times increasing; decay is
    expected as t grows, and integrate.fit_exponential fits the later half
    of the times, weighting each sample by the step that ends there.
    ValueError when that window holds fewer than MIN_FIT_SAMPLES positive
    values.  A fitted rate lam <= 0 flags the hypothesis as violated
    instead of raising.
    """
    fit = fit_exponential(*signal)
    if fit is None:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} positive samples in the fit window")
    slope, intercept, residual, window = fit
    flagged = slope >= 0.0
    return DecayEstimate(c=math.exp(intercept), lam=-slope, fit_window=window,
                         residual=residual, flagged=flagged,
                         note="no decay on fit window" if flagged else "")


def _decay(rhs, z0, signal) -> DecayEstimate:
    """Fit the forward decay of |signal(z)| at the accepted steps of the
    flow of rhs from the one state z0 over [0, INITIAL_HORIZON]; signal
    maps the (S, dim) table of those states to one row each.  That solve,
    of the stack [z0] without a dense output, is the first segment an
    energy from z0 solves, so with the energy's flow, cost block
    included, the two share it."""
    traj = _solved(rhs, [z0], 0.0, INITIAL_HORIZON, dense=False)
    return fit_decay((traj.times, np.linalg.norm(signal(traj.states), axis=-1)))


def _close(report: Report, failures: list[str]) -> Report:
    if not report.samples and not failures:
        failures.append("no sample was tested")
    report.verdict = _settle(report.samples, failures)
    report.notes.extend(failures)
    return report


# The tables below reach energies and rank builders through this module's
# globals at call time, and residuals through gramian.EQUATIONS, which reads
# gramian's, so replacing one of those names (with a timing wrapper, say)
# reaches the checks too.

# (differential energy, pair energy) of each side of the paper
_FEEDBACK = (lambda s, x, v, tol: diff_controllability_fb(s, x, v, tol=tol),
             lambda s, a, b, tol: incr_controllability_fb(s, a, b, tol=tol))
_OUTPUT = (lambda s, x, v, tol: diff_observability(s, x, v, tol=tol),
           lambda s, a, b, tol: incr_observability(s, a, b, tol=tol))

# theorem: (energies, direction in which the gap of a pair decays)
_PATH_BOUNDS = {"thm1": (_FEEDBACK, "backward"), "thm3": (_OUTPUT, "forward")}

# theorem: (energies, ladder passes the copies as (x0 + s dx0, x0), relation);
# thm2's upper bound ("ge") becomes an equality once a dual certificate is
# registered
_LIMITS = {"thm2": (_FEEDBACK, False, "ge"), "thm4": (_OUTPUT, True, "eq")}


class _Harness(NamedTuple):
    """What one three-item harness checks, item by item."""

    residuals: Callable      # (system, field, x) -> precondition residual reports
    residual_name: str
    flow: Callable           # system -> AugmentedField whose `block` must decay
    block: str
    rank: Callable           # (system, x) -> RankMatrix that must have rank n
    energy: Callable | None  # differential energy the half quadratic form must match
    items: tuple[str, str, str]
    closing_notes: tuple[str, ...] = ()


_HARNESSES = {
    "thm5": _Harness(
        residuals=EQUATIONS["dLya_ob"],
        residual_name="matrix-equation", flow=lambda s: prolong(s, cost="dy"), block="dx",
        rank=lambda s, x: obs_codistribution(s, x, depth=s.n - 1 if s.n > 1 else 1),
        energy=_OUTPUT[0],
        items=("variational decay", "codistribution rank {n} on grid",
               "positive definite + energy consistency"),
        closing_notes=("assumed, not checked: symmetry class and uniqueness "
                       "of the supplied matrix field",)),
    "cor7": _Harness(
        residuals=EQUATIONS["dLya_con"],
        residual_name="dual equation", flow=dual_closed_loop, block="dp",
        rank=lambda s, x: ctrl_bracket_matrix(s, x, depth=2 * s.n - 1),
        energy=None,
        items=("dual variational decay", "bracket rank {n} on grid",
               "positive definite on grid")),
}


@shared_flows()
def _path_bound(theorem: str, system: SystemModel, pairs: Sequence, tol: float) -> Report:
    """Per pair, the differential energy integrated along the segment x0 -> x0'
    bounds the pair energy, once the gap of the pair is seen to decay."""
    (diff, pair), direction = _PATH_BOUNDS[theorem]
    report = Report(theorem, "inconclusive")
    failures: list[str] = []
    n = system.n
    for idx, (x0, x0p) in enumerate(pairs):
        x0 = np.asarray(x0, dtype=float)
        x0p = np.asarray(x0p, dtype=float)
        inputs = {"index": idx, "x0": x0.tolist(), "x0p": x0p.tolist()}
        try:
            if not np.allclose(x0, x0p):
                aug = pair_flow(system, direction)
                fit = _decay(aug.rhs, aug.pack(x=x0, x2=x0p),
                             lambda z: z[..., n:2 * n] - z[..., :n])
                report.decay_fits.append(fit)
                if fit.flagged:
                    failures.append(f"sample {idx}: {direction} gap does not decay")
                    continue
            lhs = path_energy_integral(lambda a, v: diff(system, a, v, tol),
                                       LinePath.between(x0, x0p))
            rhs = pair(system, x0, x0p, tol)
        except (IntegrationError, ValueError) as exc:
            failures.append(f"sample {idx}: {exc}")
            continue
        budget = lhs.error_estimate + rhs.error_estimate + _floor(lhs.value, rhs.value)
        report.samples.append(Sample(inputs, lhs.value, rhs.value, budget))
    return _close(report, failures)


# certificate: residuals of the equations that make thm2's bound an equality
_CERTIFICATES = {"R": EQUATIONS["dRicc"], "P": EQUATIONS["dLya_con"]}


def _certificates_solve(system: SystemModel, names: Sequence[str], samples: Sequence) -> bool:
    """Whether each named certificate of system solves its equations
    within RESIDUAL_TOL at every sample's x0."""
    return all(r.frobenius_norm <= RESIDUAL_TOL
               for name in names for x0, _ in samples
               for r in _CERTIFICATES[name](system, system.certificates[name], x0))


def _small_gap_limit(theorem: str, system: SystemModel, samples: Sequence,
                     tol: float) -> Report:
    """Per tangent sample, the scaled small-gap limit of the pair energy is
    compared with the differential energy under the theorem's relation."""
    (diff, pair), swapped, relation = _LIMITS[theorem]
    report = Report(theorem, "inconclusive")
    failures: list[str] = []
    registered = [name for name in _CERTIFICATES if name in system.certificates]
    certified = relation == "ge" and bool(registered) and _certificates_solve(
        system, registered, samples)
    equality = relation == "eq" or certified
    note = ""
    if relation == "ge":
        note = ("equality asserted: dual certificate registered" if certified
                else "upper bound only: certificate fails its equations" if registered
                else "upper bound only: no certificate")
    ladder_tol = min(tol, 1e-10)
    for idx, (x0, dx0) in enumerate(samples):
        x0 = np.asarray(x0, dtype=float)
        dx0 = np.asarray(dx0, dtype=float)
        inputs = {"index": idx, "x0": x0.tolist(), "dx0": dx0.tolist()}
        try:
            rhs = diff(system, x0, dx0, tol)
            if not np.any(dx0):
                report.samples.append(Sample(inputs, 0.0, rhs.value,
                                             rhs.error_estimate + _floor(rhs.value),
                                             relation=relation))
                continue
            ql = quadratic_limit(
                lambda a, b: (pair(system, b, a, ladder_tol) if swapped
                              else pair(system, a, b, ladder_tol)), x0, dx0)
        except (IntegrationError, ValueError) as exc:
            failures.append(f"sample {idx}: {exc}")
            continue
        budget = ql.error_budget + rhs.error_estimate + _floor(ql.limit, rhs.value)
        report.samples.append(Sample(inputs, ql.limit, rhs.value,
                                     budget + (EQUALITY_TOL if equality else 0.0),
                                     relation="eq" if equality else "ge", note=note))
    _close(report, failures)
    if certified:
        report.notes.append("dual certificate present: limit asserted equal to "
                            "the differential energy within budget")
    return report


def _implications(items: dict[int, bool | None]) -> tuple[list[str], str]:
    """Evaluate the cyclic implication triple over item outcomes.

    Each implication is asserted only when both antecedents independently
    pass and its conclusion was tested (an untested item is None); the
    verdict is fail on any violated implication, inconclusive when none
    fired, pass otherwise.
    """
    notes = []
    fired, violated = 0, 0
    for a, b, c in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        if items[c] is None:
            notes.append(f"implication not asserted: item {c} untested")
        elif items[a] and items[b]:
            fired += 1
            if items[c]:
                notes.append(f"implication witnessed: items {a} and {b} hold "
                             f"and item {c} holds")
            else:
                violated += 1
                notes.append(f"IMPLICATION VIOLATED: items {a} and {b} hold "
                             f"but item {c} fails")
        else:
            notes.append(f"implication not asserted: items {a} and {b} "
                         f"not jointly established")
    if violated:
        return notes, "fail"
    if fired == 0:
        return notes, "inconclusive"
    return notes, "pass"


@shared_flows()
def _three_item_harness(theorem: str, system: SystemModel, matrix_field, region,
                        samples: Sequence, grid_shape: Sequence[int] | None,
                        tol: float = 1e-8) -> Report:
    """Item 1: decay of the variational block from each sample; when no
    sample is simulated (none given, or every tangent zero) it is untested,
    reported as failed with the note "no sample was tested".  Item 2:
    rank n over the region grid.  Item 3: the matrix field positive definite
    on the grid (plus, where the harness names an energy, the field's half
    quadratic form equal to that energy at each sample).  A large residual
    of the field's matrix equations on a 3-per-axis probe grid makes the
    whole check inconclusive."""
    spec = _HARNESSES[theorem]
    report = Report(theorem, "inconclusive")
    n = system.n
    grid_shape = tuple(grid_shape) if grid_shape else (5,) * n
    probe = grid_points(region, (3,) * n)
    if hasattr(matrix_field, "many"):  # every point the probe reads, as one batch
        prefetch(matrix_field, points_read(
            lambda fld: [spec.residuals(system, fld, row) for row in probe], n))
    worst = max(r.frobenius_norm for row in probe
                for r in spec.residuals(system, matrix_field, row))
    if worst > RESIDUAL_TOL:
        report.notes.append(f"precondition failed: {spec.residual_name} residual "
                            f"{worst:g} > {RESIDUAL_TOL:g} on region probe")
        return report

    failures: list[str] = []
    item1 = True
    aug = spec.flow(system)
    block = aug.layout[spec.block]
    for x0, v0 in samples:
        if not np.any(np.asarray(v0, dtype=float)):
            continue
        try:
            fit = _decay(aug.rhs, aug.pack(**{"x": x0, spec.block: v0}),
                         lambda z: z[..., block])
        except (IntegrationError, ValueError) as exc:
            failures.append(f"item 1 simulation failed: {exc}")
            item1 = False
            break
        report.decay_fits.append(fit)
        if fit.flagged:
            item1 = False
    if not report.decay_fits and not failures:
        failures.append("no sample was tested")
        item1 = None

    item2 = all(spec.rank(system, row).rank == n
                for row in grid_points(region, grid_shape))

    item3 = pd_scan(matrix_field, region, grid_shape).all_positive_definite()
    for idx, (x0, dx0) in enumerate(samples) if spec.energy else ():
        x0 = np.asarray(x0, dtype=float)
        dx0 = np.asarray(dx0, dtype=float)
        inputs = {"index": idx, "x0": x0.tolist(), "dx0": dx0.tolist(),
                  "relation": "half quadratic form vs simulated energy"}
        try:
            q = np.asarray(matrix_field([float(v) for v in x0]), dtype=float)
            quad = 0.5 * float(dx0 @ q @ dx0)
            sim = spec.energy(system, x0, dx0, tol)
        except (IntegrationError, ValueError) as exc:
            failures.append(f"item 3 sample {idx}: {exc}")
            item3 = False
            continue
        budget = sim.error_estimate + _floor(quad, sim.value) + EQUALITY_TOL
        sample = Sample(inputs, quad, sim.value, budget, relation="eq")
        report.samples.append(sample)
        if not sample.ok():
            item3 = False

    items = {1: item1, 2: item2, 3: item3}
    for i, label in enumerate(spec.items, 1):
        report.notes.append(f"item {i} ({label.format(n=n)}): "
                            f"{'pass' if items[i] else 'fail'}")
    imp_notes, verdict = _implications(items)
    report.notes.extend(imp_notes)
    report.notes.extend(failures)
    report.notes.extend(spec.closing_notes)
    if failures and verdict == "pass":
        verdict = "inconclusive"
    report.verdict = verdict
    return report


def check_thm1(system: SystemModel, pairs: Sequence, tol: float = 1e-8) -> Report:
    """Path integral of the backward feedback energy bounds the pair energy.

    For each pair (x0, x0'): LHS integrates diff_controllability_fb along
    the straight segment, RHS is incr_controllability_fb(x0, x0').
    """
    return _path_bound("thm1", system, pairs, tol)


def check_thm3(system: SystemModel, pairs: Sequence, tol: float = 1e-8) -> Report:
    """Path integral of the forward output energy bounds the pair energy."""
    return _path_bound("thm3", system, pairs, tol)


def check_thm2(system: SystemModel, samples: Sequence, tol: float = 1e-8) -> Report:
    """Scaled small-gap limit of the pair feedback energy bounds the
    differential one from above; with a registered dual certificate the
    bound is additionally asserted to be an equality.
    """
    return _small_gap_limit("thm2", system, samples, tol)


def check_thm4(system: SystemModel, samples: Sequence, tol: float = 1e-8) -> Report:
    """Scaled small-gap limit of the pair output energy equals the
    differential observability energy."""
    return _small_gap_limit("thm4", system, samples, tol)


def check_thm5(system: SystemModel, q_field, region, samples: Sequence,
               grid_shape: Sequence[int] | None = None, tol: float = 1e-8) -> Report:
    """Three-item observability harness with cyclic implication logic.

    Item 1: variational decay from each sample.  Item 2: output
    codistribution rank n over the region grid.  Item 3: Q positive
    definite on the grid plus half-quadratic-form consistency with the
    simulated energy at each sample.  The matrix-equation residual of Q is
    a precondition; when it exceeds RESIDUAL_TOL the whole check is
    inconclusive.
    """
    return _three_item_harness("thm5", system, q_field, region, samples, grid_shape, tol)


def check_cor7(system: SystemModel, p_field, region, samples: Sequence,
               grid_shape: Sequence[int] | None = None) -> Report:
    """Three-item feedback controllability harness (dual side).

    Item 1: decay of the dual variational state along the reversed closed
    loop.  Item 2: feedback-modified bracket rank n over the region grid.
    Item 3: P positive definite on the grid.  The dual matrix-equation
    residual pair is the precondition.  Without a p_field (None: the
    system declares no certificate P) the check is inconclusive, with the
    note "no certificate".
    """
    if p_field is None:
        return Report("cor7", "inconclusive", notes=["no certificate"])
    return _three_item_harness("cor7", system, p_field, region, samples, grid_shape)
