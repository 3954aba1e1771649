"""End-to-end acceptance checks, one test per shipped claim.

Every test prints a single [PASS]/[FAIL] line (run pytest with -s to see
the lines for passing tests as well).  Expected values are frozen
literals inside this file, never read back from the library.

Transcription erratum: the depth-1 and depth-2 closed forms transcribed
for paper_sec5 are not the bracket recursion applied to the depth-0
column [1 + x1, 1].  The depth-1 form carries the term (dg/dx)(f + g k)
with the wrong sign, so its first component falls short by exactly
2 (f + g k)_1 = x1 + x1^2 + x1^3/3; the depth-2 form is the correct
bracket step applied to that wrong depth-1 form, so the error propagates.
The companion test pins the recurrence forms, which the dual-flow
derivative oracle in test_rank.py confirms independently.  The
transcription is kept verbatim and test_criterion_01_..._transcribed_forms
pins the erratum itself, so the discrepancy is reported on every run
rather than silently patched or left as a standing failure.
"""

import time

import numpy as np

from oracles import cosine_bump, feedback_perturbation_energy, lyap_ctrl, lyap_obs
from vargram.calculus import VectorField, ad_closed_loop_field
from vargram.cli import main
from vargram.energy import (
    diff_controllability_fb,
    diff_observability,
    incr_controllability_fb,
    incr_observability,
    quadratic_limit,
)
from vargram.gramian import (
    EmpiricalGramianField,
    empirical_ctrl_gramian,
    empirical_obs_gramian,
    grid_points,
    lyap_residual_ctrl,
    pd_scan,
    riccati_residual,
)
from vargram.integrate import integrate_ivp
from vargram.rank import ctrl_bracket_matrix, obs_codistribution
from vargram.sampling import SplitMix64
from vargram.systems import adjoint_pair, registry
from vargram.verify import check_thm1, check_thm2, check_thm3, check_thm4, fit_decay

UNIT_BOX = [(-1.0, 1.0), (-1.0, 1.0)]


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# ------------------------------------------------------- criterion 1


def _transcribed_brackets(x1: float):
    # depth-1 / depth-2 columns exactly as transcribed; see module docstring
    first = np.array([1.5 + 2.0 * x1 + x1 ** 2 + x1 ** 3 / 3.0, 0.5])
    second = np.array(
        [1.25 + 4.0 * x1 + 5.25 * x1 ** 2 + 4.0 * x1 ** 3
         + (5.0 / 3.0) * x1 ** 4 + x1 ** 5 / 3.0, 0.25])
    return first, second


def _recurrence_brackets(x1: float):
    # the same columns obtained by running the bracket recursion on
    # [1 + x1, 1] symbolically and collecting coefficients
    first = np.array(
        [1.5 + 3.0 * x1 + 2.0 * x1 ** 2 + (2.0 / 3.0) * x1 ** 3, 0.5])
    second = np.array(
        [1.25 + 5.0 * x1 + 8.25 * x1 ** 2 + (22.0 / 3.0) * x1 ** 3
         + (10.0 / 3.0) * x1 ** 4 + (2.0 / 3.0) * x1 ** 5, 0.25])
    return first, second


def _bracket_error(closed_form_pair):
    """Worst abs deviation of numeric depth-1/2 brackets from closed forms."""
    sys5 = registry("paper_sec5")
    rng = SplitMix64(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        x = rng.point_in_box(UNIT_BOX)
        cols = ctrl_bracket_matrix(sys5, x, depth=2).matrix
        first, second = closed_form_pair(x[0])
        worst = max(worst,
                    float(np.max(np.abs(cols[:, 1] - first))),
                    float(np.max(np.abs(cols[:, 2] - second))))
    return worst, time.perf_counter() - start


def test_criterion_01_brackets_match_recurrence_forms():
    worst, elapsed = _bracket_error(_recurrence_brackets)
    ok = worst <= 1e-9 and elapsed < 1.0
    assert _verdict(
        "criterion 1 (recurrence forms)", ok,
        f"max abs error {worst:.3g} at 100 random points, {elapsed:.2f}s")


def _closed_loop_first(x1: float) -> float:
    # first component of f + g k for paper_sec5, expanded by hand:
    # -x1/2 - x1^2 - x1^3/3 - x1 x2 - x2 + (1 + x1)(x1 + x1^2/2 + x2)
    return x1 / 2.0 + x1 ** 2 / 2.0 + x1 ** 3 / 6.0


def test_criterion_01_brackets_match_transcribed_forms():
    """Pin the transcription erratum rather than fail on it.

    The transcribed depth-1 column flips the sign of (dg/dx)(f + g k) in
    the bracket step, so the computed depth-1 column exceeds it by exactly
    [2 (f + g k)_1, 0].  The transcribed depth-2 column is one correct
    bracket step applied to the transcribed depth-1 column.  Both facts
    are checked against the program's bracket step, so a fault in that
    step still fails this test.
    """
    sys5 = registry("paper_sec5")
    step_of_transcribed = ad_closed_loop_field(
        sys5, VectorField(2, 2, lambda xs: list(_transcribed_brackets(xs[0])[0])))
    rng = SplitMix64(2024)
    start = time.perf_counter()
    offset_err = 0.0
    step_err = 0.0
    for _ in range(100):
        x = rng.point_in_box(UNIT_BOX)
        cols = ctrl_bracket_matrix(sys5, x, depth=2).matrix
        first, second = _transcribed_brackets(x[0])
        erratum = np.array([2.0 * _closed_loop_first(x[0]), 0.0])
        stepped = np.asarray(step_of_transcribed(x), dtype=float)
        offset_err = max(offset_err,
                         float(np.max(np.abs(cols[:, 1] - first - erratum))))
        step_err = max(step_err, float(np.max(np.abs(stepped - second))))
    elapsed = time.perf_counter() - start
    ok = offset_err <= 1e-9 and step_err <= 1e-9 and elapsed < 1.0
    assert _verdict(
        "criterion 1 (transcribed forms, erratum: sign of (dg/dx)(f+gk) "
        "at depth 1, propagated to depth 2)", ok,
        f"depth-1 offset from 2(f+gk)_1 off by {offset_err:.3g}, depth-2 "
        f"step of the transcription off by {step_err:.3g} at 100 random "
        f"points, {elapsed:.2f}s")


# ------------------------------------------------------- criterion 2


def test_criterion_02_bracket_matrix_has_full_rank_everywhere():
    sys5 = registry("paper_sec5")
    pts = grid_points(UNIT_BOX, (21, 21))
    start = time.perf_counter()
    ranks = [ctrl_bracket_matrix(sys5, list(p), depth=2).rank for p in pts]
    elapsed = time.perf_counter() - start
    full = sum(r == 2 for r in ranks)
    ok = full == len(pts) and elapsed < 5.0
    assert _verdict(
        "criterion 2", ok,
        f"bracket matrix rank 2 at {full}/{len(pts)} grid points, {elapsed:.2f}s")


# ------------------------------------------------------- criterion 3


def test_criterion_03_observability_rank_drops_only_on_the_line():
    # depth 1 is the n-row tower (gradients of h and L_f h); deeper rows
    # restore full rank on x1 = -1, so the drop is specific to this depth
    sys5 = registry("paper_sec5")
    off = [p for p in grid_points(UNIT_BOX, (21, 21)) if abs(p[0] + 1.0) > 1e-2]
    ranks_off = [obs_codistribution(sys5, list(p), depth=1).rank for p in off]
    on_line = [[-1.0, x2] for x2 in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    ranks_on = [obs_codistribution(sys5, p, depth=1).rank for p in on_line]
    ok = all(r == 2 for r in ranks_off) and all(r == 1 for r in ranks_on)
    assert _verdict(
        "criterion 3", ok,
        f"rank 2 at {sum(r == 2 for r in ranks_off)}/{len(off)} points off the "
        f"line, rank 1 at {sum(r == 1 for r in ranks_on)}/5 points on it")


# ------------------------------------------------------- criterion 4


def test_criterion_04_identity_certificates_solve_both_equation_pairs():
    sys5 = registry("paper_sec5")

    def eye(xs):
        return np.eye(2)

    worst = 0.0
    pts = grid_points([(-0.5, 0.5), (-0.5, 0.5)], (5, 5))
    for p in pts:
        state_r, gain_r = riccati_residual(sys5, eye, list(p))
        state_p, gain_p = lyap_residual_ctrl(sys5, eye, list(p))
        worst = max(worst, state_r.frobenius_norm, gain_r.frobenius_norm,
                    state_p.frobenius_norm, gain_p.frobenius_norm)
    ok = worst <= 1e-12
    assert _verdict(
        "criterion 4", ok,
        f"worst certificate residual {worst:.3g} at {len(pts)} points")


# ------------------------------------------------------- criterion 5


def test_criterion_05_empirical_gramian_positive_definite_on_region():
    sys5 = registry("paper_sec5")
    field = EmpiricalGramianField(sys5, "obs", tol=1e-8)
    start = time.perf_counter()
    scan = pd_scan(field, [(-0.3, 0.3), (-0.3, 0.3)], (21, 21))
    elapsed = time.perf_counter() - start
    clean = all(s == "ok" for s in scan.statuses)
    ok = (clean and bool(np.all(scan.min_eigs > 0.0))
          and bool(np.all(scan.dets > 0.0)) and elapsed < 120.0)
    assert _verdict(
        "criterion 5", ok,
        f"min eigenvalue {scan.min_eigs.min():.3g}, min det {scan.dets.min():.3g} "
        f"over {len(scan.statuses)} points, {elapsed:.0f}s")


# ------------------------------------------------------- criterion 6

_LINEAR_CASES = {
    "linear_scalar": {
        "a": [[-1.0]], "c": [[1.0]], "k": [[2.0]], "a_cl": [[1.0]],
        "x0": [0.0], "tangents": [[0.5], [-0.7]],
    },
    "linear_2x2": {
        "a": [[0.0, 1.0], [-2.0, -3.0]], "c": [[1.0, 0.0]],
        "k": [[0.0, 6.0]], "a_cl": [[0.0, 1.0], [-2.0, 3.0]],
        "x0": [0.2, -0.1], "tangents": [[0.3, 0.2], [-0.2, 0.4]],
    },
}


def test_criterion_06_linear_systems_match_algebraic_oracles():
    gram_err = energy_err = margin_worst = 0.0
    verdicts_ok = True
    for name, case in _LINEAR_CASES.items():
        sys_ = registry(name)
        q_ref = lyap_obs(np.array(case["a"]), np.array(case["c"]))
        r_ref = lyap_ctrl(np.array(case["a_cl"]), np.array(case["k"]))
        x0 = case["x0"]
        gram_err = max(
            gram_err,
            float(np.max(np.abs(empirical_obs_gramian(sys_, x0).matrix - q_ref))),
            float(np.max(np.abs(empirical_ctrl_gramian(sys_, x0).matrix - r_ref))))

        for tangent in case["tangents"]:
            v = np.asarray(tangent, dtype=float)
            x0p = list(np.asarray(x0) + v)
            e_obs = 0.5 * float(v @ q_ref @ v)
            e_ctrl = 0.5 * float(v @ r_ref @ v)
            energy_err = max(
                energy_err,
                abs(diff_observability(sys_, x0, tangent).value - e_obs),
                abs(incr_observability(sys_, x0, x0p).value - e_obs),
                abs(diff_controllability_fb(sys_, x0, tangent).value - e_ctrl),
                abs(incr_controllability_fb(sys_, x0, x0p).value - e_ctrl))

        pairs = [(x0, list(np.asarray(x0) + np.asarray(t)))
                 for t in case["tangents"]]
        tangents = [(x0, t) for t in case["tangents"]]
        for check, data in ((check_thm1, pairs), (check_thm2, tangents),
                            (check_thm3, pairs), (check_thm4, tangents)):
            report = check(sys_, data)
            verdicts_ok = verdicts_ok and report.verdict == "pass"
            margin_worst = max(margin_worst,
                               max(abs(s.margin) for s in report.samples))
    ok = (gram_err <= 1e-6 and energy_err <= 1e-6
          and margin_worst <= 1e-8 and verdicts_ok)
    assert _verdict(
        "criterion 6", ok,
        f"Gramian error {gram_err:.3g}, energy error {energy_err:.3g}, "
        f"worst equality margin {margin_worst:.3g}, all verdicts pass: "
        f"{verdicts_ok}")


# ------------------------------------------------------- criterion 7


def test_criterion_07_small_gap_limit_matches_differential_energy():
    sys5 = registry("paper_sec5")
    rng = SplitMix64(77)
    worst = 0.0
    ladders_ok = True
    for _ in range(10):
        x0 = np.array(rng.point_in_box([(-0.05, 0.05), (-0.05, 0.05)]))
        # half-unit tangents keep the cubic-in-s correction well inside the
        # ladder's settle tolerance; the limit itself is tangent-quadratic
        dx0 = np.array(rng.point_in_box([(-0.5, 0.5), (-0.5, 0.5)]))
        limit = quadratic_limit(
            lambda a, b: incr_observability(sys5, b, a, tol=1e-10), x0, dx0)
        ref = diff_observability(sys5, x0, dx0, tol=1e-8)
        worst = max(worst, abs(limit.limit - ref.value))
        ladders_ok = (ladders_ok and len(limit.table) == 4
                      and limit.discrepancy <= 1e-4)
    ok = worst <= 1e-4 and ladders_ok
    assert _verdict(
        "criterion 7", ok,
        f"worst |limit - differential| {worst:.3g} over 10 samples, ladders "
        f"settled: {ladders_ok}")


# ------------------------------------------------------- criterion 8


def test_criterion_08_path_integral_bounds_pair_energy():
    sys5 = registry("paper_sec5")
    rng = SplitMix64(88)
    box = [(-0.1, 0.1), (-0.1, 0.1)]
    pairs = [(rng.point_in_box(box), rng.point_in_box(box)) for _ in range(10)]
    rep_ctrl = check_thm1(sys5, pairs)
    rep_obs = check_thm3(sys5, pairs)
    samples = rep_ctrl.samples + rep_obs.samples
    slack = min(s.margin + s.budget for s in samples)
    ok = (rep_ctrl.verdict == "pass" and rep_obs.verdict == "pass"
          and len(rep_ctrl.samples) == 10 and len(rep_obs.samples) == 10
          and all(s.margin >= -s.budget for s in samples))
    assert _verdict(
        "criterion 8", ok,
        f"both path-integral bounds pass on 10 pairs, worst slack {slack:.3g}")


# ------------------------------------------------------- criterion 9


def test_criterion_09_feedback_input_is_energy_optimal():
    rng = SplitMix64(99)
    cases = {"linear_scalar": ([0.3], [0.5]),
             "paper_sec5": ([0.1, -0.1], [0.2, 0.1])}
    worst = np.inf
    ok = True
    for name, (x0, dx0) in cases.items():
        sys_ = registry(name)
        ref = diff_controllability_fb(sys_, x0, dx0, tol=1e-8)
        for _ in range(20):
            t0 = rng.uniform(0.5, 5.0)
            width = rng.uniform(0.5, 3.0)
            amp = [rng.uniform(-1.0, 1.0) for _ in range(sys_.m)]
            bump = cosine_bump(-t0 - width, -t0, amp)
            perturbed = feedback_perturbation_energy(sys_, x0, dx0,
                                                     w_signal=bump)
            slack = perturbed.value - ref.value
            worst = min(worst, slack)
            ok = ok and slack >= -1e-8
    assert _verdict(
        "criterion 9", ok,
        f"perturbed input energy never beats the feedback optimum over 20 "
        f"bumps per system; smallest excess {worst:.3g}")


# ------------------------------------------------------- criterion 10


def test_criterion_10_variational_states_decay_with_artifacts(tmp_path):
    ok = True
    details = []
    for mode, flag, block in (("prolonged", "--dx0", "dx"),
                              ("dual-closed-loop", "--dp0", "dp")):
        out = tmp_path / mode
        code = main(["simulate", "--system", "paper_sec5", "--mode", mode,
                     "--x0", "0.1,0.1", flag, "0.1,0.1", "--tf", "10",
                     "--samples", "201", "--out", str(out), "--plot"])
        lines = (out / "trajectory.csv").read_text().splitlines()
        header = lines[0].split(",")
        i1, i2 = header.index(block + "1"), header.index(block + "2")
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        t = data[:, 0]
        norms = np.hypot(data[:, i1], data[:, i2])
        monotone = bool(np.all(np.diff(norms[t >= 2.0]) <= 1e-10))
        fit = fit_decay((t, norms))
        script = out / "trajectory.gp"
        plot_ok = script.exists() and "trajectory.csv" in script.read_text()
        ok = (ok and code == 0 and monotone and fit.lam > 0.0
              and not fit.flagged and plot_ok)
        details.append(f"{mode}: rate {fit.lam:.3f}, monotone past t=2 "
                       f"{monotone}, plot script {plot_ok}")
    assert _verdict("criterion 10", ok, "; ".join(details))


# ------------------------------------------------------- criterion 11


def test_criterion_11_adjoint_pairing_stays_flat():
    rng = SplitMix64(1111)
    worst = 0.0
    for name in ("paper_sec5", "linear_2x2"):
        sys_ = registry(name)
        aug = adjoint_pair(sys_)
        state_box = [(-0.3, 0.3)] * sys_.n
        unit = [(-1.0, 1.0)] * sys_.n
        for _ in range(10):
            z0 = aug.pack(x=rng.point_in_box(state_box),
                          dp=rng.point_in_box(unit),
                          dx=rng.point_in_box(unit))
            traj = integrate_ivp(aug.rhs, z0, (0.0, 10.0))
            start = aug.outputs["pairing"](z0)[0]
            drift = max(abs(aug.outputs["pairing"](traj.at(t))[0] - start)
                        for t in np.linspace(0.0, 10.0, 101))
            worst = max(worst, drift)
    ok = worst <= 1e-6
    assert _verdict(
        "criterion 11", ok,
        f"pairing drift at most {worst:.3g} over [0, 10], 10 random "
        f"initializations per system")
