"""Theorem checks: decay fits, sample verdicts, and the report schema."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from vargram.calculus import MatrixField, VectorField
from vargram.expr import parse_system_spec
from vargram.gramian import EmpiricalGramianField
from vargram.integrate import MIN_FIT_SAMPLES
from vargram.systems import SystemModel, from_spec, registry
from vargram.verify import (
    EQUALITY_TOL,
    DecayEstimate,
    Report,
    Sample,
    _implications,
    _settle,
    check_cor7,
    check_thm1,
    check_thm2,
    check_thm3,
    check_thm4,
    check_thm5,
    fit_decay,
)

EXAMPLE = Path(__file__).resolve().parents[1] / "src" / "vargram" / "data" / "example.json"


def test_fit_decay_recovers_exact_exponential():
    times = np.linspace(0.0, 20.0, 201)
    fit = fit_decay((times, np.exp(-2.0 * times)))
    assert abs(fit.lam - 2.0) < 1e-10
    assert abs(fit.c - 1.0) < 1e-10
    assert fit.residual < 1e-12
    assert not fit.flagged
    assert fit.fit_window[0] >= 10.0  # far half only


def test_fit_decay_flags_non_decay():
    times = np.linspace(0.0, 20.0, 201)
    assert fit_decay((times, np.ones_like(times))).flagged
    growing = fit_decay((times, np.exp(0.5 * times)))
    assert growing.flagged and growing.lam < 0


def test_fit_decay_input_validation():
    # the window needs MIN_FIT_SAMPLES positive values; a value that is
    # not positive has no logarithm and is left out of the fit
    assert MIN_FIT_SAMPLES == 3
    with pytest.raises(ValueError, match="at least 3 positive"):
        fit_decay((np.linspace(0, 1, 3), np.ones(3)))  # two in the window
    times = np.linspace(0.0, 20.0, 100)
    values = np.exp(-times)
    values[-1] = 0.0
    fit = fit_decay((times, values))
    assert abs(fit.lam - 1.0) < 1e-10 and fit.fit_window[1] == times[-2]
    values[times >= 10.0] = 0.0
    with pytest.raises(ValueError, match="positive"):
        fit_decay((times, values))


def test_fit_decay_weights_each_sample_by_its_step():
    # a solver's crowded steps weigh as much as the span they cover: here
    # log |signal| bends at t = 15, and the 38 samples added on [15, 16]
    # would pull an unweighted fit toward the slope there
    even = np.linspace(0.0, 20.0, 41)
    crowded = np.union1d(even, np.linspace(15.0, 16.0, 41))

    def signal(t):
        return np.exp(-t - 0.5 * np.maximum(t - 15.0, 0.0) ** 2)

    base, dense = fit_decay((even, signal(even))), fit_decay((crowded, signal(crowded)))
    unweighted = -np.polyfit(crowded[crowded >= 10.0],
                             np.log(signal(crowded[crowded >= 10.0])), 1)[0]
    assert abs(dense.lam - base.lam) < 0.2 * abs(unweighted - base.lam)


def test_sample_relations_and_budgets():
    ge = Sample({}, 1.0, 2.0, budget=0.5)
    assert ge.margin == -1.0 and not ge.ok()
    assert Sample({}, 2.0, 1.0, budget=0.0).ok()
    assert Sample({}, 1.0, 1.2, budget=0.3).ok()

    eq = Sample({}, 1.0, 1.2, budget=0.1, relation="eq")
    assert not eq.ok()
    assert Sample({}, 1.0, 1.05, budget=0.1, relation="eq").ok()


def test_budget_tightening_never_rescues_a_failure():
    rng = np.random.default_rng(59)
    for _ in range(200):
        margin = rng.uniform(-2, 2)
        b_loose = rng.uniform(0, 2)
        b_tight = b_loose * rng.uniform(0, 1)
        for relation in ("ge", "eq"):
            loose = Sample({}, margin, 0.0, b_loose, relation=relation)
            tight = Sample({}, margin, 0.0, b_tight, relation=relation)
            if not loose.ok():
                assert not tight.ok()


def test_settle_precedence():
    bad = Sample({}, 0.0, 1.0, budget=0.0)
    good = Sample({}, 1.0, 0.0, budget=0.0)
    # a counterexample dominates hypothesis failures
    assert _settle([good, bad], ["sim failed"]) == "fail"
    assert _settle([good], ["sim failed"]) == "inconclusive"
    assert _settle([good], []) == "pass"
    assert _settle([], []) == "pass"  # vacuous sample set


@pytest.mark.parametrize("check", [check_thm1, check_thm2, check_thm3, check_thm4],
                         ids=lambda c: c.__name__)
def test_checks_with_no_samples_are_inconclusive(check):
    report = check(registry("linear_scalar"), [])
    assert report.verdict == "inconclusive"
    assert "no sample was tested" in report.notes


@pytest.mark.parametrize("samples", [[], [([0.3], [0.0]), ([-0.5], [0.0])]],
                         ids=["no samples", "zero tangents"])
@pytest.mark.parametrize("check", [check_thm5, check_cor7], ids=lambda c: c.__name__)
def test_harness_checks_that_simulate_nothing_are_inconclusive(check, samples):
    system = registry("linear_scalar")
    field = system.certificates["Q" if check is check_thm5 else "P"]
    report = check(system, field, [(-1.0, 1.0)], samples, grid_shape=(3,))
    assert report.verdict == "inconclusive"
    assert report.decay_fits == []
    assert "no sample was tested" in report.notes
    assert any(n.startswith("item 1 ") and n.endswith(": fail") for n in report.notes)
    assert not any("IMPLICATION VIOLATED" in n for n in report.notes)


def test_implication_triple_logic():
    notes, verdict = _implications({1: True, 2: True, 3: True})
    assert verdict == "pass"
    assert sum("implication witnessed" in n for n in notes) == 3

    notes, verdict = _implications({1: True, 2: True, 3: False})
    assert verdict == "fail"
    assert any("IMPLICATION VIOLATED" in n for n in notes)

    # a single failing antecedent leaves nothing to assert
    notes, verdict = _implications({1: True, 2: False, 3: False})
    assert verdict == "inconclusive"
    assert all("not asserted" in n for n in notes)

    # an untested item is neither a witness nor a counterexample
    notes, verdict = _implications({1: None, 2: True, 3: True})
    assert verdict == "inconclusive"
    assert "implication not asserted: item 1 untested" in notes


def test_linear_theorem_equalities():
    sys_ = registry("linear_scalar")
    pairs = [([0.0], [0.5]), ([-0.3], [0.2])]
    tangents = [([0.0], [1.0]), ([0.4], [-0.7])]

    for check, data in ((check_thm1, pairs), (check_thm3, pairs),
                        (check_thm2, tangents), (check_thm4, tangents)):
        report = check(sys_, data)
        assert report.verdict == "pass"
        for s in report.samples:
            assert abs(s.margin) <= 1e-8


def test_thm1_skips_decay_fit_for_identical_pairs():
    sys_ = registry("linear_scalar")
    report = check_thm1(sys_, [([0.2], [0.2])])
    assert report.verdict == "pass"
    assert report.decay_fits == []
    assert report.samples[0].lhs == report.samples[0].rhs == 0.0


def test_thm1_inconclusive_when_backward_gap_grows():
    # zero feedback leaves the reversed closed loop unstable, so the decay
    # hypothesis fails and no inequality is asserted
    base = registry("linear_scalar")
    lazy = SystemModel(
        name="lazy", n=1, m=1, p=1,
        f=base.f, g=base.g, h=base.h,
        k=VectorField(1, 1, lambda xs: [0.0]),
        certificates={}, meta={},
    )
    report = check_thm1(lazy, [([0.0], [0.4])])
    assert report.verdict == "inconclusive"
    assert report.samples == []
    assert any("does not decay" in note for note in report.notes)


def test_thm2_relation_depends_on_certificate():
    sys_ = registry("linear_scalar")
    with_cert = check_thm2(sys_, [([0.0], [1.0])])
    assert with_cert.verdict == "pass"
    assert with_cert.samples[0].relation == "eq"
    assert any("certificate" in n for n in with_cert.notes)

    stripped = SystemModel(
        name="stripped", n=1, m=1, p=1,
        f=sys_.f, g=sys_.g, h=sys_.h, k=sys_.k,
        certificates={}, meta={},
    )
    without = check_thm2(stripped, [([0.0], [1.0])])
    assert without.verdict == "pass"
    assert without.samples[0].relation == "ge"
    assert "upper bound only" in without.samples[0].note


def test_thm2_asserts_no_equality_for_a_certificate_that_fails_its_equations():
    # k = x1 + x2 is not the optimal feedback, so the identity certificates
    # of example.json no longer solve their equations (dRicc_gain is
    # 0.2-0.3 on the region): the limit is only an upper bound
    doc = json.loads(EXAMPLE.read_text(encoding="utf-8"))
    doc["k"] = ["x1 + x2"]
    report = check_thm2(from_spec(parse_system_spec(doc)), [([0.25, -0.1], [1.0, 0.0])])
    assert [s.relation for s in report.samples] == ["ge"]
    assert report.samples[0].note == "upper bound only: certificate fails its equations"
    assert not any("equality asserted" in n for n in report.notes)


def test_thm4_equality_on_nonlinear_system():
    sys_ = registry("paper_sec5")
    report = check_thm4(sys_, [([0.05, 0.05], [1.0, 0.0]),
                               ([0.0, 0.0], [0.0, 0.0])])
    assert report.verdict == "pass"
    for s in report.samples:
        assert s.relation == "eq"
        assert abs(s.margin) <= EQUALITY_TOL
    # the zero-tangent shortcut contributes a trivial sample
    assert report.samples[1].lhs == 0.0


def test_thm5_passes_on_the_polynomial_example():
    sys_ = registry("paper_sec5")
    q_field = EmpiricalGramianField(sys_, "obs", fixed_horizon=40.0)
    region = [(-0.1, 0.1), (-0.1, 0.1)]
    samples = [([0.05, 0.0], [1.0, 0.0]), ([0.0, 0.05], [0.0, 1.0])]
    report = check_thm5(sys_, q_field, region, samples, grid_shape=(3, 3))
    assert report.verdict == "pass"
    assert sum("implication witnessed" in n for n in report.notes) == 3
    assert any("assumed, not checked" in n for n in report.notes)
    assert all(s.ok() for s in report.samples)
    assert len(report.decay_fits) == 2


def test_thm5_precondition_rejects_wrong_certificate():
    sys_ = registry("paper_sec5")
    report = check_thm5(sys_, MatrixField.constant(np.eye(2)),
                        [(-0.1, 0.1), (-0.1, 0.1)],
                        [([0.0, 0.0], [1.0, 0.0])], grid_shape=(3, 3))
    assert report.verdict == "inconclusive"
    assert any("precondition failed" in n for n in report.notes)
    assert report.samples == []


def test_thm5_unobservable_system_is_inconclusive():
    # h = 0 solves the matrix equation with Q = 0, but the rank and
    # definiteness items fail, so no implication can fire
    dark = SystemModel(
        name="dark", n=1, m=1, p=1,
        f=VectorField(1, 1, lambda xs: [-xs[0]]),
        g=MatrixField.constant([[1.0]]),
        h=VectorField(1, 1, lambda xs: [0.0]),
        k=None, certificates={}, meta={},
    )
    report = check_thm5(dark, MatrixField.constant([[0.0]]), [(-1.0, 1.0)],
                        [([0.2], [1.0])], grid_shape=(3,))
    assert report.verdict == "inconclusive"
    assert any("item 2" in n and "fail" in n for n in report.notes)
    assert any("item 3" in n and "fail" in n for n in report.notes)
    assert any("item 1" in n and "pass" in n for n in report.notes)


def test_cor7_passes_with_unit_certificate():
    sys_ = registry("paper_sec5")
    report = check_cor7(sys_, sys_.certificates["P"],
                        [(-0.5, 0.5), (-0.5, 0.5)],
                        [([0.1, 0.1], [1.0, 0.0])], grid_shape=(3, 3))
    assert report.verdict == "pass"
    assert sum("implication witnessed" in n for n in report.notes) == 3


def test_cor7_without_input_is_inconclusive():
    numb = SystemModel(
        name="numb", n=1, m=1, p=1,
        f=VectorField(1, 1, lambda xs: [-xs[0]]),
        g=MatrixField.constant([[0.0]]),
        h=VectorField(1, 1, lambda xs: [xs[0]]),
        k=VectorField(1, 1, lambda xs: [0.0]),
        certificates={}, meta={},
    )
    report = check_cor7(numb, MatrixField.constant([[0.0]]), [(-1.0, 1.0)],
                        [([0.2], [1.0])], grid_shape=(3,))
    assert report.verdict == "inconclusive"
    assert any("item 2" in n and "fail" in n for n in report.notes)


def test_report_json_schema():
    sys_ = registry("linear_scalar")
    report = check_thm4(sys_, [([0.0], [1.0])])
    payload = json.loads(report.to_json())
    assert set(payload) == {"theorem", "verdict", "samples", "decay_fits", "notes"}
    assert payload["theorem"] == "thm4"
    assert payload["verdict"] == "pass"
    sample = payload["samples"][0]
    assert {"inputs", "lhs", "rhs", "margin", "budget", "relation"} <= set(sample)
    # serialization is stable: sorted keys, trailing newline
    text = report.to_json()
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert math.isclose(sample["margin"], sample["lhs"] - sample["rhs"])


def test_decay_estimate_serialization():
    est = DecayEstimate(c=1.0, lam=2.0, fit_window=(10.0, 20.0), residual=0.0)
    d = est.as_dict()
    assert d["lam"] == 2.0 and d["flagged"] is False
    report = Report("thm0", "pass", decay_fits=[est])
    assert json.loads(report.to_json())["decay_fits"][0]["c"] == 1.0
