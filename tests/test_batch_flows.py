"""Batch-native flows: many points in one DOP853 solve.

A (B, n) stack of points is integrated as one augmented state whose
steps are accepted only when every point's own DOP853 error norm accepts
them.  These tests pin the batched energies, Gramians and improper
integrals to their single-point calls, per point, and a stack of one to
its point bitwise, and check that a failure inside a batch is reported
for the point it belongs to.
"""

import numpy as np
import pytest

from vargram.energy import (diff_controllability_fb, diff_observability,
                            incr_controllability_fb, incr_observability)
from vargram.expr import ExprEvalError, parse_system_spec
from vargram.gramian import (EmpiricalGramianField, empirical_ctrl_gramian,
                             empirical_obs_gramian, pd_scan)
from vargram.integrate import (MAX_BATCH, BlowUpError, DivergenceError,
                               improper_time_integral, improper_time_integrals)
from vargram.systems import from_spec, registry

# a stable drift with a closed loop whose reversal is stable too
# (A + B K has eigenvalues 0.5, 1 and 1.5), so every energy converges
SPEC_N3 = {"name": "spec_n3", "n": 3, "m": 1, "p": 1,
           "f": ["-x1 + x2", "-x2 + x3", "-x3 + x1*x2/4"],
           "g": [["0"], ["0"], ["1"]], "h": ["x1"], "k": ["7.5*x1 - 11.75*x2 + 6*x3"]}

# batched and single solves take different steps, so they agree to the
# integrator's error, not bitwise: at these tolerances it is below 1e-12
TIGHT = {"rtol": 1e-13, "atol": 1e-16}


def _systems():
    for name in ("paper_sec5", "linear_2x2", "linear_scalar"):
        yield registry(name)
    yield from_spec(parse_system_spec(SPEC_N3))


def _close(batched: float, single: float) -> bool:
    return abs(batched - single) <= 1e-12 * abs(single)


@pytest.mark.parametrize("system", list(_systems()), ids=lambda s: s.name)
def test_batched_energies_and_gramians_match_single_point_calls(system):
    rng = np.random.default_rng(3)
    points = rng.uniform(-0.3, 0.3, (5, system.n))
    tangents = rng.uniform(-1.0, 1.0, (5, system.n))
    for energy, second in ((diff_observability, tangents),
                           (incr_observability, points + 0.05 * tangents),
                           (diff_controllability_fb, tangents),
                           (incr_controllability_fb, points + 0.05 * tangents)):
        batched = energy(system, points, second, **TIGHT)
        assert len(batched) == len(points)
        for b, (x, v) in enumerate(zip(points, second)):
            single = energy(system, x, v, **TIGHT)
            assert _close(batched[b].value, single.value), (energy.__name__, b)
            assert (batched[b].horizon, batched[b].nodes_used) == \
                (single.horizon, single.nodes_used), (energy.__name__, b)
    for gramian in (empirical_obs_gramian, empirical_ctrl_gramian):
        for fixed_horizon in (None, 40.0):
            batched = gramian(system, points, fixed_horizon=fixed_horizon, **TIGHT)
            for b, x in enumerate(points):
                single = gramian(system, x, fixed_horizon=fixed_horizon, **TIGHT)
                scale = np.max(np.abs(single.matrix))
                assert np.max(np.abs(batched[b].matrix - single.matrix)) <= 1e-12 * scale
                assert (batched[b].horizon, batched[b].nodes_used) == \
                    (single.horizon, single.nodes_used), (gramian.__name__, b)


@pytest.mark.parametrize("name", ["paper_sec5", "linear_2x2", "linear_scalar"])
def test_a_stack_of_one_gives_the_point_bitwise(name):
    # a point is integrated as a batch of one, so the two are one computation
    system = registry(name)
    rng = np.random.default_rng(18)
    for x, v in zip(rng.uniform(-0.3, 0.3, (2, system.n)), rng.uniform(-1.0, 1.0, (2, system.n))):
        for energy, second in ((diff_observability, v), (incr_observability, x + 0.05 * v),
                               (diff_controllability_fb, v),
                               (incr_controllability_fb, x + 0.05 * v)):
            single = energy(system, x, second)
            (stacked,) = energy(system, x[None], second[None])
            assert (stacked.value, stacked.error_estimate, stacked.horizon) == \
                (single.value, single.error_estimate, single.horizon), energy.__name__
        for gramian in (empirical_obs_gramian, empirical_ctrl_gramian):
            for fixed_horizon in (None, 40.0):
                single = gramian(system, x, fixed_horizon=fixed_horizon)
                (stacked,) = gramian(system, x[None], fixed_horizon=fixed_horizon)
                assert np.array_equal(stacked.matrix, single.matrix), gramian.__name__
                assert stacked.truncation_error == single.truncation_error


RATES = np.array([2.0, 0.05, 0.5, 0.12, 1.0])


def test_batched_improper_integral_stops_each_point_at_its_own_horizon():
    batched = improper_time_integrals(lambda t: np.exp(-np.outer(np.abs(t), RATES)),
                                      "backward", len(RATES))
    horizons = set()
    for rate, res in zip(RATES, batched):
        single = improper_time_integral(lambda t: np.exp(-rate * np.abs(t)), "backward")
        assert abs(res.value - 1.0 / rate) <= 1e-9 / rate
        assert abs(res.value - single.value) <= 1e-14 * single.value
        assert (res.horizon, res.nodes_used, res.meta) == \
            (single.horizon, single.nodes_used, single.meta)
        assert res.tail_estimate == pytest.approx(single.tail_estimate, rel=1e-9)
        assert res.error_estimate == pytest.approx(single.error_estimate, rel=1e-6)
        horizons.add(res.horizon)
    assert len(horizons) >= 3  # the points really stopped apart


def test_a_diverging_point_is_named():
    rates = np.array([1.0, 0.0, 0.5])  # the second integrand never decays
    with pytest.raises(DivergenceError, match="at point 1"):
        improper_time_integrals(lambda t: np.exp(-np.outer(np.abs(t), rates)),
                                "forward", len(rates))


# dx/dt = -x + x^3 escapes in finite time from |x| > 1
ESCAPING = {"name": "escaping", "n": 1, "m": 1, "p": 1, "f": ["-x1 + x1^3"],
            "g": [["1"]], "h": ["x1"], "k": ["-x1"]}


def test_an_escaping_point_is_named_and_scanned_alone():
    system = from_spec(parse_system_spec(ESCAPING))
    stack = np.array([[-0.5], [0.5], [1.5], [0.25]])
    with pytest.raises(BlowUpError, match="at point 2") as err:
        diff_observability(system, stack, np.ones_like(stack))
    assert err.value.point == 2
    with pytest.raises(BlowUpError) as err:
        empirical_obs_gramian(system, stack, fixed_horizon=40.0)
    assert err.value.point == 2

    field = EmpiricalGramianField(system, "obs")
    scan = pd_scan(field, [(-0.5, 1.5)], (3,))
    assert scan.statuses[:2] == ["ok", "ok"]
    assert scan.statuses[2].startswith("BlowUpError")
    for i, x in enumerate(scan.points[:2]):
        matrix = empirical_obs_gramian(system, x, fixed_horizon=40.0).matrix
        assert scan.min_eigs[i] == matrix[0, 0]
    assert np.isnan(scan.min_eigs[2])


def test_a_zero_denominator_at_one_point_raises_for_the_batch():
    system = from_spec(parse_system_spec({
        "name": "pole", "n": 2, "m": 1, "p": 1, "f": ["-x1 / (1 + x2)", "-x2"],
        "g": [["1"], ["0"]], "h": ["x1"], "k": ["-x1"]}))
    for bad in ([0.5, -1.0], [0.0, -1.0]):  # x / 0, and 0 / 0
        stack = np.array([[0.5, 0.0], bad, [0.1, 0.3]])
        with pytest.raises(ExprEvalError, match="division by zero"):
            diff_observability(system, stack, np.ones_like(stack))
        with pytest.raises(ExprEvalError, match="division by zero"):
            empirical_obs_gramian(system, stack)


def test_many_fills_the_memo_from_one_batch():
    system = registry("paper_sec5")
    field = EmpiricalGramianField(system, "obs")
    points = np.array([[0.1, -0.2], [-0.25, 0.15], [0.1, -0.2]])
    matrices = field.many(points)
    assert len(field._cache) == 2 and matrices[0] is matrices[2]
    expected = empirical_obs_gramian(system, points[:2], fixed_horizon=40.0)
    for got, res in zip(matrices, expected):
        assert np.array_equal(got, res.matrix)
    assert field([0.1, -0.2]) is matrices[0]  # a memo hit, not a new Gramian


def test_a_stack_is_solved_in_fixed_batches_in_order():
    system = registry("paper_sec5")
    assert MAX_BATCH == 64
    points = np.random.default_rng(4).uniform(-0.3, 0.3, (MAX_BATCH + 1, 2))
    whole = empirical_obs_gramian(system, points, fixed_horizon=40.0)
    parts = (empirical_obs_gramian(system, points[:MAX_BATCH], fixed_horizon=40.0)
             + empirical_obs_gramian(system, points[MAX_BATCH:], fixed_horizon=40.0))
    assert len(whole) == len(parts) == MAX_BATCH + 1
    for got, expected in zip(whole, parts):
        assert np.array_equal(got.matrix, expected.matrix)
        assert got.truncation_error == expected.truncation_error
    empty = np.empty((0, 2))
    assert empirical_obs_gramian(system, empty, fixed_horizon=40.0) == []
    assert diff_observability(system, empty, empty) == []
