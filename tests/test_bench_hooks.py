"""The traced benchmark patches vargram names from outside (bench/spans.py).

Installing its hooks fails on the first name a refactor removed, so this
catches the breakage in the fast test tier instead of in a traced run.
The dense-output lookups are counted only through HorizonFlow.state and
Trajectory.at, so those two methods must be patched while installed and
restored after.  An energy accumulates its integral as a state of its
flow: it makes no dense lookup and no Jacobian call (the flow kernel's
duals give its output derivatives), its nodes_used are the accepted
steps the traced solves count, and its horizon doublings are its solves
past the first.  A bare integrand goes through the wrapped
improper_time_integral, which counts its nodes and doublings.  Batched
work must run under the hooks too, and its solver calls count one solve
per horizon segment of the batch.  A solve's dense-output
stages, evaluated after its step loop on all steps at once, must go
through the wrapped right-hand side, or integrate.rhs_s would lose
their time.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import vargram.energy as energy
import vargram.gramian as gramian
import vargram.integrate as integrate
import vargram.rank as rank
import vargram.verify as verify
from vargram.systems import prolong, registry

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_span_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    def hooked():
        return (verify.check_thm1, rank.numeric_rank,
                integrate.Trajectory.__dict__["at"], integrate.HorizonFlow.__dict__["state"])

    originals = hooked()
    tracer = spans.Tracer("t")
    try:
        spans.install(tracer)
        assert all(now is not before for now, before in zip(hooked(), originals))
        ev = energy.diff_observability(registry("paper_sec5"), (0.1, -0.2), (0.6, 0.8))
        assert (ev.horizon, ev.nodes_used) == (80.0, 55)
        # one solve for each of [0, 20], [20, 40] and [40, 80], read at its end
        assert tracer.counts["integrate.solve_calls"] == 3
        assert tracer.counts["integrate.dense_evals"] == 0
        assert tracer.leaves["calculus.jacobian"][0] == 0
        res = integrate.improper_time_integral(lambda t: np.exp(-t), "forward")
        assert tracer.counts["integrate.quad_nodes"] == res.nodes_used > 0
    finally:
        tracer.uninstall()
    assert hooked() == originals


def test_a_single_point_energy_counts_its_nodes_and_doublings(monkeypatch):
    # an energy's integrand samples are its solves' accepted steps, and
    # each horizon doubling is one more solve
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer("t")
    try:
        spans.install(tracer)
        ev = energy.diff_observability(registry("paper_sec5"), (0.1, -0.2), (0.6, 0.8))
    finally:
        tracer.uninstall()
    assert tracer.counts["integrate.steps"] == ev.nodes_used > 0
    assert tracer.counts["integrate.solve_calls"] - 1 == \
        round(math.log2(ev.horizon / 20.0)) > 0


def test_batched_work_runs_under_the_hooks(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    system = registry("paper_sec5")
    tracer = spans.Tracer("t")
    try:
        spans.install(tracer)
        # 24 inner energies of one path integral: one batch
        lhs = energy.path_energy_integral(
            lambda a, v: energy.diff_observability(system, a, v),
            energy.LinePath.between((0.1, -0.2), (-0.15, 0.1)))
        assert lhs.meta["inner_nodes"] > 0
        segments = 1 + round(math.log2(lhs.horizon / 20.0))
        assert tracer.counts["integrate.solve_calls"] == segments < 24
        assert tracer.counts["energy.evals"] == 1

        # four fixed-horizon Gramians: one solve of [0, 40] for all of them
        field = gramian.EmpiricalGramianField(system, "obs")
        scan = gramian.pd_scan(field, [(-0.2, 0.2), (-0.2, 0.2)], (2, 2))
        assert scan.statuses == ["ok"] * 4
        assert tracer.counts["integrate.solve_calls"] == segments + 1
        assert tracer.counts["gramian.gramians"] == 1
        assert (tracer.memo_calls, tracer.memo_hits) == (4, 4)
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("z0", [[0.3, -0.2, 0.6, 0.8],
                                [[0.3, -0.2, 0.6, 0.8], [-0.1, 0.25, 1.0, 0.0]]],
                         ids=["single", "batch"])
def test_traced_solves_count_every_rhs_call(monkeypatch, z0):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    rhs = prolong(registry("paper_sec5")).rhs
    times = []  # the time argument of each call: an array for a stack of steps

    def recording(t, z):
        times.append(np.ndim(t))
        return rhs(t, z)

    def solve():
        return integrate._solve_segment(recording, z0, 0.0, 20.0,
                                        integrate.DEFAULT_RTOL, integrate.DEFAULT_ATOL)

    untraced = solve()
    times.clear()
    tracer = spans.Tracer("t")
    try:
        spans.install(tracer)
        traced = solve()
    finally:
        tracer.uninstall()
    steps = len(untraced.t) - 1
    assert np.array_equal(traced.y, untraced.y)
    assert tracer.counts["integrate.rhs_evals"] == untraced.nfev
    assert tracer.counts["integrate.steps"] == steps
    # the 3 extra stages of every step, made after the loop, one call each
    # on all steps, go through the wrapped rhs
    assert times.count(1) == 3
    assert tracer.leaves["integrate.rhs"][0] == len(times) == untraced.nfev - 3 * steps + 3


@pytest.mark.parametrize("builder", ["ctrl_bracket_matrix", "strong_access_matrix",
                                     "obs_codistribution"])
def test_rank_builders_reach_the_hooked_calculus_names(monkeypatch, builder):
    # the builders must keep calling jacobian_scalars and the bracket and
    # Lie-derivative helpers through their module-level names, or the
    # calculus.* layer metrics of a traced rank_sweep would read zero
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    tracer = spans.Tracer("t")
    try:
        spans.install(tracer)
        result = getattr(rank, builder)(registry("paper_sec5"), (0.3, -0.2), depth=2)
    finally:
        tracer.uninstall()
    assert result.rank == 2
    assert tracer.leaves["calculus.jacobian"][0] > 0
    assert tracer.leaves["calculus.bracket"][0] > 0
