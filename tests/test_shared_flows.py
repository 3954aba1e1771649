"""Flows shared within a scope: each one-state flow segment solved once.

Inside integrate.shared_flows() a one-state solve of a flow kernel is
made once and handed back, read-only, when it is asked for again.  These
tests pin that a verify run repeats no such solve, that the store lives
only as long as its scope (one command), that a check gives the same
report with or without the flows of an earlier check, that a solve is
shared only with one of the same kernel, start, span and tolerances,
that a dual flow is stored, that batches and plain callables are never
stored, and that the store
keeps at most SHARED_BYTES, dropping the least recently used first.
"""

from collections import Counter

import numpy as np
import pytest

import vargram.integrate as integrate
from vargram.cli import main
from vargram.gramian import EmpiricalGramianField
from vargram.calculus import VectorField, flow_rhs
from vargram.integrate import HorizonFlow, integrate_ivp, shared_flows
from vargram.systems import dual_closed_loop, registry
from vargram.verify import check_thm1, check_thm3, check_thm4, check_thm5

VERIFY_ARGS = ["verify", "--system", "paper_sec5", "--theorem", "all", "--pairs", "1",
               "--samples", "2", "--grid", "3x3", "--seed", "1234567891"]


def _flow_kernel(fun):
    """(field id, func id, kernel key) of a calculus.flow_rhs right-hand
    side, read from its closure; None for any other callable."""
    if getattr(fun, "__qualname__", "") != "flow_rhs.<locals>.rhs":
        return None
    cells = dict(zip(fun.__code__.co_freevars, (c.cell_contents for c in fun.__closure__)))
    field = cells["field"]
    return id(field), id(field.func), cells["key"]


@pytest.fixture
def solves(monkeypatch):
    """Every call of integrate.solve_ivp, as (flow kernel, y0 bytes, span,
    rtol, atol); the kernel is None for a right-hand side that is not a
    flow kernel run on one state."""
    calls = []
    real = integrate.solve_ivp

    def recording(fun, t_span, y0, **options):
        kernel = _flow_kernel(fun) if np.ndim(y0) == 1 else None
        calls.append((kernel, np.asarray(y0).tobytes(), tuple(map(float, t_span)),
                      options.get("rtol"), options.get("atol")))
        return real(fun, t_span, y0, **options)

    monkeypatch.setattr(integrate, "solve_ivp", recording)
    return calls


def _repeated(calls) -> list:
    """The one-state flow-kernel solves made more than once."""
    one_state = Counter(call for call in calls if call[0] is not None)
    assert one_state, "no one-state flow-kernel solve was made"
    return [key for key, count in one_state.items() if count > 1]


def test_a_verify_run_solves_each_one_state_segment_once(tmp_path, solves):
    assert main(VERIFY_ARGS + ["--out", str(tmp_path)]) == 0
    assert len(solves) > 50
    assert _repeated(solves) == []


@pytest.mark.parametrize("check", [check_thm1, check_thm3], ids=lambda c: c.__name__)
def test_a_path_bound_fits_its_decay_on_the_flow_of_its_pair_energy(solves, check):
    check(registry("paper_sec5"), [([0.05, -0.02], [-0.03, 0.04])])
    assert _repeated(solves) == []


def test_the_store_lasts_one_command(tmp_path, solves):
    main(VERIFY_ARGS + ["--out", str(tmp_path / "first")])
    first = len(solves)
    main(VERIFY_ARGS + ["--out", str(tmp_path / "second")])
    assert len(solves) - first == first
    assert integrate._shared is None


def test_a_check_gives_the_same_report_after_the_flows_of_another(solves):
    system = registry("paper_sec5")
    region = [(-0.1, 0.1), (-0.1, 0.1)]
    samples = [([0.05, -0.02], [1.0, 0.5]), ([-0.03, 0.04], [0.0, 1.0])]

    def thm5():
        q_field = EmpiricalGramianField(system, "obs", fixed_horizon=40.0)
        start = len(solves)
        report = check_thm5(system, q_field, region, samples, grid_shape=(3, 3))
        return report.to_json(), solves[start:]

    alone, alone_solves = thm5()
    assert _repeated(alone_solves) == []  # its energies reuse its decay flows
    with shared_flows():
        check_thm4(system, samples)
        after, after_solves = thm5()
    assert after == alone
    assert len(after_solves) < len(alone_solves)  # those flows were thm4's


def test_stored_trajectories_are_read_only_and_shared_by_a_stack_of_one(solves):
    field = registry("paper_sec5").f
    with shared_flows():
        traj = integrate_ivp(field, [0.1, -0.1], (0.0, 5.0))
        with shared_flows():  # a nested scope joins the open one
            stack = integrate_ivp(field, [[0.1, -0.1]], (0.0, 5.0))
        assert len(solves) == 1
        assert stack.states is traj.states
        assert stack.at(2.0).shape == (1, 2)
        np.testing.assert_array_equal(stack.at(2.0)[0], traj.at(2.0))
        for array in (traj.times, traj.states, traj.F):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
    assert integrate_ivp(field, [0.1, -0.1], (0.0, 5.0)).states.flags.writeable
    assert len(solves) == 2


def test_a_solve_is_shared_only_with_the_same_kernel_start_span_and_tolerances():
    f = registry("paper_sec5").f
    g = VectorField(2, 2, f.func)
    z, z2 = [0.1, -0.1, 0.2, 0.05], [0.1, -0.1, 0.2, 0.06]
    requests = [(flow_rhs(f, width=1), z, 1.0, 1e-9), (flow_rhs(f, copies=2), z, 1.0, 1e-9),
                (flow_rhs(f, copies=2, sign=-1.0), z, 1.0, 1e-9),
                (flow_rhs(f, copies=2), z2, 1.0, 1e-9), (flow_rhs(f, copies=2), z, 1.5, 1e-9),
                (flow_rhs(f, copies=2), z, 1.0, 1e-8), (flow_rhs(g, copies=2), z, 1.0, 1e-9)]

    def solved():
        return [HorizonFlow(rhs, z0, rtol=rtol, chunk=tf).ensure(tf).states
                for rhs, z0, tf, rtol in requests]

    def scaled(xs):
        return [0.5 * v for v in f.func(xs)]

    alone = solved()
    with shared_flows():
        shared = solved()
        g.func = scaled  # the same field with another func is another kernel
        shared.append(HorizonFlow(flow_rhs(g, copies=2), z, chunk=1.0).ensure(1.0).states)
        assert len(integrate._shared) == len(requests) + 1
    g.func = scaled
    alone.append(HorizonFlow(flow_rhs(g, copies=2), z, chunk=1.0).ensure(1.0).states)
    for a, b in zip(alone, shared, strict=True):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("rhs, x0", [
    (registry("paper_sec5").f, [[0.1, -0.1], [0.2, 0.0]]),
    (lambda t, y: -y, [0.1, -0.1]),
], ids=["a batch", "a plain callable"])
def test_batches_and_plain_callables_are_never_stored(solves, rhs, x0):
    with shared_flows():
        first = integrate_ivp(rhs, x0, (0.0, 5.0))
        second = integrate_ivp(rhs, x0, (0.0, 5.0))
        assert integrate._shared == {}
    assert len(solves) == 2
    assert second is not first and second.states.flags.writeable
    np.testing.assert_array_equal(second.states, first.states)


def test_a_dual_flow_is_stored_and_a_plain_callable_is_not(solves):
    system = registry("paper_sec5")
    z0 = dual_closed_loop(system).pack(x=[0.1, -0.1], dp=[1.0, 0.5])
    with shared_flows():
        # each call builds the AugmentedField anew around the model's one field
        first = integrate_ivp(dual_closed_loop(system).rhs, z0, (0.0, 5.0))
        again = integrate_ivp(dual_closed_loop(system).rhs, z0, (0.0, 5.0))
        plain = [integrate_ivp(lambda t, y: -y, z0, (0.0, 5.0)) for _ in range(2)]
        assert len(integrate._shared) == 1
    assert again is first and not first.states.flags.writeable
    assert plain[1] is not plain[0] and plain[1].states.flags.writeable
    assert len(solves) == 3


def test_the_store_drops_the_least_recently_used_past_its_bytes(monkeypatch, solves):
    field = registry("paper_sec5").f
    starts = [[0.1, -0.1], [0.05, 0.02], [-0.03, 0.04]]

    def solve(i):
        return integrate_ivp(field, starts[i], (0.0, 5.0))

    sizes = []
    for i in range(3):
        with shared_flows():
            solve(i)
            sizes.append(integrate._shared_nbytes)
    del solves[:]
    # room for 0 and either other one, not for all three
    monkeypatch.setattr(integrate, "SHARED_BYTES", sizes[0] + max(sizes[1:]))
    with shared_flows():
        first = solve(0)
        solve(1)
        solve(0)  # a hit: 0 is now the most recently used
        solve(2)  # past the bytes: 1, the least recently used, is dropped
        assert len(solves) == 3
        assert integrate._shared_nbytes <= integrate.SHARED_BYTES
        assert solve(0) is first and len(solves) == 3
        again = solve(1)
        assert len(solves) == 4
    np.testing.assert_array_equal(again.states, integrate_ivp(field, starts[1],
                                                              (0.0, 5.0)).states)


def test_a_path_bound_shares_its_decay_flow_in_a_small_store(monkeypatch, solves):
    monkeypatch.setattr(integrate, "SHARED_BYTES", 2 ** 15)
    pairs = [([0.05, -0.02], [-0.03, 0.04]), ([0.02, 0.06], [0.07, -0.01]),
             ([-0.04, -0.05], [0.01, 0.03])]
    check_thm1(registry("paper_sec5"), pairs)
    assert _repeated(solves) == []
