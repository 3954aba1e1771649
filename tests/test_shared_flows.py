"""Flows shared within a scope: each one-state flow segment solved once.

Inside integrate.shared_flows() a solve of a flow kernel with a cost
block from a stack of one state, made without a dense output, is made
once and handed back, read-only, when it is asked for again.  It is
keyed on what it computes: the func of the kernel's field, the kernel's
key, the start, the span and the tolerances.  These tests pin that a
verify run repeats no such solve and makes 75 solves in all, that the
store lives only as long as its scope (one command), that a check gives
the same report with or without the flows of an earlier check, that a
solve is shared only with one of the same func, kernel key, start, span
and tolerances, so two models of one registry entry share their solves,
that a cost flow is stored and a dual flow is not, that one-state
solves, batches, dense outputs, flows without a cost block and plain
callables are never stored, that a stored flow keeps its arrays and no
solver, that a solver is freed without the cyclic collector, that a
verify run builds no dense output, and that the store keeps at most
SHARED_BYTES, dropping the least recently used first.
"""

import gc
import weakref
from collections import Counter

import numpy as np
import pytest

import vargram.dop853 as dop853
import vargram.integrate as integrate
from vargram.cli import main
from vargram.energy import diff_observability
from vargram.gramian import EmpiricalGramianField
from vargram.calculus import VectorField, flow_rhs
from vargram.integrate import _solved, _solve_segment, integrate_ivp, shared_flows
from vargram.systems import dual_closed_loop, prolong, registry
from vargram.verify import check_thm1, check_thm3, check_thm4, check_thm5

VERIFY_ARGS = ["verify", "--system", "paper_sec5", "--theorem", "all", "--pairs", "1",
               "--samples", "2", "--grid", "3x3", "--seed", "1234567891"]


def _flow_kernel(fun):
    """(field's func, kernel key) of a calculus.flow_rhs right-hand side,
    read from its closure: what it computes; None for any other
    callable."""
    if getattr(fun, "__qualname__", "") != "flow_rhs.<locals>.rhs":
        return None
    cells = dict(zip(fun.__code__.co_freevars, (c.cell_contents for c in fun.__closure__)))
    return cells["field"].func, cells["key"]


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


def _cost_flow(system=None):
    """(rhs, z0) of the prolonged flow of system (paper_sec5 by default)
    with the cost block of dy, the flow of diff_observability, built anew
    around the model's one field."""
    aug = prolong(system or registry("paper_sec5"), cost="dy")
    return aug.rhs, aug.pack(x=[0.1, -0.1], dx=[0.6, 0.8])


def _shared_solve(rhs, z0, tf: float = 5.0):
    """The solve on [0, tf] that a shared_flows scope stores: from the
    stack of one state z0 (a stack z0 as it is), with no dense output."""
    return _solved(rhs, np.atleast_2d(z0), 0.0, tf, dense=False)


def _repeated(calls) -> list:
    """The one-state flow-kernel solves made more than once."""
    one_state = Counter(call for call in calls if call[0] is not None)
    assert one_state, "no one-state flow-kernel solve was made"
    return [key for key, count in one_state.items() if count > 1]


def test_a_verify_run_solves_each_one_state_segment_once(tmp_path, solves):
    assert main(VERIFY_ARGS + ["--out", str(tmp_path)]) == 0
    assert len(solves) == 75
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


def test_a_stack_of_one_is_stored_read_only_and_a_one_state_solve_is_not(solves):
    rhs, z0 = _cost_flow()
    with shared_flows():
        stack = _shared_solve(rhs, z0)
        with shared_flows():  # a nested scope joins the open one
            assert _shared_solve(rhs, z0) is stack
        assert len(solves) == 1
        assert stack.endpoint.shape == (1, 5)
        for array in (stack.times, stack.states, stack.dydt):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        one = [_solved(rhs, z0, 0.0, 5.0, dense=False) for _ in range(2)]
        assert len(solves) == 3 and len(integrate._shared) == 1
        assert one[1] is not one[0] and one[0].states.flags.writeable
        assert one[0].endpoint.shape == (5,)
        np.testing.assert_array_equal(one[0].states, stack.states)
    assert _shared_solve(rhs, z0).states.flags.writeable
    assert len(solves) == 4


def test_a_solve_is_shared_only_with_the_same_kernel_start_span_and_tolerances(monkeypatch):
    system = registry("paper_sec5")
    f = system.with_output(system.f, system.h)  # (f, h): the field of a cost flow
    g = VectorField(2, 3, f.func)
    z, z2 = [0.1, -0.1, 0.2, 0.05, 0.0], [0.1, -0.1, 0.2, 0.06, 0.0]
    tols = (integrate.DEFAULT_RTOL, integrate.DEFAULT_ATOL)

    def cost_rhs(field, **options):
        return flow_rhs(field, outputs=1, **options)

    requests = [(cost_rhs(f, width=1), z, 1.0, tols), (cost_rhs(f, copies=2), z, 1.0, tols),
                (cost_rhs(f, copies=2, sign=-1.0), z, 1.0, tols),
                (cost_rhs(f, copies=2), z2, 1.0, tols), (cost_rhs(f, copies=2), z, 1.5, tols),
                (cost_rhs(f, copies=2), z, 1.0, (1e-8, tols[1])),
                (cost_rhs(f, copies=2), z, 1.0, (tols[0], 1e-11)),
                (cost_rhs(g, copies=2), z, 1.0, tols)]

    def solved():
        # each solve reads the tolerances in force when it starts
        states = []
        for rhs, z0, tf, (rtol, atol) in requests:
            monkeypatch.setattr(integrate, "DEFAULT_RTOL", rtol)
            monkeypatch.setattr(integrate, "DEFAULT_ATOL", atol)
            states.append(_shared_solve(rhs, z0, tf).states)
        return states

    def scaled(xs):
        return [0.5 * v for v in f.func(xs)]

    alone = solved()
    with shared_flows():
        shared = solved()
        # g runs f's func, the same computation: it is handed f's solve
        assert shared[-1] is shared[1]
        assert len(integrate._shared) == len(requests) - 1
        g.func = scaled  # the same field with another func is another computation
        shared.append(_shared_solve(cost_rhs(g, copies=2), z, 1.0).states)
        assert shared[-1] is not shared[1]
        assert len(integrate._shared) == len(requests)
    g.func = scaled
    alone.append(_shared_solve(cost_rhs(g, copies=2), z, 1.0).states)
    for a, b in zip(alone, shared, strict=True):
        np.testing.assert_array_equal(a, b)


def test_two_models_of_one_registry_entry_share_their_solves(solves):
    # their fields are copies around the entry's funcs: the same computation
    x, v = [0.1, -0.2], [0.6, 0.8]
    with shared_flows():
        first, second = [diff_observability(registry("paper_sec5"), x, v) for _ in range(2)]
    assert len(solves) == 3
    assert (second.value, second.error_estimate) == (first.value, first.error_estimate)


def _plain(t, y):
    return -y


_plain.cost = 1  # a cost block, but no kernel


def _dense_solve(rhs, z0):
    return integrate_ivp(rhs, np.atleast_2d(z0), (0.0, 5.0))


_RHS, _Z0 = _cost_flow()


@pytest.mark.parametrize("solve, rhs, x0", [
    (_shared_solve, _RHS, np.stack([_Z0, 0.5 * _Z0])),
    (_shared_solve, _plain, [0.1, -0.1]),
    (_dense_solve, _RHS, _Z0),
    (_shared_solve, prolong(registry("paper_sec5")).rhs, [0.1, -0.1, 0.6, 0.8]),
], ids=["a batch", "a plain callable", "a dense output", "a flow without a cost block"])
def test_batches_and_plain_callables_are_never_stored(solves, solve, rhs, x0):
    with shared_flows():
        first = solve(rhs, x0)
        second = solve(rhs, x0)
        assert integrate._shared == {}
    assert len(solves) == 2
    assert second is not first and second.states.flags.writeable
    np.testing.assert_array_equal(second.states, first.states)


def test_a_cost_flow_is_stored_and_a_dual_flow_and_a_plain_callable_are_not(solves):
    system = registry("paper_sec5")
    rhs, z0 = _cost_flow(system)
    dual = dual_closed_loop(system).pack(x=[0.1, -0.1], dp=[1.0, 0.5])
    with shared_flows():
        # each call builds the AugmentedField anew around the model's one field
        first = _shared_solve(rhs, z0)
        again = _shared_solve(_cost_flow(system)[0], z0)
        # cor7's decay fits: a dual flow, which no energy solves again
        duals = [_shared_solve(dual_closed_loop(system).rhs, dual) for _ in range(2)]
        plain = [_shared_solve(lambda t, y: -y, z0) for _ in range(2)]
        assert len(integrate._shared) == 1
    assert again is first and not first.states.flags.writeable
    for solved in (duals, plain):
        assert solved[1] is not solved[0] and solved[1].states.flags.writeable
    assert len(solves) == 5


def test_a_stored_flow_keeps_no_stages(monkeypatch):
    solvers = []

    class Recorded(dop853._DOP853):
        def __init__(self, *args, **options):
            super().__init__(*args, **options)
            solvers.append(weakref.ref(self))

    monkeypatch.setattr(dop853, "_DOP853", Recorded)
    system = registry("paper_sec5")
    with shared_flows():
        diff_observability(system, [0.1, -0.2], [0.6, 0.8])  # its segments, no dense output
        stored = len(integrate._shared)
        integrate_ivp(prolong(system, cost="dy").rhs, [[0.1, -0.1, 0.6, 0.8, 0.0]],
                      (0.0, 5.0))  # a cost flow with its dense output: not stored
        kept = [entry[0] for entry in integrate._shared.values()]
        assert len(kept) == stored > 1 and all(traj.dense is None for traj in kept)
        # the store's bytes are its arrays' bytes: nothing beside them
        assert integrate._shared_nbytes == sum(
            a.nbytes for traj in kept for a in (traj.times, traj.states, traj.dydt))
        gc.collect()
        assert solvers and all(ref() is None for ref in solvers)


@pytest.mark.parametrize("dense", [False, True], ids=["no dense output", "dense output"])
@pytest.mark.parametrize("z0", [[0.1, -0.1, 0.6, 0.8], [[0.1, -0.1, 0.6, 0.8],
                                                        [0.2, 0.05, 1.0, 0.0]]],
                         ids=["one state", "batch"])
def test_a_solver_is_freed_without_the_cyclic_collector(monkeypatch, z0, dense):
    # scipy's OdeSolver keeps two closures over the solver, fun and
    # fun_vectorized; solve_ivp drops them when it returns
    solvers = []
    for name in ("_DOP853", "_BatchDOP853"):
        class Recorded(getattr(dop853, name)):
            def __init__(self, *args, **options):
                super().__init__(*args, **options)
                solvers.append(weakref.ref(self))

        monkeypatch.setattr(dop853, name, Recorded)
    rhs = prolong(registry("paper_sec5")).rhs
    gc.collect()
    gc.disable()
    try:
        sol = _solve_segment(rhs, z0, 0.0, 5.0, integrate.DEFAULT_RTOL,
                             integrate.DEFAULT_ATOL, dense)
        assert len(solvers) == 1 and solvers[0]() is None
    finally:
        gc.enable()
    assert (sol.dense is not None) == dense and len(sol.t) > 5


def test_a_verify_run_builds_no_dense_output(tmp_path, monkeypatch):
    built = []
    real = dop853._DOP853.dense_output

    def counted(solver):
        built.append(solver.t)
        return real(solver)

    monkeypatch.setattr(dop853._DOP853, "dense_output", counted)
    assert main(VERIFY_ARGS + ["--out", str(tmp_path)]) == 0
    assert built == []
    traj = integrate_ivp(registry("paper_sec5").f, [0.1, -0.1], (0.0, 1.0))
    assert built == list(traj.times[1:])  # one per step of a solve with its dense output


def test_the_store_drops_the_least_recently_used_past_its_bytes(monkeypatch, solves):
    rhs, z0 = _cost_flow()
    starts = [z0, 0.5 * z0, -z0]

    def solve(i):
        return _shared_solve(rhs, starts[i])

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
    np.testing.assert_array_equal(again.states, _shared_solve(rhs, starts[1]).states)


def test_a_path_bound_shares_its_decay_flow_in_a_small_store(monkeypatch, solves):
    monkeypatch.setattr(integrate, "SHARED_BYTES", 2 ** 15)
    pairs = [([0.05, -0.02], [-0.03, 0.04]), ([0.02, 0.06], [0.07, -0.01]),
             ([-0.04, -0.05], [0.01, 0.03])]
    check_thm1(registry("paper_sec5"), pairs)
    assert _repeated(solves) == []
