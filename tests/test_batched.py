"""Batched evaluation over stacks of points and times.

Dense-output lookups, field values and dual-number Jacobians run on
stacks.  These tests pin the stacked paths to the per-point ones, and
the energies and Gramians, now accumulated as states of their flows, to
their values and to those of the per-node implementation that sampled
the dense output at quadrature nodes.
"""

import numpy as np
import pytest

from vargram.calculus import field_values, flow_rhs, jacobian
from vargram.energy import diff_observability
from vargram.expr import parse_system_spec
from vargram.gramian import empirical_obs_gramian
from vargram.integrate import HorizonFlow, _gauss_legendre_pair, integrate_ivp
from vargram.systems import SystemModel, from_spec, prolong, registry

# rational entries (/), integer powers (^) and constant outputs, which
# must broadcast to one row per point
SPEC = {
    "name": "rational", "n": 2, "m": 1, "p": 2,
    "f": ["x2 / (2 + x1^2)", "-x1 - x2^3 / 3 + 1/2"],
    "g": [["1"], ["x1 / 4"]],
    "h": ["x1^2 - x2", "3"],
    "k": ["-x2 / (1 + x1^2)"],
}


def _fields(system: SystemModel):
    yield "f", system.f
    yield "h", system.h
    yield "k", system.k
    yield "closed loop", system.closed_loop_field()
    for j in range(system.m):
        yield f"g[:, {j}]", system.g.column(j)


def _systems():
    for name in ("paper_sec5", "linear_scalar", "linear_2x2"):
        yield registry(name)
    yield from_spec(parse_system_spec(SPEC))


@pytest.mark.parametrize("system", list(_systems()), ids=lambda s: s.name)
def test_stacked_jacobian_equals_pointwise_bitwise(system):
    rng = np.random.default_rng(7)
    stack = rng.uniform(-1.0, 1.0, size=(9, system.n))
    stack[0] = 0.0
    for label, field in list(_fields(system)) + [("g", system.g)]:
        shape = (field.rows, field.cols) if label == "g" else (field.dim_out,)
        batched = jacobian(field, stack)
        assert batched.shape == (len(stack),) + shape + (system.n,), label
        pointwise = np.array([jacobian(field, x) for x in stack])
        assert np.array_equal(batched, pointwise), label

        values = field_values(field, stack)
        assert values.shape == (len(stack),) + shape, label
        assert np.array_equal(values, np.array([field_values(field, x) for x in stack])), label


def test_constant_outputs_broadcast_to_every_point():
    system = from_spec(parse_system_spec(SPEC))
    stack = np.array([[0.5, -1.0], [2.0, 0.25], [-0.3, 0.0]])
    assert np.array_equal(field_values(system.h, stack)[:, 1], [3.0, 3.0, 3.0])
    assert np.array_equal(jacobian(system.h, stack)[:, 1], np.zeros((3, 2)))
    assert np.array_equal(system.output(stack), field_values(system.h, stack))


def _panel_nodes(lo: float, hi: float, order: int = 12, width: float = 2.0):
    """The Gauss-Legendre nodes of [lo, hi], one array per panel."""
    nodes, _, _ = _gauss_legendre_pair(order)
    edges = np.linspace(lo, hi, int(round((hi - lo) / width)) + 1)
    return [0.5 * (a + b) + 0.5 * (b - a) * nodes for a, b in zip(edges[:-1], edges[1:])]


def test_horizon_flow_state_on_arrays_matches_per_time_calls():
    system = registry("paper_sec5")
    aug = prolong(system)
    z0 = aug.pack(x=[0.1, -0.2], dx=[0.6, 0.8])
    batched = HorizonFlow(aug.rhs, z0)
    pointwise = HorizonFlow(aug.rhs, z0)
    for taus in _panel_nodes(0.0, 80.0):
        stacked = batched.state(taus)
        single = np.array([pointwise.state(t) for t in taus])
        assert stacked.shape == single.shape == (len(taus), aug.dim)
        # scipy's DOP853 dense output runs the same elementwise recurrence
        # for one time and for an array of times, so the two agree bitwise
        # here.  The bound leaves room for a dense output that evaluates an
        # array as a matrix product and so rounds differently; a time
        # mapped to the wrong row would be off by order one.
        scale = np.abs(single).max(axis=1)[:, None]
        assert np.all(np.abs(stacked - single) <= 1e-13 * scale)
    # the same solver segments: extension by doubling is unchanged
    assert np.array_equal(batched.ensure(0.0).times, pointwise.ensure(0.0).times)
    assert batched.horizon == pointwise.horizon == 80.0


def test_horizon_flow_pieces_do_not_depend_on_request_grouping():
    # one request for all nodes of [0, 40] (the fixed-horizon Gramian)
    # solves [0, 20] and then [20, 40], as a request per panel does
    aug = prolong(registry("paper_sec5"))
    z0 = aug.pack(x=[0.1, -0.2], dx=[0.6, 0.8])
    at_once = HorizonFlow(aug.rhs, z0)
    per_panel = HorizonFlow(aug.rhs, z0)
    at_once.ensure(40.0)
    for taus in _panel_nodes(0.0, 40.0):
        per_panel.state(taus)
    per_panel.ensure(40.0)
    times = at_once.ensure(0.0).times
    assert 20.0 in times and times[-1] == 40.0
    assert np.array_equal(times, per_panel.ensure(0.0).times)
    assert np.array_equal(at_once.ensure(0.0).states, per_panel.ensure(0.0).states)


def test_trajectory_at_arrays_spans_segments_and_checks_bounds():
    # decaying slowly enough that the states at t = 48 stay far above atol
    flow = HorizonFlow(lambda t, y: -0.25 * y, np.array([1.0, 2.0]))
    flow.ensure(48.0)  # two solver pieces: [0, 20] and [20, 48]
    traj = flow.ensure(0.0)
    times = np.array([44.0, 0.5, 20.0, 29.0, 0.0, 48.0])
    stacked = traj.at(times)
    assert stacked.shape == (len(times), 2)
    assert np.array_equal(stacked, np.array([traj.at(t) for t in times]))
    assert np.allclose(stacked[:, 0], np.exp(-0.25 * times), rtol=1e-6, atol=0.0)
    with pytest.raises(ValueError, match="t = 48.5 outside"):
        traj.at(np.array([1.0, 48.5]))
    with pytest.raises(ValueError):
        flow.state(np.array([1.0, -0.5]))
    # a co-integrated (x, Phi) solve, looked up per row
    field = registry("paper_sec5").f
    curve = integrate_ivp(flow_rhs(field, width=2), [0.2, -0.1, 1.0, 0.0, 0.0, 1.0],
                          (0.0, 3.0))
    times = np.array([2.5, 0.0, 1.25])
    assert np.array_equal(curve.at(times), np.array([curve.at(t) for t in times]))


# values of the cost-block accumulation (the integral as a state of the
# flow), pinned, and the values of the per-node implementation that
# sampled the dense output at Gauss-Legendre nodes, which they match to
# the integrator's error
PINNED = {
    (0.1, -0.2): {"dx0": (0.6, 0.8), "diff_obs": 0.28207055311592744, "steps": (55, 56),
                  "gramian": [0.7422715128999355, -0.6555144226217353,
                              -0.6555144226217353, 1.4472143864120324]},
    (-0.25, 0.15): {"dx0": (-0.3, 0.9), "diff_obs": 2.6310920309836403, "steps": (52, 53),
                    "gramian": [2.954656999704998, -3.05558634091118,
                                -3.05558634091118, 4.131170750383622]},
}
PER_NODE = {
    (0.1, -0.2): {"diff_obs": 0.28207055319278734,
                  "gramian": [0.7422715129194672, -0.6555144225311769,
                              -0.6555144225311769, 1.4472143862663294]},
    (-0.25, 0.15): {"diff_obs": 2.6310920310528196,
                    "gramian": [2.954656999699266, -3.055586341003837,
                                -3.055586341003837, 4.1311707505351585]},
}


@pytest.mark.parametrize("x0", list(PINNED))
def test_energy_and_gramian_pinned_to_per_node_values(x0):
    system = registry("paper_sec5")
    pin, per_node = PINNED[x0], PER_NODE[x0]
    ev = diff_observability(system, x0, pin["dx0"])
    gram = empirical_obs_gramian(system, x0)
    assert (ev.nodes_used, gram.nodes_used) == pin["steps"]
    assert ev.horizon == gram.horizon == 80.0
    assert abs(ev.value - pin["diff_obs"]) <= 1e-13 * abs(pin["diff_obs"])
    assert abs(ev.value - per_node["diff_obs"]) <= 1e-9 * abs(pin["diff_obs"])
    for expected, rel in ((pin["gramian"], 1e-13), (per_node["gramian"], 1e-9)):
        expected = np.array(expected).reshape(2, 2)
        assert np.all(np.abs(gram.matrix - expected) <= rel * np.abs(expected))
