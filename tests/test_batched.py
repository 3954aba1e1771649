"""Batched evaluation over stacks of points and times.

The quadrature calls its integrand once per panel with all of the
panel's nodes, so dense-output lookups, field values and dual-number
Jacobians run on stacks.  These tests pin the stacked paths to the
per-point ones and the energies built on them to their values from the
per-node implementation.
"""

import numpy as np
import pytest

from vargram.calculus import field_values, jacobian
from vargram.energy import diff_observability
from vargram.expr import parse_system_spec
from vargram.gramian import empirical_obs_gramian
from vargram.integrate import HorizonFlow, _gauss_legendre_pair, flow_with_jacobian
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
    for label, field in _fields(system):
        batched = jacobian(field, stack)
        assert batched.shape == (len(stack), field.dim_out, system.n), label
        pointwise = np.array([jacobian(field, x) for x in stack])
        assert np.array_equal(batched, pointwise), label

        values = field_values(field, stack)
        assert values.shape == (len(stack), field.dim_out), label
        assert np.array_equal(values, np.array([field_values(field, x) for x in stack])), label


def test_constant_outputs_broadcast_to_every_point():
    system = from_spec(parse_system_spec(SPEC))
    stack = np.array([[0.5, -1.0], [2.0, 0.25], [-0.3, 0.0]])
    assert np.array_equal(field_values(system.h, stack)[:, 1], [3.0, 3.0, 3.0])
    assert np.array_equal(jacobian(system.h, stack)[:, 1], np.zeros((3, 2)))
    assert np.array_equal(system.output(stack), field_values(system.h, stack))


def _panel_nodes(lo: float, hi: float, order: int = 12, width: float = 2.0):
    """The node arrays improper_time_integral hands its integrand, panel by panel."""
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
        # scipy evaluates one dense-output polynomial per solver step, as a
        # matrix product for an array of times and a matrix-vector product
        # for one time, so the two round differently.  Where the state has
        # decayed to 1e-13 and steps are about 8 long, the polynomial's
        # terms cancel and that rounding reaches 7e-14 of the state
        # (1e-15 up to t = 64); a time mapped to the wrong row would be off
        # by order one.
        scale = np.abs(single).max(axis=1)[:, None]
        assert np.all(np.abs(stacked - single) <= 1e-13 * scale)
    # the same solver segments: extension by doubling is unchanged
    assert np.array_equal(batched.ensure(0.0).times, pointwise.ensure(0.0).times)
    assert batched.horizon == pointwise.horizon == 80.0


def test_trajectory_at_arrays_spans_segments_and_checks_bounds():
    flow = HorizonFlow(lambda t, y: -y, np.array([1.0, 2.0]), chunk=5.0)
    flow.ensure(12.0)  # three solver pieces: [0, 5], [5, 10], [10, 12]
    traj = flow.ensure(0.0)
    times = np.array([11.0, 0.5, 5.0, 7.25, 0.0, 12.0])
    stacked = traj.at(times)
    assert stacked.shape == (len(times), 2)
    assert np.array_equal(stacked, np.array([traj.at(t) for t in times]))
    assert np.allclose(stacked[:, 0], np.exp(-times), rtol=1e-6, atol=0.0)
    with pytest.raises(ValueError, match="t = 12.5 outside"):
        traj.at(np.array([1.0, 12.5]))
    with pytest.raises(ValueError):
        flow.state(np.array([1.0, -0.5]))
    # a curve read from a co-integrated (x, Phi) solve keeps only x, per row
    curve, _ = flow_with_jacobian(registry("paper_sec5").f, [0.2, -0.1], (0.0, 3.0))
    times = np.array([2.5, 0.0, 1.25])
    assert np.array_equal(curve.at(times), np.array([curve.at(t) for t in times]))
    back = curve.time_reversed()
    assert np.array_equal(back.at(-times), curve.at(times))


# values from the per-node implementation (one lookup and one scalar
# Jacobian per Gauss-Legendre node)
PINNED = {
    (0.1, -0.2): {"dx0": (0.6, 0.8), "diff_obs": 0.28207055314548046,
                  "gramian": [0.7422715129522737, -0.6555144226965897,
                              -0.6555144226965897, 1.4472143863500764]},
    (-0.25, 0.15): {"dx0": (-0.3, 0.9), "diff_obs": 2.6310920293965827,
                    "gramian": [2.954657000078288, -3.055586340944053,
                                -3.055586340944053, 4.131170747643429]},
}


@pytest.mark.parametrize("x0", list(PINNED))
def test_energy_and_gramian_pinned_to_per_node_values(x0):
    system = registry("paper_sec5")
    pin = PINNED[x0]
    ev = diff_observability(system, x0, pin["dx0"])
    assert ev.nodes_used == 1440 and ev.horizon == 80.0
    assert abs(ev.value - pin["diff_obs"]) <= 1e-13 * abs(pin["diff_obs"])
    gram = empirical_obs_gramian(system, x0)
    assert gram.nodes_used == 1440 and gram.horizon == 80.0
    expected = np.array(pin["gramian"]).reshape(2, 2)
    assert np.all(np.abs(gram.matrix - expected) <= 1e-13 * np.abs(expected))
