"""Augmented system constructions and the built-in registry."""

import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from oracles import fd_jacobian, rk4
from vargram import calculus, systems
from vargram.calculus import field_values, frozen_input_jacobian, matrix_at
from vargram.cli import main
from vargram.energy import diff_controllability_fb, incr_controllability_fb
from vargram.expr import parse_system_spec
from vargram.gramian import empirical_ctrl_gramian, empirical_obs_gramian
from vargram.integrate import integrate_ivp
from vargram.systems import (
    adjoint_pair,
    closed_loop_prolonged,
    dual_closed_loop,
    dual_open,
    from_spec,
    prolong,
    registry,
    registry_names,
    two_copy,
)

DATA = Path(__file__).resolve().parents[1] / "src" / "vargram" / "data" / "example.json"


def test_registry_contents():
    assert registry_names() == ["linear_2x2", "linear_scalar", "paper_sec5"]
    with pytest.raises(ValueError, match="unknown system"):
        registry("nope")

    sys_ = registry("paper_sec5")
    assert (sys_.n, sys_.m, sys_.p) == (2, 1, 1)
    assert set(sys_.certificates) == {"P", "R"}
    assert np.allclose(matrix_at(sys_.certificates["P"], [0.3, -0.2]), np.eye(2))

    lin = registry("linear_2x2")
    assert set(lin.certificates) == {"P", "P_open", "Q", "R"}
    # R and P are mutual inverses for this system
    r = matrix_at(lin.certificates["R"], [0.0, 0.0])
    p = matrix_at(lin.certificates["P"], [0.0, 0.0])
    assert np.allclose(r @ p, np.eye(2))


def test_output_and_feedback_helpers():
    sys_ = registry("paper_sec5")
    assert np.allclose(sys_.output([0.4, 9.0]), [0.4])
    assert np.allclose(sys_.feedback([0.2, 0.1]), [0.2 + 0.02 + 0.1])


def test_prolonged_rhs_assembles_frozen_jacobian():
    sys_ = registry("paper_sec5")
    aug = prolong(sys_)
    assert aug.dim == 4
    x = np.array([0.3, -0.1])
    dx = np.array([1.0, 2.0])
    z = aug.pack(x=x, dx=dx)
    rhs = aug.rhs(0.0, z)
    # zero input: drift is f, the tangent moves by the Jacobian of f
    assert np.allclose(rhs[:2], sys_.f(list(x)))
    assert np.allclose(rhs[2:], fd_jacobian(sys_.f.func, x) @ dx, atol=1e-7)
    assert np.allclose(aug.outputs["y"](z), [0.3])
    assert np.allclose(aug.outputs["dy"](z), [1.0])


def test_prolonged_tangent_matches_flow_jacobian():
    # oracle: fixed-step RK4 on the variational ODE x' = f(x), dx' = J(x) dx,
    # with f called on floats and J by central differences
    sys_ = registry("paper_sec5")
    x0 = np.array([0.1, -0.15])
    dx0 = np.array([0.7, -0.4])
    aug = prolong(sys_)
    traj = integrate_ivp(aug.rhs, aug.pack(x=x0, dx=dx0), (0.0, 3.0))

    def variational(t, z):
        x, dx = list(z[:2]), z[2:]
        return np.concatenate([sys_.f(x), fd_jacobian(sys_.f.func, x) @ dx])

    expected = np.concatenate([x0, dx0])
    for t in (1.0, 2.0, 3.0):
        expected = rk4(variational, expected, t - 1.0, t, steps=1000)
        assert np.allclose(traj.at(t)[2:], expected[2:], atol=1e-7)


def test_closed_loop_prolonged_uses_full_jacobian():
    sys_ = registry("paper_sec5")
    aug = closed_loop_prolonged(sys_)

    def closed(xs):
        fv = sys_.f(xs)
        gv = sys_.g(xs)
        kv = sys_.k(xs)
        return [fv[i] + sum(gv[i][j] * kv[j] for j in range(sys_.m)) for i in range(sys_.n)]

    x = np.array([0.25, 0.1])
    dx = np.array([-1.0, 0.5])
    rhs = aug.rhs(0.0, aug.pack(x=x, dx=dx))
    assert np.allclose(rhs[:2], closed(list(x)))
    assert np.allclose(rhs[2:], fd_jacobian(closed, x) @ dx, atol=1e-7)

    # dk output is the feedback's directional derivative
    z = aug.pack(x=x, dx=dx)
    dk = aug.outputs["dk"](z)
    assert np.allclose(dk, fd_jacobian(sys_.k.func, x) @ dx, atol=1e-7)


def test_two_copy_difference_quotient_approaches_variational():
    sys_ = registry("paper_sec5")
    x0 = np.array([0.1, 0.05])
    direction = np.array([1.0, -1.0])
    eps = 1e-5

    pair = two_copy(sys_)
    traj = integrate_ivp(pair.rhs, pair.pack(x=x0, x2=x0 + eps * direction), (0.0, 2.0))
    gap = (traj.at(2.0)[2:] - traj.at(2.0)[:2]) / eps

    var = prolong(sys_)
    vtraj = integrate_ivp(var.rhs, var.pack(x=x0, dx=direction), (0.0, 2.0))
    assert np.allclose(gap, vtraj.at(2.0)[2:], atol=1e-4)


def test_two_copy_gap_outputs():
    sys_ = registry("paper_sec5")
    pair = two_copy(sys_, sys_.closed_loop_field())
    z = pair.pack(x=[0.1, 0.2], x2=[0.3, -0.1])
    assert np.allclose(pair.outputs["output_gap"](z), [0.2])
    expected = sys_.feedback([0.3, -0.1]) - sys_.feedback([0.1, 0.2])
    assert np.allclose(pair.outputs["feedback_gap"](z), expected)


def test_dual_closed_loop_scalar_values():
    # linear_scalar: f = -x, g = 1, k = 2x, so f + gk = x and the frozen
    # Jacobian is -1; reversed drift is -x, dual tangent moves by -dp
    sys_ = registry("linear_scalar")
    aug = dual_closed_loop(sys_)
    rhs = aug.rhs(0.0, np.array([1.0, 1.0]))
    assert np.allclose(rhs, [-1.0, -1.0])
    assert np.allclose(aug.outputs["dz"](np.array([0.5, 3.0])), [3.0])


def test_dual_open_scalar_values():
    sys_ = registry("linear_scalar")
    aug = dual_open(sys_)
    rhs = aug.rhs(0.0, np.array([1.0, 1.0]))
    # reversed open drift is +x at x = 1, Jacobian of f is -1
    assert np.allclose(rhs, [1.0, -1.0])


def test_dual_tangent_satisfies_transposed_dynamics():
    sys_ = registry("paper_sec5")
    aug = dual_closed_loop(sys_)
    x = np.array([0.2, -0.3])
    dp = np.array([0.4, 1.1])
    rhs = aug.rhs(0.0, np.concatenate([x, dp]))

    def frozen_closed(xs):
        kv = sys_.k(list(x))  # input frozen at the base point
        fv = sys_.f(xs)
        gv = sys_.g(xs)
        return [fv[i] + sum(gv[i][j] * kv[j] for j in range(sys_.m)) for i in range(sys_.n)]

    a_mat = fd_jacobian(frozen_closed, x)
    assert np.allclose(rhs[2:], a_mat.T @ dp, atol=1e-7)


def test_adjoint_pairing_is_conserved():
    for name in ("paper_sec5", "linear_2x2"):
        sys_ = registry(name)
        aug = adjoint_pair(sys_)
        z0 = aug.pack(x=[0.1, 0.1], dp=[1.0, -0.5], dx=[0.3, 0.8])
        traj = integrate_ivp(aug.rhs, z0, (0.0, 10.0))
        start = aug.outputs["pairing"](z0)[0]
        drifts = [abs(aug.outputs["pairing"](traj.at(t))[0] - start)
                  for t in np.linspace(0.0, 10.0, 51)]
        assert max(drifts) < 1e-7


def test_from_spec_matches_registry_closures():
    spec = parse_system_spec(DATA.read_text())
    built = from_spec(spec)
    ref = registry("paper_sec5")
    assert (built.n, built.m, built.p) == (ref.n, ref.m, ref.p)

    rng = np.random.default_rng(3)
    for _ in range(20):
        x = list(rng.uniform(-1, 1, 2))
        assert np.allclose(built.f(x), ref.f(x), atol=1e-14)
        assert np.allclose(built.g(x), ref.g(x), atol=1e-14)
        assert np.allclose(built.h(x), ref.h(x), atol=1e-14)
        assert np.allclose(built.k(x), ref.k(x), atol=1e-14)
    for key in ("P", "R"):
        assert np.allclose(matrix_at(built.certificates[key], [0.1, 0.2]), np.eye(2))


def test_closed_loop_field_is_built_once_per_model():
    sys_ = registry("paper_sec5")
    cl = sys_.closed_loop_field()
    assert sys_.closed_loop_field() is cl
    assert registry("paper_sec5").closed_loop_field() is not cl
    # replacing a component's func (as a tracing wrapper does) builds it anew
    original = sys_.k.func
    sys_.k.func = lambda xs: original(xs)
    fresh = sys_.closed_loop_field()
    assert fresh is not cl and sys_.closed_loop_field() is fresh
    assert np.array_equal(fresh([0.3, -0.2]), cl([0.3, -0.2]))


def test_affine_field_is_built_once_per_model():
    sys_ = registry("paper_sec5")
    affine = sys_.affine_field()
    assert (affine.dim_in, affine.dim_out) == (3, 2)
    assert sys_.affine_field() is affine
    assert registry("paper_sec5").affine_field() is not affine
    # replacing f or g builds it anew; k is not part of it
    sys_.k.func = lambda xs: [0.0]
    assert sys_.affine_field() is affine
    original = sys_.g.func
    sys_.g.func = lambda xs: original(xs)
    fresh = sys_.affine_field()
    assert fresh is not affine and sys_.affine_field() is fresh
    assert np.array_equal(fresh([0.3, -0.2, 0.7]), affine([0.3, -0.2, 0.7]))


def test_two_verify_runs_in_one_process_compile_each_kernel_once(tmp_path, monkeypatch):
    """registry returns a new model per call whose fields and derived
    fields share their kernels with the entry's: the second run traces
    and compiles nothing, and writes the same bytes."""
    sources = []
    compiled = calculus._compiled
    monkeypatch.setattr(calculus, "_compiled",
                        lambda source, *names, **scope: sources.append(source)
                        or compiled(source, *names, **scope))
    systems._entry_model.cache_clear()  # an entry no earlier test has traced
    args = ["verify", "--system", "paper_sec5", "--theorem", "all", "--pairs", "1",
            "--samples", "2", "--grid", "3x3", "--out"]
    assert main(args + [str(tmp_path / "first")]) == 0
    first = len(sources)
    assert first > 0
    assert main(args + [str(tmp_path / "second")]) == 0
    assert len(sources) == first
    for report in (tmp_path / "first").iterdir():
        assert report.read_bytes() == (tmp_path / "second" / report.name).read_bytes()


def test_a_func_replaced_on_one_model_leaves_another_models_results_unchanged():
    x = [0.2, -0.1]
    one, other = registry("paper_sec5"), registry("paper_sec5")
    assert one.k is not other.k and one.k.func is other.k.func
    before = (empirical_ctrl_gramian(one, x).matrix, field_values(one.k, x),
              diff_controllability_fb(one, x, [1.0, 0.0]).value)
    original = other.k.func
    other.k.func = lambda xs: [2.0 * v for v in original(xs)]
    changed = (empirical_ctrl_gramian(other, x).matrix, field_values(other.k, x),
               diff_controllability_fb(other, x, [1.0, 0.0]).value)
    assert not any(np.array_equal(a, b) for a, b in zip(before, changed))
    again = (empirical_ctrl_gramian(one, x).matrix, field_values(one.k, x),
             diff_controllability_fb(one, x, [1.0, 0.0]).value)
    for a, b in zip(before, again):
        np.testing.assert_array_equal(a, b)
    assert registry("paper_sec5").k.func is original


@pytest.mark.parametrize("build", [
    lambda: registry("paper_sec5"),
    lambda: from_spec(parse_system_spec(json.loads(DATA.read_text()))),
], ids=["registry", "spec"])
def test_a_model_is_freed_without_the_cyclic_collector(build):
    """Derived fields read the component funcs, not the model, so a model
    that has built them all and run flows on them is no reference cycle."""
    x = [0.1, 0.2]
    gc.collect()
    gc.disable()
    try:
        model = build()
        diff_controllability_fb(model, x, [1.0, 0.0])
        incr_controllability_fb(model, x, [0.15, 0.2])
        empirical_obs_gramian(model, x)
        empirical_ctrl_gramian(model, [x, [0.0, 0.1]])
        frozen_input_jacobian(model, x)
        for flow in (dual_open, dual_closed_loop, adjoint_pair):
            aug = flow(model)
            aug.rhs(0.0, np.full(aug.dim, 0.1))
        freed = [weakref.ref(obj) for obj in (model, model.closed_loop_field(),
                                              model.affine_field(), model.k)]
        del model, aug
        assert [ref() for ref in freed] == [None] * len(freed)
    finally:
        gc.enable()


def test_require_k_raises_without_feedback():
    spec = parse_system_spec(json.dumps({
        "n": 1, "m": 1, "p": 1,
        "f": ["-x1"], "g": [["1"]], "h": ["x1"],
    }))
    built = from_spec(spec)
    with pytest.raises(ValueError):
        built.require_k()
    with pytest.raises(ValueError):
        closed_loop_prolonged(built)
