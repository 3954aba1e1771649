"""The settings a caller can make, and the one place the solve tolerances live.

The energies, Gramians and flow integrals take only what a caller chooses:
the convergence tol of an improper integral, and a Gramian's fixed
horizon.  The integrator's tolerances are integrate.DEFAULT_RTOL and
DEFAULT_ATOL, read by integrate when a solve starts; no other module
holds them.  These tests pin that no public function takes a setting
that no caller in the program sets.
"""

import inspect
from pathlib import Path

import pytest

from vargram import calculus, energy, gramian, integrate, jacobi, verify
from vargram.systems import registry

# each function with the parameters it no longer takes
GONE = [
    (energy.diff_observability, ("rtol", "atol")),
    (energy.incr_observability, ("rtol", "atol")),
    (energy.diff_controllability_fb, ("rtol", "atol")),
    (energy.incr_controllability_fb, ("rtol", "atol")),
    (energy._half_square_energy, ("rtol", "atol")),
    (gramian.empirical_obs_gramian, ("rtol", "atol")),
    (gramian.empirical_ctrl_gramian, ("rtol", "atol")),
    (gramian._gramian_from_flow, ("rtol", "atol")),
    (integrate.flow_integrals, ("rtol", "atol")),
    (integrate._cost_integrals, ("rtol", "atol")),
    (integrate.integrate_ivp, ("rtol", "atol")),
    (integrate.HorizonFlow, ("rtol", "atol", "chunk")),
    (energy.quadratic_limit, ("s_ladder", "tol")),
    (integrate.improper_time_integral, ("batch",)),
    (verify.fit_decay, ("direction",)),
    (jacobi.numeric_rank, ("rel_tol",)),
    (calculus.frozen_input_jacobian, ("u",)),
]


@pytest.mark.parametrize("function, names", GONE, ids=[f.__name__ for f, _ in GONE])
def test_no_function_takes_a_setting_no_caller_sets(function, names):
    assert not set(names) & set(inspect.signature(function).parameters)


def test_one_improper_integral_and_the_tolerances_in_integrate_only():
    assert not hasattr(integrate, "improper_time_integrals")
    for path in Path(integrate.__file__).parent.glob("*.py"):
        if path.name != "integrate.py":
            text = path.read_text(encoding="utf-8")
            assert "DEFAULT_RTOL" not in text and "DEFAULT_ATOL" not in text, path.name


def test_an_energy_reads_the_tolerance_when_its_solve_starts(monkeypatch):
    system = registry("paper_sec5")
    loose = energy.diff_observability(system, [0.1, -0.2], [0.6, 0.8])
    monkeypatch.setattr(integrate, "DEFAULT_RTOL", integrate.DEFAULT_RTOL / 100)
    tight = energy.diff_observability(system, [0.1, -0.2], [0.6, 0.8])
    assert tight.nodes_used > loose.nodes_used
    assert abs(tight.value - loose.value) <= 1e-8 * abs(tight.value)
