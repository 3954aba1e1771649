"""Host-speed sampling, so that wall times can be read at a fixed speed.

This machine's CPUs are shared with other tenants.  While the benchmark
was written, a fixed computation ran in one of two states, the slow one
about 1.9 times slower, switching every few seconds; whole 15-second
windows ran in the slow state, so wall times of the same work moved by up
to a factor of two from run to run.  `HostSpeed` runs a small reference
computation every PERIOD_S of wall time from a SIGALRM handler.  The
reference shares no code with the program but is built like its hot
path: a Python right-hand side on dual numbers, integrated by scipy's
RK45 with dense output.  Each slice of wall time between two samples is
scaled by REFERENCE_S over the reference's duration at the slice's end,
so `normalized(start, end)` is the time the interval would have taken
had the host run at the speed at which the reference takes REFERENCE_S.
The reference's own time is taken out of every slice.

Measured against program operations (an energy, a Gramian, a rank
sweep), the reference slows a little more than they do in the slow
state (1.97 against 1.86 times), so normalized times still read a few
percent lower in the slow state than in the fast one.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.integrate import solve_ivp

clock = time.perf_counter

# The reference's duration on the 2-CPU machine the benchmark was written
# on, in its fast state.  Only ratios between runs on one host matter.
REFERENCE_S = 0.0017
PERIOD_S = 0.1


class _Dual:
    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = d

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.v + other.v, tuple(a + b for a, b in zip(self.d, other.d)))
        return _Dual(self.v + other, self.d)

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.v * other.v,
                         tuple(self.v * b + other.v * a for a, b in zip(self.d, other.d)))
        return _Dual(self.v * other, tuple(other * a for a in self.d))


def _rhs(_t, z):
    x, y = _Dual(float(z[0]), (1.0, 0.0)), _Dual(float(z[1]), (0.0, 1.0))
    return np.array([(x * -0.5 + y * 0.3 + x * x * 0.01).v, (x * -0.3 + y * -0.5).v])


def reference() -> float:
    """A fixed amount of work, about 1.7 ms on a free core of that machine."""
    sol = solve_ivp(_rhs, (0.0, 4.0), [1.0, 0.0], method="RK45", rtol=1e-6, atol=1e-9,
                    dense_output=True)
    return float(sum(sol.sol(t)[0] for t in np.linspace(0.0, 4.0, 12)))


class HostSpeed:
    """Reference samples (end time, duration) taken every PERIOD_S."""

    def __init__(self, on_sample=None):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.on_sample = on_sample  # told each sample's duration
        self._previous = None
        self._cumulative = None

    def sample(self, *_signal_args) -> None:
        start = clock()
        reference()
        end = clock()
        self.ends.append(end)
        self.durations.append(end - start)
        if self.on_sample is not None:
            self.on_sample(end - start)

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        ends = np.asarray(self.ends)
        durations = np.asarray(self.durations)
        slices = np.diff(ends) - durations[1:]
        self._cumulative = np.concatenate(
            [[0.0], np.cumsum(slices * (REFERENCE_S / durations[1:]))])

    def normalized(self, start: float, end: float) -> float:
        """Seconds at reference speed spent in the wall interval [start, end]."""
        n = np.interp([start, end], self.ends, self._cumulative)
        return float(n[1] - n[0])

    def slowdown(self) -> float:
        """Median reference duration over REFERENCE_S, for the record."""
        return float(np.median(self.durations)) / REFERENCE_S
