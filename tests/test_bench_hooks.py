"""The traced benchmark patches vargram names from outside (bench/spans.py).

Installing its hooks fails on the first name a refactor removed, so this
catches the breakage in the fast test tier instead of in a traced run.
"""

from pathlib import Path

import vargram.integrate as integrate
import vargram.rank as rank
import vargram.verify as verify

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_span_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    originals = (verify.check_thm1, rank.numeric_rank, integrate.Trajectory.at)
    tracer = spans.Tracer("t")
    try:
        spans.install(tracer)
        assert verify.check_thm1 is not originals[0]
        assert rank.numeric_rank is not originals[1]
    finally:
        tracer.uninstall()
    assert (verify.check_thm1, rank.numeric_rank, integrate.Trajectory.at) == originals
