"""The traced benchmark patches vargram names from outside (bench/spans.py).

Installing its hooks fails on the first name a refactor removed, so this
catches the breakage in the fast test tier instead of in a traced run.
The dense-output lookups are counted only through HorizonFlow.state and
Trajectory.at, so those two methods must be patched while installed,
restored after, and be the way an energy reads its flow: one lookup per
horizon segment.
"""

from pathlib import Path

import vargram.energy as energy
import vargram.integrate as integrate
import vargram.rank as rank
import vargram.verify as verify
from vargram.systems import registry

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
        assert (ev.horizon, ev.nodes_used) == (80.0, 1440)
        # one lookup for each of [0, 20], [20, 40] and [40, 80]
        assert tracer.counts["integrate.dense_evals"] == 3
    finally:
        tracer.uninstall()
    assert hooked() == originals
