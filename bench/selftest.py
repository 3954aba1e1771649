"""Self-test of the benchmark's checks, and two README promises as tests.

Usage: python3 bench/selftest.py

Runs one round of each workload, confirms that the checks accept the
program's real outputs (verify_sec5's thm4 is the known inconclusive
operation), then perturbs each output the way a fault would (a Gramian
entry or energy moved by 1e-6, a rank off by one, a flipped verdict, a
missing value) and confirms that the checks reject it.  It also tests
two promises of the README: two `verify` runs with the same --seed write
byte-identical reports, and `pd-scan --jobs 2` writes the same scan.csv
as `--jobs 1`.  Prints one line per test; exits 1 if any fails.
Takes about a minute and a half on a 2-CPU machine.
"""

from __future__ import annotations

import argparse
import copy
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS: list[tuple[str, bool]] = []


def expect(label: str, ok: bool) -> None:
    RESULTS.append((label, ok))
    print(f"[{'PASS' if ok else 'FAIL'}] {label}", flush=True)


def one_round(workload):
    workload.setup()
    output = workload.collect(workload.run_round())
    workload.prepare_checks(output)
    return output


def rejects(workload, output) -> bool:
    return bool(workload.failed(output)[1])


def test_verify(workloads, work_dir):
    w = workloads.VerifySec5(0, work_dir)
    out = one_round(w)
    raised, rejected = w.failed(out)
    expect("verify_sec5: real reports pass; only thm4 is inconclusive",
           raised == {"thm4"} and not rejected)

    second = w.collect(w.run_round())
    expect("README promise: two verify runs with the same --seed write identical bytes",
           out["bytes"] == second["bytes"] and len(out["bytes"]) == 7)

    bad = copy.deepcopy(out)
    bad["thm1"]["verdict"] = bad["summary"]["verdicts"]["thm1"] = "fail"
    expect("verify_sec5: a flipped verdict is rejected", rejects(w, bad))

    bad = copy.deepcopy(out)
    bad["summary"]["verdicts"]["cor7"] = "inconclusive"
    expect("verify_sec5: a summary that disagrees with its report is rejected",
           rejects(w, bad))

    bad = copy.deepcopy(out)
    bad["thm2"]["samples"][0]["rhs"] += 1e-6
    expect("verify_sec5: a thm2 energy moved by 1e-6 is rejected", rejects(w, bad))

    bad = copy.deepcopy(out)
    sample = bad["thm3"]["samples"][0]
    sample["lhs"] = sample["rhs"] - 2.0 * sample["budget"]
    expect("verify_sec5: a thm3 margin below -budget is rejected", rejects(w, bad))

    bad = copy.deepcopy(out)
    del bad["thm5"]
    expect("verify_sec5: a missing report counts as failed, not as wrong",
           "thm5" in w.failed(bad)[0] and not rejects(w, bad))


def _moved(rows, index, column, delta):
    rows = list(rows)
    row = list(rows[index])
    row[column] += delta
    rows[index] = tuple(row)
    return rows


def test_scan(workloads, work_dir):
    from workloads import _cli

    w = workloads.GramianScan(0, work_dir)
    out = one_round(w)
    raised, rejected = w.failed(out)
    expect("gramian_scan: real scans pass", not raised and not rejected
           and all(len(rows) == w.ops_per_round // 2 for rows in out.values()))

    q_rows = out["empirical-Q"]
    ref_index = next(i for i, r in enumerate(q_rows) if r[:2] in w.references
                     and not (r[0] == 0.0 and r[1] == 0.0))
    origin = next(i for i, r in enumerate(q_rows) if abs(r[0]) < 1e-12 and abs(r[1]) < 1e-12)
    for label, field_name, index, column in (
            ("a Q eigenvalue at a scipy reference point", "empirical-Q", ref_index, 2),
            ("the Q determinant at the origin", "empirical-Q", origin, 3),
            ("an R determinant away from the reference points", "empirical-R", 0, 3)):
        bad = dict(out)
        bad[field_name] = _moved(out[field_name], index, column, 1e-6)
        expect(f"gramian_scan: {label} moved by 1e-6 is rejected", rejects(w, bad))

    bad = dict(out)
    row = list(out["empirical-R"][5])
    row[4] = "IntegrationError: failed"
    bad["empirical-R"] = out["empirical-R"][:5] + [tuple(row)] + out["empirical-R"][6:]
    expect("gramian_scan: a point that raised counts as failed",
           len(w.failed(bad)[0]) == 1)

    texts = {}
    for jobs in (1, 2):
        argv, path = w.scan_args("empirical-Q", jobs=jobs, grid=(3, 3))
        code = _cli(argv)
        texts[jobs] = path.read_bytes() if code == 0 else None
    expect("README promise: pd-scan --jobs 2 writes the same scan.csv as --jobs 1",
           texts[1] is not None and texts[1] == texts[2])


def test_rank(workloads, work_dir):
    import numpy as np

    w = workloads.RankSweep(0, work_dir)
    out = one_round(w)
    raised, rejected = w.failed(out)
    expect("rank_sweep: real sweeps pass", not raised and not rejected)

    def with_change(key, index, rank_delta=0, entry_delta=0.0):
        bad = dict(out)
        ranks, mats = list(out[key][0]), list(out[key][1])
        ranks[index] += rank_delta
        mats[index] = mats[index].copy()
        mats[index][0, -1] += entry_delta
        bad[key] = (ranks, mats)
        return bad

    line = next(i for i, p in enumerate(w.points) if p[0] == -1.0)
    sample = min(w.sample_idx)
    expect("rank_sweep: a bracket rank off by one is rejected",
           rejects(w, with_change(("linear_2x2", "ctrl", 3), 7, rank_delta=-1)))
    expect("rank_sweep: full codistribution rank on x1 = -1 is rejected",
           rejects(w, with_change(("paper_sec5", "obs", 1), line, rank_delta=1)))
    expect("rank_sweep: a Kalman-matrix entry moved by 1e-6 is rejected",
           rejects(w, with_change(("linear_2x2", "obs", 3), 3, entry_delta=1e-6)))
    expect("rank_sweep: a bracket column entry moved by 1e-6 at a sympy point is rejected",
           rejects(w, with_change(("paper_sec5", "access", 3), sample, entry_delta=1e-6)))
    expect("rank_sweep: sympy reproduces the closed-form depth-1 bracket",
           np.allclose(w.sec5_refs["ctrl"]([0.3, 0.0])[:, 1],
                       [1.5 + 0.9 + 2 * 0.09 + (2 / 3) * 0.027, 0.5], rtol=0, atol=1e-14))


def test_linear(workloads, work_dir):
    import numpy as np

    w = workloads.LinearSpec(0, work_dir)
    out = one_round(w)
    raised, rejected = w.failed(out)
    expect("linear_spec: every value matches its Lyapunov oracle", not raised and not rejected)

    bad = copy.deepcopy(out)
    bad[0]["value"] += 1e-6
    expect("linear_spec: an energy moved by 1e-6 is rejected", rejects(w, bad))

    bad = copy.deepcopy(out)
    gram = next(i for i, op in enumerate(bad) if op["kind"] == "gramian_ctrl")
    bad[gram]["value"] = np.array(bad[gram]["value"])
    bad[gram]["value"][0, 1] += 1e-6
    expect("linear_spec: a Gramian entry moved by 1e-6 is rejected", rejects(w, bad))

    bad = copy.deepcopy(out)
    bad[3]["value"] = None
    expect("linear_spec: an operation that raised counts as failed",
           w.failed(bad)[0] == {3} and not rejects(w, bad))

    bad = copy.deepcopy(out)
    bad[0]["error_estimate"] = 0.0
    bad[0]["value"] = bad[0]["oracle"] + 1e-8
    expect("linear_spec: an error estimate that misses is counted",
           w.estimate_misses(bad) >= 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work_dir = ROOT / ".bench_runs" / "selftest"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for test in (test_rank, test_linear, test_scan, test_verify):
            test(workloads, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = [label for label, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)} of {len(RESULTS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
