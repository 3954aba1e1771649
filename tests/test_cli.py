"""Command line interface: outputs, determinism, and exit codes."""

import json
import pathlib
import shlex

import numpy as np
import pytest

from vargram import cli, gramian
from vargram.cli import CliError, build_parser, emit_plot_script, main


def test_simulate_writes_trajectory_and_script(tmp_path):
    out = tmp_path / "run"
    code = main([
        "simulate", "--system", "paper_sec5", "--mode", "prolonged",
        "--x0", "0.1,0.1", "--dx0", "1,0", "--tf", "2.0",
        "--samples", "21", "--out", str(out), "--plot",
    ])
    assert code == 0
    csv_path = out / "trajectory.csv"
    assert csv_path.exists()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,dx1,dx2,dy1,y1"
    assert len(lines) == 22
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert np.allclose([float(v) for v in first[1:5]], [0.1, 0.1, 1.0, 0.0])
    script = (out / "trajectory.gp").read_text()
    assert "plot for" in script and "trajectory.csv" in script


def test_simulate_dual_mode_accepts_dp0(tmp_path):
    out = tmp_path / "dual"
    code = main([
        "simulate", "--mode", "dual-closed-loop", "--x0", "0.1,0.1",
        "--dp0", "1,0", "--tf", "1.0", "--samples", "11", "--out", str(out),
    ])
    assert code == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x1,x2,dp1,dp2,dz1"


@pytest.mark.parametrize("flag, value", [
    *(("--tf", value) for value in ("inf", "nan", "0", "-1")),
    *(("--samples", value) for value in ("1", "0", "-5")),
])
def test_simulate_rejects_horizons_and_sample_counts_it_cannot_tabulate(
        tmp_path, capsys, flag, value):
    code = main(["simulate", "--system", "paper_sec5", "--mode", "open-loop",
                 "--x0", "0.1,0.1", flag, value, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} must be")
    assert not any(tmp_path.iterdir())


def test_simulate_open_and_closed_loop_tabulate_the_flow(tmp_path):
    # linear_scalar: f = -x, and f + g k = x in closed loop
    for mode, rate in (("open-loop", -1.0), ("closed-loop", 1.0)):
        out = tmp_path / mode
        assert main(["simulate", "--system", "linear_scalar", "--mode", mode,
                     "--x0", "0.5", "--tf", "2", "--samples", "2", "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,x1"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        assert [row[0] for row in rows] == [0.0, 2.0]
        assert rows[0][1] == 0.5
        assert np.isclose(rows[1][1], 0.5 * np.exp(2.0 * rate), rtol=1e-8, atol=0.0)


def test_simulate_states_where_the_step_size_underflowed(tmp_path, capsys):
    # paper_sec5's closed loop escapes from (0.3, -0.2) faster than
    # quadratically: the step size underflows while the norm is far below
    # BLOWUP_NORM, so no escape time is found
    code = main(["simulate", "--system", "paper_sec5", "--mode", "closed-loop",
                 "--x0", "0.3,-0.2", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "IntegrationError: integrator failed on [0, 10] at t = 2.23832, " \
           "state norm 1.16e+07: Required step size" in err
    assert not (tmp_path / "trajectory.csv").exists()


def test_energy_prints_json(tmp_path, capsys):
    code = main([
        "energy", "--system", "linear_scalar", "--kind", "diff-ctrl",
        "--x0", "0", "--dx0", "1",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["value"] - 1.0) < 1e-7
    assert payload["direction"] == "backward"

    out = tmp_path / "e"
    main(["energy", "--system", "linear_scalar", "--kind", "incr-obs",
          "--x0", "0", "--x0p", "1", "--out", str(out)])
    saved = json.loads((out / "energy.json").read_text())
    assert abs(saved["value"] - 0.25) < 1e-8


def test_energy_requires_the_matching_second_vector(capsys):
    code = main(["energy", "--system", "linear_scalar", "--kind", "diff-ctrl",
                 "--x0", "0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, stray", [
    (["simulate", "--mode", "prolonged", "--dp0", "1,0"], "--dp0"),
    (["simulate", "--mode", "two-copy", "--dx0", "1,0", "--x0p", "0.2,0"], "--dx0"),
    (["simulate", "--mode", "dual-open", "--dp0", "1,0", "--x0p", "0.2,0"], "--x0p"),
    (["simulate", "--mode", "open-loop", "--dx0", "1,0"], "--dx0"),
    (["energy", "--kind", "diff-obs", "--dx0", "1,0", "--x0p", "0.2,0"], "--x0p"),
    (["energy", "--kind", "incr-ctrl", "--x0p", "0.2,0", "--dx0", "1,0"], "--dx0"),
], ids=["prolonged", "two-copy", "dual-open", "open-loop", "diff-obs", "incr-ctrl"])
def test_vector_flags_the_mode_does_not_use_are_errors(tmp_path, capsys, argv, stray):
    code = main(argv + ["--system", "paper_sec5", "--x0", "0.1,0.1", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(f"does not use {stray}")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, flag", [
    (["energy", "--kind", "diff-obs", "--x0", "0", "--dx0", "1,0"], "--x0"),
    (["energy", "--kind", "diff-obs", "--x0", "0,0", "--dx0", "1"], "--dx0"),
    (["energy", "--kind", "incr-ctrl", "--x0", "0.1", "--x0p", "0.1,0.05"], "--x0"),
    (["energy", "--kind", "incr-ctrl", "--x0", "0.1,0", "--x0p", "0.1,0.05,0"], "--x0p"),
    (["gramian", "--kind", "obs", "--x", "0"], "--x"),
    (["residual", "--equation", "dLya_con", "--field", "cert-P", "--x", "0"], "--x"),
    (["rank", "--matrix", "ctrl", "--x", "0"], "--x"),
    (["simulate", "--mode", "prolonged", "--x0", "0", "--dx0", "1,0"], "--x0"),
    (["simulate", "--mode", "two-copy", "--x0", "0,0", "--x0p", "1"], "--x0p"),
], ids=["diff-obs-x0", "diff-obs-dx0", "incr-ctrl-x0", "incr-ctrl-x0p", "gramian",
        "residual", "rank", "simulate-x0", "simulate-x0p"])
def test_a_point_with_the_wrong_number_of_components_is_an_error(tmp_path, capsys, argv, flag):
    for system in ("paper_sec5", "linear_2x2"):
        code = main(argv + ["--system", system, "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} needs 2 components for system {system!r}")
    assert not any(tmp_path.iterdir())


def test_gramian_output(tmp_path):
    out = tmp_path / "g"
    code = main(["gramian", "--system", "paper_sec5", "--kind", "obs",
                 "--x", "0,0", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "gramian.json").read_text())
    got = np.array(payload["matrix"])
    assert np.allclose(got, [[1.0, -1.0], [-1.0, 2.0]], atol=1e-5)
    assert payload["horizon"] >= 20.0


def test_residual_point_and_sweep(tmp_path, capsys):
    code = main(["residual", "--system", "paper_sec5", "--equation", "dRicc",
                 "--field", "cert-R", "--x", "0.2,0.1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(r["frobenius_norm"] < 1e-12 for r in payload["residuals"])
    assert {r["equation_id"] for r in payload["residuals"]} == {"dRicc_con", "dRicc_gain"}

    out = tmp_path / "r"
    code = main(["residual", "--system", "paper_sec5", "--equation", "dLya_con",
                 "--field", "cert-P", "--region", "-0.5,0.5,-0.5,0.5",
                 "--grid", "3x3", "--out", str(out)])
    assert code == 0
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[0] == "x1,x2,equation_id,frobenius_norm"
    assert len(lines) == 1 + 9 * 2  # state and gain rows per point
    assert all(float(line.split(",")[3]) < 1e-12 for line in lines[1:])


def test_residual_requires_point_or_region(capsys):
    code = main(["residual", "--system", "paper_sec5", "--equation", "dLya_ob",
                 "--field", "empirical-Q"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_rank_point_output(tmp_path, capsys):
    code = main(["rank", "--system", "paper_sec5", "--matrix", "ctrl",
                 "--x", "0,0", "--depth", "2"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 2
    assert "at the tested depth" in payload["note"]
    assert payload["matrix"] == "ctrl"
    assert np.allclose(payload["columns_or_rows"],
                       [[1.0, 1.5, 1.25], [1.0, 0.5, 0.25]])


@pytest.mark.parametrize("argv, filename", [
    (["energy", "--kind", "diff-obs", "--x0", "0.1,0", "--dx0", "1,0"], "energy.json"),
    (["gramian", "--kind", "ctrl", "--x", "0.1,0"], "gramian.json"),
    (["residual", "--equation", "dRicc", "--field", "cert-R", "--x", "0.2,0.1"],
     "residual.json"),
    (["rank", "--matrix", "obs", "--x", "0.3,0.1", "--depth", "1"], "rank.json"),
], ids=["energy", "gramian", "residual", "rank"])
def test_a_result_at_a_point_is_the_same_bytes_on_stdout_and_in_its_file(
        tmp_path, capsysbinary, argv, filename):
    assert main(argv + ["--system", "paper_sec5", "--out", str(tmp_path)]) == 0
    printed = capsysbinary.readouterr().out
    assert printed == (tmp_path / filename).read_bytes()
    assert printed.decode() == json.dumps(json.loads(printed), sort_keys=True, indent=2) + "\n"


def test_the_residual_equations_are_the_gramian_table_in_order(capsys):
    assert list(gramian.EQUATIONS) == ["dLya_ob", "dRicc", "dLya_con", "dLya_open"]
    with pytest.raises(SystemExit):
        build_parser().parse_args(["residual", "--help"])
    assert "--equation {dLya_ob,dRicc,dLya_con,dLya_open}" in capsys.readouterr().out


def test_rank_sweep_detects_critical_line(tmp_path):
    out = tmp_path / "rk"
    code = main(["rank", "--system", "paper_sec5", "--matrix", "obs",
                 "--region", "-1,1,-1,1", "--grid", "3x3", "--depth", "1",
                 "--out", str(out)])
    assert code == 0
    rows = (out / "rank.csv").read_text().splitlines()[1:]
    ranks = {(float(r.split(",")[0]), float(r.split(",")[1])): int(r.split(",")[2])
             for r in rows}
    for (x1, _), rank in ranks.items():
        assert rank == (1 if x1 == -1.0 else 2)


def test_pd_scan_parallel_and_serial_agree(tmp_path):
    args = ["pd-scan", "--system", "paper_sec5", "--field", "empirical-Q",
            "--region", "-0.1,0.1,-0.1,0.1", "--grid", "3x3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--jobs", "1", "--out", str(out1)]) == 0
    assert main(args + ["--jobs", "2", "--out", str(out2)]) == 0
    text1 = (out1 / "scan.csv").read_bytes()
    assert text1 == (out2 / "scan.csv").read_bytes()
    header = text1.decode().splitlines()[0]
    assert header == "x1,x2,min_eig,det,status"


def test_pd_scan_starts_no_more_workers_than_grid_points(tmp_path, monkeypatch):
    sizes = []

    class InProcessPool:
        """Records the worker count; runs the map here."""

        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, items):
            return [func(item) for item in items]

    monkeypatch.setattr(cli.multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(cli, "_POOL_FIELD", None)
    args = ["pd-scan", "--system", "linear_scalar", "--field", "cert-R", "--region", "0,1"]
    assert main(args + ["--grid", "2", "--jobs", "64", "--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--grid", "1", "--jobs", "4", "--out", str(tmp_path / "b")]) == 0
    assert sizes == [2]  # and one point is scanned without a pool
    assert main(args + ["--grid", "2", "--jobs", "1", "--out", str(tmp_path / "c")]) == 0
    assert (tmp_path / "a" / "scan.csv").read_bytes() == (tmp_path / "c" / "scan.csv").read_bytes()


@pytest.mark.parametrize("field", ["bogus", "cert-X"])
def test_pd_scan_rejects_a_bad_field_before_any_pool_or_output(tmp_path, monkeypatch, capsys,
                                                                field):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(cli.multiprocessing, "Pool", no_pool)
    out = tmp_path / "scan"
    assert main(["pd-scan", "--system", "linear_scalar", "--field", field, "--region", "0,1",
                 "--grid", "3", "--jobs", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("field, message", [("bogus", "unknown field 'bogus'"),
                                            ("cert-X", "has no certificate 'X'")],
                         ids=["bogus", "cert-X"])
def test_a_scan_task_raises_its_set_up_error(monkeypatch, field, message):
    # a pd-scan worker builds its field at its first point, so a bad one
    # raises in the task, which pool.map hands to the parent
    monkeypatch.setattr(cli, "_POOL_FIELD", None)
    with pytest.raises(CliError, match=message):
        cli._scan_eval((("registry", "linear_scalar"), field, 1e-8, (0.5,)))


def test_a_pd_scan_whose_workers_fail_leaves_no_output(tmp_path, monkeypatch, capsys):
    # a worker's set-up error reaches the parent through pool.map; nothing
    # has been written then, so no --out is made
    class FailingPool:
        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks):
            raise CliError("spec file not found: gone.json")

    monkeypatch.setattr(cli.multiprocessing, "Pool", FailingPool)
    out = tmp_path / "scan"
    assert main(["pd-scan", "--system", "linear_scalar", "--field", "cert-R", "--region",
                 "0,1", "--grid", "3", "--jobs", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: spec file not found: gone.json\n"
    assert not out.exists()


def test_a_serial_pd_scan_keeps_no_field_after_it_returns(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_POOL_FIELD", None)
    assert main(["pd-scan", "--system", "paper_sec5", "--field", "empirical-Q",
                 "--region", "-0.1,0.1,-0.1,0.1", "--grid", "2x1", "--jobs", "1",
                 "--out", str(tmp_path)]) == 0
    assert cli._POOL_FIELD is None


def test_pd_scan_reports_positivity(tmp_path, capsys):
    out = tmp_path / "p"
    code = main(["pd-scan", "--system", "paper_sec5", "--field", "cert-P",
                 "--region", "-0.5,0.5,-0.5,0.5", "--grid", "3x3",
                 "--out", str(out), "--plot"])
    assert code == 0
    assert "positive definite everywhere: True" in capsys.readouterr().out
    assert (out / "scan.gp").exists()


def test_pd_scan_plot_needs_a_two_dimensional_grid(tmp_path, capsys):
    code = main(["pd-scan", "--system", "linear_scalar", "--field", "cert-Q",
                 "--region", "-1,1", "--grid", "5", "--plot", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: --plot draws a heatmap over two dims")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["rank", "--matrix", "ctrl", "--region", "-1,1", "--grid", "3"],
     "--region covers 1 dims, system has 2"),
    (["residual", "--equation", "dLya_con", "--field", "cert-P", "--region", "-1,1",
      "--grid", "3"], "--region covers 1 dims, system has 2"),
    (["verify", "--theorem", "thm5", "--grid", "3"], "--grid has 1 dims, system has 2"),
    (["rank", "--matrix", "ctrl", "--region", "-1,1,-1,1", "--grid", "3x3x3"],
     "--grid has 3 dims, system has 2"),
])
def test_region_and_grid_must_match_the_system_dimension(tmp_path, capsys, argv, message):
    code = main(argv[:1] + ["--system", "paper_sec5", "--out", str(tmp_path)] + argv[1:])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_example_quick_reproduces_all_artifacts(tmp_path):
    # end-to-end figure pipeline at reduced resolution; roughly 25 seconds
    out = tmp_path / "ex"
    assert main(["example", "--quick", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["quick"] is True
    assert summary["positive_definite_everywhere"] is True
    assert summary["bracket_rank_always_2"] is True
    assert set(summary["verdicts"]) == {"thm1", "thm2", "thm3", "thm4",
                                        "thm5", "cor7"}
    assert all(v == "pass" for v in summary["verdicts"].values())
    for name in summary["files"]:
        assert (out / name).exists()
    assert (out / "fig1_dual_response.gp").exists()


def test_verify_single_theorem_report(tmp_path):
    out = tmp_path / "v"
    code = main(["verify", "--system", "linear_scalar", "--theorem", "thm4",
                 "--samples", "2", "--out", str(out)])
    assert code == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["theorem"] == "thm4"
    assert payload["verdict"] == "pass"


def test_verify_reports_are_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["verify", "--system", "linear_scalar", "--theorem", "thm2",
              "--samples", "2", "--seed", "7", "--out", str(out)])
        outs.append((out / "report.json").read_bytes())
    assert outs[0] == outs[1]


def test_verify_strict_flag_escalates_non_pass(tmp_path, capsys):
    # a feedback of zero breaks the decay hypothesis: inconclusive, and
    # --strict turns that into a nonzero exit
    spec = tmp_path / "lazy.json"
    spec.write_text(json.dumps({
        "n": 1, "m": 1, "p": 1,
        "f": ["-x1"], "g": [["1"]], "h": ["x1"], "k": ["0"],
    }))
    base = ["verify", "--spec", str(spec), "--theorem", "thm1",
            "--region", "-0.5,0.5", "--pairs", "2", "--out", str(tmp_path)]
    assert main(base) == 0  # completed analysis, lenient exit
    capsys.readouterr()
    assert main(base + ["--strict"]) == 1
    err = capsys.readouterr()
    assert "inconclusive" in err.out


def test_verify_all_without_a_p_certificate_leaves_cor7_inconclusive(tmp_path, capsys):
    # cor7's default field is cert-P: on a spec that declares none, cor7 is
    # inconclusive with a note, every report and the summary are written,
    # and only --strict makes that a nonzero exit
    spec = tmp_path / "no_p.json"
    spec.write_text(json.dumps({
        "n": 1, "m": 1, "p": 1,
        "f": ["-x1"], "g": [["1"]], "h": ["x1"], "k": ["-x1"], "fields": {"Q": [["0.5"]]},
    }))
    base = ["verify", "--spec", str(spec), "--region", "-0.5,0.5", "--grid", "3",
            "--pairs", "1", "--samples", "1"]
    for flags, code in (([], 0), (["--strict"], 1)):
        out = tmp_path / f"all{len(flags)}"
        assert main(base + ["--theorem", "all", "--out", str(out)] + flags) == code
        cor7 = json.loads((out / "report_cor7.json").read_text())
        assert (cor7["verdict"], cor7["notes"]) == ("inconclusive", ["no certificate"])
        verdicts = json.loads((out / "summary.json").read_text())["verdicts"]
        assert sorted(verdicts) == sorted(cli._CHECKS) and verdicts["cor7"] == "inconclusive"
    assert "cor7: inconclusive" in capsys.readouterr().out
    # a certificate named on the command line must exist, which is checked
    # before any check runs, so no --out is made
    for theorem in ("cor7", "all"):
        named = ["--theorem", theorem, "--field", "cert-P", "--out", str(tmp_path / theorem)]
        assert main(base + named) == 1
        captured = capsys.readouterr()
        assert "has no certificate 'P' (available: Q)" in captured.err
        assert captured.out == "" and not (tmp_path / theorem).exists()


@pytest.mark.parametrize("flag", ["--pairs", "--samples"])
def test_verify_needs_at_least_one_sample(tmp_path, capsys, flag):
    code = main(["verify", "--system", "linear_scalar", "--theorem", "all", flag, "0",
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(tmp_path.iterdir())


_TOL_COMMANDS = {
    "energy": ["energy", "--system", "linear_scalar", "--kind", "diff-obs",
               "--x0", "0.1", "--dx0", "1"],
    "gramian": ["gramian", "--system", "linear_scalar", "--kind", "obs", "--x", "0.1"],
    "pd-scan": ["pd-scan", "--system", "linear_scalar", "--field", "empirical-Q",
                "--region", "-1,1", "--grid", "3"],
    "verify": ["verify", "--system", "linear_scalar", "--theorem", "thm2"],
    "example": ["example", "--quick"],
}


@pytest.mark.parametrize("command, flag, value", [
    *((name, "--tol", value) for name in _TOL_COMMANDS
      for value in ("-1", "0", "nan", "inf")),
    *((name, "--jobs", value) for name in ("pd-scan", "example") for value in ("0", "-3")),
])
def test_meaningless_tol_and_jobs_are_rejected(tmp_path, capsys, command, flag, value):
    code = main(_TOL_COMMANDS[command] + [flag, value, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {flag} must be")
    assert not any(tmp_path.iterdir())


def test_verify_unknown_system_is_an_error(capsys):
    assert main(["verify", "--system", "missing", "--theorem", "thm1"]) == 1
    assert "unknown system" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["pd-scan", "--field", "cert-P", "--region", "-1,1", "--grid", "3"],
    ["energy", "--kind", "diff-obs", "--x0", "0.1", "--dx0", "1"],
])
def test_spec_errors_are_reported_by_every_subcommand(tmp_path, capsys, command):
    missing = tmp_path / "nope.json"
    assert main(command + ["--spec", str(missing), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: spec file not found: ") and "nope.json" in err
    assert "Traceback" not in err

    malformed = tmp_path / "bad.json"
    malformed.write_text(json.dumps({"n": 1, "m": 1, "p": 1, "f": ["-x1 +"],
                                     "g": [["1"]], "h": ["x1"], "k": ["x1"]}))
    assert main(command + ["--spec", str(malformed), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: bad system spec: ")


def test_argparse_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["energy", "--system", "linear_scalar"])  # missing --kind
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_negative_region_values_parse():
    parser = build_parser()
    args = parser.parse_args(["pd-scan", "--field", "cert-P",
                              "--region", "-0.5,0.5,-0.5,0.5", "--grid", "3x3"])
    assert args.region == "-0.5,0.5,-0.5,0.5"


def test_help_examples_are_valid_invocations(capsys):
    parser = build_parser()
    sub_names = ["simulate", "energy", "gramian", "residual", "rank",
                 "pd-scan", "verify", "example"]
    seen = 0
    for name in sub_names:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([name, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for line in text.splitlines():
            line = line.strip()
            if not line.startswith("$ vargram "):
                continue
            argv = shlex.split(line[len("$ vargram "):])
            fresh = build_parser()
            fresh.parse_args(argv)  # must not raise
            seen += 1
    assert seen >= 2 * len(sub_names)


def test_emit_plot_script_validation(tmp_path):
    missing = tmp_path / "gone.csv"
    with pytest.raises(CliError, match="csv not found"):
        emit_plot_script(missing, "timeseries")

    real = tmp_path / "data.csv"
    real.write_text("t,a\n0,1\n")
    with pytest.raises(ValueError, match="plot kind"):
        emit_plot_script(real, "pie-chart")
    path = emit_plot_script(real, "timeseries")
    text = pathlib.Path(path).read_text()
    assert text.startswith("set datafile separator")
    assert "plot for" in text


def test_csv_floats_round_trip(tmp_path):
    out = tmp_path / "ft"
    main(["simulate", "--system", "linear_scalar", "--mode", "open-loop",
          "--x0", "0.1", "--tf", "1.0", "--samples", "3", "--out", str(out)])
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    x_end = float(rows[-1].split(",")[1])
    # %.17g preserves doubles exactly
    assert x_end == 0.1 * np.exp(-1.0) or abs(x_end - 0.1 * np.exp(-1.0)) < 1e-10
