"""scipy is loaded on the first flow solve, never at import.

vargram takes only the DOP853 stepper (and brentq for its terminal
event) from scipy, all through vargram.dop853, which integrate.solve_ivp
imports when it first runs.  Importing vargram, the CLI's help, rank
tests, certificate residuals and certificate pd-scans solve no flow, so
they load no scipy module.  Each case runs in a fresh interpreter,
because this test process has loaded scipy long before.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import vargram
from vargram.energy import diff_observability
from vargram.systems import registry

PACKAGE = pathlib.Path(vargram.__file__).resolve().parent

RUN_CLI = """
import json, sys
import vargram, vargram.cli
argv, result = json.loads(sys.argv[1]), sys.argv[2]
try:
    code = vargram.cli.main(argv) if argv else 0
except SystemExit as exc:
    code = exc.code
with open(result, "w") as fh:
    json.dump({"code": code,
               "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}, fh)
"""

RUN_ENERGY = """
import json, sys
from vargram.energy import diff_observability
from vargram.systems import registry
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
value = diff_observability(registry("paper_sec5"), [0.1, 0.2], [1.0, -0.5]).value
after = ["scipy.integrate" in sys.modules, "vargram.dop853" in sys.modules]
print(json.dumps({"before": before, "value": value, "after": after}))
"""


def _fresh_python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


@pytest.mark.parametrize("argv", [
    [],
    ["--help"],
    ["rank", "--matrix", "ctrl", "--x", "0.1,0.2"],
    ["rank", "--matrix", "ctrl", "--region", "-1,1,-1,1", "--grid", "3x3"],
    ["residual", "--equation", "dLya_con", "--field", "cert-P", "--x", "0.1,0.2"],
    ["residual", "--equation", "dLya_con", "--field", "cert-P", "--region", "-1,1,-1,1",
     "--grid", "3x3"],
    ["pd-scan", "--field", "cert-R", "--region", "-1,1,-1,1", "--grid", "3x3"],
], ids=["import", "help", "rank-point", "rank-grid", "residual-point", "residual-grid",
        "pd-scan-cert"])
def test_commands_that_solve_no_flow_load_no_scipy(tmp_path, argv):
    if argv[1:]:
        system = ["--system", "paper_sec5", "--out", str(tmp_path / "out")]
        argv = argv[:1] + system + argv[1:]
    result = tmp_path / "result.json"
    _fresh_python(RUN_CLI, json.dumps(argv), str(result))
    assert json.loads(result.read_text()) == {"code": 0, "scipy": []}


def test_the_first_flow_solve_loads_scipy_and_gives_the_same_value():
    out = json.loads(_fresh_python(RUN_ENERGY))
    assert out["before"] == []
    assert out["after"] == [True, True]
    here = diff_observability(registry("paper_sec5"), [0.1, 0.2], [1.0, -0.5]).value
    assert out["value"] == here
    # the value of the same call while vargram still loaded scipy at import,
    # moved at the integrator's level when the energy became a flow state
    assert out["value"] == pytest.approx(1.2768704934626798, rel=1e-12, abs=0.0)
    assert out["value"] == pytest.approx(1.2768704934578616, rel=1e-9, abs=0.0)


def test_only_dop853_imports_scipy():
    importers = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(path.relative_to(PACKAGE).as_posix())
    assert sorted(set(importers)) == ["dop853.py"]
