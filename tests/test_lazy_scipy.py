"""The package runs on numpy alone: no command imports scipy.

Only the broadcast solvers and ``diagonal_maxmin`` solve a linear
program, and both go through the package's own simplex, looked up as
``coupling._simplex`` at call time, so a wrapper installed there sees
every solve.  A CLI command that runs neither must not even load
``scipy.optimize``, and every command must succeed in an interpreter
that refuses to import scipy at all.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from infocoupling import DiagonalInstance, coupling, diagonal_maxmin, solve_broadcast

ROOT = Path(__file__).resolve().parents[1]
SPEC_DIR = ROOT / "specs"

CHILD = """
import contextlib, io, json, sys
from infocoupling.cli import main
states = ['scipy.optimize' in sys.modules]
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
    states.append('scipy.optimize' in sys.modules)
print(json.dumps({"codes": codes, "loaded": states}))
"""

NO_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} refused")

sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("scipy was not refused")
"""


def run_child(code, *argvs):
    """Run ``code`` with the argvs as JSON in ``sys.argv[1]`` in one fresh
    interpreter on this checkout; return its parsed JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(list(argvs))],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    return json.loads(proc.stdout)


def optimize_loaded_after(*argvs):
    """Run ``cli.main`` on each argv in one fresh interpreter; return the
    exit codes and whether ``scipy.optimize`` was loaded after the import
    and after each command."""
    out = run_child(CHILD, *argvs)
    return out["codes"], out["loaded"]


def test_commands_without_an_lp_never_load_optimize():
    argvs = [
        ["spectrum", str(SPEC_DIR / "ternary_eta02_gamma01.json")],
        ["couple", str(SPEC_DIR / "bsc01.json"), "--mode", "p2p"],
        ["couple", str(SPEC_DIR / "adder_mac.json"), "--mode", "mac"],
        ["layered", "--eta", "0.2", "--gamma", "0.1", "--simulate", "--trials", "20"],
        ["verify", "--suite", "tensor", "--budget", "20"],
    ]
    codes, loaded = optimize_loaded_after(*argvs)
    assert codes == [0] * len(argvs)
    assert loaded == [False] * (len(argvs) + 1)


def test_every_command_runs_where_scipy_cannot_be_imported():
    from test_golden_reports import CASES

    argvs = [
        *CASES.values(),
        ["couple", str(SPEC_DIR / "windmill_delta01.json"), "--mode", "broadcast", "--single-direction"],
        ["verify", "--suite", "oracle", "--budget", "20"],
        ["layered", "--eta", "0.2", "--gamma", "0.1", "--simulate", "--trials", "20"],
    ]
    assert run_child(NO_SCIPY + CHILD, *argvs)["codes"] == [0] * len(argvs)


def test_every_lp_is_one_simplex_solve(monkeypatch, windmill_dtms):
    calls = []
    original = coupling._simplex

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(coupling, "_simplex", counting)

    sol = solve_broadcast(windmill_dtms, 0.01)
    assert len(calls) == sol.rounds > 0

    calls.clear()
    inst = DiagonalInstance(thetas=(np.array([1.0, 0.2, 0.5]), np.array([0.1, 0.9, 0.5])))
    diagonal_maxmin(inst, target_levels=[0.25])
    assert len(calls) == 1
