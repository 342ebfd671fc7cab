"""``scipy.optimize`` is loaded on the first linear program, not on import.

Only the broadcast solvers and ``diagonal_maxmin`` solve an LP, so a CLI
command that runs neither must finish without importing
``scipy.optimize``.  The LP is looked up as ``scipy.optimize.linprog`` at
call time, so a wrapper installed there after import sees every solve.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.optimize

from infocoupling import DiagonalInstance, diagonal_maxmin, solve_broadcast

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


def optimize_loaded_after(*argvs):
    """Run ``cli.main`` on each argv in one fresh interpreter; return the
    exit codes and whether ``scipy.optimize`` was loaded after the import
    and after each command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(list(argvs))],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        check=True,
    )
    out = json.loads(proc.stdout)
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


def test_broadcast_loads_optimize_on_its_first_lp():
    codes, loaded = optimize_loaded_after(
        ["couple", str(SPEC_DIR / "windmill_delta01.json"), "--mode", "broadcast"]
    )
    assert codes == [0]
    assert loaded == [False, True]


def test_every_lp_goes_through_scipy_optimize_linprog(monkeypatch, windmill_dtms):
    calls = []
    original = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)

    sol = solve_broadcast(windmill_dtms, 0.01)
    assert len(calls) == sol.rounds > 0

    calls.clear()
    inst = DiagonalInstance(thetas=(np.array([1.0, 0.2, 0.5]), np.array([0.1, 0.9, 0.5])))
    diagonal_maxmin(inst, target_levels=[0.25])
    assert len(calls) == 1
