"""Run a fixed battery of CLI commands in two source trees and compare
what they print, ``wall_time_s`` aside.

    python tools/compare_reports.py PARENT_TREE CHANGE_TREE

Each command runs as ``python -m infocoupling.cli`` in a subprocess with
``PYTHONPATH=<tree>/src`` and the tree as its working directory, so the
spec paths resolve inside each tree.  The exit code, the stderr text and
the JSON report, less its ``wall_time_s`` line, must match byte for byte.
One line per command says ``same`` or ``different``; the exit status is
1 on any difference.  A parent tree comes from a worktree, for example
``git worktree add ../parent HEAD~1``.  Standard library only.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

SMALL_BLOCKS = ["--n1", "40", "--k1", "5", "--n2", "10", "--k2", "4", "--trials", "20"]
COMMANDS = [
    ["spectrum", "specs/bsc01.json"],
    ["spectrum", "specs/identity2.json"],
    ["spectrum", "specs/ternary_eta02_gamma01.json"],
    ["couple", "specs/bsc01.json", "--mode", "p2p"],
    ["couple", "specs/windmill_delta01.json", "--mode", "broadcast", "--single-direction"],
    ["couple", "specs/adder_mac.json", "--mode", "mac"],
    ["verify", "--suite", "all", "--seed", "42"],
]
for eta, gamma in [("0.2", "0.1"), ("0.15", "0.05"), ("0.24", "0.2"), ("0.1", "0.02")]:
    COMMANDS += [
        ["layered", "--eta", eta, "--gamma", gamma, "--simulate"],
        ["layered", "--eta", eta, "--gamma", gamma, "--simulate", *SMALL_BLOCKS],
    ]
WALL_TIME = re.compile(r'^  "wall_time_s": .*\n', re.MULTILINE)


def run(tree: Path, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, report without its timing line, and stderr of one command."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "infocoupling.cli", *argv], cwd=tree, env=env, capture_output=True, text=True
    )
    return proc.returncode, WALL_TIME.sub("", proc.stdout), proc.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (Path(tree).resolve() for tree in argv)
    differ = 0
    for command in COMMANDS:
        same = run(parent, command) == run(change, command)
        differ += not same
        print(f"{'same' if same else 'different':9s} infocoupling {' '.join(command)}")
    print(f"{len(COMMANDS) - differ} of {len(COMMANDS)} commands identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
