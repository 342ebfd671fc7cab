"""CLI reports against golden files.

Each ``golden/<name>.json`` is the JSON report of the command in
``CASES`` with ``wall_time_s``, ``command`` and the spec paths removed.
Keys, strings and bools must match exactly, numbers within ``NUMBER_ATOL``,
which leaves room for other numpy and BLAS builds.  Random streams are not
covered (``layered --simulate``, ``verify``): numpy does not promise that
they stay the same across versions.  To regenerate a file, run its command
and write ``strip(report)`` with ``json.dumps(..., indent=2, sort_keys=True)``.
"""

import json
from pathlib import Path

import pytest

from infocoupling.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
NUMBER_ATOL = 1e-12


def _spec(name):
    return str(ROOT / "specs" / f"{name}.json")


CASES = {
    "spectrum_bsc01": ["spectrum", _spec("bsc01")],
    "spectrum_identity2": ["spectrum", _spec("identity2")],
    "spectrum_ternary_eta02_gamma01": ["spectrum", _spec("ternary_eta02_gamma01")],
    "couple_p2p_bsc01": ["couple", "--mode", "p2p", _spec("bsc01")],
    "couple_broadcast_single_direction_windmill": [
        "couple", "--mode", "broadcast", "--single-direction", _spec("windmill_delta01"),
    ],
    "couple_mac_adder": ["couple", "--mode", "mac", _spec("adder_mac")],
    "layered_plan": ["layered", "--eta", "0.2", "--gamma", "0.1"],
}


def strip(report):
    """The report without its timing and path fields."""
    report = dict(report, inputs=dict(report["inputs"]))
    for key in ("wall_time_s", "command"):
        report.pop(key)
    for key in ("spec", "specs"):
        report["inputs"].pop(key, None)
    return report


def assert_matches(got, want, where="report"):
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: lengths differ"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= NUMBER_ATOL, f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    assert main(CASES[name]) == EXIT_OK
    got = strip(json.loads(capsys.readouterr().out))
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert_matches(got, want)
