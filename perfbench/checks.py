"""Result checks shared by every workload, and the ``cli-cold`` command
cycle with its reference values.  Standard library only, so the
``cli-cold`` client process imports neither numpy nor the package."""

from __future__ import annotations

import json
import random
import subprocess
import sys

GAP_TOL = 1e-7
ORDER_TOL = 1e-9
ETA, GAMMA = 0.2, 0.1  # the shipped ternary spec
WINDMILL_LAMBDA = 0.213333
ADDER_GAIN_DB = 3.0103
LAYERED_TOL = 1e-12
VERIFY_BUDGET = 20


class CheckFailed(Exception):
    """An operation returned a result that failed one of its checks."""

    def __init__(self, name, detail=""):
        super().__init__(f"{name} {detail}".strip())
        self.name = name


def failure_class(exc: Exception) -> str:
    if isinstance(exc, CheckFailed):
        return f"CheckFailed:{exc.name}"
    return type(exc).__name__


class Checker:
    """Raises :class:`CheckFailed` on the first failed check.  With
    ``corrupt`` set, the first check sees a corrupted result: a number
    moved by 1.0, or a condition turned false.  A self-test can then see
    a corrupted result being caught."""

    def __init__(self, corrupt=False):
        self.corrupt = corrupt

    def _corrupted(self) -> bool:
        hit, self.corrupt = self.corrupt, False
        return hit

    def _observe(self, value):
        return float(value) + (1.0 if self._corrupted() else 0.0)

    def true(self, name, cond):
        if self._corrupted() or not cond:
            raise CheckFailed(name)

    def close(self, name, observed, expected, tol):
        observed = self._observe(observed)
        if not abs(observed - expected) <= tol:
            raise CheckFailed(name, f"observed {observed!r}, expected {expected!r} +- {tol}")

    def at_most(self, name, observed, bound):
        observed = self._observe(observed)
        if not observed <= bound:
            raise CheckFailed(name, f"observed {observed!r} above {bound!r}")


def cli_inputs(seed):
    """The fixed command cycle over the shipped specs, rotated by the seed;
    the seed also sets the layered plan parameters and the verify seed."""
    rng = random.Random(seed)
    eta = rng.uniform(0.06, 0.24)
    gamma = rng.uniform(0.01, eta - 0.02)
    cycle = [
        ["spectrum", "specs/ternary_eta02_gamma01.json"],
        ["spectrum", "specs/bsc01.json"],
        ["spectrum", "specs/identity2.json"],
        ["couple", "specs/bsc01.json", "--mode", "p2p"],
        ["couple", "specs/windmill_delta01.json", "--mode", "broadcast", "--single-direction"],
        ["couple", "specs/adder_mac.json", "--mode", "mac"],
        ["layered", "--eta", repr(eta), "--gamma", repr(gamma)],
        ["verify", "--suite", "tensor", "--budget", str(VERIFY_BUDGET), "--seed", str(rng.randrange(1 << 30))],
    ]
    shift = rng.randrange(len(cycle))
    return cycle[shift:] + cycle[:shift]


def check_report(argv, report, ck: Checker):
    """Reference values for each command of the cycle."""
    res = report["results"]
    if argv[0] == "spectrum":
        expected = {
            "specs/ternary_eta02_gamma01.json": [1.0, 2 * ETA, (1 + 2 * ETA) * GAMMA],
            "specs/bsc01.json": [1.0, 0.8],
            "specs/identity2.json": [1.0, 1.0],
        }[argv[1]]
        got = res["singular_values"]
        ck.true("singular_value_count", len(got) == len(expected))
        for i, (g, e) in enumerate(zip(got, expected)):
            ck.close(f"singular_value_{i}", g, e, 1e-9)
    elif argv[0] == "couple" and argv[3] == "p2p":
        ck.close("bsc_sigma1", res["sigma1"], 0.8, 1e-9)
    elif argv[0] == "couple" and argv[3] == "broadcast":
        ck.close("windmill_lambda", res["lambda"], WINDMILL_LAMBDA, 1e-6)
        ck.at_most("windmill_gap", res["duality_gap"], GAP_TOL)
        ck.at_most("single_direction_below_dual", res["single_direction"]["lambda_b"] - res["dual_value"], ORDER_TOL)
    elif argv[0] == "couple" and argv[3] == "mac":
        ck.close("adder_gain_db", res["gain_db"], ADDER_GAIN_DB, 1e-3)
    elif argv[0] == "layered":
        eta, gamma = float(argv[2]), float(argv[4])
        ck.close("plan_rate_closed_form", res["total_rate"]["nats"], 2 * eta**2 + (0.5 + eta) * gamma**2, LAYERED_TOL)
    elif argv[0] == "verify":
        ck.true("verify_all_passed", res["all_passed"])
    else:
        raise ValueError(f"no reference for {argv}")


def cli_cold_op(argv, root, env, ck):
    """One cold ``infocoupling`` process; its JSON report on stdout is checked."""
    proc = subprocess.run(
        [sys.executable, "-m", "infocoupling.cli", *argv],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    ck.true(f"exit_code_{proc.returncode}", proc.returncode == 0)
    check_report(argv, json.loads(proc.stdout), ck)
