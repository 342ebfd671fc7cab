"""Command-line front end.

Subcommands: ``spectrum`` (coupling matrix and its singular system),
``couple`` (point-to-point, broadcast, and MAC solvers), ``verify``
(property suites over random instances), and ``layered`` (ternary
two-layer plan and Monte Carlo simulation).  Channel specifications are
JSON files; reports are JSON on stdout (or ``--output``) carrying both
nats and bits for every rate, plus seeds and residuals so runs can be
reproduced byte for byte.

Exit codes: 0 success, 1 failed verification check, 2 parse error,
3 numeric degeneracy, 4 constraint or regime violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, instances
from .channel import (
    ChannelMatrix,
    build_dtm,
    renyi_correlation,
    strong_dpi_coefficient,
    verify_top_singular,
)
from .coupling import (
    build_mac_dtms,
    mac_tensorization_check,
    solve_broadcast,
    solve_broadcast_single_direction,
    solve_mac_common,
    solve_p2p,
)
from .errors import (
    BudgetError,
    DegenerateOutputError,
    DimensionMismatchError,
    InfoCouplingError,
    InputMismatchError,
    InvalidDistributionError,
    RegimeError,
    SingularWeightError,
)
from .layered import BlockCodeConfig, plan_ternary_two_layer, simulate_layered
from .oracles import SearchBudget, ace_correlation, brute_broadcast, brute_p2p, s_ratio_search
from .prob import Distribution
from .tensor import kron_pair_residual, lift_dtm, second_singular_of_power

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_CONSTRAINT = 4

LN2 = math.log(2.0)
PARSE_COLUMN_ATOL = 1e-9


class SpecError(ValueError):
    """A channel specification file failed validation."""


def _as_rate(nats: float) -> dict:
    return {"nats": float(nats), "bits": float(nats) / LN2}


def _jsonify(value):
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def make_report(command: list[str], inputs: dict, results: dict, seeds=None) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "inputs": _jsonify(inputs),
        "results": _jsonify(results),
        "seeds": _jsonify(seeds if seeds is not None else {}),
        "wall_time_s": 0.0,
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def load_report(text: str) -> dict:
    return json.loads(text)


def _emit(report: dict, started: float, output: str | None):
    report["wall_time_s"] = time.time() - started
    text = dump_report(report)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# Channel spec parsing
# ---------------------------------------------------------------------------


def parse_channel_spec(path: str) -> dict:
    """Load and validate a channel spec file.

    Returns a dict with ``name`` plus either ``channels`` (one or more
    column-stochastic matrices sharing ``input_dist``) or the MAC fields
    ``transmitters`` and ``joint``.  Channel and joint columns must sum
    to 1 within ``PARSE_COLUMN_ATOL`` (decimal serialization is allowed
    that much slack) and are then divided by their sums, so everything
    downstream sees columns stochastic to rounding.
    """
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise SpecError("spec root must be a JSON object")
    name = raw.get("name", os.path.basename(path))
    if "transmitters" in raw or "joint_channel" in raw:
        if "transmitters" not in raw or "joint_channel" not in raw:
            raise SpecError("MAC specs need both 'transmitters' and 'joint_channel'")
        ts = raw["transmitters"]
        if not isinstance(ts, list) or not ts or not all(isinstance(t, dict) for t in ts):
            raise SpecError("'transmitters' must be a non-empty list of objects")
        dists = [_parse_distribution(t.get("input_dist")) for t in ts]
        sizes = [d.alphabet_size for d in dists]
        flat = _numeric(raw["joint_channel"], "joint_channel").ravel()
        block = math.prod(sizes)
        if flat.size == 0 or flat.size % block != 0:
            raise SpecError("joint_channel length is not a positive multiple of the input sizes")
        ny = flat.size // block
        joint = _unit_columns(flat.reshape((ny, *sizes)), "joint channel")
        return {"name": name, "kind": "mac", "transmitters": dists, "joint": joint}
    if "input_dist" not in raw:
        raise SpecError("spec needs 'input_dist'")
    px = _parse_distribution(raw["input_dist"])
    if "channels" in raw:
        if not isinstance(raw["channels"], list):
            raise SpecError("'channels' must be a list of matrices")
        mats = [_parse_channel(c, px.alphabet_size) for c in raw["channels"]]
    elif "channel" in raw:
        mats = [_parse_channel(raw["channel"], px.alphabet_size)]
    else:
        raise SpecError("spec needs 'channel' or 'channels'")
    return {"name": name, "kind": "channel", "input_dist": px, "channels": mats}


def _numeric(data, what: str) -> np.ndarray:
    """Spec values as a float array; non-numeric or non-finite entries
    are parse errors."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{what} must be numeric: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise SpecError(f"{what} has a non-finite entry")
    return arr


def _unit_columns(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` with each column (the slices along axis 0) divided by its
    sum, once every sum is within ``PARSE_COLUMN_ATOL`` of 1."""
    sums = arr.sum(axis=0)
    if float(np.max(np.abs(sums - 1.0))) > PARSE_COLUMN_ATOL:
        raise SpecError(f"{what} columns must sum to 1 (within 1e-9)")
    return arr / sums


def _parse_distribution(data) -> Distribution:
    try:
        return Distribution(_numeric(data, "input_dist"))
    except InvalidDistributionError as exc:
        raise SpecError(f"bad input_dist: {exc}") from exc


def _parse_channel(data, nx: int) -> ChannelMatrix:
    arr = _numeric(data, "channel")
    if arr.ndim != 2 or arr.shape[1] != nx:
        raise SpecError(
            f"channel must be 2-D with {nx} columns (one per input symbol)"
        )
    try:
        return ChannelMatrix(_unit_columns(arr, "channel"))
    except DimensionMismatchError as exc:
        raise SpecError(f"bad channel matrix: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args, argv) -> int:
    started = time.time()
    spec = parse_channel_spec(args.spec)
    if spec["kind"] != "channel" or len(spec["channels"]) != 1:
        raise SpecError("spectrum expects a single-channel spec")
    px = spec["input_dist"]
    dtm = build_dtm(spec["channels"][0], px)
    report_top = verify_top_singular(dtm)
    corr = renyi_correlation(dtm) if len(dtm.spectrum) > 1 else None
    digits = args.precision
    results = {
        "singular_values": dtm.singular_values,
        "right_vectors_columns": dtm.spectrum.right_vectors.T,
        "left_vectors_columns": dtm.spectrum.left_vectors.T,
        "top_pair_residuals": {
            "sigma0_err": report_top.sigma0_err,
            "v0_err": report_top.v0_err,
            "w0_err": report_top.w0_err,
        },
        "strong_dpi_coefficient": strong_dpi_coefficient(dtm),
        "output_dist": dtm.output.probs,
    }
    if corr is not None:
        results["maximal_correlation"] = {
            "rho": corr.rho,
            "f": corr.f,
            "g": corr.g,
            "ambiguous": corr.ambiguous,
        }
    summary = ", ".join(f"{v:.{digits}g}" for v in dtm.singular_values)
    print(f"# {spec['name']}: singular values [{summary}]", file=sys.stderr)
    report = make_report(argv, {"spec": args.spec, "name": spec["name"]}, results)
    _emit(report, started, args.output)
    return EXIT_OK


def cmd_couple(args, argv) -> int:
    started = time.time()
    specs = [parse_channel_spec(p) for p in args.specs]
    inputs = {"specs": args.specs, "mode": args.mode, "epsilon": args.epsilon}
    if args.mode == "p2p":
        if len(specs) != 1 or specs[0]["kind"] != "channel" or len(specs[0]["channels"]) != 1:
            raise InputMismatchError("p2p mode expects exactly one single-channel spec")
        dtm = build_dtm(specs[0]["channels"][0], specs[0]["input_dist"])
        sol = solve_p2p(dtm, args.epsilon)
        results = {
            "sigma1": sol.sigma1,
            "coupling_coefficient": sol.sigma1**2,
            "rate": _as_rate(sol.rate),
            "direction_weighted": sol.ensemble.directions[0].coords,
            "ambiguous": sol.ambiguous,
        }
    elif args.mode == "broadcast":
        dtms = []
        for spec in specs:
            if spec["kind"] != "channel":
                raise InputMismatchError("broadcast mode expects channel specs")
            for w in spec["channels"]:
                dtms.append(build_dtm(w, spec["input_dist"]))
        sol = solve_broadcast(dtms)
        results = {
            "lambda": sol.value,
            "dual_value": sol.dual_value,
            "dual_weights": sol.dual_weights,
            "duality_gap": sol.gap,
            "system_values": sol.system_values,
            "ensemble_cardinality": sol.cardinality,
            "ensemble_weights": sol.ensemble.u_law.probs,
            "gram_matrix": sol.gram,
            "rate_common": _as_rate(0.5 * args.epsilon**2 * sol.value),
        }
        if args.single_direction:
            sd = solve_broadcast_single_direction(dtms)
            results["single_direction"] = {
                "lambda_b": sd.value,
                "psi": sd.psi,
                "optimality_gap": sd.optimality_gap,
            }
    elif args.mode == "mac":
        if len(specs) != 1 or specs[0]["kind"] != "mac":
            raise InputMismatchError("mac mode expects exactly one MAC spec")
        dtms = build_mac_dtms(specs[0]["joint"], specs[0]["transmitters"])
        sol = solve_mac_common(dtms)
        results = {
            "sigma_common": sol.sigma_common,
            "private_sigmas": sol.private_sigmas,
            "gain_db": sol.gain_db,
            "stacked_vector": sol.stacked_vector,
            "block_orthogonality_residuals": sol.block_orthogonality_residuals,
            "two_letter_residual": mac_tensorization_check(dtms),
            "rate_common": _as_rate(0.5 * args.epsilon**2 * sol.sigma_common**2),
        }
    else:  # pragma: no cover - argparse restricts choices
        raise InputMismatchError(f"unknown mode {args.mode}")
    report = make_report(argv, inputs, results)
    _emit(report, started, args.output)
    return EXIT_OK


def _tensor_suite(seed: int, budget: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []
    worst_top, worst_bound = 0.0, 0.0
    n_chan = max(10, budget // 20)
    for _ in range(n_chan):
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        dtm = build_dtm(
            instances.random_channel(rng, nx, ny), instances.random_distribution(rng, nx)
        )
        worst_top = max(worst_top, verify_top_singular(dtm).max_err)
        worst_bound = max(worst_bound, float(dtm.singular_values.max()) - 1.0)
    checks.append(
        {"name": "top_pair_residual", "bound": 1e-9, "observed": worst_top}
    )
    checks.append(
        {"name": "singular_values_at_most_one", "bound": 1e-10, "observed": worst_bound}
    )
    worst_pair, worst_power, worst_implicit = 0.0, 0.0, 0.0
    for _ in range(max(5, budget // 100)):
        ny = int(rng.integers(2, 6))
        dtm = build_dtm(
            instances.random_channel(rng, 3, ny), instances.random_distribution(rng, 3)
        )
        for i in range(len(dtm.spectrum)):
            for j in range(len(dtm.spectrum)):
                worst_pair = max(worst_pair, kron_pair_residual(dtm, i, j))
        worst_power = max(
            worst_power, abs(second_singular_of_power(dtm, 2) - dtm.second_singular_value)
        )
        lift = lift_dtm(dtm, 2)
        for _ in range(5):
            vec = rng.standard_normal(9)
            worst_implicit = max(
                worst_implicit,
                float(np.max(np.abs(lift.apply(vec) - lift.matrix @ vec))),
            )
    checks.append({"name": "kron_pair_residual", "bound": 1e-9, "observed": worst_pair})
    checks.append(
        {"name": "second_singular_tensorizes", "bound": 1e-9, "observed": worst_power}
    )
    checks.append(
        {"name": "implicit_matches_materialized", "bound": 1e-11, "observed": worst_implicit}
    )
    return checks


def _oracle_suite(seed: int, budget: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    checks = []
    worst_ace = 0.0
    for _ in range(max(10, budget // 10)):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        joint = instances.random_joint(rng, nx, ny)
        px = Distribution(joint.sum(axis=1))
        w = ChannelMatrix((joint / joint.sum(axis=1)[:, np.newaxis]).T)
        dtm = build_dtm(w, px)
        worst_ace = max(worst_ace, abs(ace_correlation(joint) - dtm.second_singular_value))
    checks.append({"name": "ace_matches_spectrum", "bound": 1e-8, "observed": worst_ace})

    w = instances.nested_ternary_channel(0.2, 0.1)
    px = instances.nested_ternary_operating_point()
    dtm = build_dtm(w, px)
    sb = SearchBudget(grid_resolution=max(90, budget), rng_seed=seed)
    ratio = brute_p2p(w, px, 1e-3, sb).best_ratio
    coeff = strong_dpi_coefficient(dtm)
    checks.append(
        {
            "name": "brute_ratio_within_contraction",
            "bound": coeff * 1e-2,
            "observed": max(ratio - coeff, 0.0),
        }
    )
    checks.append(
        {"name": "brute_ratio_reaches_contraction", "bound": 1e-3, "observed": max(coeff - ratio, 0.0)}
    )
    s_res = s_ratio_search(w, px, SearchBudget(grid_resolution=min(max(budget // 4, 16), 64), rng_seed=seed))
    checks.append(
        {
            "name": "ratio_search_reaches_contraction",
            "bound": 1e-3,
            "observed": max(coeff - s_res.lower_bound, 0.0),
        }
    )
    chans = instances.windmill_channels(0.1)
    pw = instances.windmill_operating_point()
    dtms = [build_dtm(c, pw) for c in chans]
    lam = solve_broadcast(dtms).value
    est = brute_broadcast(dtms, SearchBudget(grid_resolution=180, rng_seed=seed)).lambda_estimate
    checks.append(
        {"name": "ensemble_search_matches_solver", "bound": 1e-3, "observed": abs(lam - est)}
    )
    return checks


def cmd_verify(args, argv) -> int:
    started = time.time()
    checks = []
    if args.suite in ("tensor", "all"):
        checks.extend(_tensor_suite(args.seed, args.budget))
    if args.suite in ("oracle", "all"):
        checks.extend(_oracle_suite(args.seed, args.budget))
    if args.inject_corruption and checks:
        checks[0]["observed"] = checks[0]["bound"] * 10.0 + 1.0
    failed = None
    for check in checks:
        check["passed"] = bool(check["observed"] <= check["bound"])
        if failed is None and not check["passed"]:
            failed = check["name"]
    results = {"suite": args.suite, "checks": checks, "all_passed": failed is None}
    report = make_report(
        argv,
        {"suite": args.suite, "budget": args.budget},
        results,
        seeds={"rng_seed": args.seed},
    )
    _emit(report, started, args.output)
    for check in checks:
        status = "ok" if check["passed"] else "FAIL"
        print(
            f"{status:4s} {check['name']}: observed {check['observed']:.3e} "
            f"(bound {check['bound']:.1e})",
            file=sys.stderr,
        )
    if failed is not None:
        print(f"first failing check: {failed}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_layered(args, argv) -> int:
    started = time.time()
    plan = plan_ternary_two_layer(args.eta, args.gamma)
    results = {
        "layers": [
            {
                "operating_point": layer.operating_point.probs,
                "direction": layer.direction,
                "support": list(layer.restricted_support),
                "sigma": layer.sigma,
                "epsilon": layer.epsilon,
                "rate": _as_rate(layer.rate),
                "occupancy": occ,
            }
            for layer, occ in zip(plan.layers, plan.occupancies)
        ],
        "total_rate": _as_rate(plan.total_rate),
    }
    seeds = {}
    if args.simulate:
        cfg = BlockCodeConfig(
            n1=args.n1, k1=args.k1, n2=args.n2, k2=args.k2, trials=args.trials, seed=args.seed
        )
        sim = simulate_layered(plan, instances.nested_ternary_channel(args.eta, args.gamma), cfg)
        results["simulation"] = {
            "per_layer_error_rate": list(sim.per_layer_error_rate),
            "per_layer_empirical_rate": [
                _as_rate(r) for r in sim.per_layer_empirical_rate
            ],
            "per_layer_bits": list(sim.per_layer_bits),
            "per_layer_symbols": list(sim.per_layer_symbols),
            "decoder": "minimum divergence against candidate outputs "
            "(maximum likelihood on types, ties to bit 0); "
            "block sizes are engineering choices, not derived quantities",
        }
        seeds = {"simulation_seed": cfg.seed}
    report = make_report(
        argv, {"eta": args.eta, "gamma": args.gamma, "simulate": args.simulate}, results, seeds
    )
    _emit(report, started, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infocoupling",
        description="Local information-coupling analysis of discrete channels",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_spec = sub.add_parser("spectrum", help="coupling matrix spectrum report")
    p_spec.add_argument("spec", help="channel spec JSON path")
    p_spec.add_argument("--precision", type=int, default=12, help="summary digits")
    p_spec.add_argument("--output", help="write the JSON report here instead of stdout")
    p_spec.set_defaults(func=cmd_spectrum)

    p_couple = sub.add_parser("couple", help="run a coupling solver")
    p_couple.add_argument("specs", nargs="+", help="channel spec JSON path(s)")
    p_couple.add_argument("--mode", choices=["p2p", "broadcast", "mac"], required=True)
    p_couple.add_argument("--epsilon", type=float, default=1e-2)
    p_couple.add_argument(
        "--single-direction",
        action="store_true",
        help="also search the best single shared direction (broadcast)",
    )
    p_couple.add_argument("--output")
    p_couple.set_defaults(func=cmd_couple)

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument("--suite", choices=["tensor", "oracle", "all"], default="all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--budget", type=int, default=200)
    p_verify.add_argument("--output")
    p_verify.add_argument(
        "--inject-corruption", action="store_true", help=argparse.SUPPRESS
    )
    p_verify.set_defaults(func=cmd_verify)

    p_layer = sub.add_parser("layered", help="ternary two-layer plan and simulation")
    p_layer.add_argument("--eta", type=float, required=True)
    p_layer.add_argument("--gamma", type=float, required=True)
    p_layer.add_argument("--simulate", action="store_true")
    p_layer.add_argument("--n1", type=int, default=400)
    p_layer.add_argument("--k1", type=int, default=50)
    p_layer.add_argument("--n2", type=int, default=50)
    p_layer.add_argument("--k2", type=int, default=8)
    p_layer.add_argument("--trials", type=int, default=200)
    p_layer.add_argument("--seed", type=int, default=12345)
    p_layer.add_argument("--output")
    p_layer.set_defaults(func=cmd_layered)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, ["infocoupling", *argv])
    except json.JSONDecodeError as exc:
        print(f"parse error at byte offset {exc.pos}: {exc.msg}", file=sys.stderr)
        return EXIT_PARSE
    except (SpecError, FileNotFoundError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DegenerateOutputError, SingularWeightError) as exc:
        print(f"numeric degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (InputMismatchError, RegimeError, InvalidDistributionError, DimensionMismatchError) as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (BudgetError, InfoCouplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except BrokenPipeError:
        # point fd 1 at devnull so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
