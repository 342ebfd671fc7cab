"""Command-line front end.

Subcommands: ``spectrum`` (coupling matrix and its singular system),
``couple`` (point-to-point, broadcast, and MAC solvers), ``verify``
(property suites over random instances), and ``layered`` (ternary
two-layer plan and Monte Carlo simulation).  Channel specifications are
JSON files.  Each ``cmd_*`` only computes and returns ``(inputs,
results, seeds)``; :func:`main` alone times the run, wraps them in the
report (:func:`make_report`) and writes it (:func:`_emit`) as JSON to
stdout, or to ``--output`` on any subcommand.  Reports carry both nats
and bits for every rate, plus seeds and residuals so runs can be
reproduced byte for byte.

Exit codes and stderr labels come from :mod:`~infocoupling.errors`, which
owns the table; a foreign failure (an unreadable spec or ``--output``
path, malformed JSON) becomes a :class:`SpecError` where it happens.
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
    unit_columns,
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
from .errors import EXIT_CONSTRAINT, EXIT_DEGENERATE, EXIT_PARSE  # noqa: F401 (re-exported)
from .errors import EXIT_CHECK_FAILED, EXIT_OK, InfoCouplingError, InputMismatchError, SpecError
from .layered import BlockCodeConfig, plan_ternary_two_layer, simulate_layered
from .oracles import SearchBudget, ace_correlation, brute_broadcast, brute_p2p, s_ratio_search
from .prob import Distribution, require_nonnegative
from .tensor import kron_pair_residual, lift_dtm, second_singular_of_power

LN2 = math.log(2.0)


def _as_rate(nats: float) -> dict:
    return {"nats": float(nats), "bits": float(nats) / LN2}


def make_report(command: list[str], inputs: dict, results: dict, seeds: dict) -> dict:
    return {
        "tool_version": __version__,
        "command": command,
        "inputs": inputs,
        "results": results,
        "seeds": seeds,
        "wall_time_s": 0.0,
    }


def dump_report(report: dict) -> str:
    """JSON text of a report; numpy arrays and scalars become lists and
    Python numbers."""
    return json.dumps(report, indent=2, sort_keys=True, default=lambda v: v.tolist())


def load_report(text: str) -> dict:
    return json.loads(text)


def _emit(report: dict, started: float, output: str | None):
    report["wall_time_s"] = time.time() - started
    text = dump_report(report)
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SpecError(str(exc)) from exc
    else:
        print(text)


# ---------------------------------------------------------------------------
# Channel spec parsing
# ---------------------------------------------------------------------------


def parse_channel_spec(path: str) -> dict:
    """Load and validate a channel spec file.

    Returns a dict with ``name`` plus either ``channels`` (one or more
    column-stochastic matrices sharing ``input_dist``) or the MAC fields
    ``transmitters`` and ``joint``.  Channel and joint columns go through
    :func:`~infocoupling.channel.unit_columns`, so everything downstream
    sees columns stochastic to rounding.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON at byte offset {exc.pos}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, or an over-long integer
        raise SpecError(str(exc)) from exc
    if not isinstance(raw, dict):
        raise SpecError("spec root must be a JSON object")
    name = raw.get("name", os.path.basename(path))
    if not isinstance(name, str):
        raise SpecError("'name' must be a string")
    if "channel" in raw and "channels" in raw:
        raise SpecError("spec has both 'channel' and 'channels'")
    if "transmitters" in raw or "joint_channel" in raw:
        if "transmitters" not in raw or "joint_channel" not in raw:
            raise SpecError("MAC specs need both 'transmitters' and 'joint_channel'")
        if "input_dist" in raw and ("channel" in raw or "channels" in raw):
            raise SpecError("spec is both a channel spec and a MAC spec")
        ts = raw["transmitters"]
        if not isinstance(ts, list) or not ts or not all(isinstance(t, dict) for t in ts):
            raise SpecError("'transmitters' must be a non-empty list of objects")
        dists = [_parse_distribution(t.get("input_dist")) for t in ts]
        sizes = [d.alphabet_size for d in dists]
        flat = _numeric(raw["joint_channel"], "joint_channel")
        if flat.ndim != 1:
            raise SpecError("joint_channel must be a flat list of numbers")
        if np.any(flat < 0):  # with unit columns, also no entry above 1
            raise SpecError("joint_channel entries must be non-negative")
        block = math.prod(sizes)
        if flat.size == 0 or flat.size % block != 0:
            raise SpecError("joint_channel length is not a positive multiple of the input sizes")
        ny = flat.size // block
        try:
            joint = unit_columns(flat.reshape((ny, *sizes)), "joint channel")
        except InfoCouplingError as exc:
            raise SpecError(str(exc)) from exc
        return {"name": name, "kind": "mac", "transmitters": dists, "joint": joint}
    if "input_dist" not in raw:
        raise SpecError("spec needs 'input_dist'")
    px = _parse_distribution(raw["input_dist"])
    if "channels" in raw:
        if not isinstance(raw["channels"], list) or not raw["channels"]:
            raise SpecError("'channels' must be a non-empty list of matrices")
        mats = [_parse_channel(c, px.alphabet_size) for c in raw["channels"]]
    elif "channel" in raw:
        mats = [_parse_channel(raw["channel"], px.alphabet_size)]
    else:
        raise SpecError("spec needs 'channel' or 'channels'")
    return {"name": name, "kind": "channel", "input_dist": px, "channels": mats}


def _option(parse):
    """An argparse ``type`` from ``parse(text)``: the ``ValueError`` it
    raises (a package error included) becomes one line naming the option."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


def _at_least(least: int, what: str, value: int) -> int:
    if value < least:
        raise ValueError(f"{what} must be an integer >= {least}, not {value}")
    return value


_epsilon = _option(lambda text: require_nonnegative(float(text), "epsilon"))
_seed = _option(lambda text: _at_least(0, "seed", int(text)))
_budget = _option(lambda text: _at_least(1, "budget", int(text)))


def _numeric(data, what: str) -> np.ndarray:
    """Spec values as a float array; entries that are not JSON numbers
    (true, false and strings too) or not finite are parse errors."""
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecError(f"{what} must be numeric: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise SpecError(f"{what} has a non-finite entry")
    # ``data`` converted, so it nests regularly and at most numpy's dimension cap deep
    if not all(type(v) in (int, float) for v in np.asarray(data, dtype=object).flat):
        raise SpecError(f"{what} must hold numbers only, not true, false or strings")
    return arr


def _parse_distribution(data) -> Distribution:
    arr = _numeric(data, "input_dist")
    try:
        return Distribution(arr)
    except InfoCouplingError as exc:
        raise SpecError(f"bad input_dist: {exc}") from exc


def _parse_channel(data, nx: int) -> ChannelMatrix:
    arr = _numeric(data, "channel")
    if arr.ndim != 2 or arr.shape[1] != nx:
        raise SpecError(
            f"channel must be 2-D with {nx} columns (one per input symbol)"
        )
    try:
        return ChannelMatrix(unit_columns(arr, "channel"))
    except InfoCouplingError as exc:
        raise SpecError(f"bad channel matrix: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_spectrum(args):
    spec = parse_channel_spec(args.spec)
    if spec["kind"] != "channel" or len(spec["channels"]) != 1:
        raise InputMismatchError("spectrum expects a single-channel spec")
    dtm = build_dtm(spec["channels"][0], spec["input_dist"])
    report_top = verify_top_singular(dtm)
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
    if len(dtm.spectrum) > 1:
        corr = renyi_correlation(dtm)
        results["maximal_correlation"] = {
            "rho": corr.rho,
            "f": corr.f,
            "g": corr.g,
            "ambiguous": corr.ambiguous,
        }
    summary = ", ".join(f"{v:.12g}" for v in dtm.singular_values)
    print(f"# {spec['name']}: singular values [{summary}]", file=sys.stderr)
    return {"spec": args.spec, "name": spec["name"]}, results, {}


def cmd_couple(args):
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
            "direction_weighted": sol.ensemble.coords[0],
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
            sd = solve_broadcast_single_direction(dtms, sol)
            results["single_direction"] = {
                "lambda_b": sd.value,
                "psi": sd.psi,
                "optimality_gap": sd.optimality_gap,
            }
    else:  # mac
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
    return inputs, results, {}


def _tensor_suite(seed: int, budget: int) -> list[tuple]:
    rng = np.random.default_rng(seed)
    worst_top, worst_bound = 0.0, 0.0
    for _ in range(max(10, budget // 20)):
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        dtm = build_dtm(
            instances.random_channel(rng, nx, ny), instances.random_distribution(rng, nx)
        )
        worst_top = max(worst_top, verify_top_singular(dtm).max_err)
        worst_bound = max(worst_bound, float(dtm.singular_values.max()) - 1.0)
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
    return [
        ("top_pair_residual", 1e-9, worst_top),
        ("singular_values_at_most_one", 1e-10, worst_bound),
        ("kron_pair_residual", 1e-9, worst_pair),
        ("second_singular_tensorizes", 1e-9, worst_power),
        ("implicit_matches_materialized", 1e-11, worst_implicit),
    ]


def _oracle_suite(seed: int, budget: int) -> list[tuple]:
    rng = np.random.default_rng(seed)
    worst_ace = 0.0
    for _ in range(max(10, budget // 10)):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        joint = instances.random_joint(rng, nx, ny)
        px = Distribution(joint.sum(axis=1))
        w = ChannelMatrix((joint / joint.sum(axis=1)[:, np.newaxis]).T)
        dtm = build_dtm(w, px)
        worst_ace = max(worst_ace, abs(ace_correlation(joint) - dtm.second_singular_value))

    w = instances.nested_ternary_channel(0.2, 0.1)
    px = instances.nested_ternary_operating_point()
    coeff = strong_dpi_coefficient(build_dtm(w, px))
    ratio = brute_p2p(w, px, 1e-3, SearchBudget(grid_resolution=max(90, budget))).best_ratio
    s_res = s_ratio_search(w, px, SearchBudget(grid_resolution=min(max(budget // 4, 16), 64)))
    pw = instances.windmill_operating_point()
    dtms = [build_dtm(c, pw) for c in instances.windmill_channels(0.1)]
    lam = solve_broadcast(dtms).value
    est = brute_broadcast(dtms, SearchBudget(grid_resolution=180)).lambda_estimate
    return [
        ("ace_matches_spectrum", 1e-8, worst_ace),
        ("brute_ratio_within_contraction", coeff * 1e-2, max(ratio - coeff, 0.0)),
        ("brute_ratio_reaches_contraction", 1e-3, max(coeff - ratio, 0.0)),
        ("ratio_search_reaches_contraction", 1e-3, max(coeff - s_res.lower_bound, 0.0)),
        ("ensemble_search_matches_solver", 1e-3, abs(lam - est)),
    ]


def cmd_verify(args):
    suites = []
    if args.suite in ("tensor", "all"):
        suites += _tensor_suite(args.seed, args.budget)
    if args.suite in ("oracle", "all"):
        suites += _oracle_suite(args.seed, args.budget)
    if args.inject_corruption and suites:
        name, bound, _ = suites[0]
        suites[0] = (name, bound, bound * 10.0 + 1.0)
    checks = []
    for name, bound, observed in suites:
        passed = bool(observed <= bound)
        checks.append({"name": name, "bound": bound, "observed": observed, "passed": passed})
        print(f"{'ok' if passed else 'FAIL':4s} {name}: observed {observed:.3e} (bound {bound:.1e})", file=sys.stderr)
    failed = [check["name"] for check in checks if not check["passed"]]
    if failed:
        print(f"first failing check: {failed[0]}", file=sys.stderr)
    results = {"suite": args.suite, "checks": checks, "all_passed": not failed}
    return {"suite": args.suite, "budget": args.budget}, results, {"rng_seed": args.seed}


def cmd_layered(args):
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
    return {"eta": args.eta, "gamma": args.gamma, "simulate": args.simulate}, results, seeds


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infocoupling",
        description="Local information-coupling analysis of discrete channels",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_spec = sub.add_parser("spectrum", parents=[common], help="coupling matrix spectrum report")
    p_spec.add_argument("spec", help="channel spec JSON path")
    p_spec.set_defaults(func=cmd_spectrum)

    p_couple = sub.add_parser("couple", parents=[common], help="run a coupling solver")
    p_couple.add_argument("specs", nargs="+", help="channel spec JSON path(s)")
    p_couple.add_argument("--mode", choices=["p2p", "broadcast", "mac"], required=True)
    p_couple.add_argument("--epsilon", type=_epsilon, default=1e-2)
    p_couple.add_argument(
        "--single-direction",
        action="store_true",
        help="also search the best single shared direction (broadcast)",
    )
    p_couple.set_defaults(func=cmd_couple)

    p_verify = sub.add_parser("verify", parents=[common], help="run property suites")
    p_verify.add_argument("--suite", choices=["tensor", "oracle", "all"], default="all")
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.add_argument("--budget", type=_budget, default=200)
    p_verify.add_argument(
        "--inject-corruption", action="store_true", help=argparse.SUPPRESS
    )
    p_verify.set_defaults(func=cmd_verify)

    p_layer = sub.add_parser("layered", parents=[common], help="ternary two-layer plan and simulation")
    p_layer.add_argument("--eta", type=float, required=True)
    p_layer.add_argument("--gamma", type=float, required=True)
    p_layer.add_argument("--simulate", action="store_true")
    p_layer.add_argument("--n1", type=int, default=400)
    p_layer.add_argument("--k1", type=int, default=50)
    p_layer.add_argument("--n2", type=int, default=50)
    p_layer.add_argument("--k2", type=int, default=8)
    p_layer.add_argument("--trials", type=int, default=200)
    p_layer.add_argument("--seed", type=_seed, default=12345)
    p_layer.set_defaults(func=cmd_layered)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        inputs, results, seeds = args.func(args)
        report = make_report(["infocoupling", *argv], inputs, results, seeds)
        _emit(report, started, args.output)
        return EXIT_CHECK_FAILED if results.get("all_passed") is False else EXIT_OK
    except InfoCouplingError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # point fd 1 at devnull so the interpreter's final flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
