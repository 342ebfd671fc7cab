"""One benchmark client process, started by ``run.py``.  It sets up one
workload, then either stops (``setup``), makes whole passes over the
workload's inputs, one operation at a time, for the measured time
(``measure``), or makes exactly one pass, traced or not (``pass``).  It
prints one JSON line."""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from checks import Checker, cli_cold_op, cli_inputs, failure_class
from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
# Whole passes a measuring worker makes at least; a smoke run makes one.
MIN_PASSES = 3
PROBE_LOOP = 50_000

# Operations per pass (cli-cold: the 8-command cycle; solve-sweep: the
# 35 (K, n_x) pairs), sized so that a pass takes about 5 s on 2 cores.
PASS_SIZE = {"oracle-check": 7, "layered-sim": 8}  # corpus families before the windmill; simulations
SPAN_METRICS = [
    "cli.parse", "cli.emit", "channel.build_dtm", "coupling.broadcast",
    "coupling.single_direction", "coupling.p2p", "coupling.mac", "prob.exact_information",
    "oracles.brute_broadcast", "oracles.brute_p2p", "oracles.s_ratio", "oracles.ace",
    "layered.plan", "layered.simulate",
]
COUNTERS = [
    "channel.svd_calls", "coupling.eigh_calls", "coupling.linprog_calls", "coupling.minimize_calls",
    "coupling.max_duality_gap", "coupling.budget_errors", "oracles.max_agreement_gap",
]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


def min_passes(smoke) -> int:
    return 1 if smoke else MIN_PASSES


def speed_probe_ms() -> float:
    """Time of a fixed pure-Python loop (about 4 ms).  The measuring worker
    runs it after each operation, outside the operation's time, and the
    median is printed beside the result, never folded into a metric: the
    machine's speed can change by half within seconds, and the probe
    lets runs made at different speeds be told apart."""
    t0 = time.perf_counter()
    sum(i * i for i in range(PROBE_LOOP))
    return 1e3 * (time.perf_counter() - t0)


def load_workload(name, seed, role, smoke, tr):
    """Returns ``(make_inputs, op)``: a function making this role's seeded
    inputs and a function ``op(item, checker)`` running one operation."""
    if name == "cli-cold" and role != "pass":
        env = child_env()
        return (lambda: cli_inputs(seed)), (lambda argv, ck: cli_cold_op(argv, ROOT, env, ck))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    import infocoupling

    if not Path(infocoupling.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"infocoupling imported from {infocoupling.__file__}, not from this checkout")
    tr.wrap_calls(wl.cli, wl.CLI_SPANS)
    if name == "cli-cold":
        return (lambda: cli_inputs(seed)), (lambda argv, ck: wl.cli_replay_op(argv, tr, ck))
    size = 2 if smoke else PASS_SIZE.get(name)
    make = {
        "solve-sweep": lambda: wl.sweep_inputs(seed, smoke),
        "oracle-check": lambda: wl.oracle_inputs(seed, size, smoke),
        "layered-sim": lambda: wl.layered_inputs(seed, size, smoke),
    }[name]
    op = {"solve-sweep": wl.sweep_op, "oracle-check": wl.oracle_op, "layered-sim": wl.layered_op}[name]
    return make, (lambda item, ck: op(item, tr, ck))


def run_ops(items, op, tr, failures, corrupt_first=False, probes=None):
    """Runs each item once; returns per-operation wall times in ms.  With
    a ``probes`` list, a speed probe follows each operation."""
    latencies = []
    for i, item in enumerate(items):
        tr.op = i
        ck = Checker(corrupt=corrupt_first and i == 0)
        t0 = time.perf_counter()
        try:
            op(item, ck)
        except Exception as exc:  # counted and reported; the run goes on
            failures[failure_class(exc)] += 1
        latencies.append(1e3 * (time.perf_counter() - t0))
        if probes is not None:
            probes.append(speed_probe_ms())
    return latencies


def layer_metrics(tr: Tracer, generate_ms) -> dict:
    out = {f"{name}_ms": tr.total_ms(name) for name in SPAN_METRICS}
    out["tensor.ms"] = tr.total_ms("tensor")
    out["tensor.calls"] = tr.calls("tensor")
    out["cli.command_ms"] = tr.total_ms("cli.run") - out["cli.parse_ms"] - out["cli.emit_ms"]
    out["channel.build_dtm_calls"] = tr.calls("channel.build_dtm")
    out["coupling.broadcast_calls"] = tr.calls("coupling.broadcast")
    out["oracles.ace_calls"] = tr.calls("oracles.ace")
    for name in COUNTERS:
        out[name] = tr.counts.get(name, 0)
    out["layered.trials_per_s"] = tr.counts.get("layered.trials", 0) / (1e-3 * out["layered.simulate_ms"])
    out["instances.generate_ms"] = generate_ms
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--role", choices=["setup", "measure", "pass"], required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spawned-ns", type=int, required=True, help="time.monotonic_ns() at spawn")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--inject-corruption", action="store_true")
    args = p.parse_args(argv)

    tr = Tracer() if args.trace else NullTracer()
    if args.trace:
        tr.install_kernel_counters()
    make_inputs, op = load_workload(args.workload, args.seed, args.role, args.smoke, tr)
    t0 = time.perf_counter()
    items = make_inputs()
    generate_ms = 1e3 * (time.perf_counter() - t0)
    run_ops(items[:1], op, tr, Counter())  # warm-up, discarded
    out = {"setup_s": (time.monotonic_ns() - args.spawned_ns) / 1e9}
    failures = Counter()

    if args.role == "measure":
        # whole passes over the same inputs, so every pass is comparable;
        # a pass's time is that of its operations, without the probes
        passes, latencies, probes = [], [], []
        start = time.perf_counter()
        while len(passes) < min_passes(args.smoke) or time.perf_counter() - start < args.seconds:
            lat = run_ops(items, op, tr, failures, args.inject_corruption and not passes, probes)
            passes.append(sum(lat) / 1e3)
            latencies += lat
        out["speed_probe_ms"] = probes
        out["passes_s"] = passes
        out["pass_ops"] = len(items)
        out["latencies_ms"] = latencies
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    elif args.role == "pass":
        from workloads import census_op

        if args.trace:
            tr.reset()
        start = time.perf_counter()
        latencies = run_ops([None], lambda _, ck: census_op(tr, ck), tr, failures)
        latencies += run_ops(items, op, tr, failures, args.inject_corruption)
        out["pass_s"] = time.perf_counter() - start
        out["latencies_ms"] = latencies
        if args.trace:
            out["layers"] = layer_metrics(tr, generate_ms)
            spans_dir = ROOT / ".perfbench"
            spans_dir.mkdir(exist_ok=True)
            with open(spans_dir / f"spans_{args.workload}_{args.seed}.json", "w") as fh:
                json.dump({"spans": tr.dump(), "counts": tr.counts}, fh)
    out["failures"] = dict(failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
