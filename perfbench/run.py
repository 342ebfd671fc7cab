"""Benchmark of the infocoupling package: four seeded workloads, each a
closed loop of one client process running one operation at a time.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
fixed pass untraced and one traced and reports the per-layer metrics.
Metrics are printed one per line by name with unit, then the last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See DESIGN.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["cli-cold", "solve-sweep", "oracle-check", "layered-sim"]
SETUP_REPEATS = 5
PROBE_REPEATS = 5
CHILD_TIMEOUT_S = 170
# Metric names and units are those declared in BENCHMARK.json.  failed_ratio
# is printed with them but is not declared: it is 0 on correct code, and a
# metric with a relative bound must never be 0.  The JSON line carries it
# exactly as "failed" / "attempted".
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
JSON_END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
END_TO_END_UNITS = {**JSON_END_TO_END, "failed_ratio": "ratio"}
LAYER_UNITS = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

sys.path.insert(0, str(HERE))
from worker import child_env, min_passes  # noqa: E402


def run_child(args: list[str], timeout=CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    return subprocess.run(
        args, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=timeout,
    )


def run_worker(workload, seed, role, opts, **extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--role", role]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    cmd += [flag for flag, on in (("--smoke", opts.smoke), ("--inject-corruption", opts.inject_corruption)) if on]
    cmd += ["--spawned-ns", str(time.monotonic_ns())]
    proc = run_child(cmd)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload}/{role} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies, n_min):
    """The highest percentile with at least ten samples beyond it in the
    shortest run the design allows (``n_min`` samples), interpolated over
    all samples.  Fixing it by design, not by the sample count of this
    run, keeps it from jumping when a faster run makes one more pass.
    With ten samples or fewer (a smoke run) no percentile qualifies, and
    the slowest sample is reported."""
    q = 1.0 - 10.0 / n_min if n_min > 10 else 1.0
    ordered = sorted(latencies)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo]), 100.0 * q, len(ordered)


def measure(workload, seed, opts) -> tuple[dict, dict, int, int]:
    """End-to-end metrics, with tracing off."""
    setups = [run_worker(workload, seed, "setup", opts)["setup_s"] for _ in range(opts.setup_repeats - 1)]
    res = run_worker(workload, seed, "measure", opts, seconds=opts.seconds)
    setups.append(res["setup_s"])
    lat = res["latencies_ms"]
    tail_ms, tail_pct, n = tail(lat, min_passes(opts.smoke) * res["pass_ops"])
    failed = sum(res["failures"].values())
    metrics = {
        "ops_per_s": statistics.median(res["pass_ops"] / t for t in res["passes_s"]),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        "failed_ratio": failed / len(lat),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "ops_per_s": f"median of {len(res['passes_s'])} passes of {res['pass_ops']} operations",
        "latency_tail_ms": f"p{tail_pct:.0f} of {n} operations",
        "setup_s": f"median of {len(setups)} set-ups",
        "failed_ratio": f"{failed} of {n}" + (f" {res['failures']}" if failed else ""),
        "speed_probe_ms": f"{statistics.median(res['speed_probe_ms']):.3f} (median of {n}, one after each operation)",
    }
    return metrics, notes, len(lat), failed


def parse_importtime(stderr: str) -> dict:
    """Self time (ms) of each import attributed to the closest enclosing
    module of numpy, scipy or infocoupling (lines are printed children
    first; indentation gives the nesting)."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \| (\s*)(\S+)", line)
        if m:
            rows.append((int(m.group(1)), len(m.group(2)) // 2, m.group(3)))
    totals = {"numpy": 0.0, "scipy": 0.0, "infocoupling": 0.0}
    stack: list[tuple[int, str]] = []
    for self_us, depth, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        stack.append((depth, name))
        for _, mod in reversed(stack):
            root = mod.split(".")[0]
            if root in totals:
                totals[root] += self_us / 1e3
                break
    return totals


def startup_probes() -> dict:
    """Interpreter start and import cost, from cold processes."""
    interp, imports = [], []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"])
        interp.append(1e3 * (time.perf_counter() - t0))
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import infocoupling.cli"])
        imports.append(parse_importtime(proc.stderr))
    out = {"cli.interpreter_ms": statistics.median(interp)}
    for key in ("numpy", "scipy", "infocoupling"):
        out[f"cli.import_{key}_ms"] = statistics.median(i[key] for i in imports)
    return out


def trace(workload, seed, opts) -> tuple[dict, dict, int, int]:
    """Per-layer metrics from one traced pass over a fixed input list."""
    metrics = startup_probes()
    plain = run_worker(workload, seed, "pass", opts, trace=0)
    traced = run_worker(workload, seed, "pass", opts, trace=1)
    metrics.update(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["pass_s"] / plain["pass_s"]
    failed = sum(traced["failures"].values())
    notes = {"trace.overhead_ratio": f"traced {traced['pass_s']:.3f} s / untraced {plain['pass_s']:.3f} s"}
    if failed:
        notes["failures"] = str(traced["failures"])
    return {k: metrics[k] for k in LAYER_UNITS}, notes, len(traced["latencies_ms"]), failed


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: child_env()[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    p.add_argument("--inject-corruption", action="store_true", help="corrupt the first result (self-test)")
    opts = p.parse_args(argv)
    opts.setup_repeats = 1 if opts.smoke else SETUP_REPEATS

    if not (ROOT / "src" / "infocoupling" / "cli.py").is_file() or not (ROOT / "specs").is_dir():
        print(f"error: {ROOT} holds no infocoupling source tree (src/infocoupling, specs/)", file=sys.stderr)
        return 2
    # "build": compile the package once, so no run pays for bytecode
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], check=True, env=child_env())

    names = WORKLOADS if opts.workload == "all" else [opts.workload]
    units = LAYER_UNITS if opts.trace else END_TO_END_UNITS
    json_names = LAYER_UNITS if opts.trace else JSON_END_TO_END
    print("# machine " + json.dumps(machine_info()))
    attempted = failed = 0
    out_metrics = {}
    for name in names:
        try:
            metrics, notes, n, nfail = (trace if opts.trace else measure)(name, opts.seed, opts)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        attempted += n
        failed += nfail
        for key, unit in units.items():
            note = f"  ({notes[key]})" if key in notes else ""
            print(f"{name:13s} {key:28s} {metrics[key]:14.6g} {unit}{note}")
        if "failures" in notes:
            print(f"{name:13s} failures: {notes['failures']}")
        if "speed_probe_ms" in notes:
            print(f"# {name} speed_probe_ms {notes['speed_probe_ms']}")
        for key in json_names:
            label = key if len(names) == 1 else f"{name}.{key}"
            out_metrics[label] = {"value": metrics[key], "unit": units[key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
