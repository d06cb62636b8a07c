"""Benchmark of qudisc: three workloads, their correctness checks, and a traced run.

    python3 bench/run.py --workload {verify-n6,sample,mesh} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/`.  Every round of a workload runs in a fresh worker interpreter
(bench/workloads.py), as every CLI call starts one, with the BLAS pool
fixed at one thread (see README.md).

--trace 0 repeats rounds of the workload until S seconds have passed and
prints the end-to-end metrics: `setup_s` (median of fresh-interpreter
imports of qudisc.cli), `wall_s` (median round) and `peak_rss_mb`.

--trace 1 runs one untraced and then one traced round of every workload,
whichever is named.  It prints the per-layer
metrics of the traced rounds, the sampling rates of the untraced `sample`
round, the scipy import time, and the tracing overhead (traced minus
untraced round, summed over the workloads).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import per_layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("verify-n6", "sample", "mesh")
SETUP_IMPORTS = 5
IMPORTTIME_RUNS = 3
CHILD_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QUDISC_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def python(args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}:\n{proc.stderr}")
    return proc


def run_round(workload: str, seed: int, index: int, env, trace_path: str | None = None) -> dict:
    """One round of a workload in a fresh worker, traced if given a path."""
    args = [str(BENCH / "workloads.py"), workload, str(seed), str(index)]
    if trace_path:
        args.append(trace_path)
    return json.loads(python(args, env).stdout.splitlines()[-1])


def import_seconds(env) -> float:
    """Wall time of a fresh interpreter importing qudisc.cli."""
    start = perf_counter()
    python(["-c", "import qudisc.cli"], env)
    return perf_counter() - start


def scipy_import_seconds(env) -> float:
    """Cumulative `-X importtime` of the outermost scipy modules in `import qudisc.cli`."""
    err = python(["-X", "importtime", "-c", "import qudisc.cli"], env).stderr
    total, scipy_depth = 0, None
    # Children are listed before their parent, so read bottom-up.
    for line in reversed(err.splitlines()):
        if not line.startswith("import time:") or "[us]" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        module = name.strip()
        if scipy_depth is not None and depth <= scipy_depth:
            scipy_depth = None
        if scipy_depth is None and module.split(".")[0] == "scipy":
            total += int(cumulative)
            scipy_depth = depth
    return total / 1e6


def tally(rounds: list[dict]) -> tuple[bool, int, int]:
    for r in rounds:
        for message in r["errors"] + r["problems"]:
            print(f"{r['workload']}: {message}", file=sys.stderr)
    correct = all(not r["problems"] for r in rounds)
    return correct, sum(r["attempted"] for r in rounds), sum(r["failed"] for r in rounds)


def timed_run(workload: str, seed: int, seconds: float, env) -> dict:
    # Imports run between the rounds so that setup_s samples more of the run.
    rounds, setup = [], []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        setup.append(import_seconds(env))
        rounds.append(run_round(workload, seed, len(rounds), env))
    while len(setup) < SETUP_IMPORTS:
        setup.append(import_seconds(env))
    correct, attempted, failed = tally(rounds)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def rate(round_: dict, kind: str) -> float:
    units, seconds = round_["tallies"][kind]
    return units / seconds


def traced_run(seed: int, env) -> dict:
    rounds, overhead, paths = [], 0.0, []
    for workload in WORKLOADS:
        paths.append(str(OUT / f"trace-{workload}.npz"))
        plain = run_round(workload, seed, 0, env)
        traced = run_round(workload, seed, 0, env, paths[-1])
        rounds += [plain, traced]
        overhead += traced["wall_s"] - plain["wall_s"]
    metrics = {name: (value, "count" if name.endswith((".calls", "_streams")) else "s")
               for name, value in per_layer_metrics(paths).items()}
    sample = next(r for r in rounds if r["workload"] == "sample")
    metrics["shots_per_s"] = (rate(sample, "simulate_discriminator"), "1/s")
    metrics["haar_pairs_per_s"] = (rate(sample, "mc_success"), "1/s")
    metrics["import.scipy_s"] = (
        statistics.median(scipy_import_seconds(env) for _ in range(IMPORTTIME_RUNS)), "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    correct, attempted, failed = tally(rounds)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qudisc" / "__init__.py").is_file():
        print(f"error: no qudisc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = traced_run(args.seed, env)
    else:
        result = timed_run(args.workload, args.seed, args.seconds, env)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
