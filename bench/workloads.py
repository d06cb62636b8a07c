"""One round of one benchmark workload, run in a fresh interpreter.

    python3 bench/workloads.py <workload> <seed> <round> [<trace.npz>]

The round's inputs are made from (seed, round) before the clock starts; the
timed phase calls qudisc through its modules' public functions; the outputs
are checked after the clock stops.  With a trace path the timed phase runs
under `tracer.Tracer` and the spans are saved there.

Prints one JSON line: the round's wall time, the peak RSS, operations
attempted and failed, the problems the checkers found, and per-kind
(units, seconds) tallies.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import numpy as np

import checks
from tracer import Tracer

from qudisc import cli, harness, optics, povm

VERIFY_N_MAX = 6
# A round of `sample` or `mesh` takes some 10 s here, as a round of
# `verify-n6` takes some 14 s: long enough to average over the host's slow
# spells (README.md), short enough for two rounds in a 20 s run.
DISCRIMINATOR_CALLS, SHOTS = 4, 60_000
MC_DIMENSIONS, MC_TRIALS = (2, 3, 5), 20_000
DENSITY_TRIALS = 20_000
RECK_SIZES, MESH_REPEATS = (48, 64, 80, 96), 4
PREP_SIZE, PREP_STATES = 96, 32


@dataclass
class Op:
    """One call into the program and the check of its output."""

    kind: str
    units: int
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]


def verify_ops(rng: np.random.Generator) -> list[Op]:
    """`qudisc verify --n-max 6 --json`; it takes no seeded input."""
    argv = ["verify", "--n-max", str(VERIFY_N_MAX), "--json"]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    return [Op("verify", 1, call, lambda r: checks.check_verify_record(r[1], r[0], VERIFY_N_MAX))]


def sample_ops(rng: np.random.Generator) -> list[Op]:
    """Seeded six-port sampling, Monte Carlo success and sampled mean density."""
    ops = []
    for _ in range(DISCRIMINATOR_CALLS):
        eta1, x, seed = rng.uniform(0.05, 0.95), rng.uniform(1.0, 4.0), int(rng.integers(2**31))
        omega1 = math.acos(math.sqrt((x - 1.0) / 3.0))

        def call(eta1=eta1, omega1=omega1, seed=seed):
            return optics.simulate_discriminator(
                omega1, povm.Priors.from_eta1(eta1), shots=SHOTS, seed=seed
            )

        def check(run, eta1=eta1, x=x):
            return checks.check_discriminator(
                run.counts, run.input_counts, run.successes, SHOTS, eta1, x
            )

        ops.append(Op("simulate_discriminator", SHOTS, call, check))

    for n in MC_DIMENSIONS:
        eta1, omega1 = rng.uniform(0.05, 0.95), rng.uniform(0.0, math.pi / 2)
        seed = int(rng.integers(2**31))

        def call(n=n, eta1=eta1, omega1=omega1, seed=seed):
            return harness.mc_success(n, omega1, povm.Priors.from_eta1(eta1), MC_TRIALS, seed)

        def check(est, n=n, eta1=eta1, omega1=omega1):
            return checks.check_mc_success(est.mean, MC_TRIALS, n, eta1, omega1)

        ops.append(Op("mc_success", MC_TRIALS, call, check))

    seed = int(rng.integers(2**31))
    ops.append(Op(
        "empirical_mean_density", DENSITY_TRIALS,
        lambda: harness.empirical_mean_density(2, 1, DENSITY_TRIALS, seed),
        lambda mat: checks.check_mean_density(mat, 2, DENSITY_TRIALS),
    ))
    return ops


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _synthesize(build: Callable[[], Any]):
    net = build()
    text = net.to_text()
    return net, net.unitary(), text, optics.Interferometer.from_text(text)


def _check_network(result, target: np.ndarray) -> list[str]:
    net, mat, text, back = result
    problems = checks.check_mesh(text, target)
    got = mat[:, 0] if target.ndim == 1 else mat
    dev = np.abs(got - target).max()
    if not dev <= checks.MESH_TOL:
        problems.append(f"Interferometer.unitary() deviates from the target by {dev}")
    if back != net:
        problems.append("from_text(to_text()) does not give back the network")
    return problems


def mesh_ops(rng: np.random.Generator) -> list[Op]:
    """Full meshes of Haar unitaries and preparation cascades of Haar states."""
    ops = []
    for dim in RECK_SIZES * MESH_REPEATS:
        target = _haar_unitary(rng, dim)
        ops.append(Op(
            "reck_decompose", 1,
            lambda t=target: _synthesize(lambda: optics.reck_decompose(t)),
            lambda r, t=target: _check_network(r, t),
        ))
    for _ in range(PREP_STATES):
        amps = _haar_unitary(rng, PREP_SIZE)[:, 0]
        ops.append(Op(
            "prepare_state_network", 1,
            lambda a=amps: _synthesize(lambda: optics.prepare_state_network(a, len(a))),
            lambda r, a=amps: _check_network(r, a),
        ))
    return ops


WORKLOADS = {"verify-n6": verify_ops, "sample": sample_ops, "mesh": mesh_ops}


def run_round(workload: str, seed: int, index: int, trace_path: str | None = None) -> dict:
    ops = WORKLOADS[workload](np.random.default_rng([seed, index]))
    tracer = Tracer() if trace_path else None
    outputs, errors, tallies = [], [], {}
    if tracer:
        tracer.install()
    start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        try:
            outputs.append(op.call())
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(None)
            errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        units, spent = tallies.get(op.kind, (0, 0.0))
        tallies[op.kind] = (units + op.units, spent + perf_counter() - t0)
    wall = perf_counter() - start
    if tracer:
        tracer.uninstall()
        tracer.save(trace_path)

    problems = []
    for op, out in zip(ops, outputs):
        if out is not None:
            problems += [f"{op.kind}: {p}" for p in op.check(out)]
    return {
        "workload": workload,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors,
        "problems": problems,
        "tallies": tallies,
    }


if __name__ == "__main__":
    name, seed, index = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    trace = sys.argv[4] if len(sys.argv) > 4 else None
    print(json.dumps(run_round(name, seed, index, trace)))
