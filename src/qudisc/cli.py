"""Command-line front end.

Every command prints one machine-readable record: a JSON object with numbers
rendered to 15 significant digits (the scan command appends a CSV body after
the record).  The exception is verify, which prints its text report unless
--json is given.  Repeated invocations with the same flags and seed produce
byte-identical output.  Exit codes: 0 success, 1 verification failure,
2 usage or domain error (including requests too large for memory), 3 internal
error (an unexpected exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from dataclasses import fields

import numpy as np

from . import __version__
from .errors import DomainError
from .harness import verify_all
from .optics import (
    MAX_MODES,
    analytic_discriminator_probabilities,
    prepare_state_network,
    simulate_discriminator,
)
from .povm import (
    Priors,
    average_success,
    omega1_from_x,
    optimal_average,
    optimal_pure,
    success_curve_x,
    x_from_omega1,
)
from .spaces import check_dimension, dimension_table

# Most grid points `scan` accepts: at some 13 microseconds per printed row this
# is about two minutes of output.  The grid is computed one point at a time.
MAX_SCAN_STEPS = 10**7


def _format_number(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    # JSON has no NaN or infinity; a non-finite value is written as null.
    return f"{value:.15g}" if math.isfinite(value) else "null"


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {json.dumps(key)}: {_render_json(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_render_json(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    return _format_number(obj)


def _emit_record(command: str, params: dict, results: dict, seed: int | None = None) -> None:
    record = {
        "command": command,
        "version": __version__,
        "params": params,
        "seed": seed,
        "results": results,
    }
    print(_render_json(record))


def cmd_dims(args) -> int:
    table = dimension_table(args.n)
    results = {f.name: getattr(table, f.name) for f in fields(table) if f.name != "n"}
    _emit_record("dims", {"n": args.n}, results)
    return 0


def cmd_verify(args) -> int:
    report = verify_all(args.n_max, args.tol)
    if args.json:
        results = {
            "checks": [
                {
                    "name": r.name,
                    "scope": r.scope,
                    "passed": r.passed,
                    "worst_deviation": r.deviation,
                    "tolerance": r.tolerance,
                }
                for r in report.results
            ],
            "passed": report.passed,
        }
        _emit_record("verify", {"n_max": args.n_max, "tol": args.tol}, results)
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


def _scan_grid(points: int):
    """The points of np.linspace(1.0, 4.0, points), points >= 2, one at a time,
    by linspace's own formula: i * step + 1.0, and exactly 4.0 last."""
    step = 3.0 / (points - 1)
    for i in range(points - 1):
        yield i * step + 1.0
    yield 4.0


def cmd_scan(args) -> int:
    check_dimension(args.n)
    if args.steps > MAX_SCAN_STEPS:
        raise DomainError(f"steps must not exceed {MAX_SCAN_STEPS}, got {args.steps}")
    priors = Priors.from_eta1(args.eta1)
    priors.require_nondegenerate()
    points = max(args.steps, 2)
    _emit_record(
        "scan",
        {"n": args.n, "eta1": args.eta1, "steps": args.steps},
        {"rows": points, "columns": ["omega1", "x", "p_avg", "p_subspace"]},
    )
    print("omega1,x,p_avg,p_subspace")
    for x in _scan_grid(points):
        omega1 = omega1_from_x(x)
        row = (
            omega1,
            x,
            average_success(args.n, omega1, priors),
            success_curve_x(x, priors),
        )
        print(",".join(_format_number(v) for v in row))
    return 0


def cmd_optimal(args) -> int:
    priors = Priors.from_eta1(args.eta1)
    result = optimal_average(args.n, priors)
    results = {
        "regime": result.regime,
        "x_star": result.x_star,
        "omega1_star": result.omega1_star,
        "p_avg_opt": result.value,
    }
    params = {"n": args.n, "eta1": args.eta1}
    if args.overlap_sq is not None:
        params["overlap_sq"] = args.overlap_sq
        results["p_pure_opt"] = optimal_pure(args.overlap_sq, priors).value
    _emit_record("optimal", params, results)
    return 0


def cmd_simulate(args) -> int:
    check_dimension(args.n)
    priors = Priors.from_eta1(args.eta1)
    omega1 = args.omega1 if args.x is None else omega1_from_x(args.x)  # argparse requires one
    run = simulate_discriminator(omega1, priors, shots=args.shots, seed=args.seed)
    analytic = analytic_discriminator_probabilities(omega1, priors)
    sigma = float(
        np.sqrt(max(analytic["success"] * (1 - analytic["success"]), 1e-300) / args.shots)
    )
    results = {
        "counts": {k: run.counts[k] for k in ("D1", "D2", "F")},
        "input_counts": {k: run.input_counts[k] for k in ("g", "h")},
        "empirical_success": run.empirical_success,
        "analytic_success": analytic["success"],
        "analytic_probabilities": {k: analytic[k] for k in ("D1", "D2", "F")},
        "success_sigma": sigma,
        # Full-device average success at dimension n; the sampled six-port
        # device realizes the per-subspace factor of this quantity.
        "analytic_average_success": average_success(args.n, omega1, priors),
    }
    _emit_record(
        "simulate",
        {
            "n": args.n,
            "eta1": args.eta1,
            "omega1": omega1,
            "x": x_from_omega1(omega1),
            "shots": args.shots,
        },
        results,
        seed=args.seed,
    )
    return 0


def _read_amplitudes(path: str) -> np.ndarray:
    """One amplitude per line as `re` or `re im`; any other line raises DomainError,
    and so does the first amplitude past MAX_MODES, before the rest is read."""
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            where = f"{path} line {number} {line!r}"
            if len(values) == MAX_MODES:
                raise DomainError(f"{where}: the amplitude count must not exceed {MAX_MODES}")
            if len(parts) > 2:
                raise DomainError(f"{where}: expected one or two values (re [im])")
            try:
                values.append(complex(*map(float, parts)))
            except ValueError as exc:
                raise DomainError(f"{where}: {exc}") from None
    if not values:
        raise DomainError(f"no amplitudes found in {path}")
    return np.array(values, dtype=complex)


def cmd_prepare(args) -> int:
    amps = _read_amplitudes(args.amplitudes)
    net = prepare_state_network(amps, len(amps))
    text = net.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    photon = np.zeros(len(amps))
    photon[0] = 1.0  # one photon in the first mode; apply() never builds the unitary
    target_error = float(np.abs(net.apply(photon) - amps).max())
    _emit_record(
        "prepare",
        {"amplitudes": args.amplitudes, "out": args.out, "modes": len(amps)},
        {"layers": len(net.modes), "column_error": target_error},
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qudisc",
        description="Programmable unambiguous discriminator between two unknown qudit states",
    )
    parser.add_argument("--version", action="version", version=f"qudisc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", help="print the subspace dimension table")
    p.add_argument("--n", type=int, required=True, help="qudit dimension (>= 2)")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--tol", type=float, default=None,
                   help="replace the 1e-12, 1e-10 and 1e-6 comparison tolerances; "
                        "the exact and statistical checks keep their own bounds")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="tabulate success probabilities on an x grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta1", type=float, required=True)
    p.add_argument("--steps", type=int, default=51,
                   help="grid points on [1, 4] (values below 2 give the endpoints)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("optimal", help="closed-form optimum for given priors")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--eta1", type=float, required=True)
    p.add_argument("--overlap-sq", type=float, default=None,
                   help="also report the pure-state optimum at this squared overlap")
    p.set_defaults(func=cmd_optimal)

    p = sub.add_parser("simulate", help="sample the six-port discriminator")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--eta1", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--omega1", type=float, default=None, help="angle in radians")
    group.add_argument("--x", type=float, default=None, help="x = 1 + 3 cos^2(omega1)")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("prepare", help="synthesize a state-preparation network")
    p.add_argument("amplitudes", help="text file, one amplitude per line (re [im])")
    p.add_argument("--out", default=None, help="write the network here instead of stdout")
    p.set_defaults(func=cmd_prepare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (OSError, ValueError) as exc:  # the package's errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; use a smaller request", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("error: internal error", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
