"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output) and asserts the criterion at its stated tolerance.
"""

import inspect
import time
from pathlib import Path

import numpy as np

from qudisc.cli import main as cli_main
from qudisc.harness import empirical_mean_density, mc_success, overlap_identity_check
from qudisc.jordan import build_gh_bases, jordan_angles
from qudisc.optics import (
    discriminator_network,
    discriminator_port_state,
    output_distribution,
    reck_decompose,
    simulate_clicks,
)
from qudisc.povm import (
    Priors,
    average_success,
    average_success_trace,
    omega1_from_x,
    optimal_pure,
    optimal_subspace,
    pure_success,
    pure_success_expectation,
    total_povm,
)
from qudisc.spaces import (
    constructive_dimension_table,
    dimension_table,
    mean_density_operators,
    projector_from_rows,
)
from references import symmetric_basis_3

GOLDEN = Path(__file__).parent / "golden"


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


def _haar_pair(n, rng):
    z = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z[0], z[1]


def test_criterion_01_dimension_formulas():
    start = time.time()
    ok = True
    for n in range(2, 6):
        ok &= constructive_dimension_table(n) == dimension_table(n)
    elapsed = time.time() - start
    _report(1, "dimension formulas n=2..5", ok and elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_02_jordan_structure():
    start = time.time()
    worst = 0.0
    for n in range(2, 5):
        pairs = build_gh_bases(n)
        i0 = dimension_table(n).i0
        for family in (pairs.g, pairs.h):
            worst = max(worst, np.abs(family.conj() @ family.T - np.eye(i0)).max())
        worst = max(worst, np.abs(pairs.g @ pairs.h.T + 0.5 * np.eye(i0)).max())
        worst = max(worst, np.abs(jordan_angles(pairs.g, pairs.h) - 0.5).max())
        # rho_1 = w (P_0 + P_g) and rho_2 = w (P_0 + P_h), rebuilt densely.
        weight = 2.0 / (n**2 * (n + 1))
        p0 = projector_from_rows(symmetric_basis_3(n))
        for direct, family in zip(mean_density_operators(n), (pairs.g, pairs.h)):
            rebuilt = weight * (p0 + projector_from_rows(family))
            worst = max(worst, np.abs(direct - rebuilt).max())
    elapsed = time.time() - start
    _report(2, "paired-basis structure n=2..4", worst < 1e-12 and elapsed < 30,
            f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_povm_validity_unambiguity():
    start = time.time()
    worst_psd, worst_sum, worst_trace = 0.0, 0.0, 0.0
    for n in range(2, 5):
        rho1, rho2 = mean_density_operators(n)
        eye = np.eye(n**3)
        for omega1 in np.linspace(0.0, np.pi / 2, 50):
            ops = total_povm(n, omega1)
            for op in ops:
                worst_psd = max(worst_psd, -np.linalg.eigvalsh(op).min())
            worst_sum = max(worst_sum, np.abs(ops.sum(axis=0) - eye).max())
            worst_trace = max(
                worst_trace,
                abs(np.trace(ops[0] @ rho2).real),
                abs(np.trace(ops[1] @ rho1).real),
            )
    elapsed = time.time() - start
    ok = worst_psd < 1e-10 and worst_sum < 1e-10 and worst_trace < 1e-12
    _report(3, "POVM validity and unambiguity", ok and elapsed < 60,
            f"psd {worst_psd:.2e}, sum {worst_sum:.2e}, trace {worst_trace:.2e}, {elapsed:.1f}s")


def test_criterion_04_closed_form_agreement():
    worst_avg, worst_pure = 0.0, 0.0
    priors = Priors.from_eta1(0.35)
    for n in range(2, 5):
        for omega1 in np.linspace(0.0, np.pi / 2, 50):
            worst_avg = max(worst_avg, abs(
                average_success(n, omega1, priors)
                - average_success_trace(n, omega1, priors)
            ))
        rng = np.random.Generator(np.random.Philox(key=404 + n))
        for _ in range(100):
            psi1, psi2 = _haar_pair(n, rng)
            worst_pure = max(worst_pure, abs(
                pure_success(psi1, psi2, 0.8, priors, n)
                - pure_success_expectation(psi1, psi2, 0.8, priors, n)
            ))
    ok = worst_avg < 1e-10 and worst_pure < 1e-10
    _report(4, "closed forms match operator evaluations", ok,
            f"avg {worst_avg:.2e}, pure {worst_pure:.2e}")


def test_criterion_05_regime_optima():
    xs = np.arange(1.0, 4.0 + 1e-6, 1e-6)
    xs = xs[xs <= 4.0]
    worst = 0.0
    doubled_root_checked = 0
    doubled_root_failures = 0
    for eta1 in np.linspace(0.01, 0.99, 99):
        priors = Priors.from_eta1(float(eta1))
        scan_best = (1.0 - priors.eta1 * xs / 4.0 - priors.eta2 / xs).max()
        worst = max(worst, abs(optimal_subspace(priors).value - scan_best))
        if 0.2 <= eta1 <= 0.8:
            doubled_root = 1.0 - 2.0 * np.sqrt(priors.eta1 * priors.eta2)
            doubled_root_checked += 1
            doubled_root_failures += abs(doubled_root - scan_best) > 1e-6
    continuity = max(
        abs(0.75 * 0.8 - (1.0 - np.sqrt(0.2 * 0.8))),
        abs(0.75 * 0.8 - (1.0 - np.sqrt(0.8 * 0.2))),
    )
    # The variant with a doubled square root must disagree with the scan for
    # every interior prior; the implemented optimum must match everywhere.
    ok = (
        worst < 1e-6
        and continuity < 1e-12
        and doubled_root_checked > 0
        and doubled_root_failures == doubled_root_checked
    )
    _report(5, "regime optima vs 1e-6 grid scans", ok,
            f"worst {worst:.2e}, continuity {continuity:.2e}")


def test_criterion_06_dimension_independence():
    priors = Priors.from_eta1(0.3)
    omega1 = 0.8
    ratios = []
    for n in range(2, 6):
        e = np.eye(n, dtype=complex)
        psi1, psi2 = e[0], (e[0] + e[1]) / np.sqrt(2)
        ratios.append(pure_success(psi1, psi2, omega1, priors, n) / 0.5)
    spread = max(ratios) - min(ratios)
    takes_no_n = "n" not in inspect.signature(optimal_pure).parameters
    _report(6, "pure-state optimum independent of dimension",
            spread < 1e-10 and takes_no_n, f"spread {spread:.2e}")


def test_criterion_07_overlap_identity():
    worst = 0.0
    for n in range(2, 5):
        rng = np.random.Generator(np.random.Philox(key=700 + n))
        for _ in range(100):
            psi1, psi2 = _haar_pair(n, rng)
            result = overlap_identity_check(psi1, psi2, n)
            worst = max(
                worst,
                abs(result.sum_g - result.closed_form),
                abs(result.sum_h - result.closed_form),
            )
    _report(7, "reciprocal overlap identity", worst < 1e-10, f"worst {worst:.2e}")


def test_criterion_08_optics_equivalence():
    pairs = build_gh_bases(2)
    g, h = pairs.g[0], pairs.h[0]
    worst_born = 0.0
    for omega1 in np.linspace(0.0, np.pi / 2, 20):
        net = discriminator_network(omega1)
        ops = total_povm(2, omega1)
        for which, state in (("g", g), ("h", h)):
            probs = output_distribution(net, discriminator_port_state(which))
            expected = np.array([np.vdot(state, op @ state).real for op in ops])
            worst_born = max(worst_born, np.abs(probs - expected).max())

    worst_reck = 0.0
    for dim in range(2, 9):
        rng = np.random.Generator(np.random.Philox(key=800 + dim))
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(z)
        target = q * (np.diag(r) / np.abs(np.diag(r)))
        worst_reck = max(worst_reck, np.abs(reck_decompose(target).unitary() - target).max())

    shots = 100_000
    omega1 = omega1_from_x(2.0)
    net = discriminator_network(omega1)
    stats = simulate_clicks(net, discriminator_port_state("g"), shots, seed=88)
    sigma = np.sqrt(0.25 / shots)
    sampling_ok = abs(stats.counts["m1"] / shots - 0.5) < 5 * sigma  # D1

    ok = worst_born < 1e-12 and worst_reck < 1e-10 and sampling_ok
    _report(8, "optics equivalence", ok,
            f"born {worst_born:.2e}, mesh {worst_reck:.2e}")


def test_criterion_09_monte_carlo_consistency():
    start = time.time()
    worst_sigma = 0.0
    omegas = (0.2, omega1_from_x(2.0), 1.4)
    for n in (2, 3, 5):
        for omega1 in omegas:
            for eta1 in (0.1, 0.5, 0.9):
                priors = Priors.from_eta1(eta1)
                est = mc_success(n, omega1, priors, trials=10_000, seed=900 + n)
                target = average_success(n, omega1, priors)
                if est.stderr > 0:
                    worst_sigma = max(worst_sigma, abs(est.mean - target) / est.stderr)
    emp = empirical_mean_density(2, 1, trials=20_000, seed=901)
    rho1, _ = mean_density_operators(2)
    density_dev = np.abs(emp - rho1).max()
    elapsed = time.time() - start
    ok = worst_sigma < 3.0 and density_dev < 0.01 and elapsed < 120
    _report(9, "Monte Carlo consistency", ok,
            f"worst {worst_sigma:.2f} sigma, density {density_dev:.2e}, {elapsed:.1f}s")


def test_criterion_10_cli_end_to_end(capsys):
    code = cli_main(["verify", "--n-max", "3"])
    verify_out = capsys.readouterr().out
    ok = code == 0 and "overall: pass" in verify_out

    cases = [
        ("dims_n3.txt", ["dims", "--n", "3"]),
        ("scan_n2_eta05_steps4.txt", ["scan", "--n", "2", "--eta1", "0.5", "--steps", "4"]),
        ("optimal_n2_eta05_overlap0.txt",
         ["optimal", "--n", "2", "--eta1", "0.5", "--overlap-sq", "0"]),
    ]
    for name, argv in cases:
        rc = cli_main(argv)
        out = capsys.readouterr().out
        ok &= rc == 0 and out == (GOLDEN / name).read_text()

    with capsys.disabled():
        _report(10, "CLI end to end with golden files", ok)
