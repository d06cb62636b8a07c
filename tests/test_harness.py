import dataclasses
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qudisc import harness, jordan, kinds, optics, povm, spaces
from qudisc.errors import ContractError, DomainError
from qudisc.harness import (
    McEstimate,
    Tolerances,
    empirical_mean_density,
    haar_state,
    mc_success,
    overlap_identity_check,
    verify_all,
)
from qudisc.optics import Interferometer, simulate_clicks, simulate_discriminator
from qudisc.jordan import build_gh_bases
from qudisc.kinds import CASE_DISTINCT_PRIMED, CASE_LOW
from qudisc.povm import Priors, average_success, omega1_from_x, total_povm
from qudisc.spaces import mean_density_operators


def test_haar_state_basics():
    single = haar_state(1, seed=0)
    assert abs(abs(single[0]) - 1.0) < 1e-12
    state = haar_state(3, seed=5)
    again = haar_state(3, seed=5)
    np.testing.assert_array_equal(state, again)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    assert not np.allclose(state, haar_state(3, seed=6))
    for bad in (0, 1.5, np.inf, np.nan):
        with pytest.raises(DomainError):
            haar_state(bad, seed=1)
    np.testing.assert_array_equal(haar_state(3.0, seed=5), state)


def test_an_oversized_n_is_refused_before_any_allocation():
    # Each call would need from some 19 GiB to some 400 TiB; it must raise
    # DomainError, not MemoryError, having built next to nothing.
    e0, e1 = np.zeros(2000), np.zeros(2000)
    e0[0] = e1[1] = 1.0
    stack = np.zeros((2000, 60), dtype=complex)  # 2000 pairs at n = 60
    stack[:, 0] = 1.0
    priors = Priors.from_eta1(0.3)
    calls = [
        lambda: empirical_mean_density(100, 1, 10, 0),
        lambda: povm.pure_success_expectation(e0, e1, 0.5, priors, 2000),
        lambda: harness.overlap_identity_check(e0, e1, 2000),
        lambda: povm.pure_success_expectation(stack, stack, 0.5, priors, 60),
        lambda: harness.overlap_identity_check(stack, stack, 60),
        lambda: spaces.symmetric_basis_2(300),
        lambda: spaces.symmetric_projector(300),
        lambda: build_gh_bases(60),
        lambda: total_povm(2000, 0.5),
        lambda: mean_density_operators(100),
        lambda: spaces.label_blocks(2000),
        lambda: spaces.label_blocks(2, 40),
        lambda: haar_state(10**13, 0),
        lambda: mc_success(10**9, 0.5, priors, 100, 0),
    ]
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(DomainError, match="over the limit"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_haar_first_component_mean():
    samples = np.abs([haar_state(2, 42, stream=t)[0] for t in range(30_000)]) ** 2
    # |a1|^2 is Beta(1, 1) = uniform for n=2: mean 1/2, variance 1/12.
    sigma = np.sqrt(1 / 12 / len(samples))
    assert abs(samples.mean() - 0.5) < 5 * sigma


def test_empirical_mean_density_single_trial():
    rho = empirical_mean_density(2, 1, trials=1, seed=3)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.linalg.matrix_rank(rho, tol=1e-10) == 1


def test_empirical_mean_density_converges_n2():
    rho = empirical_mean_density(2, 1, trials=20_000, seed=17)
    rho1, _ = mean_density_operators(2)
    assert np.abs(rho - rho1).max() < 0.01


def test_empirical_mean_density_trace_distance_n3():
    rho = empirical_mean_density(3, 2, trials=20_000, seed=19)
    _, rho2 = mean_density_operators(3)
    eigs = np.linalg.eigvalsh(rho - rho2)
    assert 0.5 * np.abs(eigs).sum() < 0.05


def test_empirical_mean_density_validation():
    with pytest.raises(DomainError):
        empirical_mean_density(2, 3, trials=10, seed=0)
    for trials in (0, 2.5, np.nan):
        with pytest.raises(DomainError):
            empirical_mean_density(2, 1, trials=trials, seed=0)


def test_sampling_does_not_depend_on_block_size(monkeypatch):
    priors = Priors.from_eta1(0.3)
    mean = mc_success(3, 0.8, priors, trials=500, seed=4)
    density = empirical_mean_density(2, 2, trials=500, seed=6)
    monkeypatch.setattr(harness, "HAAR_BLOCK", 7)
    assert mc_success(3, 0.8, priors, trials=500, seed=4) == mean
    np.testing.assert_allclose(
        empirical_mean_density(2, 2, trials=500, seed=6), density, rtol=0, atol=1e-14
    )


def test_pair_sampling_matches_per_pair_loop():
    # The documented contract: pair t takes the next 4n normals of the
    # (seed, 0) stream, real and imaginary parts interleaved.
    n, trials, seed = 2, 300, 21
    z = np.random.Generator(np.random.Philox(key=[seed, 0])).standard_normal((trials, 2, n, 2))
    z = z[..., 0] + 1j * z[..., 1]
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    density = sum(np.outer(big, big.conj())
                  for big in (np.kron(np.kron(a, b), b) for a, b in z)) / trials
    np.testing.assert_allclose(
        empirical_mean_density(n, 2, trials, seed), density, rtol=0, atol=1e-14
    )
    priors = Priors.from_eta1(0.6)
    scale = average_success(n, 0.5, priors) * n / (n - 1)  # (2/3) P(x)
    values = [scale * (1.0 - abs(np.vdot(a, b)) ** 2) for a, b in z]
    assert abs(mc_success(n, 0.5, priors, trials, seed).mean - np.mean(values)) < 1e-14


@pytest.mark.parametrize(
    "call",
    [
        lambda: simulate_clicks(Interferometer(num_modes=2), np.array([1, 0]), 100, seed=3),
        lambda: simulate_discriminator(0.6, Priors.from_eta1(0.4), shots=100, seed=3),
        lambda: mc_success(2, 0.6, Priors.from_eta1(0.4), trials=100, seed=3),
        lambda: empirical_mean_density(2, 1, trials=100, seed=3),
        lambda: haar_state(4, seed=3, stream=2),
    ],
)
def test_one_sampling_call_builds_one_philox(monkeypatch, call):
    real, built = np.random.Philox, []

    def counted(*args, **kwargs):
        built.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "HAAR_BLOCK", 7)  # several blocks, still one stream
    monkeypatch.setattr(np.random, "Philox", counted)
    call()
    assert len(built) == 1



@pytest.mark.parametrize(
    "call",
    [
        lambda: simulate_clicks(Interferometer(num_modes=2), np.array([1, 0]), 100, seed=-1),
        lambda: simulate_discriminator(0.6, Priors.from_eta1(0.4), shots=100, seed=2**64),
        lambda: mc_success(2, 0.6, Priors.from_eta1(0.4), trials=100, seed=np.nan),
        lambda: empirical_mean_density(2, 1, trials=100, seed=1.5),
        lambda: haar_state(2, 2.5),
        lambda: haar_state(2, seed=3, stream=-2),
    ],
)
def test_sampling_calls_refuse_bad_seeds_before_any_stream(monkeypatch, call):
    def no_philox(*args, **kwargs):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(np.random, "Philox", no_philox)
    with pytest.raises(DomainError):
        call()

def test_overlap_identity_orthogonal_pair():
    e1, e2 = np.eye(2, dtype=complex)
    result = overlap_identity_check(e1, e2, 2)
    assert abs(result.sum_g - 0.5) < 1e-12
    assert abs(result.sum_h - 0.5) < 1e-12
    assert result.closed_form == 0.5


def test_overlap_identity_equal_pair():
    psi = np.array([1, 1j]) / np.sqrt(2)
    result = overlap_identity_check(psi, psi, 2)
    assert result.sum_g < 1e-12
    assert result.sum_h < 1e-12


@pytest.mark.parametrize(
    "psi1, psi2",
    [
        (np.array([np.nan, 0]), np.array([1, 0])),
        (np.array([1, 0]), np.array([np.inf, 0])),
        (np.array([1, 1]), np.array([1, 0])),  # norm sqrt(2)
        (np.array([0.5, 0]), np.array([0, 1])),
        (np.array([1, 0, 0]), np.array([1, 0])),  # wrong length
    ],
)
def test_overlap_identity_rejects_non_unit_states(psi1, psi2):
    with pytest.raises(ContractError):
        overlap_identity_check(psi1, psi2, 2)


@pytest.mark.parametrize("n", [2, 4])
def test_overlap_identity_random_pairs(n):
    rng = np.random.Generator(np.random.Philox(key=33))
    worst = 0.0
    for _ in range(100):
        z = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        result = overlap_identity_check(z[0], z[1], n)
        worst = max(
            worst,
            abs(result.sum_g - result.closed_form),
            abs(result.sum_h - result.closed_form),
        )
    assert worst < 1e-10


def test_mc_success_matches_analytic():
    priors = Priors.from_eta1(0.5)
    omega1 = omega1_from_x(2.0)
    est = mc_success(2, omega1, priors, trials=10_000, seed=8)
    target = average_success(2, omega1, priors)
    assert abs(target - 1 / 6) < 1e-12
    assert abs(est.mean - target) < 3 * est.stderr
    assert isinstance(est, McEstimate)


def test_mc_success_degenerate_case_is_exact():
    est = mc_success(2, 0.0, Priors.from_eta1(1.0), trials=200, seed=1)
    assert est.mean == 0.0
    assert est.stderr == 0.0


def test_mc_success_high_dimension():
    priors = Priors.from_eta1(0.5)
    omega1 = omega1_from_x(2.0)
    est = mc_success(5, omega1, priors, trials=5_000, seed=9)
    assert abs(est.mean - average_success(5, omega1, priors)) < 3 * est.stderr


def test_mc_success_coverage_over_seeds():
    priors = Priors.from_eta1(0.4)
    omega1 = 0.9
    target = average_success(3, omega1, priors)
    hits = 0
    for seed in range(20):
        est = mc_success(3, omega1, priors, trials=2_000, seed=seed)
        hits += abs(est.mean - target) <= 3 * est.stderr
    assert hits >= 18


def test_mc_success_validation():
    for trials in (50, 150.5, np.nan, np.inf):
        with pytest.raises(DomainError):
            mc_success(2, 0.3, Priors.from_eta1(0.5), trials=trials, seed=0)
    with pytest.raises(DomainError):
        mc_success(2, 5.0, Priors.from_eta1(0.5), trials=200, seed=0)


def _kolmogorov_pvalue(lam):
    """Reference: Kolmogorov's limit P(sqrt(N) D_N > lam) = 2 sum_k (-1)^(k-1) exp(-2 k^2 lam^2).

    Below lam = 0.2 the series converges slowly and its value is 1 to 1e-12.
    """
    if lam < 0.2:
        return 1.0
    k = np.arange(1, 101)
    return float(2.0 * np.sum((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * lam**2)))


# The reference at 0, in its small-lambda branch, at its 5% and 1% quantiles,
# and far in the tail.
@pytest.mark.parametrize(
    "lam,pvalue", [(0.0, 1.0), (0.3, 1.0), (1.3581, 0.05), (1.6276, 0.01), (5.0, 0.0)]
)
def test_kolmogorov_pvalue(lam, pvalue):
    assert abs(_kolmogorov_pvalue(lam) - pvalue) < 1e-3


def test_dkw_bound_of_the_haar_law_check_is_kolmogorovs_quantile():
    # 2 exp(-2 lam^2) is the leading term of Kolmogorov's series, so at 10^4 samples
    # the DKW-Massart bound at alpha = 1e-3 is Kolmogorov's 1e-3 quantile to 1.25e-10.
    lam = np.sqrt(10_000) * harness._dkw_epsilon(10_000)
    assert abs(_kolmogorov_pvalue(lam) - harness.KS_ALPHA) <= 1e-9 * harness.KS_ALPHA


def test_ks_distance_rejects_wrong_law():
    # |a1|^2 is uniform for n = 2, not Beta(1, 2) as for n = 3.
    samples = np.abs([haar_state(2, 123, t)[0] for t in range(2_000)]) ** 2
    distance = harness._ks_distance(samples, lambda u: 1.0 - (1.0 - u) ** 2)
    assert distance > harness._dkw_epsilon(len(samples))


def _fresh_python(code):
    """stdout of `code` run in a new interpreter that imports the tested package."""
    src = str(Path(harness.__file__).parents[1])  # the tested package, however pytest found it
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    return out.stdout.strip()


def test_cli_import_leaves_the_kind_table_unbuilt():
    code = "import qudisc.cli, qudisc.kinds as k; print(k.kind_table.cache_info().currsize)"
    assert _fresh_python(code) == "0"


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, qudisc.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert _fresh_python(code) == "False"


def test_verify_leaves_numpy_ma_unloaded():
    # numpy.ma is a lazy import costing ~15 ms, which np.unique without return_* triggers.
    code = "import sys, qudisc; qudisc.verify_all(3); print('numpy.ma' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_verify_all_passes_and_reports():
    report = verify_all(2)
    assert report.passed
    assert len(report.results) > 20
    text = report.to_text()
    assert "overall: pass" in text
    assert "worst_deviation" in text


def test_verify_all_rejects_bad_nmax():
    for bad in (1, 2.5, np.inf, np.nan):
        with pytest.raises(DomainError):
            verify_all(bad)


def test_verify_all_refuses_oversized_nmax_before_any_work(monkeypatch):
    ran = []  # the check runners record their calls instead of building operators
    monkeypatch.setattr(harness, "_checks_for_n", lambda n, tol, report: ran.append(n))
    monkeypatch.setattr(harness, "_global_checks", lambda n_max, tol, report: ran.append("g"))
    for too_big in (49, 10**9):
        with pytest.raises(DomainError, match="over the limit"):
            verify_all(too_big)
    assert ran == []
    verify_all(48)  # the largest admitted
    assert ran == [*range(2, 49), "g"]


def _full_scan_grid():
    xs = np.arange(1.0, 4.0 + 1e-6, 1e-6)
    return xs[xs <= 4.0]


def test_on_demand_scan_points_are_the_full_grid():
    xs = _full_scan_grid()
    assert len(xs) == harness.SCAN_POINTS == 3_000_001
    points = harness._scan_points(0, harness.SCAN_POINTS)
    assert points.tobytes() == xs.tobytes()
    assert harness._scan_points(2_999_000, 3_001_001).tobytes() == xs[2_999_000:].tobytes()
    assert harness._scan_points(0, 4_000_000, 1000).tobytes() == xs[::1000].tobytes()


@pytest.mark.parametrize("eta1", [0.01, 0.19, 0.2, 0.21, 0.5, 0.79, 0.8, 0.81, 0.99])
def test_windowed_regime_scan_is_the_full_grid_maximum(eta1):
    xs = _full_scan_grid()
    priors = Priors.from_eta1(eta1)
    values = 1.0 - priors.eta1 * xs / 4.0 - priors.eta2 / xs
    top = int(np.argmax(values))
    assert harness._grid_max(priors) == (values[top], top)


def _povm_positive(n):
    report = harness.VerificationReport(n_max=n)
    harness._checks_for_n(n, Tolerances(), report)
    return next(r for r in report.results if r.name == "povm_positive")


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_positivity_certificate_matches_dense_eigensolves(n):
    dense = 0.0
    for omega1 in np.linspace(0.0, np.pi / 2, 50):
        for op in total_povm(n, omega1).elements():
            dense = max(dense, max(0.0, -np.linalg.eigvalsh(op).min()))
    block = _povm_positive(n)
    assert block.passed
    assert dense <= Tolerances().op and block.deviation <= Tolerances().op
    assert abs(block.deviation - dense) <= 1e-13


def _patch_symmetrizers(monkeypatch, change, kind=3):
    """kinds.symmetrizers with its (S1, S2, S3) replaced by change(perms, s1, s2, s3)
    for the permutation matrices of one kind of the table only, {a,b,c} by default."""
    real = kinds.symmetrizers

    def patched(perms):
        sums = real(perms)
        return change(perms, *sums) if perms is kinds.kind_table()[kind].perms else sums

    monkeypatch.setattr(kinds, "symmetrizers", patched)


def test_povm_positive_fails_on_a_negative_dyad_off_the_blocks(monkeypatch):
    # S2 takes a 1e-6 dyad on the {a,b,c} kind's symmetric vector, orthogonal to
    # every g_perp and h row, so pi1 = a (S3 - S2) takes a negative one.
    v = np.full(6, 1.0 / np.sqrt(6))
    _patch_symmetrizers(monkeypatch, lambda perms, s1, s2, s3: (s1, s2 + 1e-6 * np.outer(v, v), s3))
    for n in (3, 8):
        assert not _povm_positive(n).passed, n


def test_povm_positive_fails_on_a_wrong_pi2_coefficient(monkeypatch):
    # S1 moved off S3 by 1e-6 of their difference: pi2 = b (S3 - S1) is then
    # (1 + 1e-6) b P_h_perp on every {a,b,c} V_t.
    _patch_symmetrizers(monkeypatch, lambda perms, s1, s2, s3: (s1 - 1e-6 * (s3 - s1), s2, s3))
    assert not _povm_positive(3).passed


@pytest.mark.parametrize("kind", range(4))
def test_one_permutation_coefficient_of_s3_off_by_a_sixth_fails_the_povm_checks(
        monkeypatch, kind):
    # The 3-cycle (1, 2, 0) enters S3 of one kind with coefficient 0, not -1/6.
    _patch_symmetrizers(monkeypatch, lambda perms, s1, s2, s3: (s1, s2, s3 + perms[1] / 6), kind)
    for n in (3, 8):
        assert not _povm_positive(n).passed, n


def test_povm_positive_fails_on_a_perturbed_h_perp_row(monkeypatch):
    # The primed {a,b,c} row at its |acb> entry: at n = 3, h_perp[4, 7] of the family.
    h_perp = kinds.kind_table()[3].h_perp.copy()
    h_perp[1, 1] += 1e-6
    table = _with_kind(3, h_perp=h_perp)
    monkeypatch.setattr(kinds, "kind_table", lambda: table)
    _clear_operator_caches()
    try:
        assert not _povm_positive(3).passed
    finally:
        _clear_operator_caches()


def test_a_changed_p_h_perp_of_one_kind_fails_positivity_and_completeness_at_n6(monkeypatch):
    # No dense copy exists at n = 6; pi0 reads the h_perp rows, not P_h_perp.
    p_h_perp = kinds.kind_table()[1].p_h_perp.copy()
    p_h_perp[0, 0] -= 1e-9
    table = _with_kind(1, p_h_perp=p_h_perp)
    monkeypatch.setattr(kinds, "kind_table", lambda: table)
    _clear_operator_caches()
    try:
        results = _per_n_results(6)
    finally:
        _clear_operator_caches()
    for name in ("povm_positive", "povm_complete"):
        assert not results[name].passed, name


def _per_n_results(n):
    report = harness.VerificationReport(n_max=n)
    harness._checks_for_n(n, Tolerances(), report)
    return {r.name: r for r in report.results}


OMEGA1_GRID = np.linspace(0.0, np.pi / 2, 50)  # the grid of the per-n POVM checks


def test_povm_positive_fails_on_a_dense_fault_at_one_cross_check_point(monkeypatch):
    # The permutation sums stand in for the dense operators: at every grid angle
    # each kind's a (S3 - S2), b (S3 - S1) and their complement are held against
    # its blocks.  Here the {a,b,c} kind's pi1 takes a positive 1e-6 dyad at
    # n = 5 and OMEGA1_GRID[14] only: still positive, so only that cross-check sees it.
    real = povm.kind_povms

    def faulty(omega1):
        stacks = real(omega1)
        v = np.full(6, 1.0 / np.sqrt(6))
        stacks[3][np.ravel(omega1) == OMEGA1_GRID[14], 0] += 1e-6 * np.outer(v, v)
        return stacks

    monkeypatch.setattr(povm, "kind_povms", faulty)
    assert not _povm_positive(5).passed


def test_povm_positive_fails_on_a_block_fault_between_cross_check_points(monkeypatch):
    real = povm.kind_povms

    def faulty(omega1):
        stacks = real(omega1)
        v = np.full(6, 1.0 / np.sqrt(6))  # the symmetric vector of an {a,b,c} V_t
        stacks[3][np.ravel(omega1) == OMEGA1_GRID[10], 0] -= 1e-6 * np.outer(v, v)
        return stacks

    monkeypatch.setattr(povm, "kind_povms", faulty)
    assert not _povm_positive(3).passed


def test_verify_all_builds_dense_povms_only_at_the_cross_check_points(monkeypatch):
    # The per-n suite builds none; network_born_rule holds the six-port click
    # probabilities against total_povm at its 20 angles, at n = 2.
    calls = []
    real = povm.total_povm

    def counted(n, omega1):
        calls.append((n, omega1))
        return real(n, omega1)

    monkeypatch.setattr(povm, "total_povm", counted)
    assert verify_all(6).passed
    assert calls == [(2, omega1) for omega1 in np.linspace(0.0, np.pi / 2, 20)]


def test_verify_all_scatters_the_povm_only_at_the_cross_check_and_pure_state_angles(monkeypatch):
    calls = []
    real = povm.kind_povms

    def recorded(omega1):
        calls.append(tuple(np.ravel(omega1)))
        return real(omega1)

    monkeypatch.setattr(povm, "kind_povms", recorded)
    assert verify_all(6).passed
    # Each n's checks read the 50-point grid once, where the permutation sums are
    # cross-checked too.  Besides it the kind blocks are read at the averaged-trace
    # check's grid[::7] and omega1*, the pure-state checks' 0.7 and
    # dimension_independence's 0.8.
    assert calls.count(tuple(OMEGA1_GRID)) == 5
    averaged = {angles for angles in calls if angles[:-1] == tuple(OMEGA1_GRID[::7])}
    assert len(averaged) == 1
    assert set(calls) == {tuple(OMEGA1_GRID), *averaged, (0.7,), (0.8,)}


def test_a_nan_in_one_permutation_operator_fails_the_invariance_check(monkeypatch):
    real = spaces.permute_registers

    def faulty(rows, perm, n):
        permuted = real(rows, perm, n)
        if tuple(perm) == (1, 0, 2):  # the third of the six: Python's max would drop its NaN
            permuted = permuted.copy()
            permuted[0, 0] = np.nan
        return permuted

    monkeypatch.setattr(spaces, "permute_registers", faulty)
    result = _per_n_results(3)["threefold_permutation_invariance"]
    assert not result.passed and np.isnan(result.deviation)


def test_a_nan_in_pi1_at_one_grid_point_fails_the_grid_checks(monkeypatch):
    # The {a,b,c} kind's pi1 is NaN at OMEGA1_GRID[10] and finite everywhere else.
    real = povm.kind_povms

    def faulty(omega1):
        stacks = real(omega1)
        stacks[3][np.ravel(omega1) == OMEGA1_GRID[10], 0] = np.nan
        return stacks

    monkeypatch.setattr(povm, "kind_povms", faulty)
    for n in (3, 6):
        results = _per_n_results(n)
        for name in ("povm_positive", "povm_complete", "povm_unambiguous_mixed"):
            assert not results[name].passed and np.isnan(results[name].deviation), (n, name)


def test_an_operating_point_off_the_optimum_fails_the_averaged_trace_check(monkeypatch):
    # The trace at omega1* must equal 2(n-1)/(3n) P(x*); the grid points alone
    # would not see an omega1* that misses the optimum.
    real = povm.optimal_subspace

    def faulty(priors):
        best = real(priors)
        return dataclasses.replace(best, omega1_star=best.omega1_star + 1e-3)

    monkeypatch.setattr(povm, "optimal_subspace", faulty)
    assert not _per_n_results(3)["average_success_closed_form"].passed


def test_a_nan_ks_statistic_fails_closed(monkeypatch):
    assert np.isnan(harness._ks_distance(np.array([0.1, np.nan, 0.5]), lambda u: u))
    monkeypatch.setattr(harness, "_ks_distance", lambda samples, cdf: np.nan)
    report = harness.VerificationReport(n_max=2)
    harness._global_checks(2, Tolerances(), report)
    law = next(r for r in report.results if r.name == "haar_first_component_law")
    assert not law.passed


def test_verify_all_unattainable_tolerance_fails_without_raising():
    report = verify_all(2, Tolerances(tight=1e-30, op=1e-30, scan=1e-30))
    assert not report.passed
    assert any(not r.passed for r in report.results)
    assert "FAIL" in report.to_text()


def _failed_checks(report):
    return {(r.scope, r.name) for r in report.results if not r.passed}


def test_pi1_scaled_at_n5_fails_the_pure_state_checks(monkeypatch):
    # While the per-n checks or a pure-state expectation run at n = 5, each kind's
    # pi1 is scaled by 1 + 1e-3 wherever register C reads the kind's label b, and
    # pi0 is still I - pi1 - pi2: a uniform scale would leave pi1 blind to the
    # wrong input.
    real, at_n5 = povm.kind_povms, [False]

    def faulty(omega1):
        stacks = real(omega1)
        if not at_n5[-1]:
            return stacks
        for (labels, _), stack in zip(kinds._KINDS, stacks):
            members = sorted(set(itertools.permutations(labels)))
            scale = np.array([1.0 + 1e-3 if m[2] == 1 else 1.0 for m in members])
            pi1 = scale[:, None] * stack[:, 0] * scale
            stack[:, 2] -= pi1 - stack[:, 0]
            stack[:, 0] = pi1
        return stacks

    def at(call, n_of):
        def run(*args):
            at_n5.append(n_of(args) == 5)
            try:
                return call(*args)
            finally:
                at_n5.pop()
        return run

    monkeypatch.setattr(povm, "kind_povms", faulty)
    monkeypatch.setattr(harness, "_checks_for_n", at(harness._checks_for_n, lambda a: a[0]))
    monkeypatch.setattr(povm, "pure_success_expectation",
                        at(povm.pure_success_expectation, lambda a: a[-1]))
    failed = _failed_checks(verify_all(5))
    assert {("global", "dimension_independence"), ("n=5", "povm_unambiguous_pure"),
            ("n=5", "pure_success_closed_form")} <= failed
    assert not any(scope == "n=4" for scope, _ in failed)


def _verify_with_changed_g_row(monkeypatch, case, change):
    """verify_all(3) with the kind table, and the dense families written from
    it, built from change(row) as the g row of `case`."""
    real = kinds._g_rows
    monkeypatch.setattr(kinds, "_g_rows", lambda: {**real(), case: change(real()[case])})
    _clear_operator_caches()
    try:
        return verify_all(3)
    finally:
        _clear_operator_caches()  # drop the table and families built from the changed row


def test_a_perturbed_g_row_fails_the_angle_checks(monkeypatch):
    # The primed {a,b,c} row at its |abc> entry: at n = 3, g[4, 5] of the dense family.
    report = _verify_with_changed_g_row(monkeypatch, CASE_DISTINCT_PRIMED,
                                        lambda row: (row[0] + 1e-6, *row[1:]))
    failed = _failed_checks(report)
    assert {("n=3", "principal_angle_cosines"), ("n=3", "paired_basis_structure")} <= failed


def test_a_perturbed_dense_g_row_fails_the_dense_cross_check(monkeypatch):
    # The dense permutations read no g row, and the glue check holds them against
    # each kind's matrices, which the POVM checks hold against the g rows.  Here
    # P_AB on the whole space at n = 3 reads the flat index it moves to |121>
    # 1e-6 off; n = 4 is intact.
    real = spaces.permute_registers

    def faulty(rows, perm, n):
        permuted = real(rows, perm, n)
        if n == 3 and tuple(perm) == (1, 0, 2):
            permuted = permuted.copy()
            permuted[..., 3] += 1e-6
        return permuted

    monkeypatch.setattr(spaces, "permute_registers", faulty)
    assert not _per_n_results(3)["threefold_permutation_invariance"].passed
    assert all(r.passed for r in _per_n_results(4).values())


def test_a_perturbed_permutation_block_fails_the_cross_check(monkeypatch):
    # The {a,a,b} kind's P_AB with 1e-6 added at (|aab>, |aba>): S1 = (I + P_AB)/2,
    # and so pi2 = b (S3 - S1), no longer match the blocks of the paper's rows, and
    # permute_registers no longer moves the kets as P_AB does, at every n.
    perms = kinds.kind_table()[1].perms.copy()
    perms[kinds.SWAP_AB, 0, 1] += 1e-6
    table = _with_kind(1, perms=perms)
    monkeypatch.setattr(kinds, "kind_table", lambda: table)
    _clear_operator_caches()
    try:
        for n in (3, 8):
            results = _per_n_results(n)
            for name in ("povm_positive", "mean_densities_are_states",
                         "threefold_permutation_invariance"):
                assert not results[name].passed, (n, name)
    finally:
        _clear_operator_caches()


def test_a_perturbed_kind_row_fails_the_paired_basis_check(monkeypatch):
    report = _verify_with_changed_g_row(monkeypatch, CASE_LOW, lambda row: (row[0] + 1e-9, *row[1:]))
    assert ("n=3", "paired_basis_structure") in _failed_checks(report)


def _with_kind(index, **entries):
    """The kind table with entries of kind `index` replaced."""
    table = list(kinds.kind_table())
    table[index] = dataclasses.replace(table[index], **entries)
    return tuple(table)


def _state_checks_with_changed_rho1(monkeypatch, n):
    """The per-n results at n with 1e-9 added to |abc><abc| of the {a,b,c}
    kind's rho1, so to rho1 / w on every {a,b,c} block."""
    rho1 = kinds.kind_table()[3].rho1.copy()
    rho1[0, 0] += 1e-9
    table = _with_kind(3, rho1=rho1)
    monkeypatch.setattr(kinds, "kind_table", lambda: table)
    _clear_operator_caches()
    try:
        return _per_n_results(n)
    finally:
        _clear_operator_caches()


def test_a_change_in_one_rho_entry_of_the_kind_table_fails_the_state_checks(monkeypatch):
    results = _state_checks_with_changed_rho1(monkeypatch, 3)
    for name in ("mean_densities_are_states", "density_decomposition"):
        assert not results[name].passed, name


def test_a_change_inside_one_rho1_block_fails_the_state_checks_at_n6(monkeypatch):
    # No dense copy of rho1 exists at n = 6: the kinds' blocks are all the suite reads.
    results = _state_checks_with_changed_rho1(monkeypatch, 6)
    for name in ("mean_densities_are_states", "density_decomposition"):
        assert not results[name].passed, name


@pytest.mark.parametrize("n", [3, 8])
def test_an_exchange_that_leaves_its_vt_fails_the_glue_check(monkeypatch, n):
    # spaces.permute_registers with A and B exchanged sends |111> to |nnn>, out of
    # its V_t and away from where the {a,a,a} kind's P_AB puts it.
    real = spaces.permute_registers

    def faulty(rows, perm, n):
        permuted = real(rows, perm, n)
        if tuple(perm) == (1, 0, 2):
            permuted = permuted.copy()
            permuted[..., 0] = rows[..., -1]
        return permuted

    monkeypatch.setattr(spaces, "permute_registers", faulty)
    results = _per_n_results(n)
    assert not results["threefold_permutation_invariance"].passed
    assert results["mean_densities_are_states"].passed  # the kinds' blocks are intact


def test_a_wrong_index_in_the_amplitude_gather_fails_the_pure_state_check(monkeypatch):
    real = spaces.gather_blocks

    def faulty(kets, n):
        amplitudes = real(kets, n)
        if n == 6:
            cols = spaces.label_blocks(n).groups[-1].copy()
            cols[0, 0] = cols[1, 0]  # one amplitude read from the next V_t
            amplitudes[-1] = kets[..., cols]
        return amplitudes

    monkeypatch.setattr(povm, "gather_blocks", faulty)
    results = _per_n_results(6)
    assert not results["pure_success_closed_form"].passed
    assert results["povm_unambiguous_pure"].passed  # the suite's own gather is intact


OPERATOR_CACHES = (kinds.kind_table, spaces._label_blocks)


def _clear_operator_caches():
    for cache in OPERATOR_CACHES:
        cache.cache_clear()


def test_the_per_n_suite_builds_no_dense_operator(monkeypatch):
    # At no n does _checks_for_n build an n^3 x n^3 operator or the n^6 paired
    # families: the kinds' permutation matrices stand in for the dense ones.
    for module, name in ((povm, "total_povm"), (spaces, "mean_density_operators"),
                         (jordan, "build_gh_bases"), (harness, "build_gh_bases")):
        def refused(*args, name=name):
            raise AssertionError(f"{name} called")

        monkeypatch.setattr(module, name, refused)
    for n in range(2, 9):
        assert all(r.passed for r in _per_n_results(n).values()), n
    _clear_operator_caches()
    report = harness.VerificationReport(n_max=8)
    tracemalloc.start()
    try:
        harness._checks_for_n(8, Tolerances(), report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    # With the dense operators _checks_for_n(8) peaked at 26.7 MiB; on the
    # blocks it took about 7.6 MiB, read once per kind about 6.8 MiB, with the
    # Jordan pairs read from the kind table about 4.1 MiB, with the u3
    # expansions read per kind instead of over the n^3-wide S1 rows 3.9 MiB,
    # with the three-fold symmetric basis read per V_t 3.3 MiB, and with the
    # per-kind permutation checks 3.5 MiB.
    assert peak <= 26.7 / 2 * 2**20


def test_a_kind_absent_at_n_reads_as_an_empty_group_and_the_suite_passes():
    # n = 2 has no {a,b,c} V_t: its group is empty, and the per-kind reductions
    # read it as nothing.
    assert spaces.label_blocks(2).groups[3].shape == (0, 6)
    assert verify_all(2).passed


def test_verify_all_hits_every_kept_cache_and_label_blocks_fits_its_keys():
    # Only builders whose traffic repeats are cached: in verify_all(6),
    # kind_table has 92 hits and one miss, and _label_blocks 54 hits and 10
    # misses.  verify_all(8) reads label_blocks at one key per (n, factors),
    # n = 2..8 and factors 2 and 3, so a cache that holds them all misses once per key.
    _clear_operator_caches()
    assert verify_all(8).passed
    assert spaces._label_blocks.cache_info().misses == 14
    assert kinds.kind_table.cache_info().hits >= 1


def test_a_wrong_kind_count_fails_the_dimension_check(monkeypatch):
    real = spaces.kind_counts
    monkeypatch.setattr(spaces, "kind_counts", lambda n: real(n) + [0, 1, 0, 0])
    assert {("n=2", "dimension_formulas"), ("n=3", "dimension_formulas")} <= _failed_checks(
        verify_all(3))


def test_a_wrong_s1_block_fails_the_dimension_and_span_checks(monkeypatch):
    # The {a,b,c} kind's S1 block with one of its three directions dropped.
    _, vectors = np.linalg.eigh(kinds.kind_table()[3].s1)
    table = _with_kind(3, s1=vectors[:, -2:] @ vectors[:, -2:].T)
    monkeypatch.setattr(kinds, "kind_table", lambda: table)
    _clear_operator_caches()
    try:
        results = _per_n_results(3)
    finally:
        _clear_operator_caches()
    for name in ("dimension_formulas", "complement_spans"):
        assert not results[name].passed, name


def test_a_nan_in_one_g_row_fails_the_angle_checks_without_raising(monkeypatch):
    report = _verify_with_changed_g_row(monkeypatch, CASE_DISTINCT_PRIMED,
                                        lambda row: (np.nan, *row[1:]))
    results = {r.name: r for r in report.results if r.scope == "n=3"}
    assert not results["principal_angle_cosines"].passed
    assert results["principal_angle_cosines"].deviation == np.inf
    assert not results["paired_basis_structure"].passed
    # The operator-level success values are NaN, which the probability checks refuse.
    assert {("n=3", "average_success_closed_form"), ("n=3", "pure_success_closed_form"),
            ("global", "dimension_independence")} <= _failed_checks(report)


@pytest.mark.parametrize("n", [2, 3, 6])
def test_the_per_n_suite_builds_the_s1_rows_once(monkeypatch, n):
    # The S1 rows are the kinds' s1_rows, built with the kind table: once per
    # kind, whatever n, and never as n^3-wide rows.
    calls = []
    real = kinds._kind

    def counted(labels, cases):
        calls.append(labels)
        return real(labels, cases)

    monkeypatch.setattr(kinds, "_kind", counted)
    _clear_operator_caches()
    try:
        _per_n_results(n)
    finally:
        _clear_operator_caches()
    assert calls == [labels for labels, _ in kinds._KINDS]


def test_a_changed_u3_coefficient_fails_the_expansion_check_wherever_its_kind_is(monkeypatch):
    # The {a,b,c} kind, present from n = 3 on.
    u3 = kinds.kind_table()[3].u3.copy()
    u3[0] += 1e-9
    table = _with_kind(3, u3=u3)
    monkeypatch.setattr(kinds, "kind_table", lambda: table)
    _clear_operator_caches()
    try:
        expansions = {n: _per_n_results(n)["symmetric_vector_expansions"].passed
                      for n in range(2, 9)}
    finally:
        _clear_operator_caches()
    assert expansions == {n: n == 2 for n in range(2, 9)}


def test_a_misplaced_symmetric_row_fails_the_expansion_check(monkeypatch):
    # The {a,a,b} kind's two S1 rows, |aab> and the symmetric pair {a,b} with
    # C = a, exchanged: still an orthonormal basis of the same S1 block, but no
    # longer in the order that u3 = (sqrt(1/3), sqrt(2/3)) expands.
    s1_rows = kinds.kind_table()[1].s1_rows[::-1].copy()
    table = _with_kind(1, s1_rows=s1_rows)
    monkeypatch.setattr(kinds, "kind_table", lambda: table)
    _clear_operator_caches()
    try:
        for n in (4, 8):
            failed = {name for name, r in _per_n_results(n).items() if not r.passed}
            assert failed == {"symmetric_vector_expansions"}, n
    finally:
        _clear_operator_caches()


@pytest.mark.parametrize("fault, check", [
    ("block_of", "threefold_permutation_invariance"),
    ("groups", "symmetric_bases_orthonormal"),
])
def test_a_wrong_vt_above_n5_fails_the_per_vt_symmetric_basis_check(monkeypatch, fault, check):
    # The three-fold symmetric basis is read per V_t, with no dense rows at any
    # n.  At n = 6, |112> (flat 1) is put in the V_t of |111>, or its place in
    # the {a,a,b} group is taken by |121> (flat 6).
    real = spaces.label_blocks

    def faulty(n, factors=3):
        blocks = real(n, factors)
        if (n, factors) != (6, 3):
            return blocks
        if fault == "block_of":
            block_of = blocks.block_of.copy()
            block_of[1] = 0
            return dataclasses.replace(blocks, block_of=block_of)
        groups = list(blocks.groups)
        groups[1] = np.where(groups[1] == 1, 6, groups[1])
        return dataclasses.replace(blocks, groups=tuple(groups))

    monkeypatch.setattr(spaces, "label_blocks", faulty)
    assert not _per_n_results(6)[check].passed


def test_verify_all_memory_peak_stays_small():
    _clear_operator_caches()  # count every operator verify_all builds
    tracemalloc.start()
    try:
        verify_all(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Measured 2.6 MiB (3.1 MiB with one copy of each operator per V_t, 6.4 MiB
    # with dense operators at n = 6); the full 1e-6 regime grid alone would take 24 MB.
    assert peak < 5 * 2**20


def test_a_scaled_photon_amplitude_fails_the_born_rule_check(monkeypatch):
    real = optics.Interferometer.apply

    def faulty(self, states):
        out = real(self, states)
        out[0] *= 1 + 1e-9
        return out

    monkeypatch.setattr(optics.Interferometer, "apply", faulty)
    born = next(r for r in verify_all(2).results if r.name == "network_born_rule")
    assert not born.passed


# (n, eta1, omega1, trials, seed, mean, stderr): the three verify_all settings
# (n = 4 at n_max = 4) and three of the bench `sample` round's shape.
MC_REFERENCE = [
    (2, 0.5, 0.8, 10_000, 55, "0x1.50c4ef4c6e642p-3", "0x1.ee1bbb31c484dp-11"),
    (3, 0.1, 0.8, 10_000, 55, "0x1.04eb75b2d5829p-2", "0x1.d708b2eacc074p-11"),
    (4, 0.9, 0.8, 10_000, 55, "0x1.9d934bc753ff4p-3", "0x1.15db25a69041fp-11"),
    (5, 0.9, 0.8, 10_000, 55, "0x1.bcb118e9c36c2p-3", "0x1.ccad6bc00943bp-12"),
    (2, 0.37, 0.2, 20_000, 1_234_567, "0x1.47c01295f248ap-3", "0x1.55ab7ab066696p-11"),
    (3, 0.62, 1.1, 20_000, 2**31 - 1, "0x1.d620abdf65bacp-3", "0x1.2b18e4c96b89dp-11"),
    (5, 0.05, 1.5, 20_000, 90_210, "0x1.c1431a58500b1p-6", "0x1.4ab575719c8d0p-15"),
]


@pytest.mark.parametrize("n,eta1,omega1,trials,seed,mean,stderr", MC_REFERENCE)
def test_mc_success_values_are_pinned_bit_for_bit(n, eta1, omega1, trials, seed, mean, stderr):
    est = mc_success(n, omega1, Priors.from_eta1(eta1), trials, seed)
    assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr)


def test_mc_success_keeps_one_float_per_trial():
    tracemalloc.start()
    try:
        mc_success(2, 0.8, Priors.from_eta1(0.5), trials=10**6, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20  # the complex overlaps of every trial took 38 MiB


@pytest.mark.parametrize("call", [
    lambda trials: mc_success(2, 0.6, Priors.from_eta1(0.4), trials=trials, seed=3),
    lambda trials: empirical_mean_density(2, 1, trials=trials, seed=3),
])
def test_trials_above_the_limit_are_refused_before_any_draw(monkeypatch, call):
    def no_stream(*args):
        raise AssertionError("a stream was built")

    monkeypatch.setattr(optics, "seeded_stream", no_stream)
    for trials in (harness.MAX_TRIALS + 1, 10**400):
        with pytest.raises(DomainError, match="must not exceed"):
            call(trials)


def test_whole_float_trials_count_as_their_integer():
    # A whole float passes the trials check; it raised TypeError in range().
    priors = Priors.from_eta1(0.4)
    assert mc_success(2, 0.6, priors, 200.0, 3).mean == mc_success(2, 0.6, priors, 200, 3).mean
    np.testing.assert_array_equal(empirical_mean_density(2, 1, 20.0, 3),
                                  empirical_mean_density(2, 1, 20, 3))
