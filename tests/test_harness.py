import ast
import dataclasses
import importlib
import inspect
import itertools
import json
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import qudisc
from qudisc import cli, harness, jordan, kinds, optics, povm, spaces
from qudisc.errors import DomainError
from qudisc.harness import (
    McEstimate,
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
from shared import PeakMemory, never
from test_check_list import GLOBAL_CHECKS, PER_N_CHECKS


def test_haar_state_basics():
    single = haar_state(1, seed=0)
    assert abs(abs(single[0]) - 1.0) < 1e-12
    state = haar_state(3, seed=5)
    again = haar_state(3, seed=5)
    np.testing.assert_array_equal(state, again)
    assert abs(np.linalg.norm(state) - 1.0) < 1e-12
    assert not np.allclose(state, haar_state(3, seed=6))
    np.testing.assert_array_equal(haar_state(3.0, seed=5), state)


@pytest.mark.parametrize("n", [1, 3])
def test_haar_state_is_the_first_normals_of_the_seed_and_zero_stream(n):
    # n complex normals of the (seed, 0) stream, real and imaginary parts
    # interleaved, scaled to unit norm.
    for seed in (0, 5, 2**64 - 1):
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        z = rng.standard_normal((n, 2))
        z = z[:, 0] + 1j * z[:, 1]
        expected = z / np.linalg.norm(z, axis=-1, keepdims=True)
        assert haar_state(n, seed).tobytes() == expected.tobytes()


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
        lambda: povm.pure_success_expectation(e0, e1, 0.5, priors),
        lambda: harness.overlap_identity_check(e0, e1),
        lambda: povm.pure_success_expectation(stack, stack, 0.5, priors),
        lambda: harness.overlap_identity_check(stack, stack),
        lambda: spaces.symmetric_basis_2(300),
        lambda: spaces.symmetric_projector(300),
        lambda: build_gh_bases(60),
        lambda: total_povm(2000, 0.5),
        lambda: mean_density_operators(100),
        lambda: spaces.label_blocks(2000),
        lambda: haar_state(10**13, 0),
    ]
    with PeakMemory() as peak:
        for call in calls:
            with pytest.raises(DomainError, match="over the limit"):
                call()
    assert peak.bytes < 2**20


@pytest.mark.parametrize("n", [10**9, 10**400])
def test_mc_success_runs_at_any_n_in_memory_of_its_trials_alone(n):
    # mc_success draws the squared overlap, not the states, so no n is over the
    # size limit; the exponent 1 / (n - 1) is an int quotient, 0.0 past the floats.
    priors = Priors.from_eta1(0.3)
    with PeakMemory() as peak:
        est = mc_success(n, 0.5, priors, trials=10_000, seed=7)
    assert peak.bytes < 2**20
    prefactor = povm.PURE_SCALE * povm.success_curve_x(povm.x_from_omega1(0.5), priors)
    if n == 10**400:  # every trial reads 1 - s = 1 exactly
        assert (est.mean, est.stderr) == (prefactor, 0.0)
    else:
        assert abs(est.mean - average_success(n, 0.5, priors)) < 3 * est.stderr


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


@pytest.mark.parametrize("which", [1, 2])
def test_sampling_does_not_depend_on_block_size(monkeypatch, which):
    density = empirical_mean_density(2, which, trials=500, seed=6)
    monkeypatch.setattr(harness, "HAAR_BLOCK", 7)
    np.testing.assert_allclose(
        empirical_mean_density(2, which, trials=500, seed=6), density, rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("n", [2, 3])
def test_pair_sampling_matches_per_pair_loop(n, which):
    # The documented contract: pair t takes the next 4n normals of the
    # (seed, 0) stream, real and imaginary parts interleaved.  1030 trials
    # leave a partial last block.
    trials, seed = 1030, 21
    z = np.random.Generator(np.random.Philox(key=[seed, 0])).standard_normal((trials, 2, n, 2))
    z = z[..., 0] + 1j * z[..., 1]
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    density = sum(np.outer(big, big.conj()) for big in (
        np.kron(np.kron(a, a if which == 1 else b), b) for a, b in z)) / trials
    np.testing.assert_allclose(
        empirical_mean_density(n, which, trials, seed), density, rtol=0, atol=1e-14
    )


@pytest.mark.parametrize("n", [2, 3, 7])
def test_mc_success_reads_one_uniform_per_trial(n):
    # The documented contract: trial t takes the t-th uniform r_t of the (seed, 0)
    # stream, and 1 - s = exp(log(1 - r_t) / (n - 1)) of the Beta(1, n - 1) law.
    trials, seed = 300, 21
    r = np.random.Generator(np.random.Philox(key=[seed, 0])).random(trials)
    priors = Priors.from_eta1(0.6)
    scale = average_success(n, 0.5, priors) * n / (n - 1)  # (2/3) P(x)
    values = [scale * np.exp(np.log(1.0 - r_t) * (1 / (n - 1))) for r_t in r]
    assert abs(mc_success(n, 0.5, priors, trials, seed).mean - np.mean(values)) < 1e-14


@pytest.mark.parametrize(
    "call",
    [
        lambda: simulate_clicks(Interferometer(num_modes=2), np.array([1, 0]), 100, seed=3),
        lambda: simulate_discriminator(0.6, Priors.from_eta1(0.4), shots=100, seed=3),
        lambda: mc_success(2, 0.6, Priors.from_eta1(0.4), trials=100, seed=3),
        lambda: empirical_mean_density(2, 1, trials=100, seed=3),
        lambda: haar_state(4, seed=3),
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
    ],
)
def test_sampling_calls_refuse_bad_seeds_before_any_stream(monkeypatch, call):
    monkeypatch.setattr(np.random, "Philox", never("a stream was built"))
    with pytest.raises(DomainError):
        call()

def test_overlap_identity_orthogonal_pair():
    e1, e2 = np.eye(2, dtype=complex)
    sum_g, sum_h, closed_form = overlap_identity_check(e1, e2)
    assert abs(sum_g - 0.5) < 1e-12
    assert abs(sum_h - 0.5) < 1e-12
    assert closed_form == 0.5


def test_overlap_identity_equal_pair():
    psi = np.array([1, 1j]) / np.sqrt(2)
    sum_g, sum_h, _ = overlap_identity_check(psi, psi)
    assert sum_g < 1e-12
    assert sum_h < 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_overlap_identity_random_pairs(n):
    rng = np.random.Generator(np.random.Philox(key=33))
    worst = 0.0
    for _ in range(100):
        z = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        sum_g, sum_h, closed_form = overlap_identity_check(z[0], z[1])
        worst = max(worst, abs(sum_g - closed_form), abs(sum_h - closed_form))
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
    samples = np.abs([haar_state(2, seed=t)[0] for t in range(2_000)]) ** 2
    distance = harness._ks_distance(samples, lambda u: 1.0 - (1.0 - u) ** 2)
    assert distance > harness._dkw_epsilon(len(samples))
    assert np.isnan(harness._ks_distance(np.array([0.1, np.nan, 0.5]), lambda u: u))


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


# Public functions and methods that no command calls, each with the reason it
# stays: the benchmark file that reads it.
UNCALLED = {
    "harness.haar_state": "the Haar draws, counted by bench/tracer.py",
    "jordan.build_gh_bases": "the paper's paired families, traced by bench/tracer.py",
    "povm.total_povm": "the paper's dense POVM, traced by bench/tracer.py",
    "povm.Priors.from_eta1": "bench/workloads.py builds its priors with it",
}


def _public_functions():
    """{module.name or module.Class.name: code} of every public function and method
    of the package, properties' getters included."""
    found = {}
    for info in pkgutil.iter_modules(qudisc.__path__):
        module = importlib.import_module(f"qudisc.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for attr, member in members:
                func = inspect.unwrap(getattr(member, "fget", getattr(member, "__func__", member)))
                if not attr.startswith("_") and inspect.isfunction(func):
                    found[".".join(filter(None, (info.name, name, attr)))] = func.__code__
    return found


def test_every_public_function_but_the_allowed_ones_has_a_caller_among_the_commands(tmp_path):
    amplitudes = tmp_path / "amplitudes.txt"
    amplitudes.write_text("0.6\n0 0.8\n")
    commands = [["verify", "--n-max", "4", "--json"], ["verify", "--n-max", "2"],
                ["dims", "--n", "3"], ["optimal", "--eta1", "0.3", "--overlap-sq", "0.2"],
                ["scan", "--n", "3", "--eta1", "0.3", "--steps", "5"],
                ["simulate", "--eta1", "0.3", "--x", "2", "--shots", "100"],
                ["simulate", "--eta1", "0.3", "--omega1", "0.7", "--shots", "100"],
                ["prepare", str(amplitudes)]]
    called = set()
    _clear_operator_caches()  # so that the cached builders run under the profile
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(commands)
    assert sorted(name for name, code in _public_functions().items()
                  if code not in called) == sorted(UNCALLED)


def test_each_uncalled_name_is_read_by_the_bench_file_its_reason_names():
    root = Path(__file__).resolve().parents[1]
    for name, reason in UNCALLED.items():
        files = re.findall(r"bench/\w+\.py", reason)
        assert len(files) == 1, name
        assert name in (root / files[0]).read_text(), (name, files[0])


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, qudisc.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert _fresh_python(code) == "False"


def test_the_package_cli_and_the_closed_form_commands_leave_numpy_unloaded():
    # Nor the stdlib modules only other commands need: dataclasses (and the inspect
    # it imports), traceback (exit 3) and json, which only a printed record loads.
    code = textwrap.dedent("""
        import contextlib, io, sys
        watched = ("qudisc", "numpy", "dataclasses", "inspect", "traceback", "json")
        loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] in watched)
        import qudisc
        seen = [loaded()]
        import qudisc.cli
        seen.append(loaded())
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for argv in (["--version"], ["--help"], ["dims", "--n"], ["dims", "--n", "3"]):
                codes.append(qudisc.cli.main(argv))
                seen.append(loaded())
        print(repr([codes, seen]))
    """)
    codes, seen = ast.literal_eval(_fresh_python(code))
    assert codes == [0, 0, 2, 0]
    front = ["qudisc", "qudisc.cli", "qudisc.errors"]
    assert seen[:5] == [["qudisc"], front, front, front, front]
    # dims loads scalars, and json once it prints its record
    assert "json" in seen[5]
    assert [m for m in seen[5] if m.split(".")[0] != "json"] == [*front, "qudisc.scalars"]


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


def test_verify_all_refuses_oversized_nmax_before_any_work(monkeypatch):
    ran = []  # the check runners record their calls instead of building operators
    monkeypatch.setattr(harness, "_kind_results", lambda: ran.append("kinds"))
    monkeypatch.setattr(harness, "_checks_for_n", lambda n, report, kind_results: ran.append(n))
    monkeypatch.setattr(harness, "_global_checks", lambda n_max, report: ran.append("g"))
    for too_big in (49, 10**9):
        with pytest.raises(DomainError, match="over the limit"):
            verify_all(too_big)
    assert ran == []
    verify_all(48)  # the largest admitted
    assert ran == ["kinds", *range(2, 49), "g"]


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


OPERATOR_CACHES = (kinds.kind_table, spaces._label_blocks)


def _clear_operator_caches():
    for cache in OPERATOR_CACHES:
        cache.cache_clear()


def _per_n_results(n):
    report = harness.VerificationReport()
    harness._checks_for_n(n, report, harness._kind_results())
    return {r.name: r for r in report.results}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_block_positivity_certificate_matches_dense_eigensolves(n):
    dense = 0.0
    for omega1 in np.linspace(0.0, np.pi / 2, 50):
        for op in total_povm(n, omega1):
            dense = max(dense, max(0.0, -np.linalg.eigvalsh(op).min()))
    block = _per_n_results(n)["povm_positive"]
    assert block.passed
    assert dense <= harness.OP and block.deviation <= harness.OP
    assert abs(block.deviation - dense) <= 1e-13


OMEGA1_GRID = np.linspace(0.0, np.pi / 2, 50)  # the grid of the per-n POVM checks
SYMMETRIC_ABC = np.full(6, 1.0 / np.sqrt(6))  # the symmetric vector of an {a,b,c} V_t
SYMMETRIC_DYAD = np.outer(SYMMETRIC_ABC, SYMMETRIC_ABC)


# The fault table: each row of FAULTS patches one fault into the library and
# names the checks that must fail under it.  The helpers below build the patches.


def at(scopes, *checks):
    """(scope, check) pairs: each check at each n, or at "global", of `scopes`."""
    scopes = scopes if isinstance(scopes, (tuple, range)) else (scopes,)
    return frozenset((s if s == "global" else f"n={s}", c) for s in scopes for c in checks)


def _wrapped(owner, name, change):
    """A patch that makes owner.name return change(result, *args) of the real call."""
    def patch(monkeypatch):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, **kwargs: change(real(*args, **kwargs), *args))
    return patch


def _symmetrizers(change, kind=3):
    """kinds.symmetrizers with its (S1, S2, S3) replaced by change(perms, s1, s2, s3)
    for the permutation matrices of one kind of the table only, {a,b,c} by default."""
    return _wrapped(kinds, "symmetrizers", lambda sums, perms: (
        change(perms, *sums) if perms is kinds.kind_table()[kind].perms else sums))


def _changed_kind(index, **changes):
    """A patch of the kind table: each named entry of kind `index` is change(a copy)."""
    def patch(monkeypatch):
        table = list(kinds.kind_table())
        table[index] = dataclasses.replace(table[index], **{
            name: change(getattr(table[index], name).copy()) for name, change in changes.items()})
        table = tuple(table)
        monkeypatch.setattr(kinds, "kind_table", lambda: table)
    return patch


def _plus(where, amount):
    """A change that adds amount to an array at `where`, in place."""
    def change(entry):
        entry[where] += amount
        return entry
    return change


def _changed_g_row(case, change):
    """A patch of the kind table, built again with change(row) as the g row of `case`."""
    def patch(monkeypatch):
        real = kinds._g_rows
        monkeypatch.setattr(kinds, "_g_rows", lambda: {**real(), case: change(real()[case])})
        _clear_operator_caches()
    return patch


def _at_grid_point(k, change):
    """A patch of povm.kind_povms: the {a,b,c} kind's pi1 is change(pi1) at
    OMEGA1_GRID[k] only."""
    def faulty(stacks, omega1):
        at_k = np.ravel(omega1) == OMEGA1_GRID[k]
        stacks[3][at_k, 0] = change(stacks[3][at_k, 0])
        return stacks
    return _wrapped(povm, "kind_povms", faulty)


# Every kind's pi1 times 1 + 1e-3, with pi0 as built: verify_all(2) fails
# povm_positive, povm_complete, average_success_closed_form,
# pure_success_closed_form and dimension_independence under it.
scale_pi1 = _wrapped(povm, "kind_povms", lambda stacks, omega1: [
    stack * np.array([1.0 + 1e-3, 1.0, 1.0])[:, None, None] for stack in stacks])


def _exchanged(where, value, n=None):
    """A patch of spaces.permute_registers: under the A <-> B exchange, at every n
    or at n only, the permuted rows read value(permuted, rows) at `where`."""
    def faulty(permuted, rows, perm, m):
        if tuple(perm) != (1, 0, 2) or n not in (None, m):
            return permuted
        permuted = permuted.copy()
        permuted[where] = value(permuted, rows)
        return permuted
    return _wrapped(spaces, "permute_registers", faulty)


def _pi1_scaled_at_n5(monkeypatch):
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

    def tracked(call, n_of):
        def run(*args):
            at_n5.append(n_of(args) == 5)
            try:
                return call(*args)
            finally:
                at_n5.pop()
        return run

    monkeypatch.setattr(povm, "kind_povms", faulty)
    monkeypatch.setattr(harness, "_checks_for_n", tracked(harness._checks_for_n, lambda a: a[0]))
    monkeypatch.setattr(povm, "pure_success_expectation",
                        tracked(povm.pure_success_expectation, lambda a: np.shape(a[0])[-1]))


def _wrong_vt_at_n6(groups, n):
    """At n = 6, the place of |112> (flat 1) in the {a,a,b} group is taken by |121> (flat 6)."""
    if n != 6:
        return groups
    return (groups[0], np.where(groups[1] == 1, 6, groups[1]), *groups[2:])


def _one_amplitude_from_the_next_vt(amplitudes, a, b, c):
    if np.shape(a)[-1] == 6:  # the first {a,b,c} V_t reads one amplitude of the second
        amplitudes[-1][..., 0, 0] = amplitudes[-1][..., 1, 0]
    return amplitudes


def _a_tenth_of_the_clicks_moved(counts, net, state, shots):
    counts = dict(counts)
    most, least = max(counts, key=counts.get), min(counts, key=counts.get)
    counts[most] -= shots // 10
    counts[least] += shots // 10
    return counts


def _first_component_scaled(z, *args):
    z[..., 0] *= 1.3
    return z


def fault(name, patch, fails, passes=frozenset(), deviations=None):
    """A row of FAULTS.  patch(monkeypatch) installs the fault; `fails` and
    `passes` hold the (scope, check) pairs that must fail under it and that must
    still pass, a check of None in `passes` standing for every check of its
    scope that `fails` does not name; `deviations` pins a check's deviation
    wherever it fails."""
    return pytest.param(patch, fails, passes, deviations or {}, id=name)


WRONG_VT = "test_a_wrong_vt_above_n5_fails_the_per_vt_symmetric_basis_check"
S3_CYCLE = "test_one_permutation_coefficient_of_s3_off_by_a_sixth_fails_the_povm_checks"
FAULTS = [
    # Ordered by the first check of the pinned list that each row fails.  Rows
    # moved from their own tests keep the test's name as id, with -case for a
    # case of a parametrized one; the rows for checks that no test failed
    # before are named for their check.
    fault("test_a_wrong_kind_count_fails_the_dimension_check",
          _wrapped(spaces, "kind_counts", lambda counts, n: counts + [0, 1, 0, 0]),
          at((2, 3), "dimension_formulas")),
    fault("test_a_wrong_s1_block_fails_the_dimension_and_span_checks",
          # The {a,b,c} kind's S1 block with one of its three directions dropped.
          _changed_kind(3, s1=lambda s1: (top := np.linalg.eigh(s1)[1][:, -2:]) @ top.T),
          at(3, "dimension_formulas", "complement_spans")),
    fault(f"{WRONG_VT}-groups-symmetric_bases_orthonormal",
          _wrapped(spaces, "label_blocks", _wrong_vt_at_n6),
          at(6, "symmetric_bases_orthonormal")),
    fault("symmetric_projector",  # P_sigma 1e-9 off at every entry
          _wrapped(spaces, "symmetric_projector", lambda p, n: p + 1e-9),
          at(2, "symmetric_projector")),
    fault("test_a_nan_in_one_permutation_operator_fails_the_invariance_check",
          # Python's max would drop the NaN of the third of the six.
          _exchanged(0, lambda permuted, rows: np.nan),
          at(3, "threefold_permutation_invariance"),
          deviations={"threefold_permutation_invariance": np.nan}),
    fault("test_a_perturbed_dense_g_row_fails_the_dense_cross_check",
          # The dense permutations read no g row, and the glue check holds them
          # against each kind's matrices.  Here P_AB on the whole space at n = 3
          # reads the flat index it moves to |121> 1e-6 off; n = 4 is intact.
          _exchanged((..., 3), lambda permuted, rows: permuted[..., 3] + 1e-6, n=3),
          at(3, "threefold_permutation_invariance"), passes=at(4, None)),
    # The A <-> B exchange sends |111> to |nnn>, out of its V_t and away from
    # where the {a,a,a} kind's P_AB puts it; the kinds' blocks are intact.
    *(fault(f"test_an_exchange_that_leaves_its_vt_fails_the_glue_check-{n}",
            _exchanged((..., 0), lambda permuted, rows: rows[..., -1]),
            at(n, "threefold_permutation_invariance"), passes=at(n, "mean_densities_are_states"))
      for n in (3, 8)),
    fault("test_a_perturbed_permutation_block_fails_the_cross_check",
          # The {a,a,b} kind's P_AB with 1e-6 added at (|aab>, |aba>): S1 = (I + P_AB)/2,
          # and so pi2 = b (S3 - S1), no longer match the blocks of the paper's rows,
          # and permute_registers no longer moves the kets as P_AB does, at every n.
          _changed_kind(1, perms=_plus((kinds.SWAP_AB, 0, 1), 1e-6)),
          at((3, 8), "povm_positive", "mean_densities_are_states",
             "threefold_permutation_invariance")),
    # 1e-9 added to |abc><abc| of the {a,b,c} kind's rho1; no dense copy of rho1
    # exists at n = 6, so the kinds' blocks are all the suite reads.
    *(fault(name, _changed_kind(3, rho1=_plus((0, 0), 1e-9)),
            at(n, "mean_densities_are_states", "density_decomposition"))
      for n, name in (
          (3, "test_a_change_in_one_rho_entry_of_the_kind_table_fails_the_state_checks"),
          (6, "test_a_change_inside_one_rho1_block_fails_the_state_checks_at_n6"))),
    fault("test_a_changed_u3_coefficient_fails_the_expansion_check_wherever_its_kind_is",
          # The {a,b,c} kind, present from n = 3 on.
          _changed_kind(3, u3=_plus(0, 1e-9)), at(range(3, 9), "symmetric_vector_expansions"),
          passes=at(2, "symmetric_vector_expansions")),
    fault("test_a_misplaced_symmetric_row_fails_the_expansion_check",
          # The {a,a,b} kind's two S1 rows, |aab> and the symmetric pair {a,b} with
          # C = a, exchanged: still an orthonormal basis of the same S1 block, but
          # no longer in the order that u3 = (sqrt(1/3), sqrt(2/3)) expands.
          _changed_kind(1, s1_rows=lambda rows: rows[::-1].copy()),
          at((4, 8), "symmetric_vector_expansions"), passes=at((4, 8), None)),
    fault("test_a_perturbed_g_row_fails_the_angle_checks",
          # The primed {a,b,c} row at its |abc> entry: g[4, 5] at n = 3.
          _changed_g_row(CASE_DISTINCT_PRIMED, lambda row: (row[0] + 1e-6, *row[1:])),
          at(3, "principal_angle_cosines", "paired_basis_structure")),
    fault("test_a_perturbed_kind_row_fails_the_paired_basis_check",
          _changed_g_row(CASE_LOW, lambda row: (row[0] + 1e-9, *row[1:])),
          at(3, "paired_basis_structure")),
    fault("test_a_nan_in_one_g_row_fails_the_angle_checks_without_raising",
          # The operator-level success values are NaN, which the probability checks refuse.
          _changed_g_row(CASE_DISTINCT_PRIMED, lambda row: (np.nan, *row[1:])),
          at(3, "principal_angle_cosines", "paired_basis_structure",
             "average_success_closed_form", "pure_success_closed_form")
          | at("global", "dimension_independence"),
          deviations={"principal_angle_cosines": np.inf}),
    fault("paired_basis_off_symmetric",  # the {a,b,c} g rows 1e-6 along its symmetric vector
          _changed_kind(3, g=lambda g: g + 1e-6 * SYMMETRIC_ABC),
          at(3, "paired_basis_off_symmetric")),
    fault("test_povm_positive_fails_on_a_negative_dyad_off_the_blocks",
          # S2 takes a 1e-6 dyad on the {a,b,c} kind's symmetric vector, orthogonal
          # to every g_perp and h row, so pi1 = a (S3 - S2) takes a negative one.
          _symmetrizers(lambda perms, s1, s2, s3: (s1, s2 + 1e-6 * SYMMETRIC_DYAD, s3)),
          at((3, 8), "povm_positive")),
    fault("test_povm_positive_fails_on_a_wrong_pi2_coefficient",
          # S1 moved off S3 by 1e-6 of their difference: pi2 = b (S3 - S1) is then
          # (1 + 1e-6) b P_h_perp on every {a,b,c} V_t.
          _symmetrizers(lambda perms, s1, s2, s3: (s1 - 1e-6 * (s3 - s1), s2, s3)),
          at(3, "povm_positive")),
    # The 3-cycle (1, 2, 0) enters S3 of one kind with coefficient 0, not -1/6.
    *(fault(f"{S3_CYCLE}-{kind}",
            _symmetrizers(lambda perms, s1, s2, s3: (s1, s2, s3 + perms[1] / 6), kind),
            at((3, 8), "povm_positive"))
      for kind in range(4)),
    fault("test_povm_positive_fails_on_a_perturbed_h_perp_row",
          # The primed {a,b,c} row at its |acb> entry: h_perp[4, 7] at n = 3.
          _changed_kind(3, h_perp=_plus((1, 1), 1e-6)), at(3, "povm_positive")),
    fault("test_a_changed_p_h_perp_of_one_kind_fails_positivity_and_completeness_at_n6",
          # No dense copy exists at n = 6; pi0 reads the h_perp rows, not P_h_perp.
          _changed_kind(1, p_h_perp=_plus((0, 0), -1e-9)), at(6, "povm_positive", "povm_complete")),
    fault("test_povm_positive_fails_on_a_dense_fault_at_one_cross_check_point",
          # The permutation sums stand in for the dense operators: at every grid
          # angle each kind's a (S3 - S2), b (S3 - S1) and their complement are held
          # against its blocks.  Here the {a,b,c} kind's pi1 takes a positive 1e-6
          # dyad at n = 5 and OMEGA1_GRID[14] only: still positive, so only that
          # cross-check sees it.
          _at_grid_point(14, lambda pi1: pi1 + 1e-6 * SYMMETRIC_DYAD), at(5, "povm_positive")),
    fault("test_povm_positive_fails_on_a_block_fault_between_cross_check_points",
          _at_grid_point(10, lambda pi1: pi1 - 1e-6 * SYMMETRIC_DYAD), at(3, "povm_positive")),
    fault("test_a_nan_in_pi1_at_one_grid_point_fails_the_grid_checks",
          # The {a,b,c} kind's pi1 is NaN at OMEGA1_GRID[10] and finite elsewhere.
          _at_grid_point(10, lambda pi1: np.full_like(pi1, np.nan)),
          at((3, 6), "povm_positive", "povm_complete", "povm_unambiguous_mixed"),
          deviations=dict.fromkeys(("povm_positive", "povm_complete", "povm_unambiguous_mixed"),
                                   np.nan)),
    fault("test_an_operating_point_off_the_optimum_fails_the_averaged_trace_check",
          # The trace at omega1* must equal 2(n-1)/(3n) P(x*); the grid points alone
          # would not see an omega1* that misses the optimum.
          _wrapped(povm, "optimal_subspace", lambda best, priors: dataclasses.replace(
              best, omega1_star=best.omega1_star + 1e-3)),
          at(3, "average_success_closed_form")),
    fault("test_pi1_scaled_at_n5_fails_the_pure_state_checks", _pi1_scaled_at_n5,
          at(5, "povm_unambiguous_pure", "pure_success_closed_form")
          | at("global", "dimension_independence"), passes=at(4, None)),
    fault("test_a_wrong_index_in_the_amplitude_gather_fails_the_pure_state_check",
          # One amplitude read from the next V_t, by the library's gather only.
          _wrapped(povm, "product_blocks", _one_amplitude_from_the_next_vt),
          at(6, "pure_success_closed_form"), passes=at(6, "povm_unambiguous_pure")),
    fault("reciprocal_overlap_identity",  # the g-side sums 1e-6 high
          _wrapped(harness, "overlap_identity_check", lambda sums, *args: (
              sums[0] * (1 + 1e-6), *sums[1:])),
          at(2, "reciprocal_overlap_identity")),
    fault("regime_optima_vs_scan",  # every optimum 1e-5 high: the boundaries still agree
          _wrapped(povm, "optimal_subspace", lambda best, priors: dataclasses.replace(
              best, value=best.value + 1e-5)),
          at("global", "regime_optima_vs_scan"), passes=at("global", "regime_continuity")),
    # 1e-9 high at eta1 = 1/5 (4/5) exactly, within the scan's 1e-6.
    *(fault(name, _wrapped(povm, "optimal_subspace", lambda best, priors, eta1=eta1: (
              dataclasses.replace(best, value=best.value + 1e-9) if priors.eta1 == eta1 else best)),
            at("global", "regime_continuity"), passes=at("global", "regime_optima_vs_scan"))
      for name, eta1 in (("regime_continuity", 0.2), ("regime_continuity-0.8", 0.8))),
    fault("dimension_independence-optimal_pure",  # the pure-state optimum 1e-6 high
          _wrapped(povm, "optimal_pure", lambda best, *args: dataclasses.replace(
              best, value=best.value + 1e-6)),
          at("global", "dimension_independence")),
    fault("test_a_scaled_photon_amplitude_fails_the_born_rule_check",
          _wrapped(optics.Interferometer, "apply", lambda out, *args: _plus(0, 1e-9 * out[0])(out)),
          at("global", "network_born_rule")),
    fault("network_born_rule-block_povm",
          # b E_h times 1 + 1e-3, with pi0 still its complement.
          _wrapped(povm, "block_povm", lambda ops, omega1: ops + np.array(
              [0.0, 1e-3, -1e-3])[:, None, None] * ops[1]),
          at("global", "network_born_rule")),
    fault("network_born_rule-port_state",
          # g injected with its h amplitude's sign flipped.
          lambda monkeypatch: monkeypatch.setitem(optics._PORT_STATES, "g",
                                                  (np.sqrt(3.0) / 2.0, 0.5, 0.0)),
          at("global", "network_born_rule")),
    fault("mesh_synthesis_roundtrip",  # every beam-splitter angle of a synthesized mesh 1e-9 off
          _wrapped(optics, "reck_decompose", lambda net, target: optics.Interferometer(
              net.num_modes, net.modes, net.angles + 1e-9, net.phases)),
          at("global", "mesh_synthesis_roundtrip")),
    fault("mesh_synthesis_roundtrip-layer_count",  # one identity layer past N(N-1)/2
          _wrapped(optics, "reck_decompose", lambda net, target: optics.Interferometer(
              net.num_modes, [*net.modes, (0, 1)], [*net.angles, (np.pi / 2, 0.0, np.pi)],
              net.phases)),
          at("global", "mesh_synthesis_roundtrip"), deviations={"mesh_synthesis_roundtrip": 1.0}),
    fault("sampled_click_convergence",  # a tenth of the shots moved between two ports
          _wrapped(optics, "simulate_clicks", _a_tenth_of_the_clicks_moved),
          at("global", "sampled_click_convergence")),
    fault("mc_success_consistency",  # the analytic average 5% high
          _wrapped(povm, "average_success", lambda value, *args: 1.05 * value),
          at("global", "mc_success_consistency")),
    fault("empirical_mean_density",  # the sampled average 0.02 off at one entry
          _wrapped(harness, "empirical_mean_density", lambda rho, *args: _plus((0, 0), 0.02)(rho)),
          at("global", "empirical_mean_density")),
    fault("empirical_mean_density-haar_sampler",
          # Each state's first component 1.3 times its complex normal.  mc_success
          # draws the overlap's law, not states, so the two checks that read states
          # must fail.  A Monte Carlo of s over sampled states would not catch a
          # sampler of real Gaussians: real unit vectors also have E s = 1/n.
          _wrapped(harness, "_complex_normal", _first_component_scaled),
          at("global", "empirical_mean_density", "haar_first_component_law"),
          at("global", None)),
    fault("test_a_nan_ks_statistic_fails_closed",
          lambda monkeypatch: monkeypatch.setattr(harness, "_ks_distance", lambda *args: np.nan),
          at("global", "haar_first_component_law")),
]


def run_fault(monkeypatch, patch, fails, passes, deviations):
    """Run the per-n suite at each n that fails or passes name, on kind results
    built under the fault, and the global checks, with n_max the largest n named
    (2 if none), when they name "global"."""
    kinds.kind_table()  # built before a patched symmetrizers could read it
    try:
        patch(monkeypatch)
        scopes = {scope for scope, _ in fails | passes}
        ns = sorted(int(scope[2:]) for scope in scopes - {"global"})
        report, kind_results = harness.VerificationReport(), harness._kind_results()
        for n in ns:
            harness._checks_for_n(n, report, kind_results)
        if "global" in scopes:
            harness._global_checks(max(ns, default=2), report)
    finally:
        monkeypatch.undo()
        _clear_operator_caches()  # drop what was built from the fault
    failed = {(r.scope, r.name): r for r in report.results if not r.passed}
    assert fails <= failed.keys(), sorted(fails - failed.keys())
    kept = {(r.scope, r.name) for r in report.results} - fails
    must_pass = {key for key in kept if key in passes or (key[0], None) in passes}
    assert not must_pass & failed.keys(), sorted(must_pass & failed.keys())
    for (_, name), result in failed.items():
        if name in deviations:
            np.testing.assert_equal(result.deviation, deviations[name])


@pytest.mark.parametrize("patch, fails, passes, deviations", FAULTS)
def test_a_fault_fails_the_checks_it_names(monkeypatch, patch, fails, passes, deviations):
    run_fault(monkeypatch, patch, fails, passes, deviations)


def test_every_pinned_check_has_a_fault_that_fails_it():
    named = {check for row in FAULTS for _, check in row.values[1]}
    assert [name for name, *_ in PER_N_CHECKS + GLOBAL_CHECKS if name not in named] == []


def test_verify_all_calls_neither_total_povm_nor_build_gh_bases(monkeypatch):
    # The per-n suite reads the kinds' blocks, and network_born_rule holds the
    # six-port click probabilities against block_povm in one kind's frame.
    monkeypatch.setattr(povm, "total_povm", never("total_povm called"))
    monkeypatch.setattr(jordan, "build_gh_bases", never("build_gh_bases called"))
    assert verify_all(6).passed


def test_verify_all_scatters_the_povm_only_at_the_cross_check_and_pure_state_angles(monkeypatch):
    calls = []
    real = povm.kind_povms

    def recorded(omega1):
        calls.append(tuple(np.ravel(omega1)))
        return real(omega1)

    monkeypatch.setattr(povm, "kind_povms", recorded)
    assert verify_all(6).passed
    # The kind results read the 50-point grid once for every n, where the
    # permutation sums are cross-checked too.  Besides it the kind blocks are read
    # at the averaged-trace check's grid[::7] and omega1*, the pure-state checks'
    # 0.7 and dimension_independence's 0.8 and omega1*.
    assert calls.count(tuple(OMEGA1_GRID)) == 1
    averaged = {angles for angles in calls if angles[:-1] == tuple(OMEGA1_GRID[::7])}
    assert len(averaged) == 1
    best = (povm.optimal_subspace(Priors(0.3)).omega1_star,)
    assert set(calls) == {tuple(OMEGA1_GRID), *averaged, (0.7,), (0.8,), best}


def test_verify_all_takes_the_symmetrizers_and_rank_svds_once_per_kind(monkeypatch):
    # Both are n-free, so one verify_all run takes them once per kind, not once
    # per kind and n.  The table is built first: its rho blocks are symmetrizers too.
    table, summed, ranked = kinds.kind_table(), [], []
    real_sums, real_ranks = kinds.symmetrizers, spaces.kind_ranks
    monkeypatch.setattr(kinds, "symmetrizers",
                        lambda perms: summed.append(perms) or real_sums(perms))
    monkeypatch.setattr(spaces, "kind_ranks", lambda kind: ranked.append(kind) or real_ranks(kind))
    assert verify_all(6).passed
    for calls in (summed, [kind.perms for kind in ranked]):
        assert len(calls) == len(table) and all(a is k.perms for a, k in zip(calls, table))


def test_the_kind_results_refuse_in_place_writes():
    for result in harness._kind_results():
        arrays = [*result.sums, *(v for v in vars(result).values() if isinstance(v, np.ndarray))]
        assert len(arrays) == 8
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


def test_verify_all_equals_per_n_runs_on_fresh_kind_results():
    # One build of the kind results serves every n: each n's checks on results
    # built afresh for it give the same rows, bit for bit.
    def rows(report):
        return [(r.name, r.scope, r.passed, r.deviation.hex(), r.tolerance.hex(), r.claim)
                for r in report.results]

    fresh = harness.VerificationReport()
    for n in range(2, 9):
        harness._checks_for_n(n, fresh, harness._kind_results())
    harness._global_checks(8, fresh)
    assert rows(verify_all(8)) == rows(fresh)


def test_verify_all_fails_without_raising_under_a_scaled_pi1(monkeypatch):
    scale_pi1(monkeypatch)
    report = verify_all(2)
    assert not report.passed
    assert [r.name for r in report.results if not r.passed] == [
        "povm_positive", "povm_complete", "average_success_closed_form",
        "pure_success_closed_form", "dimension_independence"]
    assert "status: FAIL" in report.to_text()


def test_the_per_n_suite_builds_no_dense_operator(monkeypatch):
    # At no n does _checks_for_n build an n^3 x n^3 operator or the n^6 paired
    # families: the kinds' permutation matrices stand in for the dense ones.
    for module, name in ((povm, "total_povm"), (spaces, "mean_density_operators"),
                         (jordan, "build_gh_bases")):
        monkeypatch.setattr(module, name, never(f"{name} called"))
    for n in range(2, 9):
        assert all(r.passed for r in _per_n_results(n).values()), n
    _clear_operator_caches()
    report = harness.VerificationReport()
    with PeakMemory() as peak:
        harness._checks_for_n(8, report, harness._kind_results())
    assert report.passed
    # With the dense operators _checks_for_n(8) peaked at 26.7 MiB; on the
    # blocks it took about 7.6 MiB, read once per kind about 6.8 MiB, with the
    # Jordan pairs read from the kind table about 4.1 MiB, with the u3
    # expansions read per kind instead of over the n^3-wide S1 rows 3.9 MiB,
    # with the three-fold symmetric basis read per V_t 3.3 MiB, and with the
    # per-kind permutation checks 3.5 MiB.
    assert peak.bytes <= 26.7 / 2 * 2**20


def test_the_per_n_suite_holds_no_product_ket():
    # The seeded pairs enter the pure-state checks as their amplitudes on the
    # V_t, one product at a time: _checks_for_n(16) peaks at about 2.6 times the
    # pairs' 16 SEEDED_PAIRS n^3 bytes of kets (4.6 times with the n^3 kets
    # built, then gathered onto the V_t).
    _clear_operator_caches()
    report = harness.VerificationReport()
    with PeakMemory() as peak:
        harness._checks_for_n(16, report, harness._kind_results())
    assert report.passed
    assert peak.bytes <= 4 * 16 * harness.SEEDED_PAIRS * 16**3


def test_a_kind_absent_at_n_reads_as_an_empty_group_and_the_suite_passes():
    # n = 2 has no {a,b,c} V_t: its group is empty, and the per-kind reductions
    # read it as nothing.
    assert spaces.label_blocks(2)[3].shape == (0, 6)
    assert verify_all(2).passed


def test_verify_all_hits_every_kept_cache_and_label_blocks_fits_its_keys():
    # Only builders whose traffic repeats are cached: in verify_all(6),
    # kind_table has 87 hits and one miss, and _label_blocks 50 hits and 5
    # misses.  verify_all(8) reads label_blocks at one key per n, n = 2..8, so
    # a cache that holds them all misses once per key.
    _clear_operator_caches()
    assert verify_all(8).passed
    assert spaces._label_blocks.cache_info().misses == 7
    assert kinds.kind_table.cache_info().hits >= 1


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


def test_verify_all_memory_peak_stays_small():
    _clear_operator_caches()  # count every operator verify_all builds
    with PeakMemory() as peak:
        verify_all(6)
    # Measured 2.6 MiB (3.1 MiB with one copy of each operator per V_t, 6.4 MiB
    # with dense operators at n = 6); the full 1e-6 regime grid alone would take 24 MB.
    assert peak.bytes < 5 * 2**20


# (n, eta1, omega1, trials, seed, mean, stderr): the three verify_all settings
# (n = 4 at n_max = 4) and three of the bench `sample` round's shape.
MC_REFERENCE = [
    (2, 0.5, 0.8, 10_000, 55, "0x1.4cf1e044ce2b2p-3", "0x1.eccd0b80d52eep-11"),
    (3, 0.1, 0.8, 10_000, 55, "0x1.03fbd67e2dd0fp-2", "0x1.d61f47d196b3ap-11"),
    (4, 0.9, 0.8, 10_000, 55, "0x1.9ff957f8a39c2p-3", "0x1.1292765d77b8cp-11"),
    (5, 0.9, 0.8, 10_000, 55, "0x1.bbd3cf5056906p-3", "0x1.cf3c721377365p-12"),
    (2, 0.37, 0.2, 20_000, 1_234_567, "0x1.464645b583ba5p-3", "0x1.5713bfd8b7c98p-11"),
    (3, 0.62, 1.1, 20_000, 2**31 - 1, "0x1.d62caa3e6f2b2p-3", "0x1.2ab00f740ed50p-11"),
    (5, 0.05, 1.5, 20_000, 90_210, "0x1.c15bd5bffc3efp-6", "0x1.4a106c8c63a98p-15"),
]


@pytest.mark.parametrize("n,eta1,omega1,trials,seed,mean,stderr", MC_REFERENCE)
def test_mc_success_values_are_pinned_bit_for_bit(n, eta1, omega1, trials, seed, mean, stderr):
    est = mc_success(n, omega1, Priors.from_eta1(eta1), trials, seed)
    assert (est.mean.hex(), est.stderr.hex()) == (mean, stderr)


def test_mc_success_keeps_one_float_per_trial():
    with PeakMemory() as peak:
        mc_success(2, 0.8, Priors.from_eta1(0.5), trials=10**6, seed=3)
    # One float per trial and one more for the standard error, 15.3 MiB; the
    # complex overlaps of every trial took 38 MiB.
    assert peak.bytes <= 2 * 8 * 10**6 + 2**16


@pytest.mark.parametrize("call", [
    lambda trials: mc_success(2, 0.6, Priors.from_eta1(0.4), trials=trials, seed=3),
    lambda trials: empirical_mean_density(2, 1, trials=trials, seed=3),
])
def test_trials_above_the_limit_are_refused_before_any_draw(monkeypatch, call):
    monkeypatch.setattr(optics, "seeded_stream", never("a stream was built"))
    for trials in (harness.MAX_TRIALS + 1, 10**400):
        with pytest.raises(DomainError, match="must not exceed"):
            call(trials)


def test_whole_float_trials_count_as_their_integer():
    # A whole float passes the trials check, at its lowest value too; it raised
    # TypeError in range().
    priors = Priors.from_eta1(0.4)
    assert mc_success(2, 0.6, priors, 100.0, 3).mean == mc_success(2, 0.6, priors, 100, 3).mean
    np.testing.assert_array_equal(empirical_mean_density(2, 1, 20.0, 3),
                                  empirical_mean_density(2, 1, 20, 3))
