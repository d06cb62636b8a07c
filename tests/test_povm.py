import dataclasses

import numpy as np
import pytest

from qudisc import harness, kinds, optics, spaces, povm as povm_module
from qudisc.errors import DomainError
from qudisc.jordan import build_gh_bases, jordan_angles
from qudisc.kinds import reciprocal_rows
from qudisc.povm import (
    Priors,
    average_success,
    average_success_trace,
    block_povm,
    clamp_probability,
    omega1_from_x,
    omega2_constraint,
    optimal_average,
    optimal_pure,
    optimal_subspace,
    pure_success,
    pure_success_expectation,
    success_curve_x,
    total_povm,
    x_from_omega1,
)
from qudisc.spaces import label_blocks, mean_density_operators, product_blocks
from references import diagonal_blocks
from shared import PeakMemory, state_stacks
from test_boundaries import PRIORS_TAKERS


def haar_state(n, rng):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def scan_maximum(priors, step=1e-6):
    """Brute-force grid scan of the per-subspace success curve."""
    xs = np.arange(1.0, 4.0 + step, step)
    xs = xs[xs <= 4.0]
    values = 1.0 - priors.eta1 * xs / 4.0 - priors.eta2 / xs
    top = int(np.argmax(values))
    return values[top], xs[top]


def test_priors_validation():
    Priors.from_eta1(0.3).require_nondegenerate()
    with pytest.raises(DomainError, match="priors 0 and 1"):
        Priors.from_eta1(1.0).require_nondegenerate()


@pytest.mark.parametrize("eta1", [0.3, np.float64(0.3), 1], ids=["float", "float64", "int"])
def test_priors_hold_eta1_as_a_float_and_derive_eta2(eta1):
    priors = Priors(eta1)
    assert type(priors.eta1) is float and priors.eta1 == eta1
    assert type(priors.eta2) is float and priors.eta2 == 1.0 - float(eta1)
    assert Priors.from_eta1(eta1) == priors
    assert [f.name for f in dataclasses.fields(Priors)] == ["eta1"]


def test_clamp_probability():
    assert clamp_probability(-1e-13) == 0.0
    assert clamp_probability(1.0 + 1e-13) == 1.0


def test_clamp_probability_arrays():
    values = clamp_probability(np.array([-1e-13, 0.5, 1.0 + 1e-13]))
    assert np.array_equal(values, [0.0, 0.5, 1.0])


@pytest.mark.parametrize("n", [2, 3])
def test_reciprocal_pair_properties(n):
    g_rows, h_rows = build_gh_bases(n)
    for g, h, g_perp, h_perp in zip(g_rows, h_rows, *reciprocal_rows(g_rows, h_rows)):
        assert abs(np.vdot(g_perp, h)) < 1e-12
        assert abs(np.vdot(h_perp, g)) < 1e-12
        assert abs(np.linalg.norm(g_perp) - 1.0) < 1e-12
        assert abs(np.linalg.norm(h_perp) - 1.0) < 1e-12
        assert abs(abs(np.vdot(g, g_perp)) ** 2 - 0.75) < 1e-12


# g and h in the orthonormal (g_perp, h) frame of one Jordan block.
G_FRAME = np.array([np.sqrt(3.0) / 2.0, -0.5])
H_FRAME = np.array([0.0, 1.0])


def test_block_povm_endpoints():
    g_perp, h_perp = reciprocal_rows(G_FRAME, H_FRAME)
    np.testing.assert_allclose(g_perp, [1.0, 0.0], atol=1e-15)

    pi1, pi2, _ = block_povm(0.0)
    assert np.abs(pi1).max() < 1e-15
    np.testing.assert_allclose(pi2, np.outer(h_perp, h_perp), atol=1e-12)

    pi1, pi2, _ = block_povm(np.pi / 2)
    assert np.abs(pi2).max() < 1e-15
    np.testing.assert_allclose(pi1, np.outer(g_perp, g_perp), atol=1e-12)


def test_block_povm_matrix_elements_x2():
    pi1, pi2, _ = block_povm(omega1_from_x(2.0))  # cos^2 = 1/3
    assert abs(G_FRAME @ pi1 @ G_FRAME - 0.5) < 1e-12
    assert abs(H_FRAME @ pi2 @ H_FRAME - 0.5) < 1e-12
    # Exclusion is exact by construction.
    assert np.linalg.norm(pi1 @ H_FRAME) < 1e-12
    assert np.linalg.norm(pi2 @ G_FRAME) < 1e-12


def test_block_povm_valid_on_grid():
    g, h = build_gh_bases(3)
    frame = np.vstack([reciprocal_rows(g, h)[0][4], h[4]])  # one block of total_povm(3, .)
    for omega1 in np.linspace(0.0, np.pi / 2, 25):
        blocks = block_povm(omega1)
        np.testing.assert_allclose(blocks.sum(axis=0), np.eye(2), atol=1e-10)
        assert np.linalg.eigvalsh(blocks).min() > -1e-10
        lifted = [frame.conj() @ op @ frame.T for op in total_povm(3, omega1)]
        np.testing.assert_allclose(lifted, blocks, atol=1e-12)


def test_total_povm_results_are_independent_copies():
    first = total_povm(3, 0.7)
    expected = first.copy()
    first[:] = 0.0
    np.testing.assert_array_equal(total_povm(3, 0.7), expected)


def test_total_povm_endpoint():
    assert np.abs(total_povm(2, np.pi / 2)[1]).max() < 1e-12


def test_total_povm_annihilates_wrong_pure_inputs():
    rng = np.random.Generator(np.random.Philox(key=7))
    for n in (2, 3):
        pi1, pi2, _ = total_povm(n, 0.7)
        for _ in range(20):
            psi1, psi2 = haar_state(n, rng), haar_state(n, rng)
            big1 = np.kron(np.kron(psi1, psi1), psi2)
            big2 = np.kron(np.kron(psi1, psi2), psi2)
            assert np.linalg.norm(pi1 @ big2) < 1e-10
            assert np.linalg.norm(pi2 @ big1) < 1e-10


def test_success_curve_values():
    half = Priors.from_eta1(0.5)
    assert abs(success_curve_x(4.0, half) - 0.375) < 1e-15
    assert abs(success_curve_x(1.0, half) - 0.375) < 1e-15
    assert abs(success_curve_x(2.0, half) - 0.5) < 1e-15


def test_success_curve_substitution_identity():
    priors = Priors.from_eta1(0.37)
    for omega1 in np.linspace(0.0, np.pi / 2, 11):
        x = x_from_omega1(omega1)
        direct = (
            0.75 * priors.eta1 * np.sin(omega1) ** 2
            + 3.0 * priors.eta2 * np.cos(omega1) ** 2 / (1 + 3 * np.cos(omega1) ** 2)
        )
        assert abs(success_curve_x(x, priors) - direct) < 1e-12


def test_optimal_subspace_examples():
    low = optimal_subspace(Priors.from_eta1(0.1))
    assert low.regime == "low"
    assert abs(low.value - 0.675) < 1e-12
    assert low.x_star == 4.0

    mid = optimal_subspace(Priors.from_eta1(0.5))
    assert mid.regime == "middle"
    assert abs(mid.value - 0.5) < 1e-12
    assert abs(mid.x_star - 2.0) < 1e-12

    high = optimal_subspace(Priors.from_eta1(0.9))
    assert high.regime == "high"
    assert abs(high.value - 0.675) < 1e-12
    assert high.x_star == 1.0

    with pytest.raises(DomainError, match="priors 0 and 1"):
        optimal_subspace(Priors.from_eta1(0.0))


def test_optimal_subspace_boundary_continuity():
    for eta1 in (0.2, 0.8):
        low_or_high = 0.75 * max(eta1, 1 - eta1)
        middle = 1.0 - np.sqrt(eta1 * (1 - eta1))
        assert abs(low_or_high - middle) < 1e-12
    # Regime assignment at the boundaries is "middle", and one double past them not.
    assert optimal_subspace(Priors.from_eta1(0.2)).regime == "middle"
    assert optimal_subspace(Priors.from_eta1(0.8)).regime == "middle"
    assert optimal_subspace(Priors.from_eta1(np.nextafter(0.2, 0.0))).regime == "low"
    assert optimal_subspace(Priors.from_eta1(np.nextafter(0.8, 1.0))).regime == "high"
    assert abs(optimal_subspace(Priors.from_eta1(0.2)).value - 0.6) < 1e-12


def test_optimal_subspace_against_grid_scan():
    # The windowed scan finds the full 1e-6 grid maximum and its index exactly
    # (test_windowed_regime_scan_is_the_full_grid_maximum).
    xs = np.arange(1.0, 4.0 + 1e-6, 1e-6)
    xs = xs[xs <= 4.0]
    for eta1 in np.linspace(0.01, 0.99, 99):
        priors = Priors.from_eta1(float(eta1))
        best, top = harness._grid_max(priors)
        x_best = xs[top]
        result = optimal_subspace(priors)
        assert abs(result.value - best) < 1e-6
        assert abs(result.x_star - x_best) < 2e-6


def test_middle_value_is_not_the_doubled_root_form():
    # The interior optimum is 1 - sqrt(eta1 eta2); the variant with a factor
    # of 2 in front of the square root does not match a brute-force scan.
    priors = Priors.from_eta1(0.5)
    best, _ = scan_maximum(priors)
    alt = 1.0 - 2.0 * np.sqrt(priors.eta1 * priors.eta2)
    assert abs(alt - best) > 0.4
    assert abs((1.0 - np.sqrt(priors.eta1 * priors.eta2)) - best) < 1e-6


def test_average_success_examples():
    priors = Priors.from_eta1(0.5)
    omega1 = omega1_from_x(2.0)
    assert abs(average_success(2, omega1, priors) - 1 / 6) < 1e-12
    assert average_success(3, 0.0, Priors.from_eta1(1.0)) == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_average_success_matches_trace(n):
    priors = Priors.from_eta1(0.3)
    grid = np.linspace(0.0, np.pi / 2, 9)
    for omega1 in grid:
        closed = average_success(n, omega1, priors)
        traced = average_success_trace(n, omega1, priors)
        assert abs(closed - traced) < 1e-10
    # An array of angles gives one value per angle, as the angles one at a time.
    stacked = average_success_trace(n, grid, priors)
    assert stacked.shape == grid.shape
    np.testing.assert_allclose(stacked, [average_success_trace(n, w, priors) for w in grid],
                               rtol=0, atol=1e-15)


def test_optimal_average_examples():
    assert abs(optimal_average(2, Priors.from_eta1(0.5)).value - 1 / 6) < 1e-12
    assert abs(optimal_average(3, Priors.from_eta1(0.5)).value - 2 / 9) < 1e-12
    low = optimal_average(2, Priors.from_eta1(0.1))
    assert abs(low.value - 0.225) < 1e-12
    assert low.regime == "low"


def test_optimal_average_against_grid_scan():
    omegas = np.linspace(0.0, np.pi / 2, 200001)
    s2, c2 = np.sin(omegas) ** 2, np.cos(omegas) ** 2
    for n in (2, 3):
        for eta1 in np.linspace(0.05, 0.95, 19):
            priors = Priors.from_eta1(float(eta1))
            values = (n - 1) * priors.eta1 * s2 / (2 * n) + (
                2 * (n - 1) * priors.eta2 * c2 / (n * (1 + 3 * c2))
            )
            assert abs(optimal_average(n, priors).value - values.max()) < 1e-6


def test_pure_success_examples():
    priors = Priors.from_eta1(0.5)
    omega1 = omega1_from_x(2.0)
    e1, e2 = np.eye(2, dtype=complex)
    assert abs(pure_success(e1, e2, omega1, priors) - 1 / 3) < 1e-12
    psi = np.array([1, 1j]) / np.sqrt(2)
    assert pure_success(psi, psi, 0.9, priors) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_pure_success_matches_expectation(n):
    rng = np.random.Generator(np.random.Philox(key=21))
    priors = Priors.from_eta1(0.35)
    for omega1 in (0.2, omega1_from_x(2.0), 1.4):
        for _ in range(10):
            psi1, psi2 = haar_state(n, rng), haar_state(n, rng)
            closed = pure_success(psi1, psi2, omega1, priors)
            operator = pure_success_expectation(psi1, psi2, omega1, priors)
            assert abs(closed - operator) < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_cross_checks_match_dense_total_povm(n):
    """Both cross-checks equal their evaluation on dense total_povm operators."""
    rng = np.random.Generator(np.random.Philox(key=[37, n]))
    priors = Priors.from_eta1(0.4)
    rho1, rho2 = mean_density_operators(n)
    for omega1 in (0.0, 0.3, omega1_from_x(2.0), 1.1, np.pi / 2):
        pi1, pi2, _ = total_povm(n, omega1)
        dense = clamp_probability(
            priors.eta1 * np.trace(pi1 @ rho1).real
            + priors.eta2 * np.trace(pi2 @ rho2).real
        )
        assert abs(average_success_trace(n, omega1, priors) - dense) < 1e-14
        for _ in range(5):
            psi1, psi2 = haar_state(n, rng), haar_state(n, rng)
            big1, big2 = (np.kron(np.kron(psi1, middle), psi2) for middle in (psi1, psi2))
            dense = clamp_probability(
                priors.eta1 * np.vdot(big1, pi1 @ big1).real
                + priors.eta2 * np.vdot(big2, pi2 @ big2).real
            )
            assert abs(pure_success_expectation(psi1, psi2, omega1, priors) - dense) < 1e-14

@pytest.mark.parametrize("n", [2, 3, 5])
def test_total_povm_is_one_real_writable_outcome_stack(n):
    # Nothing is cached: each call sums the permutations afresh into its own array.
    ops = total_povm(n, 0.6)
    assert ops.shape == (3, n**3, n**3)
    assert ops.dtype == np.float64 and ops.flags.writeable


def test_total_povm_peaks_inside_its_build_estimate():
    # check_build_bytes is told 16 n^6 floats; the permutation sums and the stack
    # peak at about 10 n^6.
    with PeakMemory() as peak:
        total_povm(5, 0.6)
    assert peak.bytes <= 8 * 16 * 5**6


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_total_povm_pi0_is_the_identity_minus_pi1_and_pi2(n):
    for omega1 in np.linspace(0.0, np.pi / 2, 50):
        pi1, pi2, pi0 = total_povm(n, omega1)
        assert np.array_equal(pi0, np.eye(n**3) - pi1 - pi2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_total_povm_blocks_are_the_dense_diagonal_blocks(n):
    # Each kind's block is, on every V_t of that kind, bit for bit a P_g_perp +
    # b P_h_perp with the projectors of the dense g_perp and h_perp families;
    # total_povm, built from the register permutations, is within 1e-15 of it and
    # exactly 0 off the V_t blocks.
    grid = np.linspace(0.0, np.pi / 2, 50)
    povms = povm_module.kind_povms(grid)
    groups = label_blocks(n)
    assert [p.shape for p in povms] == [(50, 3, cols.shape[1], cols.shape[1]) for cols in groups]
    proj_g, proj_h = (rows.T @ rows for rows in reciprocal_rows(*build_gh_bases(n)))
    for i in range(0, 50, 3):
        a, b = povm_module.detection_weights(grid[i])
        reference = (a * proj_g, b * proj_h, np.eye(n**3) - a * proj_g - b * proj_h)
        for k, (op, ref) in enumerate(zip(total_povm(n, grid[i]), reference)):
            blocks, off = diagonal_blocks(ref, n)
            assert off == 0.0
            for stack, ops in zip(blocks, povms):
                assert all(np.array_equal(block, ops[i, k]) for block in stack)
            assert np.abs(op - ref).max() <= 1e-15 and diagonal_blocks(op, n)[1] == 0.0


def test_total_povm_blocks_validate_angles_and_keep_their_cache_read_only():
    single = povm_module.kind_povms(0.6)
    assert [s.shape[0] for s in single] == [1, 1, 1, 1]
    table = kinds.kind_table()  # the blocks' one source, built once
    assert kinds.kind_table() is table
    assert not any(k.p_g_perp.flags.writeable or k.p_h_perp.flags.writeable for k in table)


EMPTY_STATES = np.empty((0, 3), dtype=complex)


@pytest.mark.parametrize("call, shape", [
    pytest.param(lambda: product_blocks(EMPTY_STATES, EMPTY_STATES, EMPTY_STATES)[-1], (0, 1, 6),
                 id="product_blocks"),
    pytest.param(lambda: pure_success_expectation(EMPTY_STATES, EMPTY_STATES, 0.7,
                                                  Priors.from_eta1(0.3)), (0,),
                 id="pure_success_expectation"),
    pytest.param(lambda: harness.overlap_identity_check(EMPTY_STATES, EMPTY_STATES)[0],
                 (0,), id="overlap_identity_check.sum_g"),
    pytest.param(lambda: harness.overlap_identity_check(EMPTY_STATES, EMPTY_STATES)[1],
                 (0,), id="overlap_identity_check.sum_h"),
    pytest.param(lambda: average_success_trace(3, [], Priors.from_eta1(0.3)), (0,),
                 id="average_success_trace"),
    pytest.param(lambda: povm_module.kind_povms([])[0], (0, 3, 1, 1), id="kind_povms"),
    pytest.param(lambda: jordan_angles(np.zeros((0, 3)), np.zeros((0, 3))), (0,),
                 id="jordan_angles"),
])
def test_empty_input_gives_empty_output(call, shape):
    assert np.shape(call()) == shape


@pytest.mark.parametrize("call", PRIORS_TAKERS.values(), ids=PRIORS_TAKERS)
def test_every_call_that_takes_priors_takes_a_priors(call):
    # What each refuses in its place is a row of test_boundaries.REFUSALS.
    call(Priors.from_eta1(0.3))


def test_whole_float_counts_and_register_indices_are_taken_as_ints():
    amps = np.array([0.6, 0.8])
    net, reference = optics.prepare_state_network(amps, 2.0), optics.prepare_state_network(amps, 2)
    assert net.num_modes == 2 and net.to_text() == reference.to_text()
    rows = np.arange(16.0).reshape(4, 4)
    assert np.array_equal(spaces.permute_registers(rows, (1.0, 0), 2),
                          spaces.permute_registers(rows, (1, 0), 2))


@pytest.mark.parametrize("value, expected", [
    (np.float64(0.5), 0.5), (np.float32(0.25), 0.25), (np.int64(1), 1.0),
])
def test_check_omega1_takes_real_numbers_but_not_strings_bytes_or_booleans(value, expected):
    # The strings, bytes and booleans it refuses are rows of test_boundaries.REFUSALS.
    assert povm_module.check_omega1(value) == expected


@pytest.mark.parametrize("n", [2, 4, 6])
def test_stacked_pairs_agree_with_per_pair_calls(n):
    psi1, psi2 = state_stacks(n, 30, seed=n)
    priors = Priors.from_eta1(0.3)
    for name, call in (
        ("pure_success", lambda a, b: pure_success(a, b, 0.7, priors)),
        ("pure_success_expectation", lambda a, b: pure_success_expectation(a, b, 0.7, priors)),
        ("sum_g", lambda a, b: harness.overlap_identity_check(a, b)[0]),
        ("sum_h", lambda a, b: harness.overlap_identity_check(a, b)[1]),
        ("closed_form", lambda a, b: harness.overlap_identity_check(a, b)[2]),
    ):
        stacked = call(psi1, psi2)
        singles = [call(a, b) for a, b in zip(psi1, psi2)]
        assert stacked.shape == (30,), name
        assert all(isinstance(v, float) for v in singles), name
        assert np.abs(stacked - np.array(singles)).max() <= 1e-15, name


def test_pure_success_dimension_independent():
    priors = Priors.from_eta1(0.3)
    omega1 = 0.8
    # Use pairs with the same overlap in every dimension.
    reference = None
    for n in range(2, 6):
        e = np.eye(n, dtype=complex)
        psi1 = e[0]
        psi2 = (e[0] + e[1]) / np.sqrt(2)  # squared overlap 1/2
        ratio = pure_success(psi1, psi2, omega1, priors) / (1 - 0.5)
        if reference is None:
            reference = ratio
        assert abs(ratio - reference) < 1e-10


def test_optimal_pure_examples():
    assert abs(optimal_pure(0.0, Priors.from_eta1(0.5)).value - 1 / 3) < 1e-12
    assert optimal_pure(1.0, Priors.from_eta1(0.5)).value == 0.0
    assert abs(optimal_pure(0.5, Priors.from_eta1(0.1)).value - 0.225) < 1e-12


def test_omega2_constraint_values():
    assert abs(omega2_constraint(np.pi / 2) - 0.0) < 1e-12
    assert abs(omega2_constraint(0.0) - np.pi / 3) < 1e-12
    assert abs(omega2_constraint(omega1_from_x(2.0)) - np.pi / 4) < 1e-12

