import numpy as np
import pytest

from qudisc import optics
from qudisc.errors import DomainError
from qudisc.jordan import build_gh_bases
from qudisc.optics import (
    Interferometer,
    analytic_discriminator_probabilities,
    discriminator_network,
    discriminator_port_state,
    output_distribution,
    prepare_state_network,
    reck_decompose,
    simulate_clicks,
    simulate_discriminator,
    two_mode_unitary,
)
from qudisc.povm import Priors, omega1_from_x, omega2_constraint, total_povm
from shared import PeakMemory, never


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_two_mode_unitary_special_values():
    np.testing.assert_allclose(
        two_mode_unitary(np.pi / 2, 0, 0), np.array([[1, 0], [0, -1]]), atol=1e-12
    )
    np.testing.assert_allclose(
        two_mode_unitary(0, 0, 0), np.array([[0, 1], [1, 0]]), atol=1e-12
    )


def test_two_mode_unitary_is_unitary():
    rng = np.random.Generator(np.random.Philox(key=3))
    angles = rng.uniform(0, 2 * np.pi, size=(20, 3))
    stacked = two_mode_unitary(*angles.T)  # one block per row of angles
    for (omega, phi, theta), from_stack in zip(angles, stacked):
        block = two_mode_unitary(omega, phi, theta)
        np.testing.assert_allclose(block.conj().T @ block, np.eye(2), atol=1e-12)
        assert np.array_equal(from_stack, block)


def test_two_mode_unitary_broadcasts_its_angles():
    blocks = two_mode_unitary(0.3, 1, np.array([0.2, 0.5]))
    assert blocks.shape == (2, 2, 2)
    for theta, block in zip((0.2, 0.5), blocks):
        assert np.array_equal(block, two_mode_unitary(0.3, 1, theta))
    grid = two_mode_unitary(np.array([[0.1], [0.4]]), 0.0, np.array([0.2, 0.5, 0.9]))
    assert grid.shape == (2, 3, 2, 2)
    assert np.array_equal(grid[1, 2], two_mode_unitary(0.4, 0.0, 0.9))


def test_network_arrays_are_read_only_copies():
    modes, angles, phases = np.array([[0, 2], [1, 2]]), np.full((2, 3), 0.4), np.array([0.1, 0, 0])
    net = Interferometer(3, modes, angles, phases)
    assert net.modes.dtype == np.int64 and net.modes.shape == (2, 2)
    assert net.angles.dtype == float and net.angles.shape == (2, 3)
    for arr in (net.modes, net.angles, net.phases):
        with pytest.raises(ValueError):
            arr[0] = 1
    modes[0, 0], angles[0, 0], phases[0] = 1, 9.0, 9.0  # the caller's arrays stay the caller's
    assert net == Interferometer(3, [(0, 2), (1, 2)], np.full((2, 3), 0.4), (0.1, 0, 0))
    assert net.modes.tolist() == [[0, 2], [1, 2]] and net.angles.tolist() == [[0.4] * 3] * 2
    assert Interferometer(3, net.modes, net.angles, net.phases) == net


def test_network_equality_is_value_equality():
    net = Interferometer(2, [(0, 1)], [(0.3, 0.0, -0.0)], (0.0, -0.0))
    assert net == Interferometer(2, [(0, 1)], [(0.3, -0.0, 0.0)])
    assert net == Interferometer(2.0, np.array([(0.0, 1.0)]), [(0.3, 0, 0)], (0, 0))
    assert net != Interferometer(2, [(1, 0)], [(0.3, 0.0, 0.0)])
    assert net != Interferometer(2, [(0, 1)], [(0.3, 0.0, 1e-300)])
    assert net != Interferometer(2, [(0, 1)], [(0.3, 0.0, 0.0)], (0.0, 0.1))
    assert net != Interferometer(3, [(0, 1)], [(0.3, 0.0, 0.0)])
    assert net != Interferometer(2)
    assert net != "MODES 2"


def test_mode_count_above_the_limit_is_refused_before_any_allocation(monkeypatch):
    with PeakMemory() as peak:
        for text in ("MODES 1000000000\n", f"MODES {optics.MAX_MODES + 1}\nPHASE 1 0.5\n"):
            with pytest.raises(DomainError, match="must not exceed"):
                Interferometer.from_text(text)
    assert peak.bytes < 2**20
    assert Interferometer.from_text(f"MODES {optics.MAX_MODES}\n").num_modes == optics.MAX_MODES
    monkeypatch.setattr(optics, "MAX_MODES", 3)
    with pytest.raises(DomainError, match="must not exceed"):
        reck_decompose(np.eye(4))
    with pytest.raises(DomainError, match="must not exceed"):
        prepare_state_network(np.full(4, 0.5), 4)


def test_discriminator_columns_and_unitarity():
    for omega1 in np.linspace(0.0, np.pi / 2, 7):
        u3 = discriminator_network(omega1).unitary()
        np.testing.assert_allclose(u3.conj().T @ u3, np.eye(3), atol=1e-12)
        omega2 = omega2_constraint(omega1)
        s1, c1 = np.sin(omega1), np.cos(omega1)
        s2, c2 = np.sin(omega2), np.cos(omega2)
        np.testing.assert_allclose(u3[:, 0], [-s1, c1 * c2, -c1 * s2], atol=1e-12)
        np.testing.assert_allclose(u3[:, 1], [0.0, s2, c2], atol=1e-12)


def test_discriminator_h_never_hits_d1():
    for omega1 in np.linspace(0.0, np.pi / 2, 9):
        net = discriminator_network(omega1)
        probs = output_distribution(net, discriminator_port_state("h"))
        assert probs[0] < 1e-24


def test_discriminator_failure_probs_at_x2():
    omega1 = omega1_from_x(2.0)
    net = discriminator_network(omega1)
    probs_g = output_distribution(net, discriminator_port_state("g"))
    probs_h = output_distribution(net, discriminator_port_state("h"))
    assert abs(probs_g[2] - 0.5) < 1e-12
    assert abs(probs_h[2] - 0.5) < 1e-12
    # The D2 port stays dark for a g input: unambiguity at the device level.
    assert probs_g[1] < 1e-24


def test_discriminator_matches_povm_born_rule():
    pairs = build_gh_bases(2)
    g, h = pairs.g[0], pairs.h[0]
    for omega1 in np.linspace(0.0, np.pi / 2, 20):
        net = discriminator_network(omega1)
        ops = total_povm(2, omega1)
        for which, state in (("g", g), ("h", h)):
            probs = output_distribution(net, discriminator_port_state(which))
            expected = [np.vdot(state, op @ state).real for op in ops]
            np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_reck_identity_is_empty():
    net = reck_decompose(np.eye(4))
    assert len(net.modes) == 0
    assert all(p == 0.0 for p in net.phases)
    np.testing.assert_allclose(net.unitary(), np.eye(4), atol=1e-15)


def test_reck_single_block_roundtrip():
    block = two_mode_unitary(0.6, 0.0, 0.0)
    net = reck_decompose(block)
    assert len(net.modes) == 1
    assert abs(net.angles[0, 0] - 0.6) < 1e-12
    np.testing.assert_allclose(net.unitary(), block, atol=1e-12)


def test_reck_random_4x4_seed42():
    rng = np.random.Generator(np.random.Philox(key=42))
    target = random_unitary(4, rng)
    net = reck_decompose(target)
    assert np.abs(net.unitary() - target).max() < 1e-10


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 7, 8])
def test_reck_roundtrip_and_layer_bound(dim):
    rng = np.random.Generator(np.random.Philox(key=100 + dim))
    target = random_unitary(dim, rng)
    net = reck_decompose(target)
    assert len(net.modes) <= dim * (dim - 1) // 2
    assert np.abs(net.unitary() - target).max() < 1e-10


def test_serialization_roundtrip():
    rng = np.random.Generator(np.random.Philox(key=5))
    target = random_unitary(5, rng)
    net = reck_decompose(target)
    text = net.to_text()
    parsed = Interferometer.from_text(text)
    np.testing.assert_allclose(parsed.unitary(), net.unitary(), atol=1e-12)
    assert parsed.to_text() == text


@pytest.mark.parametrize("dim", range(2, 11))
def test_reck_and_text_round_trips_on_haar_unitaries(dim):
    for seed in range(5):
        target = random_unitary(dim, np.random.Generator(np.random.Philox(key=[dim, seed])))
        net = reck_decompose(target)
        assert np.abs(net.unitary() - target).max() < 1e-10
        assert Interferometer.from_text(net.to_text()) == net


def test_text_round_trips_on_random_networks():
    rng = np.random.Generator(np.random.Philox(key=6))
    for _ in range(50):
        modes = int(rng.integers(1, 8))
        pairs, angles = [], []
        for _ in range(int(rng.integers(0, 12)) if modes > 1 else 0):
            pairs.append(rng.choice(modes, 2, replace=False))
            angles.append(rng.uniform(-7, 7, 3))
        phases = tuple(rng.uniform(-7, 7, modes) * (rng.random(modes) < 0.5))
        net = Interferometer(modes, pairs, angles, phases)
        assert Interferometer.from_text(net.to_text()) == net


def _to_text_per_layer(net):
    """Reference: the network text written one f-string per layer."""
    lines = [f"MODES {net.num_modes}"]
    lines += [f"BS {a + 1} {b + 1} {omega:.17g} {phi:.17g} {theta:.17g}"
              for (a, b), (omega, phi, theta) in zip(net.modes.tolist(), net.angles.tolist())]
    lines += [f"PHASE {m + 1} {p:.17g}" for m, p in enumerate(net.phases) if p != 0.0]
    return "\n".join(lines) + "\n"


def test_text_matches_per_layer_formatting_byte_for_byte():
    rng = np.random.Generator(np.random.Philox(key=74))
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, 2.2250738585072014e-308,
                        np.pi, -np.pi, 1e300, 0.1, 1 / 3])
    for _ in range(100):
        modes = int(rng.integers(1, 12))
        count = int(rng.integers(0, 40)) if modes > 1 else 0
        pairs = [rng.choice(modes, 2, replace=False) for _ in range(count)]
        angles = np.where(rng.random((count, 3)) < 0.4, rng.choice(special, (count, 3)),
                          rng.uniform(-7, 7, (count, 3)) * 10.0 ** rng.integers(-300, 3, (count, 3)))
        phases = np.where(rng.random(modes) < 0.5, rng.choice(special, modes),
                          rng.uniform(-7, 7, modes))
        net = Interferometer(modes, np.reshape(pairs, (-1, 2)), angles, phases)
        text = net.to_text()
        assert text == _to_text_per_layer(net)
        assert Interferometer.from_text(text) == net
    net = reck_decompose(random_unitary(12, rng))
    assert net.to_text() == _to_text_per_layer(net)


def _reck_column_by_column(matrix):
    """Reference: the column-by-column elimination, one step at a time."""
    mat = np.array(matrix, dtype=complex)
    dim = mat.shape[0]

    modes, angles = [], []
    for col in range(dim - 1):
        for row in range(col + 1, dim):
            if abs(mat[row, col]) <= 1e-14:
                continue
            phi = float(np.angle(mat[col, col]))
            theta = float(np.angle(mat[row, col]))
            omega = float(np.arctan2(abs(mat[col, col]), abs(mat[row, col])))
            s, c = np.sin(omega), np.cos(omega)
            top = s * np.exp(-1j * phi) * mat[col] + c * np.exp(-1j * theta) * mat[row]
            bot = c * np.exp(-1j * phi) * mat[col] - s * np.exp(-1j * theta) * mat[row]
            mat[col], mat[row] = top, bot
            modes.append((col, row))
            angles.append((omega, phi, theta))

    phases = tuple(float(a) for a in np.angle(np.diag(mat)))
    phases = tuple(0.0 if abs(a) < 1e-14 else a for a in phases)
    return Interferometer(dim, modes, angles, phases)


def _reck_equivalence_targets():
    for dim in range(1, 13):
        for seed in range(3):
            yield random_unitary(dim, np.random.Generator(np.random.Philox(key=[7100 + dim, seed])))
    yield np.eye(5)
    yield np.eye(6)[[3, 0, 5, 1, 4, 2]]
    block = np.zeros((6, 6), dtype=complex)  # exact zeros below the diagonal: skipped steps
    rng = np.random.Generator(np.random.Philox(key=72))
    block[:3, :3] = random_unitary(3, rng)
    block[3:5, 3:5] = two_mode_unitary(0.4, 1.0, -2.0)
    block[5, 5] = np.exp(0.3j)
    yield block
    yield block[::-1]
    # Entries below 1e-14 but not zero: the tiny ones skipped, the rest kept.
    near_diagonal = two_mode_unitary(np.pi / 2 - 5e-15, 0.2, 0.0)
    yield np.kron(near_diagonal, random_unitary(3, rng))
    yield two_mode_unitary(0.6, 0.0, 0.0)


def test_reck_wavefronts_match_column_by_column_elimination():
    """The wavefront schedule emits the same network text as one step at a time."""
    for target in _reck_equivalence_targets():
        expected = _reck_column_by_column(target).to_text()
        assert reck_decompose(target).to_text() == expected


def _unitary_layer_by_layer(net):
    """Reference: one 2x2 block product per layer, last listed layer first."""
    mat = np.diag(np.exp(1j * np.asarray(net.phases)))
    for rows, (omega, phi, theta) in reversed(list(zip(net.modes.tolist(),
                                                       net.angles.tolist()))):
        s, c = np.sin(omega), np.cos(omega)
        block = np.array(
            [
                [s * np.exp(1j * phi), c * np.exp(1j * phi)],
                [c * np.exp(1j * theta), -s * np.exp(1j * theta)],
            ]
        )
        mat[rows] = block @ mat[rows]
    return mat


def _any_order_networks():
    """Random layer orders with repeated pairs, the six-port devices and cascades."""
    rng = np.random.Generator(np.random.Philox(key=73))
    nets = []
    for _ in range(200):
        modes = int(rng.integers(2, 10))
        pairs = [rng.choice(modes, 2, replace=False) for _ in range(int(rng.integers(0, 31)))]
        if len(pairs) > 2:
            pairs[-1] = pairs[0]  # a repeated pair
        angles = [rng.uniform(-7, 7, 3) for _ in pairs]
        phases = tuple(rng.uniform(-7, 7, modes) * (rng.random(modes) < 0.7))
        nets.append(Interferometer(modes, pairs, angles, phases))
    nets += [discriminator_network(omega1) for omega1 in (0.0, 0.3, omega1_from_x(2.0), 1.5)]
    for n in (2, 3, 9, 17):
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        nets.append(prepare_state_network(amps / np.linalg.norm(amps), n))
    return nets


def test_unitary_depth_batches_match_layer_by_layer_on_any_order():
    for net in _any_order_networks():
        assert np.array_equal(net.unitary(), _unitary_layer_by_layer(net))


def _apply_test_networks():
    return _any_order_networks() + [reck_decompose(t) for t in _reck_equivalence_targets()]


def test_apply_to_the_identity_is_the_unitary():
    for net in _apply_test_networks():
        assert np.array_equal(net.apply(np.eye(net.num_modes)), net.unitary())


def test_apply_to_states_matches_the_unitary_product():
    rng = np.random.Generator(np.random.Philox(key=74))
    for net in _apply_test_networks():
        unitary = net.unitary()
        for shape in ((net.num_modes,), (net.num_modes, 1), (net.num_modes, 3)):
            states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            out = net.apply(states)
            assert out.shape == shape
            assert np.abs(out - unitary @ states).max() <= 1e-12
    net = prepare_state_network(np.array([0.6, 0.0, 0.8j]), 3)
    assert np.abs(net.apply([1, 0, 0]) - [0.6, 0.0, 0.8j]).max() < 1e-12  # real input


def test_prepare_basis_vector_is_identity_network():
    net = prepare_state_network(np.array([1.0, 0.0, 0.0]), 3)
    assert len(net.modes) == 0
    np.testing.assert_allclose(net.unitary(), np.eye(3), atol=1e-15)


def test_prepare_balanced_pair_single_layer():
    amps = np.array([1.0, 1.0]) / np.sqrt(2)
    net = prepare_state_network(amps, 2)
    assert len(net.modes) == 1
    assert abs(net.angles[0, 0] - np.pi / 4) < 1e-12
    np.testing.assert_allclose(net.unitary()[:, 0], amps, atol=1e-10)


def test_prepare_haar_vector_seed7():
    rng = np.random.Generator(np.random.Philox(key=7))
    z = rng.normal(size=5) + 1j * rng.normal(size=5)
    amps = z / np.linalg.norm(z)
    net = prepare_state_network(amps, 5)
    column = net.unitary()[:, 0]
    assert np.abs(column - amps).max() < 1e-10
    unitary = net.unitary()
    np.testing.assert_allclose(unitary.conj().T @ unitary, np.eye(5), atol=1e-10)


def test_prepare_handles_interior_zeros_and_phases():
    amps = np.array([0.6, 0.0, 0.8j, 0.0])
    net = prepare_state_network(amps, 4)
    assert np.abs(net.unitary()[:, 0] - amps).max() < 1e-10
    single = prepare_state_network(np.array([np.exp(0.3j)]), 1)
    assert np.abs(single.unitary()[0, 0] - np.exp(0.3j)) < 1e-12


def test_simulate_clicks_identity_network():
    net = Interferometer(num_modes=3)
    state = np.array([0, 1, 0], dtype=complex)
    stats = simulate_clicks(net, state, shots=50, seed=0)
    assert stats.counts == {"m1": 0, "m2": 50, "m3": 0}


def test_simulate_clicks_balanced_splitter():
    net = Interferometer(2, [(0, 1)], [(np.pi / 4, 0, 0)])
    state = np.array([1, 0], dtype=complex)
    shots = 100_000
    stats = simulate_clicks(net, state, shots=shots, seed=11)
    sigma = np.sqrt(0.25 / shots)
    assert abs(stats.counts["m1"] / shots - 0.5) < 5 * sigma
    assert stats.counts["m1"] + stats.counts["m2"] == shots


def test_simulate_clicks_discriminator_d1_rate():
    omega1 = omega1_from_x(2.0)
    net = discriminator_network(omega1)
    shots = 100_000
    stats = simulate_clicks(net, discriminator_port_state("g"), shots=shots, seed=2)
    sigma = np.sqrt(0.25 / shots)
    assert abs(stats.counts["m1"] / shots - 0.5) < 5 * sigma  # D1
    assert stats.counts["m2"] == 0  # D2


def test_simulate_clicks_tallies_one_seeded_stream():
    net = Interferometer(3, [(0, 2), (0, 1)], [(0.4, 0.3, 0), (1.1, 0, 0)])
    state = np.array([0.6, 0.8j, 0.0])
    shots, seed = 5_000, 12
    edges = np.cumsum(output_distribution(net, state))
    draws = np.random.Generator(np.random.Philox(key=[seed, 0])).random(shots)
    expected = np.bincount(np.minimum(np.searchsorted(edges, draws, side="right"), 2),
                           minlength=3)
    stats = simulate_clicks(net, state, shots=shots, seed=seed)
    assert list(stats.counts.values()) == expected.tolist()



def test_seeded_stream_keys_are_the_seed_and_stream_words():
    for seed, stream in ((0, 0), (7, 0), (2**31 - 1, 5), (2**62 + 5, 2**63 - 1)):
        reference = np.random.Generator(np.random.Philox(key=[seed, stream])).random(4)
        np.testing.assert_array_equal(optics.seeded_stream(seed, stream).random(4), reference)
    # Above 2^63 each seed keeps its own stream, up to the last 64-bit word.
    assert not np.array_equal(optics.seeded_stream(2**63).random(4),
                              optics.seeded_stream(2**63 + 1).random(4))
    optics.seeded_stream(2**64 - 1, 2**64 - 1)
    np.testing.assert_array_equal(optics.seeded_stream(3.0).random(4),
                                  optics.seeded_stream(3).random(4))


def test_simulate_clicks_deterministic_and_validated():
    net = Interferometer(2, [(0, 1)], [(0.3, 0, 0)])
    state = np.array([1, 0], dtype=complex)
    first = simulate_clicks(net, state, shots=500, seed=9)
    second = simulate_clicks(net, state, shots=500, seed=9)
    assert first == second
    assert simulate_clicks(net, state, shots=500, seed=10) != first


def test_simulate_discriminator_statistics():
    priors = Priors.from_eta1(0.5)
    omega1 = omega1_from_x(2.0)
    shots = 20_000
    run = simulate_discriminator(omega1, priors, shots=shots, seed=4)
    analytic = analytic_discriminator_probabilities(omega1, priors)
    assert run.counts["D1"] + run.counts["D2"] + run.counts["F"] == shots
    assert run.input_counts["g"] + run.input_counts["h"] == shots
    sigma = np.sqrt(analytic["success"] * (1 - analytic["success"]) / shots)
    assert abs(run.empirical_success - analytic["success"]) < 5 * sigma
    again = simulate_discriminator(omega1, priors, shots=shots, seed=4)
    assert again == run


def test_sampling_tallies_do_not_depend_on_shot_block(monkeypatch):
    priors = Priors.from_eta1(0.35)
    net = Interferometer(3, [(0, 2), (0, 1)], [(0.4, 0.3, 0), (1.1, 0, 0)])
    state = np.array([0.6, 0.8j, 0.0])
    runs = [simulate_discriminator(0.7, priors, shots=1001, seed=8),
            simulate_clicks(net, state, shots=1001, seed=8)]
    monkeypatch.setattr(optics, "SHOT_BLOCK", 7)  # 143 blocks of the one stream
    assert simulate_discriminator(0.7, priors, shots=1001, seed=8) == runs[0]
    assert simulate_clicks(net, state, shots=1001, seed=8) == runs[1]


def test_shots_above_the_limit_are_refused_before_any_draw(monkeypatch):
    monkeypatch.setattr(optics, "seeded_stream", never("a stream was built"))
    net, state = Interferometer(num_modes=2), np.array([1, 0], dtype=complex)
    for shots in (optics.MAX_SHOTS + 1, 10**18):
        with pytest.raises(DomainError, match="must not exceed"):
            simulate_discriminator(0.7, Priors.from_eta1(0.5), shots=shots, seed=0)
        with pytest.raises(DomainError, match="must not exceed"):
            simulate_clicks(net, state, shots=shots, seed=0)


def test_whole_float_shots_count_as_their_integer():
    # A whole float passes the shots check; it raised TypeError in range().
    net, state, priors = Interferometer(num_modes=2), np.array([0.6, 0.8]), Priors.from_eta1(0.4)
    assert simulate_clicks(net, state, 100.0, 5).counts == simulate_clicks(net, state, 100, 5).counts
    assert (simulate_discriminator(0.7, priors, 100.0, 5).counts
            == simulate_discriminator(0.7, priors, 100, 5).counts)


def test_discriminator_tallies_follow_the_two_uniforms_of_each_shot():
    # The first uniform of a shot picks h when it is >= eta1, the second the click.
    rng = np.random.default_rng(15)
    for _ in range(50):
        omega1, eta1 = rng.uniform(0.0, np.pi / 2), rng.uniform(0.0, 1.0)
        shots, seed = int(rng.integers(1, 3 * optics.SHOT_BLOCK)), int(rng.integers(2**40))
        net = discriminator_network(omega1)
        g_edges, h_edges = (np.cumsum(output_distribution(net, discriminator_port_state(which)))
                            for which in ("g", "h"))
        draws = optics.seeded_stream(seed).random((shots, 2))
        pick_h = draws[:, 0] >= eta1
        clicks = np.minimum(np.where(pick_h, np.searchsorted(h_edges, draws[:, 1], side="right"),
                                     np.searchsorted(g_edges, draws[:, 1], side="right")), 2)
        run = simulate_discriminator(omega1, Priors.from_eta1(eta1), shots, seed)
        assert list(run.counts.values()) == np.bincount(clicks, minlength=3).tolist()
        assert run.input_counts == {"g": int((~pick_h).sum()), "h": int(pick_h.sum())}
        assert run.successes == int((~pick_h & (clicks == 0)).sum()
                                    + (pick_h & (clicks == 1)).sum())


def test_click_probabilities_and_samples_never_build_the_unitary(monkeypatch):
    monkeypatch.setattr(Interferometer, "unitary", never("unitary() was built"))
    net = Interferometer(3, [(0, 2), (0, 1)], [(0.4, 0.3, 0), (1.1, 0, 0)])
    state = np.array([0.6, 0.8j, 0.0])
    assert abs(output_distribution(net, state).sum() - 1.0) < 1e-15
    assert sum(simulate_clicks(net, state, shots=100, seed=1).counts.values()) == 100
    priors = Priors.from_eta1(0.4)
    assert simulate_discriminator(0.7, priors, shots=100, seed=1).shots == 100
    assert analytic_discriminator_probabilities(0.7, priors)["F"] > 0


def test_one_photon_through_a_full_size_cascade_stays_small():
    rng = optics.seeded_stream(4096)
    amps = rng.normal(size=optics.MAX_MODES) + 1j * rng.normal(size=optics.MAX_MODES)
    amps /= np.linalg.norm(amps)
    net = prepare_state_network(amps, optics.MAX_MODES)
    photon = np.zeros(optics.MAX_MODES)
    photon[0] = 1.0
    shots = 2 * optics.SHOT_BLOCK
    with PeakMemory() as peak:
        probs = output_distribution(net, photon)
        stats = simulate_clicks(net, photon, shots=shots, seed=5)
    assert peak.bytes < 4 * 2**20  # the 4096 x 4096 unitary alone would take 256 MiB
    np.testing.assert_allclose(probs, np.abs(amps) ** 2, rtol=0, atol=1e-12)
    assert len(stats.counts) == optics.MAX_MODES and sum(stats.counts.values()) == shots
