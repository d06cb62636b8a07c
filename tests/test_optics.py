import math
from functools import partial

import numpy as np
import pytest

from qudisc import optics, spaces
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
)
from qudisc.povm import Priors, omega1_from_x, omega2_constraint, total_povm
from references import cascade_by_residual, layer_block
from shared import PeakMemory, never


def random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_one_layer_is_the_block_of_the_module_docstring():
    def one_layer(*angles):
        return Interferometer(2, [(0, 1)], [angles]).unitary()

    np.testing.assert_allclose(one_layer(np.pi / 2, 0, 0), [[1, 0], [0, -1]], atol=1e-12)
    np.testing.assert_allclose(one_layer(0, 0, 0), [[0, 1], [1, 0]], atol=1e-12)
    rng = np.random.Generator(np.random.Philox(key=3))
    for angles in rng.uniform(0, 2 * np.pi, size=(20, 3)):
        unitary = one_layer(*angles)
        np.testing.assert_allclose(unitary, layer_block(*angles), rtol=0, atol=1e-15)
        np.testing.assert_allclose(unitary.conj().T @ unitary, np.eye(2), atol=1e-12)


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


INTEGER_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("dtype", INTEGER_DTYPES, ids=lambda t: np.dtype(t).name)
def test_integer_modes_of_each_width_give_the_network_of_the_listed_modes(dtype):
    modes = np.array([[0, 2], [1, 2]], dtype=dtype)
    net = Interferometer(3, modes, np.full((2, 3), 0.4))
    assert net == Interferometer(3, [(0, 2), (1, 2)], np.full((2, 3), 0.4))
    assert net.modes.dtype == np.int64 and not net.modes.flags.writeable
    modes[0, 0] = 1  # the caller's array stays the caller's, and writable
    assert net.modes.tolist() == [[0, 2], [1, 2]]


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8], ids=lambda t: np.dtype(t).name)
def test_integer_modes_are_checked_with_no_float_copy(dtype):
    # The constructor peaks at the 40 bytes per layer it keeps: int64 modes (16)
    # and float angles (24). Casting integer modes to float to check them, and
    # back, would add 16 more.
    layers = 50_000
    rng = np.random.Generator(np.random.Philox(key=7))
    first = rng.integers(0, 199, layers)
    modes = np.stack([first, first + 1], axis=1).astype(dtype)
    angles = rng.uniform(0.0, 1.0, (layers, 3))
    with PeakMemory() as peak:
        Interferometer(200, modes, angles)
    assert peak.bytes <= 48 * layers


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
    g, h = (family[0] for family in build_gh_bases(2))
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
    block = layer_block(0.6, 0.0, 0.0)
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
    block[3:5, 3:5] = layer_block(0.4, 1.0, -2.0)
    block[5, 5] = np.exp(0.3j)
    yield block
    yield block[::-1]
    # Entries below 1e-14 but not zero: the tiny ones skipped, the rest kept.
    near_diagonal = layer_block(np.pi / 2 - 5e-15, 0.2, 0.0)
    yield np.kron(near_diagonal, random_unitary(3, rng))
    yield layer_block(0.6, 0.0, 0.0)
    for dim in (24, 48):
        yield random_unitary(dim, np.random.Generator(np.random.Philox(key=[7100 + dim, 3])))
    # Exact zeros off three diagonal blocks: the wavefronts t >= 24, which start at
    # column t - 23 > 0, keep their steps within a block and skip the others.
    wide = np.zeros((24, 24), dtype=complex)
    for lo, hi in ((0, 10), (10, 18), (18, 24)):
        wide[lo:hi, lo:hi] = random_unitary(hi - lo, rng)
    yield wide


def test_reck_wavefronts_match_column_by_column_elimination():
    """The wavefront schedule emits the same network text as one step at a time."""
    for target in _reck_equivalence_targets():
        expected = _reck_column_by_column(target).to_text()
        assert reck_decompose(target).to_text() == expected


def _unitary_layer_by_layer(net, states=None):
    """Reference: one 2x2 block product per layer, last listed layer first, on
    the identity or on the columns of `states`."""
    phased = np.exp(1j * np.asarray(net.phases))
    mat = np.diag(phased) if states is None else phased[:, None] * states
    for rows, (omega, phi, theta) in reversed(list(zip(net.modes.tolist(),
                                                       net.angles.tolist()))):
        mat[rows] = layer_block(omega, phi, theta) @ mat[rows]
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
    for n in (2, 3, 9, 17, 96):  # every depth of a cascade holds one layer
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        nets.append(prepare_state_network(amps / np.linalg.norm(amps), n))
    nets += [reck_decompose(random_unitary(dim, rng)) for dim in (24, 48)]
    # Depths of one layer on a reversed pair (a > b), before and after a forward one.
    nets.append(Interferometer(5, [(4, 1), (1, 3), (3, 0)], rng.uniform(-7, 7, (3, 3))))
    return nets


def test_unitary_depth_batches_match_layer_by_layer_on_any_order():
    for net in _any_order_networks():
        assert np.array_equal(net.unitary(), _unitary_layer_by_layer(net))


def _apply_test_networks():
    return _any_order_networks() + [reck_decompose(t) for t in _reck_equivalence_targets()]


def test_apply_to_the_identity_is_the_unitary():
    for net in _apply_test_networks():
        assert np.array_equal(net.apply(np.eye(net.num_modes)), net.unitary())


def test_apply_to_columns_matches_layer_by_layer():
    # numpy's matmul rounds a single column read through a view with a negative
    # row stride differently, so a depth of one reversed pair is not viewed.
    rng = np.random.Generator(np.random.Philox(key=75))
    for net in _apply_test_networks():
        for columns in (1, 3):
            states = rng.normal(size=(net.num_modes, columns)) + 1j * rng.normal(
                size=(net.num_modes, columns))
            assert np.array_equal(net.apply(states), _unitary_layer_by_layer(net, states))


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


def test_prepare_emits_no_layer_past_a_tail_below_1e_14():
    # ||a_{2:}|| = 5e-15: the cascade ends at layer (1, 2), which keeps all of a_1.
    amps = np.array([0.6, 0.8j, 5e-15, 0.0, 0.0])
    net = prepare_state_network(amps, 5)
    assert net.modes.tolist() == [[1, 2], [0, 1]]
    assert np.abs(net.unitary()[:, 0] - amps).max() < 1e-14


def test_prepare_matches_the_residual_cascade():
    # The tail norms replace a running product of cosines: the same layers, with
    # angles that move by rounding only.
    rng = np.random.Generator(np.random.Philox(key=96))
    states = [np.array([0.6, 0.0, 0.8j, 0.0]), np.array([0.6, 0.8j, 5e-15, 0.0, 0.0]),
              np.array([0.0, -0.6, -0.0, 0.8]), np.array([0.6, -0.8])]
    for n in (2, 3, 5, 17, 96, 96, 96):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        states.append(z / np.linalg.norm(z))
    for amps in states:
        net = prepare_state_network(amps, len(amps))
        modes, angles = cascade_by_residual(amps)
        assert net.modes[::-1].tolist() == [list(pair) for pair in modes]
        assert np.abs(net.angles[::-1] - np.reshape(angles, (-1, 3))).max() <= 1e-13


def test_simulate_clicks_identity_network():
    net = Interferometer(num_modes=3)
    state = np.array([0, 1, 0], dtype=complex)
    counts = simulate_clicks(net, state, shots=50, seed=0)
    assert counts == {"m1": 0, "m2": 50, "m3": 0}


def test_simulate_clicks_balanced_splitter():
    net = Interferometer(2, [(0, 1)], [(np.pi / 4, 0, 0)])
    state = np.array([1, 0], dtype=complex)
    shots = 100_000
    counts = simulate_clicks(net, state, shots=shots, seed=11)
    sigma = np.sqrt(0.25 / shots)
    assert abs(counts["m1"] / shots - 0.5) < 5 * sigma
    assert counts["m1"] + counts["m2"] == shots


def test_simulate_clicks_discriminator_d1_rate():
    omega1 = omega1_from_x(2.0)
    net = discriminator_network(omega1)
    shots = 100_000
    counts = simulate_clicks(net, discriminator_port_state("g"), shots=shots, seed=2)
    sigma = np.sqrt(0.25 / shots)
    assert abs(counts["m1"] / shots - 0.5) < 5 * sigma  # D1
    assert counts["m2"] == 0  # D2


def test_simulate_clicks_tallies_are_one_seeded_multinomial():
    rng = np.random.default_rng(12)
    for i, modes in enumerate([1, 2, 3, 5, 8] * 4):
        # A phase-only network leaves the unlit modes of the state as zero cells.
        net = (reck_decompose(random_unitary(modes, rng)) if i % 2
               else Interferometer(modes, phases=rng.uniform(-np.pi, np.pi, modes)))
        state = np.zeros(modes, dtype=complex)  # a photon over the first k modes
        state[: int(rng.integers(1, modes + 1))] = 1.0
        state /= np.linalg.norm(state)
        shots, seed = int(rng.integers(1, 10**6)), int(rng.integers(2**64, dtype=np.uint64))
        expected = optics.seeded_stream(seed).multinomial(shots, output_distribution(net, state))
        counts = simulate_clicks(net, state, shots=shots, seed=seed)
        assert list(counts) == [f"m{i + 1}" for i in range(modes)]
        assert list(counts.values()) == expected.tolist()


def test_seeded_stream_key_is_the_seed_and_zero():
    for seed in (0, 7, 2**31 - 1, 2**62 + 5, 2**64 - 1):
        key = np.array([seed, 0], dtype=np.uint64)  # a list would take 2^64 - 1 as a float
        reference = np.random.Generator(np.random.Philox(key=key)).random(4)
        np.testing.assert_array_equal(optics.seeded_stream(seed).random(4), reference)
    # Above 2^63 each seed keeps its own stream, up to the last 64-bit word.
    assert not np.array_equal(optics.seeded_stream(2**63).random(4),
                              optics.seeded_stream(2**63 + 1).random(4))
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
    assert abs(run.successes / shots - analytic["success"]) < 5 * sigma
    again = simulate_discriminator(omega1, priors, shots=shots, seed=4)
    assert again == run


def test_shots_above_the_limit_are_refused_before_any_draw(monkeypatch):
    monkeypatch.setattr(optics, "seeded_stream", never("a stream was built"))
    net, state = Interferometer(num_modes=2), np.array([1, 0], dtype=complex)
    for shots in (optics.MAX_SHOTS + 1, 10**18):
        with pytest.raises(DomainError, match="must not exceed"):
            simulate_discriminator(0.7, Priors.from_eta1(0.5), shots=shots, seed=0)
        with pytest.raises(DomainError, match="must not exceed"):
            simulate_clicks(net, state, shots=shots, seed=0)


def test_the_shot_limit_samples_in_little_memory():
    # One multinomial draw per call: MAX_SHOTS costs what one shot does.
    omega1, eta1, net = omega1_from_x(2.5), 0.3, discriminator_network(0.7)
    state = discriminator_port_state("g")
    simulate_discriminator(omega1, Priors.from_eta1(eta1), 1, seed=7)  # first-call costs
    simulate_clicks(net, state, 1, seed=7)
    with PeakMemory() as peak:
        run = simulate_discriminator(omega1, Priors.from_eta1(eta1), optics.MAX_SHOTS, seed=7)
        counts = simulate_clicks(net, state, optics.MAX_SHOTS, seed=7)
    assert peak.bytes < 2**18
    assert sum(run.counts.values()) == sum(run.input_counts.values()) == optics.MAX_SHOTS
    assert sum(counts.values()) == optics.MAX_SHOTS
    sigma = np.sqrt(eta1 * (1 - eta1) * optics.MAX_SHOTS)
    assert abs(run.input_counts["g"] - eta1 * optics.MAX_SHOTS) < 5 * sigma


def test_whole_float_shots_count_as_their_integer():
    # A whole float passes the shots check; it raised TypeError in range().
    net, state, priors = Interferometer(num_modes=2), np.array([0.6, 0.8]), Priors.from_eta1(0.4)
    assert simulate_clicks(net, state, 100.0, 5) == simulate_clicks(net, state, 100, 5)
    assert (simulate_discriminator(0.7, priors, 100.0, 5).counts
            == simulate_discriminator(0.7, priors, 100, 5).counts)


def _port_law(omega1, eta1):
    """The (input, port) cell probabilities eta_i * p_i(port): rows g and h,
    columns D1, D2 and F."""
    net = discriminator_network(omega1)
    dists = [output_distribution(net, discriminator_port_state(which)) for which in ("g", "h")]
    return np.array([[eta1], [1.0 - eta1]]) * np.array(dists)


def _joint_tallies(run):
    """The (input, port) tallies of a run, laid out as _port_law.  A D1 click comes
    only from g and a D2 click only from h, so the run's tallies fix the table."""
    d1, d2, _ = run.counts.values()
    g, h = run.input_counts.values()
    assert run.successes == d1 + d2  # no h input clicked D1, no g input D2
    return np.array([[d1, 0, g - d1], [0, d2, h - d2]])


def test_discriminator_tallies_are_one_seeded_multinomial():
    # Boundary angles and priors (None: a random one) give joint tables with zero cells.
    rng = np.random.default_rng(15)
    cases = [(omega1, eta1) for omega1 in (0.0, np.pi / 2, None)
             for eta1 in (0.0, 1.0, None)] * 6
    for omega1, eta1 in cases:
        omega1 = rng.uniform(0.0, np.pi / 2) if omega1 is None else omega1
        eta1 = rng.uniform(0.0, 1.0) if eta1 is None else eta1
        shots, seed = int(rng.integers(1, 10**6)), int(rng.integers(2**64, dtype=np.uint64))
        joint = _port_law(omega1, eta1)
        table = optics.seeded_stream(seed).multinomial(shots, joint.ravel()).reshape(2, 3)
        run = simulate_discriminator(omega1, Priors.from_eta1(eta1), shots, seed)
        assert list(run.counts) == ["D1", "D2", "F"] and list(run.input_counts) == ["g", "h"]
        assert list(run.counts.values()) == table.sum(axis=0).tolist()
        assert list(run.input_counts.values()) == table.sum(axis=1).tolist()
        assert run.successes == table[0, 0] + table[1, 1]
        np.testing.assert_array_equal(_joint_tallies(run), table)


# Pearson's chi-square test of a run's four nonzero (input, port) cells against
# eta_i * p_i(port), at LAW_ALPHA on each of LAW_RUNS fixed seeds.  The law is
# refused when more than LAW_REJECTIONS runs reject: a sampler that follows it is
# refused with probability P(Binomial(100, 0.01) > 5) = 5.3e-4.
LAW_ALPHA, LAW_RUNS, LAW_REJECTIONS, LAW_SHOTS = 0.01, 100, 5, 20_000


def _chi_square_rejections(sample):
    """How many of the LAW_RUNS runs `sample(omega1, eta1, seed)` gives are
    rejected at LAW_ALPHA, against the law at (omega1, eta1)."""
    rng = np.random.default_rng(2024)
    rejected = 0
    for seed in range(LAW_RUNS):
        # Away from the boundary angles every nonzero cell expects 100 or more shots.
        omega1, eta1 = rng.uniform(0.2, np.pi / 2 - 0.2), rng.uniform(0.1, 0.9)
        expected = LAW_SHOTS * _port_law(omega1, eta1)
        cells = expected > 1e-9  # the g-D2 and h-D1 cells are zero up to rounding
        assert cells.sum() == 4 and expected[cells].min() >= 100
        observed = _joint_tallies(sample(omega1, eta1, seed))
        assert observed.sum() == LAW_SHOTS and (observed[~cells] == 0).all()
        stat = (((observed[cells] - expected[cells]) ** 2) / expected[cells]).sum()
        # The chi-square survival function at 3 degrees of freedom.
        p_value = (math.erfc(math.sqrt(stat / 2))
                   + math.sqrt(2 * stat / math.pi) * math.exp(-stat / 2))
        rejected += p_value < LAW_ALPHA
    return rejected


def _success_port_tenth(dists):
    """A tenth of each input's shots moved to its success port (g to D1, h to D2)."""
    return 0.9 * dists + 0.1 * np.eye(2, 3)


def test_discriminator_tallies_follow_the_joint_law(monkeypatch):
    def sample(omega1, eta1, seed):
        return simulate_discriminator(omega1, Priors.from_eta1(eta1), LAW_SHOTS, seed)

    def swapped_priors(omega1, eta1, seed):
        return sample(omega1, 1.0 - eta1, seed)

    assert _chi_square_rejections(sample) <= LAW_REJECTIONS  # 2 of the 100 runs reject
    # Power: swapped priors are rejected on 99 of the 100 seeds (they change
    # nothing at eta1 = 1/2), a tenth of the shots moved on all 100.
    assert _chi_square_rejections(swapped_priors) >= 90
    port_distributions = optics._port_distributions
    monkeypatch.setattr(optics, "_port_distributions",
                        lambda omega1: _success_port_tenth(port_distributions(omega1)))
    assert _chi_square_rejections(sample) == LAW_RUNS


def test_click_probabilities_and_samples_never_build_the_unitary(monkeypatch):
    monkeypatch.setattr(Interferometer, "unitary", never("unitary() was built"))
    net = Interferometer(3, [(0, 2), (0, 1)], [(0.4, 0.3, 0), (1.1, 0, 0)])
    state = np.array([0.6, 0.8j, 0.0])
    assert abs(output_distribution(net, state).sum() - 1.0) < 1e-15
    assert sum(simulate_clicks(net, state, shots=100, seed=1).values()) == 100
    priors = Priors.from_eta1(0.4)
    assert sum(simulate_discriminator(0.7, priors, shots=100, seed=1).counts.values()) == 100
    assert analytic_discriminator_probabilities(0.7, priors)["F"] > 0


def test_one_photon_through_a_full_size_cascade_stays_small():
    rng = optics.seeded_stream(4096)
    amps = rng.normal(size=optics.MAX_MODES) + 1j * rng.normal(size=optics.MAX_MODES)
    amps /= np.linalg.norm(amps)
    net = prepare_state_network(amps, optics.MAX_MODES)
    photon = np.zeros(optics.MAX_MODES)
    photon[0] = 1.0
    shots = 131_072
    with PeakMemory() as peak:
        probs = output_distribution(net, photon)
        counts = simulate_clicks(net, photon, shots=shots, seed=5)
    assert peak.bytes < 4 * 2**20  # the 4096 x 4096 unitary alone would take 256 MiB
    np.testing.assert_allclose(probs, np.abs(amps) ** 2, rtol=0, atol=1e-12)
    assert len(counts) == optics.MAX_MODES and sum(counts.values()) == shots


def test_an_oversized_mesh_is_refused_before_it_is_built(monkeypatch):
    # A 128-mode Reck mesh (8128 layers) under a 1 MiB limit: composing it, its
    # text and its synthesis would each take more, and each call refuses while it
    # holds little more than the 256 KiB identity that unitary() composes.
    target = random_unitary(128, np.random.Generator(np.random.Philox(key=128)))
    net = reck_decompose(target)
    text, photon = net.to_text(), np.eye(128)[0]
    monkeypatch.setattr(spaces, "MAX_BUILD_BYTES", 2**20)
    for call in (partial(reck_decompose, target), net.unitary, partial(net.apply, photon),
                 net.to_text, partial(Interferometer.from_text, text)):
        with PeakMemory() as peak, pytest.raises(DomainError, match="over the limit"):
            call()
        assert peak.bytes < 2**19, call


def test_every_text_that_to_text_writes_reads_back_under_the_same_limit(monkeypatch):
    # The 128-mode Reck mesh's text is some 580 000 characters, read in pieces
    # of at least optics._CHUNK_CHARS, so its last BS lines sit many pieces in.
    net = reck_decompose(random_unitary(128, np.random.Generator(np.random.Philox(key=129))))
    text = net.to_text()
    monkeypatch.setattr(spaces, "MAX_BUILD_BYTES",
                        optics._LINE_BYTES * (len(net.modes) + net.num_modes))
    assert net.to_text() == text
    assert Interferometer.from_text(text) == net
    assert Interferometer.from_text(text.replace("\n", "\r\n")) == net
    told = []
    with monkeypatch.context() as patch:
        patch.setattr(optics, "check_build_bytes", lambda nbytes, what: told.append(nbytes))
        with PeakMemory() as peak:
            Interferometer.from_text(text)
    assert peak.bytes <= told[0]
    monkeypatch.setattr(spaces, "MAX_BUILD_BYTES", spaces.MAX_BUILD_BYTES - 1)
    with pytest.raises(DomainError, match="the network text would take"):
        net.to_text()
    # A value refused in the last piece is raised, and only after the header checks.
    for tail, match in (("BS 1 2 0.1 x 0\n", "layer angles must be real numbers"),
                        ("BS 1e0 2 0.1 0 0\n", "layer modes must be whole numbers")):
        with pytest.raises(DomainError, match=match):
            Interferometer.from_text(text + tail)
        with pytest.raises(DomainError, match="missing MODES header"):
            Interferometer.from_text(text.partition("\n")[2] + tail)
