import dataclasses
import itertools

import numpy as np
import pytest

from qudisc import harness, kinds, optics, povm, spaces
from qudisc.errors import DomainError
from qudisc.kinds import reciprocal_rows
from qudisc.scalars import check_dimension, check_integer, dimension_table
from qudisc.spaces import (
    kind_counts,
    label_blocks,
    mean_density_operators,
    mean_density_weight,
    permute_registers,
    product_blocks,
    projector_from_rows,
    symmetric_basis_2,
    symmetric_projector,
)
from references import (
    block_projectors, block_stacks, diagonal_blocks, g_rows_by_formula, ket,
    rho_blocks_by_index_arithmetic, s1_rows_by_kron, symmetric_basis_3,
)
from shared import PeakMemory, constructive_table, state_stacks

AC = (2, 1, 0)  # the permutation of the registers that exchanges A and C


def _every_block_is(stack, block):
    """Whether each block of a (blocks, ...) stack is `block`, bit for bit."""
    return all(b.shape == block.shape and b.tobytes() == block.tobytes() for b in stack)


def _flat_index(labels, n):
    """Row-major flat index of 1-based labels, register A slowest."""
    return np.ravel_multi_index(np.subtract(labels, 1), (n,) * len(labels))


def test_flatten_index_corners():
    assert _flat_index((1, 1, 1), 2) == 0
    assert _flat_index((2, 2, 2), 2) == 7
    assert np.flatnonzero(ket((1, 2, 1), 2)).tolist() == [2]


def test_flatten_index_matches_enumeration_order():
    # Oracle: enumerate all tuples in declared order (A slowest) and compare;
    # the kets of the tests sit at these indices, as in np.kron.
    for n, factors in [(2, 3), (3, 3), (4, 2)]:
        for pos, t in enumerate(itertools.product(range(1, n + 1), repeat=factors)):
            assert _flat_index(t, n) == pos
            kron = np.ones(1)
            for label in t:
                kron = np.kron(kron, np.eye(n)[label - 1])
            assert np.array_equal(ket(t, n), kron)
    assert _flat_index((1, 2, 1), 2) == 2


@pytest.mark.parametrize("value, expected", [
    (3, 3), (np.int64(3), 3), (3.0, 3), (2**70, 2**70), (np.float64(3.0), 3), (np.uint8(3), 3),
])
def test_check_integer_semantics(value, expected):
    """Which values check_integer accepts, and the plain int it returns for them;
    the values it refuses are rows of test_boundaries.REFUSALS."""
    got = check_integer(value, 0, "value")
    assert got == expected and type(got) is int


def _permutation_operator_loop(perm, n):
    """Reference: one column per input label tuple, as a loop over the n^k columns."""
    factors = len(perm)
    op = np.zeros((n**factors, n**factors), dtype=complex)
    for col, labels in enumerate(itertools.product(range(1, n + 1), repeat=factors)):
        op[_flat_index([labels[perm[r]] for r in range(factors)], n), col] = 1.0
    return op


@pytest.mark.parametrize("n", [2, 3, 4])
def test_permutation_operator_matches_column_loop(n):
    # permute_registers maps each row r to P r: the rows of the identity become P^T.
    for factors in (2, 3):
        for perm in itertools.permutations(range(factors)):
            op = permute_registers(np.eye(n**factors), perm, n).T
            assert op.dtype == np.float64
            assert np.array_equal(op, _permutation_operator_loop(perm, n))


def test_permute_registers_takes_nested_lists():
    # |12> and |21> of two qubits, as lists: the swap exchanges them.
    assert np.array_equal(permute_registers([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]], (1, 0), 2),
                          [[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def test_symmetric_basis_2_qubit_vectors():
    basis = symmetric_basis_2(2)
    assert basis.shape == (3, 4)
    np.testing.assert_allclose(basis[0], ket((1, 1), 2))
    np.testing.assert_allclose(
        basis[1], (ket((1, 2), 2) + ket((2, 1), 2)) / np.sqrt(2)
    )
    np.testing.assert_allclose(basis[2], ket((2, 2), 2))


@pytest.mark.parametrize("n", range(2, 13))
def test_symmetric_basis_2_is_its_rows_built_one_pair_at_a_time(n):
    rows = []
    for i, j in itertools.combinations_with_replacement(range(1, n + 1), 2):
        row = ket((i, j), n) + ket((j, i), n)
        rows.append(row / np.linalg.norm(row))
    basis = symmetric_basis_2(n)
    assert basis.dtype == np.float64 and basis.tobytes() == np.array(rows).tobytes()


def test_symmetric_basis_3_counts_and_vectors():
    basis = symmetric_basis_3(2)
    assert len(basis) == 4

    labels = list(itertools.combinations_with_replacement(range(1, 3), 3))
    row = basis[labels.index((1, 1, 2))]
    expected = (
        ket((1, 1, 2), 2) + ket((1, 2, 1), 2) + ket((2, 1, 1), 2)
    ) / np.sqrt(3)
    np.testing.assert_allclose(row, expected)

    basis3 = symmetric_basis_3(3)
    row123 = basis3[list(itertools.combinations_with_replacement(range(1, 4), 3)).index((1, 2, 3))]
    expected123 = sum(
        ket(p, 3) for p in itertools.permutations((1, 2, 3))
    ) / np.sqrt(6)
    np.testing.assert_allclose(row123, expected123)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symmetric_basis_3_orthonormal_and_permutation_invariant(n):
    basis = symmetric_basis_3(n)
    gram = basis.conj() @ basis.T
    np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-12)
    for perm in itertools.permutations(range(3)):
        np.testing.assert_allclose(permute_registers(basis, perm, n), basis, atol=1e-12)
        op = _permutation_operator_loop(perm, n).real
        np.testing.assert_allclose(basis @ op.T, basis, atol=1e-12)


def test_symmetric_projector_three_factors():
    proj = projector_from_rows(symmetric_basis_3(3))
    assert abs(np.trace(proj).real - 10) < 1e-10
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_mean_density_operators_are_states(n):
    rho1, rho2 = mean_density_operators(n)
    for rho in (rho1, rho2):
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(rho).min() > -1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_mean_density_blocks_are_the_dense_diagonal_blocks(n):
    # The blocks are w (I + swap)/2, whose entries w/2 and w are exact; the dense
    # operators take P_sigma's entries (1/sqrt 2)^2, which may round to one ulp off 1/2.
    ulp, weight = np.spacing(2.0 / (n**2 * (n + 1))), mean_density_weight(n)
    for rho, entry in zip(mean_density_operators(n), ("rho1", "rho2")):
        diagonal, off = diagonal_blocks(rho, n)
        assert off == 0.0
        assert max(np.abs(d - weight * getattr(kind, entry)).max(initial=0.0)
                   for d, kind in zip(diagonal, kinds.kind_table())) <= ulp


def test_mean_density_spectrum_qubits():
    rho1, _ = mean_density_operators(2)
    eigs = np.sort(np.linalg.eigvalsh(rho1))
    np.testing.assert_allclose(eigs[-6:], np.full(6, 1 / 6), atol=1e-12)
    np.testing.assert_allclose(eigs[:-6], np.zeros(2), atol=1e-12)


def test_mean_density_rank_n3():
    _, rho2 = mean_density_operators(3)
    assert np.linalg.matrix_rank(rho2, tol=1e-8) == 18


def test_dimension_table_values():
    t2 = dimension_table(2)
    assert (t2.sigma, t2.s0, t2.s1, t2.s2) == (3, 4, 6, 6)
    assert (t2.s3, t2.s4, t2.s5, t2.s6, t2.i0) == (8, 2, 2, 4, 2)
    assert t2 == (3, 4, 6, 6, 8, 2, 2, 4, 2)  # a named tuple, in field order
    t3 = dimension_table(3)
    assert (t3.s0, t3.s3, t3.s6, t3.i0) == (10, 26, 16, 8)
    assert check_dimension(3.0) == 3 and check_dimension(np.int64(4)) == 4


@pytest.mark.parametrize("n", range(2, 9))
def test_s1_product_basis_is_the_kron_loop_bit_for_bit(n):
    # The kinds' S1 and S2 rows against the kron loop's rows and their A <-> C
    # exchange, split over the V_t of each kind.
    reference = s1_rows_by_kron(n)
    for entry, rows in (("s1_rows", reference), ("s2_rows", permute_registers(reference, AC, n))):
        for kind, stack in zip(kinds.kind_table(), block_stacks(rows, n)):
            assert getattr(kind, entry).dtype == np.float64
            assert _every_block_is(stack, getattr(kind, entry)), entry


@pytest.mark.parametrize("build", [
    symmetric_basis_2, symmetric_basis_3, symmetric_projector, kind_counts,
    lambda n: povm.total_povm(n, 0.5),
], ids=["symmetric_basis_2", "symmetric_basis_3", "symmetric_projector", "kind_counts",
        "total_povm"])
def test_a_whole_float_n_gives_the_integer_n_arrays(build):
    got, expected = build(3.0), build(3)
    assert np.shape(got) == np.shape(expected) and np.array_equal(got, expected)


def test_a_whole_float_n_gives_the_integer_n_tables():
    for table in (dimension_table, constructive_table):
        assert table(3.0) == table(3)
        assert all(type(value) is int for value in tuple(table(3.0)))


@pytest.mark.parametrize("n", [2, 3])
def test_bases_and_operators_on_the_registers_are_real(n):
    arrays = [
        symmetric_basis_2(n), symmetric_basis_3(n),
        permute_registers(np.eye(n * n), (1, 0), n),
        permute_registers(np.eye(n**3), (2, 0, 1), n),
        symmetric_projector(n),
        *mean_density_operators(n),
        *(getattr(kind, entry) for kind in kinds.kind_table() for entry in ("rho1", "rho2")),
    ]
    assert all(a.dtype == np.float64 for a in arrays)
    blocks = label_blocks(n)
    assert label_blocks(n) is blocks
    for array in (blocks.block_of, blocks.kind_of, *blocks.groups):
        assert not array.flags.writeable


@pytest.mark.parametrize("n", [2, 4])
def test_label_blocks_are_the_sorted_label_multisets(n):
    blocks = label_blocks(n)
    multisets = list(itertools.combinations_with_replacement(range(n), 3))
    for flat, labels in enumerate(itertools.product(range(n), repeat=3)):
        assert blocks.block_of[flat] == multisets.index(tuple(sorted(labels)))
    seen = []
    for k, cols in enumerate(blocks.groups):
        for slot, members in enumerate(cols):
            t = blocks.block_of[members[0]]
            assert blocks.kind_of[t] == k and np.flatnonzero(blocks.kind_of == k)[slot] == t
            assert list(members) == list(np.flatnonzero(blocks.block_of == t))
            seen.append(t)
    assert sorted(seen) == list(range(len(multisets)))


@pytest.mark.parametrize("n", range(2, 9))
def test_each_group_is_exactly_the_v_t_of_its_kind(n):
    # One group per kind, in index order, absent kinds included; every V_t of a
    # kind has the same size, the number of orderings of its labels.
    blocks = label_blocks(n)
    assert [cols.shape[1] for cols in blocks.groups] == [1, 3, 3, 6]
    for k, cols in enumerate(blocks.groups):
        members = [np.flatnonzero(blocks.block_of == t)
                   for t in np.flatnonzero(blocks.kind_of == k)]
        assert cols.shape[0] == len(members)
        assert all(np.array_equal(c, m) for c, m in zip(cols, members))


def test_block_stacks_restrict_rows_and_refuse_rows_across_blocks():
    n = 3
    rows = s1_rows_by_kron(n)
    stacks = block_stacks(rows, n)
    for cols, stack in zip(label_blocks(n).groups, stacks):
        for members, block in zip(cols, stack):
            inside = rows[:, members]
            mine = inside[np.abs(inside).sum(axis=1) > 0]
            assert np.array_equal(block[:len(mine)], mine) and not block[len(mine):].any()


def test_constructive_table_counts_kinds_and_reads_their_s1_blocks(monkeypatch):
    table = dimension_table(3)
    real = spaces.kind_counts
    monkeypatch.setattr(spaces, "kind_counts", lambda n: real(n) + [0, 0, 0, 1])
    assert constructive_table(3) != table
    monkeypatch.setattr(spaces, "kind_counts", real)
    # The {a,b,c} kind's S1 block with one of its three directions dropped.
    kind_list = list(kinds.kind_table())
    _, vectors = np.linalg.eigh(kind_list[3].s1)
    kind_list[3] = dataclasses.replace(kind_list[3], s1=vectors[:, -2:] @ vectors[:, -2:].T)
    monkeypatch.setattr(kinds, "kind_table", lambda: tuple(kind_list))
    broken = constructive_table(3)
    assert broken.s1 == table.s1 - 1 and broken.s2 == table.s2


@pytest.mark.parametrize("n", range(2, 9))
def test_kind_blocks_are_the_blocks_of_the_rows_they_replace(n):
    # n^3-wide rows built without the kind table: g term by term, h as its A <-> C exchange.
    # Each kind's block is that of every V_t of its kind.
    g, s1, table = g_rows_by_formula(n), s1_rows_by_kron(n), kinds.kind_table()
    h = permute_registers(g, AC, n)
    g_perp, h_perp = reciprocal_rows(g, h)
    for entry, rows in (("p_g_perp", g_perp), ("p_h_perp", h_perp), ("p_g", g),
                        ("p_h", h), ("p0", symmetric_basis_3(n)),
                        ("s1", s1), ("s2", permute_registers(s1, AC, n))):
        for kind, reference in zip(table, block_projectors(block_stacks(rows, n))):
            assert _every_block_is(reference, getattr(kind, entry)), entry
    for entry, rows in (("g", g), ("h", h)):
        for kind, reference in zip(table, block_stacks(rows, n)):
            assert _every_block_is(reference, getattr(kind, entry)), entry
    # w (I + swap)/2 against P_sigma's entries: one ulp of w at most.
    ulp, weight = np.spacing(2.0 / (n**2 * (n + 1))), mean_density_weight(n)
    for entry, reference in zip(("rho1", "rho2"), rho_blocks_by_index_arithmetic(n)):
        assert max(np.abs(weight * getattr(kind, entry) - r).max(initial=0.0)
                   for kind, r in zip(table, reference)) <= ulp


@pytest.mark.parametrize("n", range(2, 9))
def test_kind_counts_are_the_block_counts_of_each_kind(n):
    counts = kind_counts(n)
    assert counts.tolist() == [n, n * (n - 1) // 2, n * (n - 1) // 2, n * (n - 1) * (n - 2) // 6]
    assert counts.tolist() == np.bincount(label_blocks(n).kind_of, minlength=4).tolist()
    assert counts @ [kind.d for kind in kinds.kind_table()] == n**3


def test_kind_counts_and_the_averaged_trace_take_no_memory_that_grows_with_n():
    # label_blocks(1000) alone would hold several n^3 = 10^9-entry arrays.
    with PeakMemory() as peak:
        counts = kind_counts(10**4)
        value = povm.average_success_trace(1000, 0.7, povm.Priors.from_eta1(0.3))
    assert counts.tolist() == [10**4, 49_995_000, 49_995_000, 166_616_670_000]
    n = 4 * 10**6  # C(n, 3) is past int64, where numpy would round it to a float
    assert kind_counts(n).tolist() == [n, n * (n - 1) // 2, n * (n - 1) // 2,
                                       n * (n - 1) * (n - 2) // 6]
    assert abs(value - povm.average_success(1000, 0.7, povm.Priors.from_eta1(0.3))) <= 1e-12
    assert peak.bytes < 2**20


PAIRS_20 = state_stacks(20, 200, 20)  # 200 pairs at n = 20
# A network text of PHASE lines only, one per mode.
PHASE_TEXT = "MODES 4096\n" + "".join(f"PHASE {m} 0.25\n" for m in range(1, 4097))


@pytest.mark.parametrize("call", [
    pytest.param(lambda: symmetric_basis_2(60), id="symmetric_basis_2"),
    pytest.param(lambda: product_blocks(PAIRS_20[0], PAIRS_20[0], PAIRS_20[1]),
                 id="product_blocks"),
    pytest.param(lambda: povm.pure_success_expectation(*PAIRS_20, 0.7, povm.Priors(0.3)),
                 id="pure_success_expectation"),
    pytest.param(lambda: harness.overlap_identity_check(*PAIRS_20),
                 id="overlap_identity_check"),
    pytest.param(lambda: symmetric_projector(30), id="symmetric_projector"),
    pytest.param(lambda: (spaces._label_blocks.cache_clear(), label_blocks(40)),
                 id="label_blocks"),  # built afresh, not read from the cache
    pytest.param(lambda: mean_density_operators(5), id="mean_density_operators"),
    pytest.param(lambda: povm.total_povm(5, 0.6), id="total_povm"),
    pytest.param(lambda: optics.Interferometer.from_text("MODES 4096\n"), id="from_text"),
    pytest.param(lambda: optics.Interferometer.from_text(PHASE_TEXT), id="from_text-phases"),
    # Two blocks of sampled pairs: the second is drawn while the first is held.
    *(pytest.param(lambda n=n: harness.empirical_mean_density(n, 1, 2 * harness.HAAR_BLOCK, 5),
                   id=f"empirical_mean_density-{n}") for n in (2, 3, 4)),
])
def test_each_size_estimate_covers_its_peak_and_pins_its_limit(monkeypatch, call):
    # The most bytes the call tells check_build_bytes covers its traced peak; under
    # a limit of exactly those bytes it runs, and one byte less refuses it.
    told = []
    with monkeypatch.context() as patch:
        for module in (spaces, optics, povm):
            patch.setattr(module, "check_build_bytes", lambda nbytes, what: told.append(nbytes))
        with PeakMemory() as peak:
            call()
    assert peak.bytes <= max(told)
    monkeypatch.setattr(spaces, "MAX_BUILD_BYTES", max(told))
    call()
    monkeypatch.setattr(spaces, "MAX_BUILD_BYTES", max(told) - 1)
    with pytest.raises(DomainError, match="over the limit"):
        call()


@pytest.mark.parametrize("n", [2, 3])
def test_diagonal_blocks_and_the_off_block_norm(n):
    rng = np.random.default_rng(n)
    op = rng.normal(size=(n**3, n**3))
    diagonal, off = diagonal_blocks(op, n)
    block_of = label_blocks(n).block_of
    for cols, stack in zip(label_blocks(n).groups, diagonal):
        for members, block in zip(cols, stack):
            assert np.array_equal(block, op[np.ix_(members, members)])
    outside = block_of[:, None] != block_of[None, :]
    assert off > 0 and abs(off - np.sqrt((op[outside] ** 2).sum())) <= 1e-12 * off
    rho1, _ = mean_density_operators(n)
    assert diagonal_blocks(rho1, n)[1] == 0.0
    # Nested lists are taken as the arrays they spell.
    listed, listed_off = diagonal_blocks(op.tolist(), n)
    assert listed_off == off and all(map(np.array_equal, listed, diagonal))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_diagonal_blocks_equal_the_off_block_mask_version(n):
    # The reference gathers the off-block entries through an n^6 boolean mask.
    rng = np.random.default_rng(10 + n)
    op = rng.normal(size=(n**3, n**3))
    before = op.copy()
    blocks = label_blocks(n)
    diagonal, off = diagonal_blocks(op, n)
    assert np.array_equal(op, before)  # the input is left as it was
    for cols, stack in zip(blocks.groups, diagonal):
        assert np.array_equal(stack, op[cols[:, :, None], cols[:, None, :]])
    mask = blocks.block_of[:, None] != blocks.block_of
    assert off == pytest.approx(np.linalg.norm(op[mask]), rel=1e-14, abs=0.0)
    lone = np.zeros_like(op)
    lone[tuple(np.argwhere(mask)[len(op)])] = -3e-9  # one entry off the blocks
    assert diagonal_blocks(lone, n)[1] == 3e-9


def test_s1_union_s2_rank_qubits():
    s1 = s1_rows_by_kron(2)
    stacked = np.vstack([s1, permute_registers(s1, AC, 2)])
    singular = np.linalg.svd(stacked, compute_uv=False)
    assert int((singular > 1e-8).sum()) == 8


def test_expand_u3_examples():
    # The {a,a,b} kind on V_{1,1,2} at n = 2: its S1 rows, in the kron loop's
    # (pair, C) order, are |112> and sym(1,2) x |1>.
    pairs = list(itertools.combinations_with_replacement(range(1, 3), 2))
    c_major, c_minor = np.sqrt(2 / 3), np.sqrt(1 / 3)
    aab = kinds.kind_table()[1]
    assert np.array_equal(aab.u3, [c_minor, c_major])
    s1 = s1_rows_by_kron(2)[[pairs.index((1, 1)) * 2 + 1, pairs.index((1, 2)) * 2 + 0]]
    np.testing.assert_allclose(s1[0], ket((1, 1, 2), 2))
    triples = list(itertools.combinations_with_replacement(range(1, 3), 3))
    u3 = symmetric_basis_3(2)[triples.index((1, 1, 2))]
    np.testing.assert_allclose(aab.u3 @ s1, u3, atol=1e-15)

    # The same coefficients rebuild u3 from the S2 rows, the S1 rows with
    # registers A and C exchanged.
    s2 = permute_registers(s1, AC, 2)
    sym_12 = (ket((1, 2), 2) + ket((2, 1), 2)) / np.sqrt(2)
    np.testing.assert_allclose(s2[0], ket((2, 1, 1), 2))  # |211>
    np.testing.assert_allclose(s2[1], np.kron(ket((1,), 2), sym_12))  # |1> x sym(1,2)
    np.testing.assert_allclose(aab.u3 @ s2, u3, atol=1e-15)

    abc = kinds.kind_table()[3]
    np.testing.assert_allclose(abc.u3, np.full(3, 1 / np.sqrt(3)), atol=1e-15)
    assert kinds.kind_table()[0].u3.tolist() == [1.0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_expand_u3_reconstructs_symmetric_basis(n):
    # Each V_t's kind coefficients over the kron loop's S1 rows in V_t, and over
    # their A <-> C exchange, give V_t's symmetric basis row.
    sym3, blocks, table = symmetric_basis_3(n), label_blocks(n), kinds.kind_table()
    s1 = s1_rows_by_kron(n)
    owner = blocks.block_of[np.argmax(s1 != 0, axis=1)]
    for t, target in enumerate(sym3):
        rows = s1[owner == t]
        for expanded in (rows, permute_registers(rows, AC, n)):
            assert np.linalg.norm(table[blocks.kind_of[t]].u3 @ expanded - target) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_the_ac_exchange_is_the_register_swap_and_an_involution(n):
    rng = np.random.default_rng(n)
    rows = rng.normal(size=(5, n**3)) + 1j * rng.normal(size=(5, n**3))
    swapped = permute_registers(rows, AC, n)
    assert np.array_equal(swapped, rows @ _permutation_operator_loop(AC, n).T)
    assert np.array_equal(permute_registers(swapped, AC, n), rows)
    assert np.array_equal(permute_registers(rows[0], AC, n), swapped[0])


def _same_bits(blocks, expected):
    """Whether two lists of arrays are equal in length, and each pair in shape, dtype and bits."""
    expected = list(expected)
    return len(blocks) == len(expected) and all(
        x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for x, y in zip(blocks, expected))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_product_blocks_are_the_nested_kron_on_each_v_t(n):
    # Each kind's amplitudes are the nested np.kron ket at that kind's flat
    # indices, bit for bit, for states, stacks and the nested lists they spell.
    rng = np.random.Generator(np.random.Philox(key=n))
    groups = label_blocks(n).groups
    for _ in range(20):
        a, b, c = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        ket = np.kron(np.kron(a, b), c)
        assert _same_bits(product_blocks(a, b, c), (ket[cols] for cols in groups))
    assert _same_bits(product_blocks(list(a), list(b), list(c)), product_blocks(a, b, c))
    stack = rng.normal(size=(3, 4, n)) + 1j * rng.normal(size=(3, 4, n))
    kets = np.stack([np.kron(np.kron(a, b), c) for a, b, c in stack.transpose(1, 0, 2)])
    assert _same_bits(product_blocks(*stack), (kets[:, cols] for cols in groups))
    assert _same_bits(product_blocks(*stack.tolist()), product_blocks(*stack))
    # Mixed kinds of number: the products are taken in the type nested np.kron takes.
    ints, reals = rng.integers(-9, 9, size=(2, n)), rng.normal(size=n)
    ket = np.kron(np.kron(*ints), reals)
    assert _same_bits(product_blocks(*ints, reals), (ket[cols] for cols in groups))


@pytest.mark.parametrize("lead", [(), (4,), (0,)], ids=["states", "stacks", "empty-stacks"])
def test_product_blocks_are_fresh_arrays_that_leave_the_states_alone(lead):
    # Each kind's amplitudes are multiplied in place as they are built: into an
    # array of their own, never into the states or another kind's amplitudes.
    rng = np.random.Generator(np.random.Philox(key=11))
    states = rng.normal(size=(3, *lead, 3)) + 1j * rng.normal(size=(3, *lead, 3))
    before = states.copy()
    blocks = product_blocks(*states)
    assert [x.shape for x in blocks] == [(*lead, *cols.shape) for cols in label_blocks(3).groups]
    assert states.tobytes() == before.tobytes()
    for k, x in enumerate(blocks):
        assert x.flags.writeable and not np.shares_memory(x, states)
        assert not any(np.shares_memory(x, y) for y in blocks[k + 1:])
    for t in range(lead[0] if lead else 0):  # row t of the stacks is the product of their row t
        assert _same_bits([x[t] for x in blocks], product_blocks(*states[:, t]))
