from itertools import combinations_with_replacement

import numpy as np
import pytest

from qudisc import jordan, kinds
from qudisc.errors import DomainError
from qudisc.jordan import build_gh_bases, jordan_angles
from qudisc.kinds import CASE_DISTINCT, CASE_DISTINCT_PRIMED, reciprocal_rows
from qudisc.scalars import dimension_table
from qudisc.spaces import (
    label_blocks,
    mean_density_operators,
    mean_density_weight,
    permute_registers,
    projector_from_rows,
)
from references import (
    diagonal_blocks, g_rows_by_formula, ket, s1_rows_by_kron, sorted_label_blocks,
    symmetric_basis_3,
)
from shared import PeakMemory, never


def _row_triples(rows, n):
    """The label triple t of the one V_t that each row is supported on."""
    block_of = sorted_label_blocks(n).block_of
    triples = list(combinations_with_replacement(range(1, n + 1), 3))
    blocks = [np.unique(block_of[np.flatnonzero(row)]) for row in rows]
    assert all(len(b) == 1 for b in blocks)
    return [triples[b[0]] for b in blocks]


def test_qubit_pair_count_and_triples():
    g, h = build_gh_bases(2)
    assert g.shape == h.shape == (2, 8)
    assert _row_triples(g, 2) == [(1, 1, 2), (1, 2, 2)]


def test_qubit_g_vector_explicit():
    g, _ = build_gh_bases(2)
    sym_12 = (ket((1, 2), 2) + ket((2, 1), 2)) / np.sqrt(2)
    expected = np.sqrt(1 / 3) * np.kron(sym_12, np.eye(2)[0]) - np.sqrt(
        2 / 3
    ) * ket((1, 1, 2), 2)
    np.testing.assert_allclose(g[0], expected, atol=1e-15)


def test_qubit_h_vector_explicit():
    _, h = build_gh_bases(2)
    sym_12 = (ket((1, 2), 2) + ket((2, 1), 2)) / np.sqrt(2)
    expected = np.sqrt(1 / 3) * np.kron(np.eye(2)[0], sym_12) - np.sqrt(
        2 / 3
    ) * ket((2, 1, 1), 2)
    np.testing.assert_allclose(h[0], expected, atol=1e-15)


def _h_rows_by_formula(n):
    """The h family written out case by case: A label with a symmetric BC pair."""
    eye = np.eye(n)
    c1, c2 = np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)
    a = (3.0 - np.sqrt(3.0)) / 6.0
    b = (3.0 + np.sqrt(3.0)) / 6.0
    c = np.sqrt(3.0) / 3.0

    def sym_pair(i, j):
        if i == j:
            return ket((i, i), n)
        return (ket((i, j), n) + ket((j, i), n)) / np.sqrt(2)

    def a_with_pair(i, j, k):
        return np.kron(eye[i - 1], sym_pair(j, k))

    rows = []
    for i, j, k in combinations_with_replacement(range(1, n + 1), 3):
        if i == j == k:
            continue
        if i == j:
            rows.append(c1 * a_with_pair(i, i, k) - c2 * ket((k, i, i), n))
        elif j == k:
            rows.append(c1 * a_with_pair(j, i, j) - c2 * ket((i, j, j), n))
        else:
            rows.append(
                a * a_with_pair(k, i, j) - b * a_with_pair(j, i, k) + c * a_with_pair(i, j, k)
            )
            rows.append(
                a * a_with_pair(j, i, k) - b * a_with_pair(k, i, j) + c * a_with_pair(i, j, k)
            )
    return np.array(rows)


@pytest.mark.parametrize("n", range(2, 9))  # every n that verify admits
def test_g_family_is_the_case_formulas(n):
    assert build_gh_bases(n)[0].tobytes() == g_rows_by_formula(n).tobytes()


@pytest.mark.parametrize("n", range(2, 9))  # every n that verify admits
def test_h_family_is_the_case_formulas(n):
    assert np.array_equal(build_gh_bases(n)[1], _h_rows_by_formula(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_families_orthonormal_and_off_symmetric(n):
    g, h = build_gh_bases(n)
    i0 = dimension_table(n).i0
    assert len(g) == len(h) == i0
    for family in (g, h):
        gram = family.conj() @ family.T
        np.testing.assert_allclose(gram, np.eye(i0), atol=1e-12)
        # Every row orthogonal to the fully symmetric subspace.
        overlaps = family.conj() @ symmetric_basis_3(n).T
        assert np.abs(overlaps).max() < 1e-12


def test_primed_ordering_for_distinct_triples():
    # The two rows on the V_t of (1, 2, 3) are the {a,b,c} kind's unprimed row,
    # then its primed row, over the V_t's kets in ascending flat order.
    g, _ = build_gh_bases(3)
    rows = [m for m, triple in enumerate(_row_triples(g, 3)) if triple == (1, 2, 3)]
    kind = kinds.kind_table()[3]
    cols = label_blocks(3)[3][0]  # (1, 2, 3) is the first, and at n = 3 the only, {a,b,c}
    triples = list(combinations_with_replacement(range(1, 4), 3))
    assert sorted_label_blocks(3).block_of[cols[0]] == triples.index((1, 2, 3))
    cases = [kind.cases.index(case) for case in (CASE_DISTINCT, CASE_DISTINCT_PRIMED)]
    assert np.array_equal(g[np.ix_(rows, cols)], kind.g[cases])



def test_jordan_angles_identical_family():
    g, _ = build_gh_bases(2)
    np.testing.assert_allclose(jordan_angles(g, g), 1.0, atol=1e-12)


def test_jordan_angles_one_dimensional_oracle():
    rng = np.random.Generator(np.random.Philox(key=11))
    for _ in range(10):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        cos = jordan_angles(a[None, :], b[None, :])[0]
        assert abs(cos - abs(np.vdot(a, b))) < 1e-12
        assert jordan_angles([list(a)], [list(b)])[0] == cos  # nested lists are taken as arrays


def density_from_jordan(n):
    """w (P_0 + P_g) and w (P_0 + P_h), w = 2 / (n^2 (n+1)): the averaged inputs
    rebuilt densely from the paired bases."""
    weight = 2.0 / (n**2 * (n + 1))
    p0 = projector_from_rows(symmetric_basis_3(n))
    return tuple(weight * (p0 + projector_from_rows(rows)) for rows in build_gh_bases(n))


@pytest.mark.parametrize("n", [2, 3])
def test_density_from_jordan_matches_direct(n):
    rho1_j, rho2_j = density_from_jordan(n)
    rho1, rho2 = mean_density_operators(n)
    assert np.abs(rho1_j - rho1).max() < 1e-12
    assert np.abs(rho2_j - rho2).max() < 1e-12
    # The kind blocks the verification suite reads are those of the rebuilt states.
    weight = mean_density_weight(n)
    for rebuilt, entry in zip((rho1_j, rho2_j), ("rho1", "rho2")):
        diagonal, off = diagonal_blocks(rebuilt, n)
        assert off < 1e-12
        assert max(np.abs(d - weight * getattr(kind, entry)).max(initial=0.0)
                   for d, kind in zip(diagonal, kinds.kind_table())) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_g_family_completes_s1(n):
    g, h = build_gh_bases(n)
    p0 = projector_from_rows(symmetric_basis_3(n))
    s1 = s1_rows_by_kron(n)
    p_s1 = projector_from_rows(s1)
    p_s2 = projector_from_rows(permute_registers(s1, (2, 1, 0), n))  # A and C exchanged
    assert np.abs(p0 + projector_from_rows(g) - p_s1).max() < 1e-10
    assert np.abs(p0 + projector_from_rows(h) - p_s2).max() < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_build_is_real(n):
    g, h = build_gh_bases(n)
    assert all(rho.dtype == np.float64 for rho in density_from_jordan(n))
    for rows in (g, h, *reciprocal_rows(g, h)):
        assert rows.dtype == np.float64


@pytest.mark.parametrize("n", [6, 10])
def test_build_gh_bases_peaks_inside_its_build_estimate(n):
    # check_build_bytes is told 2.5 times g's 8 i0 n^3 bytes; g and h, with the
    # V_t tables if they are not yet built, peak at about 2.3 (n = 6) and 2.0 (n = 10).
    with PeakMemory() as peak:
        build_gh_bases(n)
    assert peak.bytes <= 20 * dimension_table(n).i0 * n**3


def test_build_gh_bases_admits_n_up_to_23(monkeypatch):
    with pytest.raises(DomainError, match="over the limit"):
        build_gh_bases(24)
    monkeypatch.setattr(jordan, "label_blocks", never("the size rule passed"))
    with pytest.raises(AssertionError, match="the size rule passed"):
        build_gh_bases(23)
