import itertools

import numpy as np
import pytest

from qudisc import kinds
from qudisc.kinds import CASE_DISTINCT, CASE_DISTINCT_PRIMED, CASE_HIGH, CASE_LOW
from qudisc.spaces import label_blocks, permute_registers
from references import sorted_label_blocks

ARRAYS = ("g", "h", "g_perp", "h_perp", "p0", "p_g", "p_h", "p_g_perp", "p_h_perp",
          "s1_rows", "s2_rows", "s1", "s2", "rho1", "rho2", "perms")


def test_the_four_kinds_and_their_rows():
    table = kinds.kind_table()
    assert kinds.kind_table() is table
    assert [kind.d for kind in table] == [1, 3, 3, 6]
    assert [kind.cases for kind in table] == [
        (), (CASE_LOW,), (CASE_HIGH,), (CASE_DISTINCT, CASE_DISTINCT_PRIMED)]
    for kind in table:
        for name in ARRAYS:
            array = getattr(kind, name)
            assert array.dtype == np.float64 and not array.flags.writeable, name
            assert array.shape[-1] == kind.d, name
        assert kind.u3.dtype == np.float64 and not kind.u3.flags.writeable
        assert kind.u3.shape == kind.s1_rows.shape[:1] == kind.s2_rows.shape[:1]
        assert kind.members.shape == (kind.d, 3) and not kind.members.flags.writeable


@pytest.mark.parametrize("n", [2, 3, 5])
def test_each_block_has_the_members_of_its_kind_up_to_relabelling(n):
    kind_of, table = sorted_label_blocks(n).kind_of, kinds.kind_table()
    labels = np.indices((n,) * 3).reshape(3, -1).T
    for k, cols in enumerate(label_blocks(n)):
        for t, members in zip(np.flatnonzero(kind_of == k), cols):
            relabel = {x: r for r, x in enumerate(np.unique(labels[members]))}
            kets = [tuple(relabel[x] for x in labels[f]) for f in members]
            labels_of_kind = kinds._KINDS[kind_of[t]][0]
            assert kets == sorted(set(itertools.permutations(labels_of_kind)))
            assert len(kets) == table[kind_of[t]].d
            assert kets == list(map(tuple, table[kind_of[t]].members))


def _gap(a, b):
    return np.abs(a - b).max(initial=0.0)


def test_kind_identities():
    # The entries are built independently; the paper's identities tie them together.
    for kind in kinds.kind_table():
        rows = len(kind.cases)
        assert _gap(kind.g @ kind.g.T, np.eye(rows)) <= 1e-15
        assert _gap(kind.g @ kind.h.T, -0.5 * np.eye(rows)) <= 1e-15
        assert _gap(kind.p0 + kind.p_g, kind.s1) <= 1e-15
        assert _gap(kind.p0 + kind.p_h, kind.s2) <= 1e-15
        assert _gap(kind.p0 + kind.p_g, kind.rho1) <= 1e-15
        assert _gap(kind.p0 + kind.p_h, kind.rho2) <= 1e-15
        assert _gap(kind.h_perp, kind.g_perp / 2 + np.sqrt(3) / 2 * kind.h) <= 1e-15
        assert _gap(kind.p_g_perp @ kind.h.T, 0.0) <= 1e-15  # g_perp is orthogonal to h
        assert _gap(kind.s1_rows.T @ kind.s1_rows, kind.s1) == 0.0
        assert _gap(kind.s2_rows.T @ kind.s2_rows, kind.s2) == 0.0
        for rows in (kind.s1_rows, kind.s2_rows):  # u3 expands the unit symmetric vector
            assert _gap(kind.u3 @ rows, np.full(kind.d, 1 / np.sqrt(kind.d))) <= 1e-15


def test_the_permutation_sums_are_the_projectors_of_the_paper_rows():
    # Schur-Weyl duality on one V_t: S1, S2 and S3 of the permutation matrices
    # against the product-basis projectors and the reciprocal families' projectors.
    signs = [sign for _, sign in kinds.PERMUTATIONS]
    assert sorted(perm for perm, _ in kinds.PERMUTATIONS) == sorted(itertools.permutations(range(3)))
    assert signs == [1, 1, 1, -1, -1, -1] and kinds.PERMUTATIONS[0][0] == (0, 1, 2)
    for kind in kinds.kind_table():
        assert kind.perms.shape == (6, kind.d, kind.d)
        assert all(np.array_equal(p @ p.T, np.eye(kind.d)) for p in kind.perms)
        s1, s2, s3 = kinds.symmetrizers(kind.perms)
        assert _gap(s1, kind.s1) <= 1.2e-16 and _gap(s2, kind.s2) <= 1.2e-16
        assert _gap(s3 - s2, kind.p_g_perp) <= 2.3e-16
        assert _gap(s3 - s1, kind.p_h_perp) <= 2.3e-16
        assert np.array_equal(s1, kind.rho1) and np.array_equal(s2, kind.rho2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_kind_permutes_its_kets_as_permute_registers_does(n):
    groups, table = label_blocks(n), kinds.kind_table()
    eye = np.eye(n**3)
    for s, (perm, _) in enumerate(kinds.PERMUTATIONS):
        moved = permute_registers(eye, perm, n)
        for cols, kind in zip(groups, table):
            for members in cols:
                assert np.array_equal(moved[np.ix_(members, members)], kind.perms[s])
