"""Paired bases for the two non-symmetric subspaces and their angle structure.

The orthogonal complements of the fully symmetric subspace inside S1 and S2
admit explicit orthonormal bases {g_i} and {h_i} whose cross overlaps are
diagonal with constant value -1/2.  Diagonal cross overlaps are exactly the
canonical (Jordan) basis condition, so each pair (g_i, h_i) spans its own
two-dimensional subspace T_i and the discrimination problem splits over the
T_i independently.  h_i is g_i with registers A and C exchanged: the
exchange maps S1 onto S2 and fixes the fully symmetric subspace.

Every g_i lies in one label-multiset space V_t (:func:`qudisc.spaces.label_blocks`),
and up to relabelling it is one of four kinds, none depending on n: one row
for t = (i, i, k) or (i, j, j), and two for three distinct labels.  g is the
four kind rows scattered over the V_t.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError
from .spaces import (
    TAU_OP,
    check_dimension,
    dimension_table,
    exchange_ac,
    label_blocks,
    triple_labels,
)

CASE_LOW = "i=j<k"
CASE_HIGH = "i<j=k"
CASE_DISTINCT = "i<j<k"
CASE_DISTINCT_PRIMED = "i<j<k'"


def _kind_rows() -> dict[str, tuple[float, ...]]:
    """The g row of each kind over the basis kets of its V_t in ascending flat
    order, which are the sorted permutations of t = (i, j, k)."""
    s = 1.0 / np.sqrt(2)
    c1, c2 = np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)
    a, b, c = (3.0 - np.sqrt(3.0)) / 6.0, (3.0 + np.sqrt(3.0)) / 6.0, np.sqrt(3.0) / 3.0
    return {
        CASE_LOW: (-c2, c1 * s, c1 * s),  # |iik>, |iki>, |kii>
        CASE_HIGH: (c1 * s, c1 * s, -c2),  # |ijj>, |jij>, |jji>
        # |ijk>, |ikj>, |jik>, |jki>, |kij>, |kji>
        CASE_DISTINCT: (a * s, -(b * s), a * s, c * s, -(b * s), c * s),
        CASE_DISTINCT_PRIMED: (-(b * s), a * s, -(b * s), c * s, a * s, c * s),
    }


_G_ROWS = _kind_rows()


def _triple_kinds(i: int, j: int, k: int) -> tuple[str, ...]:
    """The kinds of the g rows in V_t for t = (i, j, k), i <= j <= k, in row order."""
    if i == j == k:
        return ()
    if i == j:
        return (CASE_LOW,)
    if j == k:
        return (CASE_HIGH,)
    return (CASE_DISTINCT, CASE_DISTINCT_PRIMED)


def reciprocal_rows(g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(2g + h)/sqrt(3) and (2h + g)/sqrt(3), row by row: for <g|h> = -1/2, the
    unit vectors of span(g, h) orthogonal to h and to g respectively."""
    return (2.0 * g + h) / np.sqrt(3.0), (2.0 * h + g) / np.sqrt(3.0)


@dataclass(frozen=True)
class JordanPairSet:
    """Paired orthonormal families spanning S4 (g) and S5 (h).

    g and h are stacked row vectors of shape (i0, n^3); labels[m] records the
    originating case and ordered triple of row m; g_perp and h_perp are their
    :func:`reciprocal_rows`.  The arrays are read-only, as
    :func:`build_gh_bases` shares one instance per n.
    """

    n: int
    g: np.ndarray
    h: np.ndarray
    labels: tuple[tuple[str, tuple[int, int, int]], ...]
    g_perp: np.ndarray = field(init=False, repr=False)
    h_perp: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name, rows in zip(("g_perp", "h_perp"), reciprocal_rows(self.g, self.h)):
            object.__setattr__(self, name, rows)
        for rows in (self.g, self.h, self.g_perp, self.h_perp):
            rows.setflags(write=False)

    def __len__(self) -> int:
        return len(self.labels)


def build_gh_bases(n: int) -> JordanPairSet:
    """Construct the i0 = n(n+1)(n-1)/3 paired basis vectors.

    Enumeration is lexicographic in the ordered triple (i, j, k); triples with
    three distinct labels contribute two pairs (unprimed before primed).  The
    set is built once per n and shared: repeated calls return the same object.
    """
    return _build_gh_bases(check_dimension(n))


@functools.lru_cache(maxsize=4)
def _build_gh_bases(n: int) -> JordanPairSet:
    blocks = label_blocks(n)
    labels, rows, cols, values = [], [], [], []
    for t, triple in enumerate(triple_labels(n)):
        members = blocks.groups[blocks.group_of[t]][blocks.slot_of[t]]
        for kind in _triple_kinds(*triple):
            rows += [len(labels)] * len(members)
            cols.append(members)
            values += _G_ROWS[kind]
            labels.append((kind, triple))
    g = np.zeros((len(labels), n**3))
    g[rows, np.concatenate(cols)] = values
    pair_set = JordanPairSet(n=n, g=g, h=exchange_ac(g, n), labels=tuple(labels))
    assert len(pair_set) == dimension_table(n).i0
    return pair_set


def overlap_matrix(pair_set: JordanPairSet) -> np.ndarray:
    """Cross-Gram matrix G[i, j] = <g_i|h_j>."""
    if pair_set.g.shape != pair_set.h.shape:
        raise ContractError("g and h families must have matching shapes")
    return pair_set.g.conj() @ pair_set.h.T


def jordan_angles(family_a: np.ndarray, family_b: np.ndarray) -> np.ndarray:
    """Cosines of the principal angles between two orthonormal families.

    Computed as the singular values of the cross-Gram matrix, in descending
    order.  Raises ContractError if either family is not orthonormal.
    """
    for name, family in (("first", family_a), ("second", family_b)):
        gram = family.conj() @ family.T
        if np.abs(gram - np.eye(len(family))).max() > TAU_OP:
            raise ContractError(f"{name} family is not orthonormal")
    if family_a.shape[1] != family_b.shape[1]:
        raise ContractError("families live on different spaces")
    cross = family_a.conj() @ family_b.T
    return np.linalg.svd(cross, compute_uv=False)


__all__ = [
    "JordanPairSet",
    "build_gh_bases",
    "reciprocal_rows",
    "overlap_matrix",
    "jordan_angles",
    "CASE_LOW",
    "CASE_HIGH",
    "CASE_DISTINCT",
    "CASE_DISTINCT_PRIMED",
]
