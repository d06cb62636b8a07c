"""Paired bases for the two non-symmetric subspaces and their angle structure.

The orthogonal complements of the fully symmetric subspace inside S1 and S2
admit explicit orthonormal bases {g_i} and {h_i} whose cross overlaps are
diagonal with constant value -1/2.  Diagonal cross overlaps are exactly the
canonical (Jordan) basis condition, so each pair (g_i, h_i) spans its own
two-dimensional subspace T_i and the discrimination problem splits over the
T_i independently.  h_i is g_i with registers A and C exchanged: the
exchange maps S1 onto S2 and fixes the fully symmetric subspace.

Every g_i lies in one label-multiset space V_t (:func:`qudisc.spaces.label_blocks`),
and up to relabelling it is a row of one of four kinds, none depending on n
(:mod:`qudisc.kinds`): one row for t = (i, i, k) or (i, j, j), and two for three
distinct labels.  g holds each kind's rows on every V_t of that kind.
"""

from __future__ import annotations

import numpy as np

from . import kinds
from .errors import ContractError
from .scalars import check_dimension, dimension_table
from .spaces import TAU_OP, check_array, check_build_bytes, label_blocks, permute_registers


def build_gh_bases(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The paired families (g, h): float64 arrays of the i0 = n(n+1)(n-1)/3 rows
    spanning S4 and S5, h_m being g_m with registers A and C exchanged.

    Enumeration is lexicographic in the ordered triple (i, j, k); triples with
    three distinct labels contribute two pairs (unprimed before primed).  Their
    reciprocal rows g_perp and h_perp are :func:`qudisc.kinds.reciprocal_rows`.
    """
    n, i0 = check_dimension(n), dimension_table(n).i0
    # g and h peak at 2.26, 2.02 and 2.00 times g's bytes at n = 6, 10 and 14
    # (tracemalloc, the V_t tables built too); 2.5 times them admits n <= 23.
    check_build_bytes(20 * i0 * n**3, "g and h (i0 x n^3 each)")
    blocks, table = label_blocks(n), kinds.kind_table()
    depth = np.array([len(kind.cases) for kind in table])[blocks.kind_of]  # g rows per V_t
    first = np.cumsum(depth) - depth
    g = np.zeros((depth.sum(), n**3))
    for k, (cols, kind) in enumerate(zip(blocks.groups, table)):
        index = first[blocks.kind_of == k, None] + np.arange(len(kind.cases))
        g[index[:, :, None], cols[:, None, :]] = kind.g  # the kind's rows on each of its V_t
    assert len(g) == i0
    return g, permute_registers(g, (2, 1, 0), n)


def jordan_angles(family_a: np.ndarray, family_b: np.ndarray) -> np.ndarray:
    """Cosines of the principal angles between two orthonormal families.

    Computed as the singular values of the cross-Gram matrix, in descending
    order; empty families give an empty array.  Raises ContractError unless both
    are numeric 2-D arrays of orthonormal rows.
    """
    family_a, family_b = (check_array(f, f"{name} family", (2,))
                          for f, name in ((family_a, "first"), (family_b, "second")))
    for name, family in (("first", family_a), ("second", family_b)):
        gram = family.conj() @ family.T
        if not np.abs(gram - np.eye(len(family))).max(initial=0.0) <= TAU_OP:  # NaN fails too
            raise ContractError(f"{name} family is not orthonormal")
    if family_a.shape[1] != family_b.shape[1]:
        raise ContractError("families live on different spaces")
    cross = family_a.conj() @ family_b.T
    return np.linalg.svd(cross, compute_uv=False)

