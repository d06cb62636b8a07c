"""The four kinds of label-multiset space V_t, and every V_t block of the package.

V_t is spanned by the basis kets |x y z> of the three registers whose labels
are a permutation of the multiset t (:func:`qudisc.spaces.label_blocks`).  Up
to an order-preserving relabelling, which keeps the kets' ascending flat
order, t is one of four kinds: {a,a,a}, {a,a,b}, {a,b,b} and {a,b,c} with
a < b < c.  So an operator built alike on every V_t has one block per kind,
the same at every qudit dimension n.  :func:`qudisc.spaces.label_blocks`
lays each kind's `members` over the V_t of that kind at a given n, and the
block held here broadcasts over them.

The g rows and the S1 product-basis rows are written out from their
definitions.  h and the S2 rows are them with A and C exchanged, and rho1 and
rho2 are (I + P_AB)/2 and (I + P_BC)/2, all through the kind's permutation
matrices (`perms`).  So the checks that hold sums of the permutations against
the projectors of the rows compare independent constructions.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import permutations

import numpy as np

CASE_LOW = "i=j<k"
CASE_HIGH = "i<j=k"
CASE_DISTINCT = "i<j<k"
CASE_DISTINCT_PRIMED = "i<j<k'"
# One multiset t of each kind, in the kind table's order, with the cases of its g rows.
_KINDS = (((0, 0, 0), ()), ((0, 0, 1), (CASE_LOW,)), ((0, 1, 1), (CASE_HIGH,)),
          ((0, 1, 2), (CASE_DISTINCT, CASE_DISTINCT_PRIMED)))


def _g_rows() -> dict[str, tuple[float, ...]]:
    """The g row of each case over the basis kets of its V_t in ascending flat
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


def _u3_coefficients() -> dict[tuple[int, int, int], tuple[float, ...]]:
    """The paper's expansion of each kind's unit symmetric vector over its S1
    rows, in their order: sqrt(2/3) on the symmetric pair {a,b} with the
    repeated label in C, sqrt(1/3) on the repeated pair, 1/sqrt(3) on each
    pair of {a,b,c}.  The A <-> C exchange fixes the vector and maps each S1
    row to its S2 row, so the same coefficients expand it over the S2 rows."""
    c1, c2 = np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)
    return {(0, 0, 0): (1.0,), (0, 0, 1): (c1, c2), (0, 1, 1): (c2, c1), (0, 1, 2): (c1, c1, c1)}


# The six register permutations as spaces.permute_registers takes them (register
# r takes register perm[r]), with their signs: the identity, the two 3-cycles,
# then the exchanges of A and B, of B and C and of A and C.
PERMUTATIONS = (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                ((1, 0, 2), -1), ((0, 2, 1), -1), ((2, 1, 0), -1))
SWAP_AB, SWAP_BC, SWAP_AC = 3, 4, 5  # their places in PERMUTATIONS


def symmetrizers(perms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S1 = (I + P_AB)/2, S2 = (I + P_BC)/2 and S3 = I - sum_sigma sgn(sigma) P_sigma / 6
    from the six permutation matrices P_sigma, given in the order of PERMUTATIONS
    (the first is I): the projectors onto the AB- and BC-symmetric subspaces and onto
    their span, the complement of the antisymmetric subspace.  The same sums serve
    one kind's V_t and the whole three-register space."""
    eye = perms[0]
    s3 = eye - sum(sign * p for (_, sign), p in zip(PERMUTATIONS, perms)) / 6
    return (eye + perms[SWAP_AB]) / 2, (eye + perms[SWAP_BC]) / 2, s3


def projector_from_rows(rows: np.ndarray) -> np.ndarray:
    """Sum of dyads of an orthonormal family given as stacked row vectors."""
    return rows.T @ rows.conj()


def reciprocal_rows(g: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(2g + h)/sqrt(3) and (2h + g)/sqrt(3), row by row: for <g|h> = -1/2, the
    unit vectors of span(g, h) orthogonal to h and to g respectively."""
    return (2.0 * g + h) / np.sqrt(3.0), (2.0 * h + g) / np.sqrt(3.0)


@dataclass(frozen=True)
class Kind:
    """One kind of V_t, on its d basis kets in ascending flat order.

    g, h, g_perp and h_perp are the kind's rows of the paired families, one per
    entry of `cases`.  p0 projects onto the symmetric vector, and p_g, p_h,
    p_g_perp and p_h_perp onto the spans of those rows.  s1_rows are the S1
    product-basis rows in V_t, a symmetric AB pair with a C label, in
    lexicographic (pair, C) order; s2_rows are them with A and C exchanged, and
    s1 and s2 project onto their spans.  u3 expands the unit symmetric vector
    over either.  rho1 and rho2 are the blocks of the averaged inputs over
    w = 2/(n^2 (n+1)).  perms stacks the d x d matrices of PERMUTATIONS: rows @
    perms[s] permutes the registers of rows on V_t as spaces.permute_registers
    does on the whole space.  members holds the (d, 3) label indices of the
    kets, 0 = a, 1 = b and 2 = c, in their order.  All arrays are read-only.
    """

    d: int
    cases: tuple[str, ...]
    members: np.ndarray
    g: np.ndarray
    h: np.ndarray
    g_perp: np.ndarray
    h_perp: np.ndarray
    p0: np.ndarray
    p_g: np.ndarray
    p_h: np.ndarray
    p_g_perp: np.ndarray
    p_h_perp: np.ndarray
    s1_rows: np.ndarray
    s2_rows: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    u3: np.ndarray
    rho1: np.ndarray
    rho2: np.ndarray
    perms: np.ndarray


def _kind(labels: tuple[int, int, int], cases: tuple[str, ...]) -> Kind:
    members = tuple(sorted(set(permutations(labels))))
    d = len(members)
    # Register r of member m takes register perm[r] of its source, as in spaces.permute_registers.
    perms = np.zeros((len(PERMUTATIONS), d, d))
    for s, (perm, _) in enumerate(PERMUTATIONS):
        for j, m in enumerate(members):
            perms[s, members.index(tuple(m[perm.index(r)] for r in range(3))), j] = 1.0

    g = np.array([_g_rows()[case] for case in cases]).reshape(len(cases), d)
    h = g @ perms[SWAP_AC]
    g_perp, h_perp = reciprocal_rows(g, h)
    # S1's product-basis rows: one per symmetric AB pair and C label, in that order.
    keys = [(*sorted(m[:2]), m[2]) for m in members]
    s1_rows = np.array([[1.0 / np.sqrt(keys.count(k)) if key == k else 0.0 for key in keys]
                        for k in sorted(set(keys))])
    s2_rows = s1_rows @ perms[SWAP_AC]  # S2 is S1 with A and C exchanged
    rho1, rho2, _ = symmetrizers(perms)  # (I + swap_AB)/2 and (I + swap_BC)/2
    projectors = {name: projector_from_rows(rows) for name, rows in (
        ("p0", np.full((1, d), 1.0 / np.sqrt(d))), ("p_g", g), ("p_h", h), ("p_g_perp", g_perp),
        ("p_h_perp", h_perp), ("s1", s1_rows), ("s2", s2_rows))}
    kind = Kind(d=d, cases=cases, members=np.array(members), g=g, h=h, g_perp=g_perp,
                h_perp=h_perp, s1_rows=s1_rows, s2_rows=s2_rows,
                u3=np.array(_u3_coefficients()[labels]), rho1=rho1, rho2=rho2, perms=perms,
                **projectors)
    for value in vars(kind).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return kind


@functools.cache
def kind_table() -> tuple[Kind, ...]:
    """The kinds {a,a,a}, {a,a,b}, {a,b,b} and {a,b,c}, in the order of the
    groups of :func:`qudisc.spaces.label_blocks`; built once, on first use."""
    return tuple(_kind(labels, cases) for labels, cases in _KINDS)
