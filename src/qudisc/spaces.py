"""Hilbert spaces, symmetric subspaces, and averaged input states.

The device acts on three n-dimensional registers A, B, C.  Basis labels are
1-based tuples over {1..n} (register A is the slowest-varying factor); flat
array indices are 0-based row-major.  All operators are dense complex
matrices.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations

import numpy as np

from .errors import ContractError, DomainError

# Default tolerances: norm checks, operator identities, SVD rank threshold.
TAU_NORM = 1e-10
TAU_OP = 1e-10
TAU_RANK = 1e-8


def check_integer(value, low: int, what: str) -> int:
    """`value` as an int; DomainError unless it is a whole number >= low (NaN and inf are not)."""
    if type(value) is int and value >= low:  # the common case, without the ABC checks
        return value
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    )
    if not (whole and value >= low):
        raise DomainError(f"{what} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_dimension(n: int) -> int:
    return check_integer(n, 2, "qudit dimension")


def check_unit_state(psi, n: int) -> np.ndarray:
    """`psi` as a complex vector; ContractError unless it is a finite unit vector of length n."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (n,):
        raise ContractError(f"states must be vectors of length {n}")
    if not abs(np.linalg.norm(psi) - 1.0) <= TAU_NORM:  # NaN and inf fail too
        raise ContractError("states must be unit vectors")
    return psi


def flatten_index(labels: tuple[int, ...], n: int, factors: int | None = None) -> int:
    """Row-major flat index of a 1-based basis tuple (first register slowest)."""
    check_dimension(n)
    if factors is not None and len(labels) != factors:
        raise DomainError(f"expected {factors} labels, got {len(labels)}")
    idx = 0
    for a in labels:
        if check_integer(a, 1, "basis label") > n:
            raise DomainError(f"basis label {a!r} outside 1..{n}")
        idx = idx * n + (int(a) - 1)
    return idx


def basis_ket(labels: tuple[int, ...], n: int) -> np.ndarray:
    """Computational basis vector |labels> on n^len(labels) dimensions."""
    vec = np.zeros(n ** len(labels), dtype=complex)
    vec[flatten_index(labels, n)] = 1.0
    return vec


def product_ket(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|a>|b>|c> on the three registers; the same products as nested np.kron, in one pass."""
    return np.multiply.outer(np.multiply.outer(a, b), c).ravel()


def pair_labels(n: int) -> list[tuple[int, int]]:
    """Ordered pairs (i, j), i <= j, in lexicographic order."""
    check_dimension(n)
    return list(combinations_with_replacement(range(1, n + 1), 2))


def triple_labels(n: int) -> list[tuple[int, int, int]]:
    """Ordered triples (i, j, k), i <= j <= k, in lexicographic order."""
    check_dimension(n)
    return list(combinations_with_replacement(range(1, n + 1), 3))


def _symmetrized_ket(labels: tuple[int, ...], n: int) -> np.ndarray:
    """Equal superposition of the distinct permutations of ``labels``."""
    perms = sorted(set(permutations(labels)))
    vec = np.zeros(n ** len(labels), dtype=complex)
    for p in perms:
        vec[flatten_index(p, n)] += 1.0
    return vec / np.sqrt(len(perms))


def symmetric_basis_2(n: int) -> np.ndarray:
    """Orthonormal basis of the two-fold symmetric subspace.

    Returns an array of shape (n(n+1)/2, n^2); row order follows
    :func:`pair_labels`.
    """
    check_dimension(n)
    return np.array([_symmetrized_ket(p, n) for p in pair_labels(n)])


def symmetric_basis_3(n: int) -> np.ndarray:
    """Orthonormal basis of the three-fold symmetric subspace.

    Returns an array of shape (n(n+1)(n+2)/6, n^3); row order follows
    :func:`triple_labels`.  Each row is invariant under all six register
    permutations.
    """
    check_dimension(n)
    return np.array([_symmetrized_ket(t, n) for t in triple_labels(n)])


def permutation_operator(perm: tuple[int, ...], n: int) -> np.ndarray:
    """Unitary permuting the registers: register r of the output takes the
    input register perm[r] (perm is 0-based over the factors)."""
    check_dimension(n)
    if sorted(perm) != list(range(len(perm))):
        raise DomainError(f"{perm!r} is not a permutation of the registers")
    factors, dim = len(perm), n ** len(perm)
    # Row axis r of the identity's tensor takes input register perm[r].
    eye = np.eye(dim, dtype=complex).reshape((n,) * factors + (dim,))
    return eye.transpose(*perm, factors).reshape(dim, dim)


def projector_from_rows(rows: np.ndarray) -> np.ndarray:
    """Sum of dyads of an orthonormal family given as stacked row vectors."""
    return rows.T @ rows.conj()


def exchange_ac(rows: np.ndarray, n: int) -> np.ndarray:
    """Stacked n^3 row vectors with registers A and C exchanged.

    The tensor transpose permutes entries, so it is exact, and it is its own
    inverse.  It maps S1 onto S2, and fixes every three-fold symmetric vector.
    """
    return rows.reshape(-1, n, n, n).transpose(0, 3, 2, 1).reshape(rows.shape)


def symmetric_projector(n: int) -> np.ndarray:
    """Projector onto the two-fold symmetric subspace."""
    return projector_from_rows(symmetric_basis_2(n))


def mean_density_operators(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Averaged input density operators on the three-register space.

    The first operator fills the AB symmetric subspace uniformly and is
    maximally mixed on C; the second fills the BC symmetric subspace and is
    maximally mixed on A.  Both have unit trace.
    """
    check_dimension(n)
    weight = 2.0 / (n**2 * (n + 1))
    p_sigma = symmetric_projector(n)
    eye = np.eye(n, dtype=complex)
    rho1 = weight * np.kron(p_sigma, eye)
    rho2 = weight * np.kron(eye, p_sigma)
    return rho1, rho2


@dataclass(frozen=True)
class DimensionTable:
    """Dimensions of the subspace hierarchy at qudit dimension n.

    sigma: two-fold symmetric subspace.
    s0: three-fold symmetric subspace, the common part of s1 and s2.
    s1, s2: symmetric-AB (resp. BC) times the remaining register.
    s3: span of s1 and s2.
    s4, s5: orthogonal complements of s0 in s1 (resp. s2).
    s6: orthogonal complement of s0 in s3.
    i0: number of paired basis vectors spanning s4 and s5 (= dim s4).
    """

    n: int
    sigma: int
    s0: int
    s1: int
    s2: int
    s3: int
    s4: int
    s5: int
    s6: int
    i0: int


def dimension_table(n: int) -> DimensionTable:
    """Closed-form subspace dimensions."""
    check_dimension(n)
    sigma = n * (n + 1) // 2
    s0 = n * (n + 1) * (n + 2) // 6
    s1 = n**2 * (n + 1) // 2
    s3 = n * (n + 1) * (5 * n - 2) // 6
    i0 = n * (n + 1) * (n - 1) // 3
    return DimensionTable(
        n=n, sigma=sigma, s0=s0, s1=s1, s2=s1, s3=s3,
        s4=s1 - s0, s5=s1 - s0, s6=2 * i0, i0=i0,
    )


def s1_product_basis(n: int) -> np.ndarray:
    """Orthonormal basis of S1: symmetric AB pairs tensored with C.

    Row order: pair index (lexicographic) major, C label minor.
    """
    sym2 = symmetric_basis_2(n)
    eye = np.eye(n)
    return np.array([np.kron(u, eye[a]) for u in sym2 for a in range(n)])


def s2_product_basis(n: int) -> np.ndarray:
    """Orthonormal basis of S2: A label tensored with symmetric BC pairs.

    Row m is row m of :func:`s1_product_basis` with registers A and C
    exchanged, so the row order is pair index (lexicographic) major, A label
    minor.
    """
    return exchange_ac(s1_product_basis(n), n)


def _svd_rank(rows: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(rows, tol=TAU_RANK))


def constructive_dimension_table(n: int) -> DimensionTable:
    """Subspace dimensions recomputed as SVD ranks of explicitly built spans."""
    check_dimension(n)
    sym2 = symmetric_basis_2(n)
    sym3 = symmetric_basis_3(n)
    b1 = s1_product_basis(n)
    b2 = s2_product_basis(n)
    p0 = projector_from_rows(sym3)
    p1 = projector_from_rows(b1)
    p2 = projector_from_rows(b2)

    _, singular, vh = np.linalg.svd(np.vstack([b1, b2]), full_matrices=False)
    s3 = int((singular > TAU_RANK).sum())
    p3 = projector_from_rows(vh[:s3])
    s4 = _svd_rank(p1 - p0)

    return DimensionTable(
        n=n,
        sigma=_svd_rank(sym2),
        s0=_svd_rank(sym3),
        s1=_svd_rank(b1),
        s2=_svd_rank(b2),
        s3=s3,
        s4=s4,
        s5=_svd_rank(p2 - p0),
        s6=_svd_rank(p3 - p0),
        i0=s4,
    )


def _pair_index(i: int, j: int, n: int) -> int:
    return pair_labels(n).index((min(i, j), max(i, j)))


def expand_u3(n: int, triple: tuple[int, int, int]) -> np.ndarray:
    """Coefficients of a three-fold symmetric basis vector over S1 and S2.

    The coefficients refer to :func:`s1_product_basis` order.  The vector is
    fixed by the A<->C exchange that takes each S1 row to the S2 row of the
    same index, so the same coefficients expand it over
    :func:`s2_product_basis`.  Triples must satisfy i <= j <= k; the fully
    repeated triple i = j = k expands trivially to a single product basis
    vector.
    """
    check_dimension(n)
    if len(triple) != 3:
        raise DomainError(f"expected 3 labels, got {len(triple)}")
    i, j, k = (check_integer(label, 1, "basis label") for label in triple)
    if not (1 <= i <= j <= k <= n):
        raise DomainError(f"triple {triple} is not ordered within 1..{n}")

    npairs = n * (n + 1) // 2
    coeffs = np.zeros(npairs * n, dtype=complex)
    c_major = np.sqrt(2.0 / 3.0)
    c_minor = np.sqrt(1.0 / 3.0)

    def slot(pair: tuple[int, int], c_label: int) -> int:
        return _pair_index(*pair, n) * n + (c_label - 1)

    if i == j == k:
        coeffs[slot((i, i), i)] = 1.0
    elif i == j:
        coeffs[slot((i, k), i)] = c_major
        coeffs[slot((i, i), k)] = c_minor
    elif j == k:
        coeffs[slot((i, j), j)] = c_major
        coeffs[slot((j, j), i)] = c_minor
    else:
        for pair, c in (((i, j), k), ((i, k), j), ((j, k), i)):
            coeffs[slot(pair, c)] = c_minor
    return coeffs
