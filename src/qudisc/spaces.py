"""Hilbert spaces, symmetric subspaces, and averaged input states.

The device acts on three n-dimensional registers A, B, C.  Basis labels are
1-based tuples over {1..n} (register A is the slowest-varying factor); flat
array indices are 0-based row-major.  Bases and operators on the registers are
real (float64); only states and their product amplitudes are complex.

A basis ket |i j k> lies in the label-multiset space V_t of its sorted labels
t.  The symmetric bases, the S1 and S2 product bases and the averaged input
states are block diagonal over these spaces, and each V_t block is that of
its kind (:mod:`qudisc.kinds`).  :func:`label_blocks` groups the V_t by kind,
so one block of the kind table broadcasts over every V_t of its group.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kinds
from .errors import ContractError, DomainError
from .kinds import projector_from_rows
from .scalars import DimensionTable, check_dimension, check_integer

# Default tolerances: norm checks, operator identities, SVD rank threshold.
TAU_NORM = 1e-10
TAU_OP = 1e-10
TAU_RANK = 1e-8
# Most bytes one call may build, the package's one size rule: calls whose arrays
# grow with n, or with a stack of states, estimate their peak and raise
# DomainError above it before they allocate.  1 GiB is a quarter of a 4 GiB VM
# and some 180 times the largest such call of the tests (total_povm at n = 6).
# It admits the V_t up to n = 237, the paired bases up to n = 23, total_povm up
# to n = 14, verify_all up to n_max = 48, and the unitary of a full mesh up to
# 2189 modes, whose text round-trips.
MAX_BUILD_BYTES = 2**30


def check_real(value, what: str, low: float = -math.inf, high: float = math.inf) -> float:
    """`value` as a float; DomainError unless it is a real number in [low, high] (NaN is not)."""
    try:
        if isinstance(value, (str, bytes, bool, np.bool_, np.complexfloating)):
            raise TypeError  # float() would take them
        real = float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond the floats
        raise DomainError(f"{what} must be a real number, got {value!r}") from None
    if not low <= real <= high:
        raise DomainError(f"{what} must lie in [{low}, {high}], got {real}")
    return real


def check_array(values, what: str, ranks: tuple[int, ...] | None, dtype=None) -> np.ndarray:
    """`values` as an array with as many axes as one entry of `ranks` (any number when
    None), cast to `dtype` when given; an array that needs no cast is returned as is.

    Ragged nesting, entries that are not numbers, booleans and casts that lose a
    part (complex to real) are refused.  Arrays of states, rows or operators raise
    ContractError; real arrays (dtype float) hold angles, and raise DomainError as
    scalars do.
    """
    error = DomainError if dtype is float else ContractError
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting
        raise error(f"{what} must be a rectangular array of numbers") from None
    if array.dtype.kind not in "iufc" or not np.can_cast(array.dtype, dtype or array.dtype,
                                                        "same_kind"):
        raise error(f"{what} must be an array of {'real ' if dtype is float else ''}numbers, "
                    f"got {array.dtype} entries")
    if ranks is not None and array.ndim not in ranks:
        axes = " or ".join(map(str, ranks))
        raise error(f"{what} must have {axes} axes, got shape {array.shape}")
    return array if dtype is None else array.astype(dtype, copy=False)


def check_build_bytes(nbytes: int, what: str) -> None:
    """DomainError if a call would build more than MAX_BUILD_BYTES for `what`."""
    if nbytes > MAX_BUILD_BYTES:
        raise DomainError(f"{what} would take {nbytes} bytes, over the limit {MAX_BUILD_BYTES}")


def check_unit_states(psi1, psi2) -> tuple[np.ndarray, np.ndarray]:
    """Two states (n,), or two row-aligned stacks of states (T, n), as complex
    arrays: ContractError unless the two have one shape and every state is a
    finite unit vector, DomainError unless n, the last axis, is at least 2."""
    psi1, psi2 = (check_array(psi, "states", (1, 2), complex) for psi in (psi1, psi2))
    if psi1.shape != psi2.shape:
        raise ContractError(f"states must be two vectors of one length, or equal stacks of "
                            f"them, got shapes {psi1.shape} and {psi2.shape}")
    check_dimension(psi1.shape[-1])
    for psi in (psi1, psi2):  # the norms, with no temporary as large as the states
        norms = np.sqrt(sum(np.einsum("...i,...i", part, part) for part in (psi.real, psi.imag)))
        if not np.all(np.abs(norms - 1.0) <= TAU_NORM):  # NaN and inf fail too
            raise ContractError("states must be unit vectors")
    return psi1, psi2


@dataclass(frozen=True)
class LabelBlocks:
    """The label-multiset spaces V_t of the three registers at dimension n.

    block_of[f] is the index of flat basis index f's sorted label tuple among the
    triples i <= j <= k in lexicographic order.  kind_of[t] has bit 1 set where the
    first two sorted labels of t differ and bit 0 where the last two do: the index into
    :func:`qudisc.kinds.kind_table`.  groups[k] is a (blocks, d) array: the flat
    indices of each V_t of kind k, ascending, with the blocks in index order,
    and d the kind's width in the kind table; a kind absent at n has no rows.
    All arrays are read-only.
    """

    block_of: np.ndarray
    groups: tuple[np.ndarray, ...]
    kind_of: np.ndarray


def label_blocks(n: int) -> LabelBlocks:
    """The V_t at qudit dimension n; one shared instance per n."""
    n = check_dimension(n)
    # The labels, sorted, their keys and their sorts: about ten int64 per basis ket.
    check_build_bytes(8 * 10 * n**3, "the V_t of 3 registers")
    return _label_blocks(n)


# verify_all(n_max) reads one key per n, n = 2..n_max, many times over within
# each n's checks: n_max - 1 keys, which 16 holds up to n_max = 17.
# verify_all(48), the largest it admits, reads 47 keys: 439 hits, 78 misses
# from a cleared cache (the global checks' one sweep down from n = 48 misses
# the 31 keys below n = 33 that the per-n loop evicted).
@functools.lru_cache(maxsize=16)
def _label_blocks(n: int) -> LabelBlocks:
    labels = np.sort(np.indices((n, n, n)).reshape(3, -1).T, axis=1)
    keys = labels @ np.array([n * n, n, 1])
    _, first, block_of = np.unique(keys, return_index=True, return_inverse=True)
    kind_of = (np.diff(labels[first], axis=1) != 0) @ np.array([2, 1])
    members = np.argsort(block_of, kind="stable")  # each V_t's flat indices in turn
    member_kind = kind_of[block_of[members]]
    groups = tuple(members[member_kind == k].reshape(-1, kind.d)
                   for k, kind in enumerate(kinds.kind_table()))
    blocks = LabelBlocks(block_of=block_of, groups=groups, kind_of=kind_of)
    for array in (block_of, kind_of, *groups):
        array.setflags(write=False)
    return blocks


def kind_counts(n: int) -> np.ndarray:
    """The number of V_t of each kind at qudit dimension n: n, C(n,2), C(n,2) and
    C(n,3), as int64, or as exact Python ints once C(n,3) outgrows int64."""
    n = check_dimension(n)
    pairs, triples = n * (n - 1) // 2, n * (n - 1) * (n - 2) // 6
    return np.array([n, pairs, pairs, triples], dtype=np.int64 if triples < 2**63 else object)


def product_blocks(a, b, c) -> list[np.ndarray]:
    """The amplitudes of |a>|b>|c> on each V_t, one (..., blocks, d) array per kind
    (:attr:`LabelBlocks.groups`), for numeric states (n,) or row-aligned stacks (T, n)
    of one n >= 2, else ContractError: nested np.kron's products, bit for bit, with no n^3 ket."""
    a, b, c = (check_array(s, "states", (1, 2)) for s in (a, b, c))
    n, dtype = a.shape[-1], np.result_type(a, b, c)
    if not (a.shape == b.shape == c.shape and n >= 2):
        raise ContractError("states must be three vectors or three stacks of one length, all of "
                            f"n >= 2 entries, got shapes {a.shape}, {b.shape} and {c.shape}")
    # a (x) b, the amplitudes, one kind's gather of c and its two index arrays, and
    # a broadcasting ufunc's buffers of np.getbufsize() entries for each operand.
    entries = a.size * (n + 2 * n**2) + 3 * np.getbufsize()
    check_build_bytes(dtype.itemsize * entries + 16 * n**3, "the product amplitudes")
    ab = (a[..., :, None] * b[..., None, :]).reshape(*a.shape[:-1], n * n).astype(dtype, copy=False)
    amplitudes = []
    for cols in label_blocks(n).groups:
        first_two, third = np.divmod(cols, n)
        amps = ab[..., first_two]  # (a_i b_j) c_k, in nested np.kron's order
        amps *= c[..., third]
        amplitudes.append(amps)
    return amplitudes


def symmetric_basis_2(n: int) -> np.ndarray:
    """Orthonormal basis of the two-fold symmetric subspace.

    Returns an array of shape (n(n+1)/2, n^2), one row per pair (i, j), i <= j,
    in lexicographic order.  The row of (i, i) is 1 on |ii>, and that of
    (i, j), i < j, is 1/sqrt(2) on |ij> and |ji>.
    """
    n = check_dimension(n)
    # The basis, and seven vectors of one int64 or float per row: the pair labels,
    # the row indices, the weights and the flat indices with their temporary.
    check_build_bytes(8 * math.comb(n + 1, 2) * (n**2 + 7), "the symmetric basis")
    i, j = np.triu_indices(n)
    rows, weight = np.arange(len(i)), np.where(i == j, 1.0, 1.0 / np.sqrt(2.0))
    basis = np.zeros((len(i), n**2))
    basis[rows, i * n + j] = basis[rows, j * n + i] = weight
    return basis


def permute_registers(rows: np.ndarray, perm: tuple[int, ...], n: int) -> np.ndarray:
    """Stacked n^len(perm) row vectors with their registers permuted: register
    r of each output row takes input register perm[r] (0-based).  The tensor
    transpose permutes entries, so it is exact.  ContractError unless the rows
    are an array with n^len(perm) entries each."""
    n = check_dimension(n)
    try:
        perm = tuple(check_integer(p, 0, "register index") for p in perm)
    except TypeError:  # not iterable
        raise DomainError(f"{perm!r} is not a permutation of the registers") from None
    if sorted(perm) != list(range(len(perm))):
        raise DomainError(f"{perm!r} is not a permutation of the registers")
    rows = check_array(rows, "rows", None)
    if rows.shape[-1:] != (n ** len(perm),):
        raise ContractError(f"rows must have {n ** len(perm)} entries, got shape {rows.shape}")
    tensor = rows.reshape(-1, *(n,) * len(perm))
    return tensor.transpose(0, *(p + 1 for p in perm)).reshape(rows.shape)


def symmetric_projector(n: int) -> np.ndarray:
    """Projector onto the two-fold symmetric subspace."""
    n = check_dimension(n)
    # The projector, and all that symmetric_basis_2 is told.
    check_build_bytes(8 * (n**4 + math.comb(n + 1, 2) * (n**2 + 7)),
                      "the symmetric projector and its basis")
    return projector_from_rows(symmetric_basis_2(n))


def mean_density_operators(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Averaged input density operators on the three-register space.

    The first operator fills the AB symmetric subspace uniformly and is
    maximally mixed on C; the second fills the BC symmetric subspace and is
    maximally mixed on A.  Both have unit trace.
    """
    n = check_dimension(n)
    # Two real n^3 x n^3 operators and the products they are scaled from.
    check_build_bytes(8 * 4 * n**6, "the averaged inputs")
    weight, p_sigma, eye = mean_density_weight(n), symmetric_projector(n), np.eye(n)
    return weight * np.kron(p_sigma, eye), weight * np.kron(eye, p_sigma)


def mean_density_weight(n: int) -> float:
    """w = 2/(n^2 (n+1)): on each V_t the averaged inputs are w times its kind's rho1 and rho2."""
    return 2.0 / (check_dimension(n) ** 2 * (n + 1))


def _rank(matrix: np.ndarray) -> int:
    return int((np.linalg.svd(matrix, compute_uv=False) > TAU_RANK).sum())


def kind_ranks(kind: kinds.Kind) -> list[int]:
    """On one kind's V_t: the ranks of P_0, S1, S2, S3 = span(S1, S2), and of
    the complements of P_0 in S1, S2 and S3."""
    # S3: the right singular vectors of the stacked S1 and S2 projectors above TAU_RANK.
    _, singular, vh = np.linalg.svd(np.concatenate([kind.s1, kind.s2]), full_matrices=False)
    span = vh[singular > TAU_RANK]
    return [_rank(kind.p0), _rank(kind.s1), _rank(kind.s2), len(span),
            _rank(kind.s1 - kind.p0), _rank(kind.s2 - kind.p0), _rank(span.T @ span - kind.p0)]


def constructive_dimension_table(n: int, ranks) -> DimensionTable:
    """Subspace dimensions recomputed as SVD ranks of explicitly built spans.

    Every span of three registers splits over the V_t, and its block on a V_t
    is that of the V_t's kind (:mod:`qudisc.kinds`), so each of its dimensions
    is the sum over the kinds of the kind's rank times :func:`kind_counts`.
    `ranks` holds the :func:`kind_ranks` of each kind of the kind table, in its
    order; they do not depend on n.  sigma is the rank of the two-fold symmetric
    basis.  ContractError unless `ranks` is a table of 4 rows of 7 numbers.
    """
    n, ranks = check_dimension(n), check_array(ranks, "kind ranks", (2,))
    if ranks.shape != (4, 7):
        raise ContractError(f"kind ranks must have shape (4, 7), got {ranks.shape}")
    sigma = _rank(symmetric_basis_2(n))
    s0, s1, s2, s3, s4, s5, s6 = (int(r) for r in kind_counts(n) @ ranks)
    return DimensionTable(sigma=sigma, s0=s0, s1=s1, s2=s2, s3=s3, s4=s4, s5=s5, s6=s6, i0=s4)
