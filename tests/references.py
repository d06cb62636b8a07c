"""Reference constructions the library no longer uses, kept to hold it against.

Each rebuilds per n what the library now reads once per kind from the kind
table (qudisc.kinds), by the route the library took before: splitting n^3-wide
rows or n^3 x n^3 operators over the V_t, writing the three-fold symmetric
basis, the g family and the S1 product basis out in full, and reading the
averaged inputs' blocks from the entries of P_sigma (x) I and I (x) P_sigma.
The preparation cascade is rebuilt one mode at a time from its running
residual weight, as optics.prepare_state_network built it before, and a
two-mode layer's block is written out entry by entry from the optics module
docstring.
"""

from itertools import combinations_with_replacement

import numpy as np

from qudisc.errors import ContractError
from qudisc.spaces import (
    check_array, label_blocks, symmetric_basis_2, symmetric_projector,
)


def layer_block(omega, phi, theta):
    """The 2x2 block of one two-mode layer at scalar angles, as the optics module
    docstring writes it: [[sin(w) e^{i phi}, cos(w) e^{i phi}],
    [cos(w) e^{i theta}, -sin(w) e^{i theta}]]."""
    s, c = np.sin(omega), np.cos(omega)
    return np.array([[s * np.exp(1j * phi), c * np.exp(1j * phi)],
                     [c * np.exp(1j * theta), -s * np.exp(1j * theta)]])


def ket(labels, n):
    """|labels> for 1-based labels on n^len(labels) dimensions: register A is
    the slowest-varying factor, as in np.kron."""
    vec = np.zeros(n ** len(labels))
    vec[np.ravel_multi_index(np.subtract(labels, 1), (n,) * len(labels))] = 1.0
    return vec


def symmetric_basis_3(n):
    """Orthonormal basis of the three-fold symmetric subspace, one row per V_t in
    lexicographic order of its labels i <= j <= k: the equal superposition of
    the basis kets in it."""
    block_of = label_blocks(n).block_of
    sizes = np.bincount(block_of)
    basis = np.zeros((len(sizes), len(block_of)))
    basis[block_of, np.arange(len(block_of))] = 1.0 / np.sqrt(sizes[block_of])
    return basis


def diagonal_blocks(op, n):
    """The V_t diagonal blocks of an n^3 x n^3 operator, one (blocks, d, d)
    stack per kind (LabelBlocks.groups), and the Frobenius norm of the entries
    off those blocks.  ContractError unless op is n^3 x n^3."""
    blocks, op = label_blocks(n), check_array(op, "op", (2,))
    if op.shape != blocks.block_of.shape * 2:
        raise ContractError(f"op must be {n}^3 x {n}^3, got shape {op.shape}")
    entries = [(cols[:, :, None], cols[:, None, :]) for cols in blocks.groups]
    diagonal = [op[rows, cols] for rows, cols in entries]
    rest = np.array(op)  # op minus the direct sum of its diagonal blocks
    for rows, cols in entries:
        rest[rows, cols] = 0.0
    return diagonal, float(np.linalg.norm(rest))


def g_rows_by_formula(n):
    """The g family written out case by case, in the order of build_gh_bases:
    a symmetric AB pair with a C label."""
    eye = np.eye(n)
    c1, c2 = np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)
    a, b, c = (3.0 - np.sqrt(3.0)) / 6.0, (3.0 + np.sqrt(3.0)) / 6.0, np.sqrt(3.0) / 3.0

    def pair_with_c(i, j, k):
        pair = ket((i, i), n) if i == j else (ket((i, j), n) + ket((j, i), n)) / np.sqrt(2)
        return np.kron(pair, eye[k - 1])

    rows = []
    for i, j, k in combinations_with_replacement(range(1, n + 1), 3):
        if i == j == k:
            continue
        if i == j:
            rows.append(c1 * pair_with_c(i, k, i) - c2 * ket((i, i, k), n))
        elif j == k:
            rows.append(c1 * pair_with_c(i, j, j) - c2 * ket((j, j, i), n))
        else:
            rows.append(a * pair_with_c(i, j, k) - b * pair_with_c(i, k, j)
                        + c * pair_with_c(j, k, i))
            rows.append(a * pair_with_c(i, k, j) - b * pair_with_c(i, j, k)
                        + c * pair_with_c(j, k, i))
    return np.array(rows)


def s1_rows_by_kron(n):
    """The S1 product basis, one np.kron per (symmetric AB pair, C label), in
    lexicographic (pair, C) order; its A <-> C exchange is the S2 product basis."""
    eye = np.eye(n)
    return np.array([np.kron(u, eye[a]) for u in symmetric_basis_2(n) for a in range(n)])


def block_stacks(rows, n):
    """Stacked rows split over the V_t, each row restricted to its own V_t.

    Returns one (blocks, depth, d) array per kind of label_blocks, block-aligned
    with its group; a block's rows fill its first slots in row order and zero
    rows pad the rest.  Raises ContractError unless each row has nonzero
    entries in exactly one V_t.
    """
    blocks = label_blocks(n)
    nonzero = rows != 0
    owner = blocks.block_of[nonzero.argmax(axis=1)]
    if not nonzero.any(axis=1).all() or (nonzero & (blocks.block_of != owner[:, None])).any():
        raise ContractError("each row must be supported in exactly one label-multiset space V_t")
    slot_of = np.zeros_like(blocks.kind_of)  # each block's place in its group
    for k in range(len(blocks.groups)):
        ids = np.flatnonzero(blocks.kind_of == k)
        slot_of[ids] = np.arange(len(ids))
    stacks = []
    for k, cols in enumerate(blocks.groups):
        mine = np.flatnonzero(blocks.kind_of[owner] == k)
        slots = slot_of[owner[mine]]
        order = np.argsort(slots, kind="stable")
        mine, slots = mine[order], slots[order]
        level = np.arange(len(slots)) - np.searchsorted(slots, slots)  # rank within the block
        stack = np.zeros((len(cols), level.max(initial=-1) + 1, cols.shape[1]))
        stack[slots, level] = rows[mine[:, None], cols[slots]]
        stacks.append(stack)
    return stacks


def block_projectors(stacks):
    """Per-block sums of dyads of stacked orthonormal rows (block_stacks)."""
    return [m.transpose(0, 2, 1) @ m for m in stacks]


def rho_blocks_by_index_arithmetic(n):
    """The V_t blocks of rho1 = w P_sigma (x) I and rho2 = w I (x) P_sigma, read
    from the entries of P_sigma, one (blocks, d, d) stack per kind."""
    weight = 2.0 / (n**2 * (n + 1))
    p_sigma = symmetric_projector(n)
    rho1, rho2 = [], []
    for cols in label_blocks(n).groups:
        i, j = cols[:, :, None], cols[:, None, :]
        # Flat index (ab, c) for P_sigma (x) I, and (a, bc) for I (x) P_sigma.
        rho1.append(weight * (p_sigma[i // n, j // n] * (i % n == j % n)))
        rho2.append(weight * ((i // n**2 == j // n**2) * p_sigma[i % n**2, j % n**2]))
    return rho1, rho2


def cascade_by_residual(amps):
    """The (k, k+1) mode pairs and (omega, phi, theta) angles of the preparation
    cascade of unit amplitudes `amps` (not a basis vector), in physical order:
    mode k keeps arcsin(|a_k| / residual) of the residual weight, the last layer
    splits the last two amplitudes, and the cascade stops once the residual
    falls below 1e-14."""
    n, modes, angles, residual = len(amps), [], [], 1.0
    for k in range(n - 1):
        if residual < 1e-14:
            break
        phi = float(np.angle(amps[k])) if abs(amps[k]) > 0 else 0.0
        if k < n - 2:
            omega = float(np.arcsin(min(abs(amps[k]) / residual, 1.0)))
            angles.append((omega, phi, 0.0))
            residual *= np.cos(omega)
        else:
            theta = float(np.angle(amps[k + 1])) if abs(amps[k + 1]) > 0 else 0.0
            angles.append((float(np.arctan2(abs(amps[k]), abs(amps[k + 1]))), phi, theta))
        modes.append((k, k + 1))
    return modes, angles
