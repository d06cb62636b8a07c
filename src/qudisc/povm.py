"""Detection operators and success probabilities of the discriminator.

On each Jordan block span(g_perp_i, h_i) the measurement is :func:`block_povm`,
written in the block's orthonormal (g_perp, h) frame.  :func:`kind_povms` gives
it on each kind of label-multiset space V_t, with no n in it: its block on
every V_t of that kind (:attr:`qudisc.spaces.LabelBlocks.groups`).
:func:`total_povm` builds the same operators independently, as combinations of
the register permutations.

The measurement family has one free angle omega1 in [0, pi/2].  With
x = 1 + 3 cos^2(omega1) in [1, 4], the per-subspace success probability is

    P(x) = 1 - eta1 * x / 4 - eta2 / x,

and the averaged and pure-state figures of merit are 2(n-1)/(3n) and
(2/3)(1 - |<psi1|psi2>|^2) times it, so all three share the same optimal
operating point:

    x0 = 2 sqrt(eta2 / eta1)   clipped to [1, 4].

The interior optimum value is P(x0) = 1 - sqrt(eta1 eta2); the endpoint
values (3/4) eta2 at x = 4 and (3/4) eta1 at x = 1 take over for eta1 below
1/5 and above 4/5, and the three formulas agree at the regime boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kinds
from .errors import ContractError, DegeneratePriorsError, DomainError
from .spaces import (
    check_array, check_build_bytes, check_dimension, check_real, check_unit_states, gather_blocks,
    kind_counts, mean_density_weight, permute_registers, product_ket,
)

PROB_SLACK = 1e-12
PURE_SCALE = 2.0 / 3.0  # pure-state success over P(x) (1 - |<psi1|psi2>|^2)


def _average_scale(n: int) -> float:
    """Averaged success over P(x) at dimension n: 2(n-1)/(3n), correctly rounded for any n."""
    return 2 * (n - 1) / (3 * n)


@dataclass(frozen=True)
class Priors:
    """A-priori probabilities of the two inputs."""

    eta1: float
    eta2: float

    def __post_init__(self) -> None:
        check_real(self.eta1, "eta1", 0.0)
        check_real(self.eta2, "eta2", 0.0)
        if not abs(self.eta1 + self.eta2 - 1.0) <= 1e-12:
            raise DomainError("priors must sum to 1")

    @classmethod
    def from_eta1(cls, eta1: float) -> "Priors":
        return cls(eta1, 1.0 - check_real(eta1, "eta1", 0.0, 1.0))

    def require_nondegenerate(self) -> None:
        if self.eta1 <= 0.0 or self.eta1 >= 1.0:
            raise DegeneratePriorsError(
                "priors 0 and 1 make the discrimination trivial; no interior optimum"
            )


def check_priors(priors) -> Priors:
    """`priors`; DomainError unless it is a Priors."""
    if not isinstance(priors, Priors):
        raise DomainError(f"priors must be a Priors, got {priors!r}")
    return priors


@dataclass(frozen=True)
class RegimeResult:
    """Optimal success probability and its operating point."""

    value: float
    regime: str  # "low" | "middle" | "high"
    x_star: float
    omega1_star: float


def check_omega1(omega1: float) -> float:
    return check_real(omega1, "omega1", 0.0, np.pi / 2 + 1e-12)


def clamp_probability(p):
    """Clip numerical noise off a probability, or off each entry of an array of
    them; raise on real violations."""
    if isinstance(p, np.ndarray) and p.ndim:
        if not np.all((p >= -PROB_SLACK) & (p <= 1.0 + PROB_SLACK)):  # NaN fails too
            raise ContractError(f"values {p} are not all probabilities")
        return np.clip(p, 0.0, 1.0)
    if not -PROB_SLACK <= p <= 1.0 + PROB_SLACK:
        raise ContractError(f"value {p} is not a probability")
    return min(max(p, 0.0), 1.0)


def x_from_omega1(omega1: float) -> float:
    return 1.0 + 3.0 * np.cos(check_omega1(omega1)) ** 2


def omega1_from_x(x: float) -> float:
    x = check_real(x, "x", 1.0, 4.0)
    return float(np.arccos(np.sqrt((x - 1.0) / 3.0)))


def omega2_constraint(omega1: float) -> float:
    """Second splitter angle enforcing the no-click condition.

    Returns omega2 in [0, pi/2] with cos^2(omega2) = 1 / (1 + 3 cos^2(omega1)).
    """
    x = x_from_omega1(omega1)
    return float(np.arccos(np.sqrt(1.0 / x)))


def detection_weights(omega1: float) -> tuple[float, float]:
    """(a, b) = (sin^2(omega1), 4 cos^2(omega1) / x): pi1 = a |g_perp><g_perp| and
    pi2 = b |h_perp><h_perp| on every Jordan block."""
    omega1 = check_omega1(omega1)
    return np.sin(omega1) ** 2, 4.0 * np.cos(omega1) ** 2 / x_from_omega1(omega1)


def block_povm(omega1: float) -> np.ndarray:
    """(a E_g, b E_h, I - a E_g - b E_h) on one Jordan block, in its (g_perp, h) frame:
    E_g and E_h project onto g_perp = (1, 0) and h_perp = (1/2, sqrt(3)/2), and
    g = (sqrt(3)/2, -1/2), h = (0, 1)."""
    a, b = detection_weights(omega1)
    e_g = np.diag([1.0, 0.0])
    e_h = np.array([[0.25, np.sqrt(3.0) / 4.0], [np.sqrt(3.0) / 4.0, 0.75]])
    return np.array([a * e_g, b * e_h, np.eye(2) - a * e_g - b * e_h])


def total_povm(n: int, omega1: float) -> np.ndarray:
    """Three-outcome POVM on the full three-register space, as one (3, n^3, n^3)
    stack in the order of :func:`block_povm`: pi1 = a (S3 - S2), pi2 = b (S3 - S1)
    and pi0 = I - pi1 - pi2, with (a, b) from :func:`detection_weights` and S1, S2
    and S3 summed from the six register permutations (:func:`qudisc.kinds.symmetrizers`).
    The measurement commutes with U (x) U (x) U, so by Schur-Weyl duality it is such
    a combination of the permutations."""
    n, omega1 = check_dimension(n), check_omega1(omega1)
    # The identity, its six permutations, their sums and the elements: 16 n^6 floats.
    check_build_bytes(8 * 16 * n**6, "the dense detection operators")
    # The identity's rows permuted are P_sigma^T; S1, S2 and S3 are symmetric, so
    # the transpose does not matter.
    eye = np.eye(n**3)
    s1, s2, s3 = kinds.symmetrizers([permute_registers(eye, p, n) for p, _ in kinds.PERMUTATIONS])
    a, b = detection_weights(omega1)
    ops = np.stack([a * (s3 - s2), b * (s3 - s1), eye])
    ops[2] -= ops[0]  # I - pi1 - pi2, in place
    ops[2] -= ops[1]
    return ops


def kind_povms(omega1) -> list[np.ndarray]:
    """:func:`total_povm` on one V_t of each kind of :func:`qudisc.kinds.kind_table`, at
    each angle of `omega1` (one or an array): one (angles, 3, d, d) stack per kind, with
    pi1 = a P_g_perp, pi2 = b P_h_perp and pi0 = I - a g_perp^T g_perp - b h_perp^T h_perp
    along axis 1.  pi0 reads the kind's rows, so the three sum to I only if its
    projectors are those of its rows."""
    angles = check_array(omega1, "omega1", None, float).ravel()
    weights = np.array([detection_weights(w) for w in angles]).reshape(-1, 2)
    a, b = weights.T[:, :, None, None]
    return [np.stack([a * k.p_g_perp, b * k.p_h_perp,
                      np.eye(k.d) - a * (k.g_perp.T @ k.g_perp) - b * (k.h_perp.T @ k.h_perp)],
                     axis=1) for k in kinds.kind_table()]


def success_curve_x(x: float, priors: Priors) -> float:
    """Per-subspace success probability as a function of x in [1, 4]."""
    x, priors = check_real(x, "x", 1.0, 4.0), check_priors(priors)
    return clamp_probability(1.0 - priors.eta1 * x / 4.0 - priors.eta2 / x)


def optimal_subspace(priors: Priors) -> RegimeResult:
    """Maximum of the per-subspace success curve over the angle family."""
    check_priors(priors).require_nondegenerate()
    if priors.eta1 < 0.2:
        regime, x_star, value = "low", 4.0, 0.75 * priors.eta2
    elif priors.eta1 > 0.8:
        regime, x_star, value = "high", 1.0, 0.75 * priors.eta1
    else:
        regime, value = "middle", 1.0 - np.sqrt(priors.eta1 * priors.eta2)
        x_star = float(np.clip(2.0 * np.sqrt(priors.eta2 / priors.eta1), 1.0, 4.0))
    return RegimeResult(
        value=clamp_probability(value),
        regime=regime,
        x_star=x_star,
        omega1_star=omega1_from_x(x_star),
    )


def average_success(n: int, omega1: float, priors: Priors) -> float:
    """Success probability of identifying the averaged input states."""
    scale = _average_scale(check_dimension(n))
    return clamp_probability(scale * success_curve_x(x_from_omega1(omega1), priors))


def optimal_average(n: int, priors: Priors) -> RegimeResult:
    """Optimum of :func:`average_success` over the angle family."""
    scale = _average_scale(check_dimension(n))
    best = optimal_subspace(priors)
    return replace(best, value=clamp_probability(scale * best.value))


def pure_success(
    psi1: np.ndarray,
    psi2: np.ndarray,
    omega1: float,
    priors: Priors,
    n: int,
) -> float | np.ndarray:
    """Success probability when the two program states are fixed pure states.

    Equals (2/3) P(x) (1 - |<psi1|psi2>|^2); the prefactor carries no
    dependence on n.  States (n,) give a float; row-aligned stacks (T, n) give
    one value per pair.
    """
    check_dimension(n)
    prefactor = PURE_SCALE * success_curve_x(x_from_omega1(omega1), priors)
    psi1, psi2 = check_unit_states(psi1, psi2, n)
    overlap_sq = np.abs((psi1.conj() * psi2).sum(axis=-1)) ** 2
    return clamp_probability(prefactor * (1.0 - overlap_sq))


def optimal_pure(overlap_sq: float, priors: Priors) -> RegimeResult:
    """Optimal success probability for fixed pure inputs within the omega1 family.

    It maximizes over the one-angle measurements x = 1 + 3 cos^2(omega1) only;
    nothing here shows that no other unambiguous measurement does better.
    Depends only on the priors and the squared overlap, not on the qudit
    dimension.
    """
    overlap_sq = check_real(overlap_sq, "overlap_sq", 0.0, 1.0)
    best = optimal_subspace(priors)
    return replace(best, value=clamp_probability(PURE_SCALE * best.value * (1.0 - overlap_sq)))


def average_success_trace(n: int, omega1, priors: Priors) -> float | np.ndarray:
    """Operator-level evaluation of :func:`average_success` (cross-check):
    eta1 Tr(pi1 rho1) + eta2 Tr(pi2 rho2), with each kind's traces of
    :func:`kind_povms` and its rho1 and rho2 counted once per V_t of that kind
    (:func:`spaces.kind_counts`), times w.  One angle gives a float; an array
    of angles, one value per angle."""
    counts, priors = kind_counts(check_dimension(n)), check_priors(priors)
    angles = check_array(omega1, "omega1", None, float)
    value = mean_density_weight(n) * sum(
        count * (priors.eta1 * np.einsum("kij,ji->k", ops[:, 0], kind.rho1)
                 + priors.eta2 * np.einsum("kij,ji->k", ops[:, 1], kind.rho2))
        for count, kind, ops in zip(counts, kinds.kind_table(), kind_povms(angles)))
    return clamp_probability(value if angles.ndim else float(value[0]))


def pure_success_expectation(
    psi1: np.ndarray, psi2: np.ndarray, omega1: float, priors: Priors, n: int
) -> float | np.ndarray:
    """Operator-level evaluation of :func:`pure_success` (cross-check): quadratic
    forms of each kind's :func:`kind_povms` on the product kets' amplitudes on
    every V_t of that kind (:func:`spaces.gather_blocks`), in O(n^3) memory.
    Takes states (n,) or row-aligned stacks (T, n), as :func:`pure_success` does."""
    n, povms, priors = check_dimension(n), kind_povms(omega1), check_priors(priors)
    psi1, psi2 = check_unit_states(psi1, psi2, n)
    check_build_bytes(4 * 16 * psi1.size * n**2,  # four complex T x n^3 arrays
                      "both product kets, one's V_t amplitudes and the temporaries")
    value = 0.0
    for k, eta, kets in ((0, priors.eta1, product_ket(psi1, psi1, psi2)),
                         (1, priors.eta2, product_ket(psi1, psi2, psi2))):
        value = value + eta * sum(  # Re <a|op|a> = <Re a|op|Re a> + <Im a|op|Im a> for a real op
            np.einsum("...bi,ij,...bj->...", part, ops[0, k], part)
            for ops, a in zip(povms, gather_blocks(kets, n)) for part in (a.real, a.imag))
    return clamp_probability(value)
