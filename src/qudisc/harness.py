"""Random-state sampling, Monte Carlo estimates, and the verification suite.

Averages over "completely unknown" states are taken with respect to the
unitarily invariant measure: normalized vectors of i.i.d. standard complex
Gaussians.  Monte Carlo success estimates average the exact per-pair success
probability (each draw contributes its conditional value, not a sampled
outcome), which keeps the estimator unbiased with far lower variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kinds, optics, povm, scalars, spaces
from .errors import ContractError
from .jordan import jordan_angles
from .povm import Priors


# Random pairs per block of empirical_mean_density, which bounds its memory.  Each
# block takes the next draws of the call's one stream, so results do not depend on it.
HAAR_BLOCK = 1024
# Most trials one Monte Carlo call accepts: mc_success keeps one float per
# trial, and its standard error one more, so it peaks near 160 MB at the limit
# (about 0.2 s on a 2-vCPU x86 VM, whatever n).
MAX_TRIALS = 10**7

# The regime scan's grid is np.arange(1.0, 4.0 + 1e-6, 1e-6) cut at 4: np.arange
# computes its point i as 1.0 + i * SCAN_STEP, and the first SCAN_POINTS of them
# are <= 4.  Points are computed only where the scan reads them.
SCAN_STEP = (1.0 + 1e-6) - 1.0
SCAN_POINTS = 3_000_001
# Coarse stride of the regime scan.  P(x) is concave on [1, 4], so the maximum
# over the fine grid lies within one stride of the maximum over every stride-th
# point, and scanning only that window finds it exactly.
SCAN_STRIDE = 1000

# Comparison tolerances of the suite: exact algebraic identities, operator-level
# identities with more accumulation, and closed-form optima against brute-force
# grid scans.
TIGHT, OP, SCAN = 1e-12, 1e-10, 1e-6

SEEDED_PAIRS = 100  # random pairs of the per-n suite's pure-state checks
KS_ALPHA = 1e-3  # false-alarm rate of the Haar law check


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard complex Gaussians; each value takes two consecutive stream draws."""
    return rng.standard_normal((*shape, 2)).view(complex)[..., 0]


def _haar_rows(rng: np.random.Generator, shape: tuple[int, ...], n: int) -> np.ndarray:
    """Unit vectors of the unitarily invariant measure along the last axis."""
    # The normal draws, then the complex rows and the unit rows: 48 bytes an entry.
    spaces.check_build_bytes(48 * int(np.prod(shape)) * n, "the sampled states")
    z = _complex_normal(rng, (*shape, n))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def haar_state(n: int, seed: int) -> np.ndarray:
    """Unit vector drawn from the unitarily invariant measure."""
    n = scalars.check_integer(n, 1, "dimension")
    return _haar_rows(optics.seeded_stream(seed), (), n)


def empirical_mean_density(n: int, which: int, trials: int, seed: int) -> np.ndarray:
    """Monte Carlo average of the projector onto the three-register input.

    ``which`` = 1 averages |psi1 psi1 psi2>, and 2 averages |psi1 psi2 psi2>.
    Pair t takes the next 4n normals of the (seed, 0) stream, real and
    imaginary parts interleaved: n complex normals z1 of psi1, then n of psi2.
    Each block of ``HAAR_BLOCK`` pairs is laid out pairs last, (2, n, B), and
    no state is normalized: one factor carries the norms, as in
    z1 (x) z1 (x) z2 / (|z1|^2 |z2|), and the (n^3, B) products are summed.
    """
    n, which = scalars.check_dimension(n), scalars.check_integer(which, 1, "which", 2)
    # The complex n^3 x n^3 sum and product, a block's (n^3, B) products and
    # their conjugate, and under 3 n^3 B more: its draws, norms, scaled factor,
    # (n^2, B) partial product and numpy's two 8192-entry broadcast buffers.  A
    # block is released before the next is drawn.  n <= 16 is admitted.
    spaces.check_build_bytes(16 * (2 * n**6 + 5 * HAAR_BLOCK * n**3), "the sampled density")
    trials = scalars.check_integer(trials, 1, "trials", MAX_TRIALS)
    rng = optics.seeded_stream(seed)
    acc = np.zeros((n**3, n**3), dtype=complex)
    for start in range(0, trials, HAAR_BLOCK):
        z = _complex_normal(rng, (min(HAAR_BLOCK, trials - start), 2, n)).transpose(1, 2, 0).copy()
        sq1, sq2 = (z.real**2 + z.imag**2).sum(axis=1)
        if which == 1:
            first, middle = z[0] / (sq1 * np.sqrt(sq2)), z[0]
        else:
            first, middle = z[0] / (np.sqrt(sq1) * sq2), z[1]
        big = (first[:, None, None] * middle[:, None] * z[1]).reshape(n**3, -1)
        acc += big @ big.conj().T
        del z, sq1, sq2, first, middle, big  # before the next block is drawn
    return acc / trials


def overlap_identity_check(
    psi1: np.ndarray, psi2: np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray, float | np.ndarray]:
    """Summed squared overlaps of the inputs with the reciprocal families, and the
    closed form they should equal: (sum_g, sum_h, closed_form), floats for one
    pair, arrays of one value per pair for stacked states.

    Both sums equal (1 - |<psi1|psi2>|^2) / 2 for any pure pair.  Each is summed
    over the V_t, from the product states' amplitudes there
    (:func:`spaces.product_blocks`) and the kinds' g_perp or h_perp rows, in
    O(n^3) memory per pair.  Takes states (n,) or row-aligned stacks (T, n), as
    :func:`spaces.check_unit_states` admits them.
    """
    psi1, psi2 = spaces.check_unit_states(psi1, psi2)

    def overlap_sum(entry, middle):
        blocks = zip(kinds.kind_table(), spaces.product_blocks(psi1, middle, psi2))
        return sum((np.abs(np.einsum("...bj,ij->...bi", amps, getattr(kind, entry))) ** 2)
                   .sum(axis=(-2, -1)) for kind, amps in blocks)

    sum_g, sum_h = overlap_sum("g_perp", psi1), overlap_sum("h_perp", psi2)
    closed = 0.5 * (1.0 - np.abs((psi1.conj() * psi2).sum(axis=-1)) ** 2)
    return sum_g, sum_h, closed


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error."""

    mean: float
    stderr: float


def mc_success(
    n: int, omega1: float, priors: Priors, trials: int, seed: int
) -> McEstimate:
    """Monte Carlo average of the pure-state success over random pairs.

    Each trial contributes its exact conditional success probability,
    prefactor * (1 - s), which reads the pair only through its squared overlap
    s.  By unitary invariance s has the law of |psi[0]|^2 for one random state,
    Beta(1, n - 1): P(1 - s <= v) = v^(n-1), so 1 - s has exactly the law of
    U^(1/(n-1)) for U uniform on (0, 1].  Trial t draws no state, only the t-th
    uniform of the (seed, 0) stream, U_t = 1 - random(), and reads
    exp(log(U_t) * (1 / (n - 1))); the exponent is an exact int quotient, 0.0
    for n past the floats, where the mean is prefactor itself and the error 0.
    """
    n = scalars.check_dimension(n)
    trials = scalars.check_integer(trials, 100, "trials", MAX_TRIALS)
    rng = optics.seeded_stream(seed)
    prefactor = povm.PURE_SCALE * povm.success_curve_x(povm.x_from_omega1(omega1), priors)
    draws = rng.random(trials)  # made 1 - s of each trial in place
    np.log(np.subtract(1.0, draws, out=draws), out=draws)
    np.exp(np.multiply(draws, 1 / (n - 1), out=draws), out=draws)
    return McEstimate(mean=prefactor * float(draws.mean()),
                      stderr=prefactor * float(draws.std(ddof=1) / np.sqrt(trials)))


def _ks_distance(samples: np.ndarray, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance D_N = sup |F_N - F| of N samples from a
    continuous CDF F; NaN if a sample is NaN."""
    u = np.sort(cdf(samples))
    steps = np.arange(len(u) + 1) / len(u)
    return float(np.maximum((steps[1:] - u).max(), (u - steps[:-1]).max()))


def _dkw_epsilon(count: int) -> float:
    """The D_N that N = count samples of the true law exceed with probability at most
    KS_ALPHA: by the Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant
    (Ann. Probab. 18, 1269 (1990)), P(D_N > eps) <= 2 exp(-2 N eps^2) for every N."""
    return float(np.sqrt(np.log(2.0 / KS_ALPHA) / (2.0 * count)))


@dataclass(frozen=True)
class CheckResult:
    name: str
    scope: str
    passed: bool
    deviation: float
    tolerance: float
    claim: str


@dataclass
class VerificationReport:
    results: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def add(self, name: str, scope: str, deviation: float, tolerance: float, claim: str) -> None:
        self.results.append(
            CheckResult(
                name=name,
                scope=scope,
                passed=bool(deviation <= tolerance),
                deviation=float(deviation) + 0.0,  # -0.0 + 0.0 is +0.0
                tolerance=float(tolerance),
                claim=claim,
            )
        )

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"check: {r.name} [{r.scope}]")
            lines.append(f"  claim: {r.claim}")
            lines.append(f"  worst_deviation: {r.deviation:.3e}")
            lines.append(f"  tolerance: {r.tolerance:.3e}")
            lines.append(f"  status: {'pass' if r.passed else 'FAIL'}")
        counts = sum(r.passed for r in self.results)
        lines.append(f"summary: {counts}/{len(self.results)} checks passed")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _worst(*deviations) -> float:
    """The largest deviation, NaN if any is NaN.  Python's max keeps its running
    value against a NaN, so a NaN deviation would read as a pass."""
    return float(np.max(np.asarray(deviations, dtype=float)))


def _or_inf(deviation) -> float:
    """deviation(), or inf if it raises ContractError, so that its check fails."""
    try:
        return deviation()
    except ContractError:
        return np.inf


def _lowest_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """lambda_min of each symmetric matrix of a (..., d, d) stack; all NaN if an
    entry is not finite, where LAPACK may raise or return a spectrum."""
    if not np.isfinite(stack).all():
        return np.full(stack.shape[:-2], np.nan)
    return np.linalg.eigvalsh(stack)[..., 0]


# The angles at which the per-n suite reads every kind's detection operators.
_GRID = np.linspace(0.0, np.pi / 2, 50)
_GRID.setflags(write=False)


@dataclass(frozen=True)
class _KindResult:
    """The half of the per-n suite that reads one kind alone: numbers, the same at
    every n, which each n scales by w and its count of V_t of the kind.

    ranks are the kind's :func:`spaces.kind_ranks` and traces its Tr rho1 and
    Tr rho2.  wrong holds Tr(pi1 rho2) and Tr(pi2 rho1) on _GRID, (2, 2, 50): on
    axis 0 its :func:`povm.kind_povms`, then the :func:`povm.permutation_povms`
    of its rho1, rho2 and s3_sum.  The other fields are the kind's worst
    deviations, before w, in the check named beside each; {a,a,a}, which has no
    g or h rows, reads 0 in the paired checks.  All arrays are read-only.
    """

    ranks: np.ndarray
    traces: np.ndarray
    wrong: np.ndarray
    states: float  # mean_densities_are_states: rho1, rho2's negativity and distance to s1, s2
    unit: float  # symmetric_bases_orthonormal: |<u|u> - 1| of its unit symmetric vector
    expansions: float  # symmetric_vector_expansions: u3 over its S1 rows and its S2 rows
    paired: float  # paired_basis_structure
    off_symmetric: float  # paired_basis_off_symmetric
    angles: float  # principal_angle_cosines
    decomposition: float  # density_decomposition: P_0 + P_g and P_0 + P_h against rho1, rho2
    spans: float  # complement_spans
    positive: float  # povm_positive: per operator, negativity plus distance; the h_perp gap
    complete: float  # povm_complete: pi1 + pi2 + pi0 - I of both constructions


def _kind_result(kind: kinds.Kind, ops: np.ndarray, built: np.ndarray) -> _KindResult:
    """The :class:`_KindResult` of one kind, from its :func:`povm.kind_povms` and its
    :func:`povm.permutation_povms` on _GRID, (50, 3, d, d) each."""
    unit = np.full(kind.d, 1.0 / np.sqrt(kind.d))
    pairs = ((kind.g, kind.g, 1.0), (kind.h, kind.h, 1.0), (kind.g, kind.h, -0.5))
    rhos = np.array([kind.rho1, kind.rho2])
    # Each operator's negativity, at each angle, plus its Frobenius distance to
    # its permutation copy: by Weyl (||.||_2 <= ||.||_F) it bounds the copy's.
    negativity = np.maximum(0.0, -_lowest_eigenvalues(ops))
    distance = np.sqrt(((ops - built) ** 2).sum(axis=(2, 3)))
    h_perp_gap = np.abs(kind.h_perp - (0.5 * kind.g_perp + np.sqrt(3.0) / 2.0 * kind.h))
    result = _KindResult(
        ranks=np.array(spaces.kind_ranks(kind)), traces=np.trace(rhos, axis1=1, axis2=2),
        wrong=np.einsum("xkoij,oji->xok", np.array([ops, built])[:, :, :2], rhos[::-1]),
        states=_worst(*np.maximum(0.0, -_lowest_eigenvalues(rhos)),
                      *(np.linalg.norm(rho - span) for rho, span in zip(rhos, (kind.s1, kind.s2)))),
        unit=abs(unit @ unit - 1),
        expansions=_worst(*(np.linalg.norm(kind.u3 @ rows - unit)
                            for rows in (kind.s1_rows, kind.s2_rows))),
        paired=_worst(*(np.abs(a @ b.T - overlap * np.eye(len(a))).max(initial=0.0)
                        for a, b, overlap in pairs)),
        off_symmetric=_worst(*(np.abs(rows @ np.full(kind.d, kind.d**-0.5)).max(initial=0.0)
                               for rows in (kind.g, kind.h))),
        angles=_or_inf(lambda: np.abs(jordan_angles(kind.g, kind.h) - 0.5).max(initial=0.0)),
        decomposition=_worst(*(np.abs(kind.p0 + family - rho).max()
                               for family, rho in zip((kind.p_g, kind.p_h), rhos))),
        spans=_worst(*(np.abs(kind.p0 + family - span).max()
                       for family, span in ((kind.p_g, kind.s1), (kind.p_h, kind.s2)))),
        positive=_worst(h_perp_gap.max(initial=0.0), (negativity + distance).max()),
        complete=_worst(*(np.abs(s.sum(axis=1) - np.eye(kind.d)).max() for s in (ops, built))))
    for array in (result.ranks, result.traces, result.wrong):
        array.setflags(write=False)
    return result


def _kind_results() -> tuple[_KindResult, ...]:
    """One :class:`_KindResult` per kind of :func:`kinds.kind_table` as it is now."""
    table = kinds.kind_table()
    built = povm.permutation_povms([(k.rho1, k.rho2, k.s3_sum) for k in table], _GRID)
    return tuple(map(_kind_result, table, povm.kind_povms(_GRID), built))


def _checks_for_n(n: int, report: VerificationReport, kind_results) -> None:
    """The checks at qudit dimension n.  Whatever reads one kind alone comes from
    kind_results (:func:`_kind_results`), reduced over the kinds present at n;
    what depends on n, through w, the counts or the V_t, is computed here."""
    scope = f"n={n}"
    table = scalars.dimension_table(n)
    constructive = spaces.constructive_dimension_table(n, [r.ranks for r in kind_results])
    counts = spaces.kind_counts(n)  # closed form, against the V_t that label_blocks counts
    vts = spaces.label_blocks(n)
    dev = _worst(*(abs(a - b) for a, b in zip(table, constructive)),
                 np.abs(counts - [len(cols) for cols in vts]).max())
    report.add("dimension_formulas", scope, dev, 0,
               "closed-form subspace dimensions equal constructive SVD ranks")

    # Each kind present at n, with its results.  Operators built alike on every
    # V_t are read once per kind present, and a sum over the V_t counts each
    # kind's term once per V_t of that kind.
    present = [(count, result) for count, result in zip(counts, kind_results) if count]
    results = [result for _, result in present]

    # The three-fold symmetric basis has one row per V_t, its kind's unit vector
    # spread over it, so the groups must cover each ket once.
    sym2 = spaces.symmetric_basis_2(n)
    covered = np.bincount(np.concatenate([cols.ravel() for cols in vts]), minlength=n**3)
    dev = _worst(np.abs(sym2 @ sym2.T - np.eye(len(sym2))).max(), np.abs(covered - 1).max(),
                 *(r.unit for r in results))
    report.add("symmetric_bases_orthonormal", scope, dev, TIGHT,
               "two- and three-fold symmetric bases have identity Gram matrices")

    swap = spaces.permute_registers(np.eye(n * n), (1, 0), n)  # its rows: the swap is symmetric
    p_sigma = spaces.symmetric_projector(n)
    dev = _worst(np.abs(p_sigma - (np.eye(n * n) + swap) / 2).max(),
                 np.abs(p_sigma @ p_sigma - p_sigma).max())
    report.add("symmetric_projector", scope, dev, OP,
               "two-fold symmetric projector is the permutation symmetrizer")

    # The glue between the kinds and the whole space: each permutation moves the
    # flat indices of a V_t as its kind's permutation matrix moves them, so, as the
    # groups cover each ket once, it maps every V_t to itself.  A float row lets a NaN show.
    flat = np.arange(n**3, dtype=float)
    moved = [spaces.permute_registers(flat, perm, n) for perm, _ in kinds.PERMUTATIONS]
    dev = _worst(*(np.abs(m[cols] - cols @ kind.perms[s]).max(initial=0.0)
                   for s, m in enumerate(moved) for cols, kind in zip(vts, kinds.kind_table())))
    report.add("threefold_permutation_invariance", scope, dev, TIGHT,
               "three-fold symmetric vectors are fixed by all register permutations")

    # The averaged inputs are w times the kinds' rho1 and rho2, which by Schur-Weyl
    # duality are the S1 and S2 of the six permutations; each kind's must be positive
    # and equal its s1 and s2 of the paper's rows (its states deviation, before w),
    # and by the glue check these are the V_t blocks of the sums on the whole space.
    weight = spaces.mean_density_weight(n)
    traces = weight * sum(count * result.traces for count, result in present)
    dev = _worst(*np.abs(traces - 1), *(weight * r.states for r in results))
    report.add("mean_densities_are_states", scope, dev, TIGHT,
               "averaged inputs are unit-trace positive operators")

    # Per kind present, u3 over its S1 rows and over its S2 rows gives its unit
    # symmetric vector, as wide as each V_t of its group.
    widths = (abs(cols.shape[1] - kind.d) for cols, kind in zip(vts, kinds.kind_table()))
    dev = _worst(*(r.expansions for r in results), *widths)
    report.add("symmetric_vector_expansions", scope, dev, TIGHT,
               "product-basis expansions reconstruct the symmetric vectors")

    report.add("paired_basis_structure", scope, _worst(*(r.paired for r in results)), TIGHT,
               "g/h families orthonormal with diagonal cross overlap -1/2")
    report.add("paired_basis_off_symmetric", scope, _worst(*(r.off_symmetric for r in results)),
               TIGHT, "g/h vectors are orthogonal to the fully symmetric subspace")
    report.add("principal_angle_cosines", scope, _worst(*(r.angles for r in results)), TIGHT,
               "all principal-angle cosines between the families equal 1/2")

    # Per kind: rho_1 = w (P_0 + P_g), rho_2 = w (P_0 + P_h), S1 = P_0 + P_g, S2 = P_0 + P_h.
    dev_density = weight * _worst(*(r.decomposition for r in results))
    report.add("density_decomposition", scope, dev_density, TIGHT,
               "paired-basis decomposition rebuilds the averaged inputs")
    report.add("complement_spans", scope, _worst(*(r.spans for r in results)), OP,
               "g (resp. h) dyads complete the symmetric projector to S1 (resp. S2)")

    # Per kind: each h_perp row must equal g_perp/2 + (sqrt(3)/2) h, and at every
    # angle each of pi1, pi2 and pi0 must be positive and equal to a (S3 - S2),
    # b (S3 - S1) and their complement of its permutation sums, which at a = 1 and
    # b = 1 holds S3 - S2 and S3 - S1 against P_g_perp and P_h_perp.  The wrong-input
    # traces on the whole space are the kinds' counted once per V_t, times w.
    unambiguous = weight * sum(count * result.wrong for count, result in present)
    report.add("povm_positive", scope, _worst(*(r.positive for r in results)), OP,
               "all three detection operators are positive semidefinite on a 50-point grid")
    report.add("povm_complete", scope, _worst(*(r.complete for r in results)), OP,
               "detection operators sum to the identity")
    report.add("povm_unambiguous_mixed", scope, _worst(np.abs(unambiguous).max()), TIGHT,
               "wrong-state expectation values vanish for the averaged inputs")

    # On the grid, and at the optimum, where the trace must be optimal_average's value.
    priors = Priors(0.3)
    best = povm.optimal_average(n, priors)
    angles = np.append(_GRID[::7], best.omega1_star)
    closed = [*(povm.average_success(n, omega1, priors) for omega1 in _GRID[::7]), best.value]
    dev = _or_inf(lambda: np.abs(povm.average_success_trace(n, angles, priors) - closed).max())
    report.add("average_success_closed_form", scope, dev, OP,
               "closed-form averaged success equals the trace evaluation")

    # The seeded pairs, each library call taking the whole stack at once.
    states = _haar_rows(optics.seeded_stream(977), (SEEDED_PAIRS, 2), n)
    psi1, psi2 = states[:, 0], states[:, 1]
    closed = povm.pure_success(psi1, psi2, 0.7, priors)
    dev_pure = _or_inf(lambda: np.abs(
        closed - povm.pure_success_expectation(psi1, psi2, 0.7, priors)).max())
    povms = povm.kind_povms(0.7)
    dev_unamb_pure = _worst(*(  # |pi_k |wrong input>| per pair, from its V_t blocks
        np.sqrt(sum((np.abs(np.einsum("ij,tbj->tbi", ops[0, k], amps)) ** 2).sum(axis=(1, 2))
                    for ops, amps in zip(povms, spaces.product_blocks(psi1, middle, psi2)))).max()
        for k, middle in ((0, psi2), (1, psi1))
    ))
    sum_g, sum_h, closed_form = overlap_identity_check(psi1, psi2)
    dev_identity = _worst(np.abs(sum_g - closed_form).max(), np.abs(sum_h - closed_form).max())
    report.add("pure_success_closed_form", scope, dev_pure, OP,
               "closed-form pure-state success equals the expectation value")
    report.add("povm_unambiguous_pure", scope, dev_unamb_pure, OP,
               "wrong-state detection amplitudes vanish for random pure pairs")
    report.add("reciprocal_overlap_identity", scope, dev_identity, OP,
               "summed reciprocal overlaps equal (1 - overlap^2)/2 for random pairs")


def _scan_points(start: int, stop: int, stride: int = 1) -> np.ndarray:
    """Points start, start + stride, ... (below stop) of the regime scan's grid."""
    return 1.0 + np.arange(start, min(stop, SCAN_POINTS), stride) * SCAN_STEP


def _grid_max(priors: Priors) -> tuple[float, int]:
    """Maximum of P over the regime scan's grid and its index there, evaluated
    within one SCAN_STRIDE of the coarse peak."""
    def curve(x):
        return 1.0 - priors.eta1 * x / 4.0 - priors.eta2 / x

    coarse = curve(_scan_points(0, SCAN_POINTS, SCAN_STRIDE))
    start = max(0, (int(np.argmax(coarse)) - 1) * SCAN_STRIDE)
    window = curve(_scan_points(start, start + 2 * SCAN_STRIDE + 1))
    top = int(np.argmax(window))
    return float(window[top]), start + top


def _global_checks(n_max: int, report: VerificationReport) -> None:
    scope = "global"
    dev = 0.0
    for priors in map(Priors, np.linspace(0.01, 0.99, 99)):
        dev = _worst(dev, abs(povm.optimal_subspace(priors).value - _grid_max(priors)[0]))
    report.add("regime_optima_vs_scan", scope, dev, SCAN,
               "three-regime optimum matches a 1e-6 grid scan for 99 priors")

    # The regime switches between adjacent doubles: just below 1/5 and just above 4/5.
    dev = 0.0
    for boundary in (0.2, 0.8):
        values = [povm.optimal_subspace(Priors(eta1)).value
                  for eta1 in (np.nextafter(boundary, 0.0), boundary, np.nextafter(boundary, 1.0))]
        dev = _worst(dev, np.ptp(values))
    report.add("regime_continuity", scope, dev, TIGHT,
               "endpoint and interior optimum formulas agree at the regime boundaries")

    # The same two-dimensional pair, of squared overlap 1/2, embedded at every n,
    # through the V_t blocks of the detection operators: at omega1 = 0.8 its success
    # is one value at every n, and at the optimal angle it is optimal_pure's value.
    # Both angles are read at each n in turn, so the n sweep runs once.
    priors = Priors(0.3)
    states = [(e[0], (e[0] + e[1]) / np.sqrt(2)) for e in map(np.eye, range(max(5, n_max), 1, -1))]
    angles = (0.8, povm.optimal_subspace(priors).omega1_star)

    def spread():
        fixed, best = zip(*([povm.pure_success_expectation(psi1, psi2, omega1, priors)
                             for omega1 in angles] for psi1, psi2 in states))
        optimum = povm.optimal_pure(0.5, priors).value
        return _worst(np.ptp(fixed), *(abs(value - optimum) for value in best)) / 0.5

    dev = _or_inf(spread)
    report.add("dimension_independence", scope, dev, OP,
               "normalized pure-state success is independent of the qudit dimension")

    # One Jordan block: the {a,a,b} kind's g, h and g_perp rows in its (g_perp, h) frame.
    kind = kinds.kind_table()[1]
    frame = np.vstack([kind.g_perp, kind.h])
    dev = 0.0
    for omega1 in np.linspace(0.0, np.pi / 2, 20):
        net, ops = optics.discriminator_network(omega1), povm.block_povm(omega1)
        for which in ("g", "h", "g_perp"):
            c = frame @ getattr(kind, which)[0]
            probs = optics.output_distribution(net, optics.discriminator_port_state(which))
            dev = _worst(dev, np.abs(probs - [c @ pi @ c for pi in ops]).max())
    report.add("network_born_rule", scope, dev, TIGHT,
               "six-port click probabilities equal the detection-operator expectations")

    # The largest excess of a mesh's layers over N(N-1)/2 if there is one, else
    # the largest unitary error.
    dev, excess = 0.0, 0
    rng = optics.seeded_stream(4242)
    for dim in range(2, 9):
        q, r = np.linalg.qr(_complex_normal(rng, (dim, dim)))
        target = q * (np.diag(r) / np.abs(np.diag(r)))
        net = optics.reck_decompose(target)
        excess = max(excess, len(net.modes) - dim * (dim - 1) // 2)
        dev = _worst(dev, np.abs(net.unitary() - target).max())
    report.add("mesh_synthesis_roundtrip", scope, excess if excess > 0 else dev,
               OP, "triangular mesh synthesis reproduces random unitaries up to size 8")

    shots, state = 20_000, optics.discriminator_port_state("g")
    net = optics.discriminator_network(povm.omega1_from_x(2.0))
    probs = optics.output_distribution(net, state)
    counts = optics.simulate_clicks(net, state, shots, seed=31)
    tv = 0.5 * np.abs(np.array(list(counts.values())) / shots - probs).sum()
    report.add("sampled_click_convergence", scope, tv, 5 * np.sqrt(3 / shots),
               "empirical click frequencies converge at the statistical rate")

    dev_sigma = 0.0
    for n, priors_i in ((2, Priors(0.5)), (3, Priors(0.1)), (min(5, max(2, n_max)), Priors(0.9))):
        est = mc_success(n, 0.8, priors_i, trials=10_000, seed=55)
        target = povm.average_success(n, 0.8, priors_i)
        if est.stderr != 0:  # a NaN error is not skipped
            dev_sigma = _worst(dev_sigma, abs(est.mean - target) / est.stderr)
    report.add("mc_success_consistency", scope, dev_sigma, 3.0,
               "Monte Carlo success estimates sit within three standard errors")

    emp = empirical_mean_density(2, 1, trials=20_000, seed=77)
    rho1, _ = spaces.mean_density_operators(2)
    report.add("empirical_mean_density", scope, np.abs(emp - rho1).max(), 0.01,
               "sampled projector average converges to the analytic input state")

    # D_N over its DKW-Massart bound, which the true law exceeds with probability <= KS_ALPHA.
    samples = np.abs(_haar_rows(optics.seeded_stream(123), (10_000,), 3)[:, 0]) ** 2
    distance = _ks_distance(samples, lambda u: 1.0 - (1.0 - u) ** 2)  # Beta(1, 2) CDF
    report.add("haar_first_component_law", scope,
               _worst(0.0, distance - _dkw_epsilon(len(samples))), 0.0,
               "squared first component of random states follows the Beta(1, n-1) law")


def verify_all(n_max: int) -> VerificationReport:
    """Run every invariant check for n = 2..n_max plus the global checks.

    Each check compares its worst deviation with a fixed bound: TIGHT, OP or
    SCAN, or a statistical or exact bound of its own.  Failures are recorded in
    the report, not raised.  An n_max whose per-n suite would peak over
    spaces.MAX_BUILD_BYTES (n_max > 48) raises DomainError before any work.

    Whatever the per-n suite reads of one kind alone is the same at every n, so
    it is built once per run, after that refusal and from the kind table as it
    then is (:func:`_kind_results`), and each n reduces it over its kinds.
    """
    n_max = scalars.check_integer(n_max, 2, "n_max")
    # The per-n suite peaked at 2.81 and 3.09 times the seeded pairs' kets at
    # n = 30 and 48 (tracemalloc); 6 times them admits n_max <= 48.
    spaces.check_build_bytes(6 * 16 * SEEDED_PAIRS * n_max**3, f"the per-n suite at n_max {n_max}")
    report = VerificationReport()
    kind_results = _kind_results()
    for n in range(2, n_max + 1):
        _checks_for_n(n, report, kind_results)
    _global_checks(n_max, report)
    return report
