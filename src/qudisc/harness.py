"""Random-state sampling, Monte Carlo estimates, and the verification suite.

Averages over "completely unknown" states are taken with respect to the
unitarily invariant measure: normalized vectors of i.i.d. standard complex
Gaussians.  Monte Carlo success estimates average the exact per-pair success
probability (each draw contributes its conditional value, not a sampled
outcome), which keeps the estimator unbiased with far lower variance.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from . import kinds, optics, povm, spaces
from .errors import ContractError
from .jordan import build_gh_bases, jordan_angles
from .povm import Priors


# Random pairs per block, which bounds a sampling call's memory.  Each block
# takes the next draws of the call's one stream, so results do not depend on it.
HAAR_BLOCK = 1024
# Most trials one Monte Carlo call accepts: mc_success keeps one float per
# trial, and its standard error one more, so it peaks near 160 MB at the limit
# (about 4 s at n = 2 on a 2-vCPU x86 VM).
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

# Default comparison tolerances of the suite, which verify_all's tol replaces
# together: exact algebraic identities, operator-level identities with more
# accumulation, and closed-form optima against brute-force grid scans.
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


def _haar_pair_blocks(n: int, trials: int, seed: int, least: int):
    """(psi1 rows, psi2 rows) for `trials` random pairs, HAAR_BLOCK pairs at a time.

    Trials outside least..MAX_TRIALS raise DomainError before any draw.
    """
    trials = spaces.check_integer(trials, least, "trials", MAX_TRIALS)
    rng = optics.seeded_stream(seed)
    pairs = (_haar_rows(rng, (min(HAAR_BLOCK, trials - start), 2), n)
             for start in range(0, trials, HAAR_BLOCK))
    return ((p[:, 0], p[:, 1]) for p in pairs)


def haar_state(n: int, seed: int, stream: int = 0) -> np.ndarray:
    """Unit vector drawn from the unitarily invariant measure."""
    n = spaces.check_integer(n, 1, "dimension")
    return _haar_rows(optics.seeded_stream(seed, stream), (), n)


def empirical_mean_density(n: int, which: int, trials: int, seed: int) -> np.ndarray:
    """Monte Carlo average of the projector onto the three-register input."""
    n, which = spaces.check_dimension(n), spaces.check_integer(which, 1, "which", 2)
    # The complex n^3 x n^3 sum and product, and some five copies of a block's kets.
    spaces.check_build_bytes(16 * (2 * n**6 + 5 * HAAR_BLOCK * n**3), "the sampled density")
    blocks = _haar_pair_blocks(n, trials, seed, 1)
    acc = np.zeros((n**3, n**3), dtype=complex)
    for psi1, psi2 in blocks:
        middle = psi1 if which == 1 else psi2
        big = np.einsum("ti,tj,tk->tijk", psi1, middle, psi2).reshape(len(psi1), n**3)
        acc += big.T @ big.conj()
    return acc / trials


@dataclass(frozen=True)
class OverlapIdentity:
    """Both operator-side sums and the closed form they should equal: floats
    for one pair, arrays of one value per pair for stacked states."""

    sum_g: float | np.ndarray
    sum_h: float | np.ndarray
    closed_form: float | np.ndarray


def overlap_identity_check(psi1: np.ndarray, psi2: np.ndarray, n: int) -> OverlapIdentity:
    """Summed squared overlaps of the inputs with the reciprocal families.

    Both sums equal (1 - |<psi1|psi2>|^2) / 2 for any pure pair.  Each is summed
    over the V_t, from the kets' amplitudes there and the kinds' g_perp or h_perp
    rows, in O(n^3) memory per ket.  Takes states (n,) or row-aligned stacks
    (T, n); states that are not finite unit vectors of length n raise ContractError.
    """
    n = spaces.check_dimension(n)
    psi1, psi2 = spaces.check_unit_states(psi1, psi2, n)
    spaces.check_build_bytes(3 * 16 * psi1.size * n**2,  # three complex T x n^3 arrays
                             "a product ket, its V_t amplitudes and their overlaps")

    def overlap_sum(entry, kets):
        blocks = zip(kinds.kind_table(), spaces.gather_blocks(kets, n))
        return sum((np.abs(np.einsum("...bj,ij->...bi", amps, getattr(kind, entry))) ** 2)
                   .sum(axis=(-2, -1)) for kind, amps in blocks)

    sum_g = overlap_sum("g_perp", spaces.product_ket(psi1, psi1, psi2))
    sum_h = overlap_sum("h_perp", spaces.product_ket(psi1, psi2, psi2))
    closed = 0.5 * (1.0 - np.abs((psi1.conj() * psi2).sum(axis=-1)) ** 2)
    return OverlapIdentity(sum_g=sum_g, sum_h=sum_h, closed_form=closed)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with its standard error."""

    mean: float
    stderr: float
    trials: int
    seed: int


def mc_success(
    n: int, omega1: float, priors: Priors, trials: int, seed: int
) -> McEstimate:
    """Monte Carlo average of the pure-state success over random pairs.

    Each trial contributes its exact conditional success probability, which
    depends on the drawn pair only through the squared overlap.
    """
    n = spaces.check_dimension(n)
    blocks = _haar_pair_blocks(n, trials, seed, 100)
    prefactor = povm.PURE_SCALE * povm.success_curve_x(povm.x_from_omega1(omega1), priors)
    values = np.concatenate([prefactor * (1.0 - np.abs((a.conj() * b).sum(axis=1)) ** 2)
                             for a, b in blocks])
    stderr = float(values.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return McEstimate(mean=float(values.mean()), stderr=stderr, trials=trials, seed=seed)


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
    n_max: int
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


def _completeness_and_unambiguity(stacks, rhos) -> tuple[np.ndarray, np.ndarray]:
    """Per angle, the largest |entry| of pi1 + pi2 + pi0 - I on the blocks and
    the larger of |Tr(pi1 rho2)| and |Tr(pi2 rho1)|, summed over the blocks.

    The operators come as one (K, 3, blocks, d, d) stack per kind, and rhos holds
    each kind's (d, d) blocks of the two averaged inputs, the same on each of its
    V_t, so the traces read only the blocks.  A kind with no blocks adds nothing.
    """
    rho1, rho2 = rhos
    complete = np.max([np.abs(s.sum(axis=1) - np.eye(s.shape[-1])).max(axis=(1, 2, 3), initial=0.0)
                       for s in stacks], axis=0)
    wrong = [sum(np.einsum("kbij,ji->k", s[:, k], r) for s, r in zip(stacks, rho))
             for k, rho in ((0, rho2), (1, rho1))]
    return complete, np.maximum(np.abs(wrong[0]), np.abs(wrong[1]))


def _checks_for_n(n: int, tol: float | None, report: VerificationReport) -> None:
    scope = f"n={n}"
    tight, op = (TIGHT, OP) if tol is None else (tol, tol)
    table = spaces.dimension_table(n)
    constructive = spaces.constructive_dimension_table(n)
    counts = spaces.kind_counts(n)  # closed form, against the V_t that label_blocks counts
    vts = spaces.label_blocks(n)
    dev = _worst(*(abs(a - b) for a, b in zip(astuple(table), astuple(constructive))),
                 np.abs(counts - [len(cols) for cols in vts.groups]).max())
    report.add("dimension_formulas", scope, dev, 0,
               "closed-form subspace dimensions equal constructive SVD ranks")

    # The three-fold symmetric basis has one row per V_t, its kind's unit vector
    # spread over it, so the groups must cover each ket once.
    sym2 = spaces.symmetric_basis_2(n)
    units = [np.full(kind.d, 1.0 / np.sqrt(kind.d)) for kind in kinds.kind_table()]
    covered = np.bincount(np.concatenate([cols.ravel() for cols in vts.groups]), minlength=n**3)
    dev = _worst(np.abs(sym2.conj() @ sym2.T - np.eye(len(sym2))).max(), np.abs(covered - 1).max(),
                 *(abs(unit @ unit - 1) for count, unit in zip(counts, units) if count))
    report.add("symmetric_bases_orthonormal", scope, dev, tight,
               "two- and three-fold symmetric bases have identity Gram matrices")

    swap = spaces.permute_registers(np.eye(n * n), (1, 0), n)  # its rows: the swap is symmetric
    p_sigma = spaces.symmetric_projector(n)
    dev = _worst(np.abs(p_sigma - (np.eye(n * n) + swap) / 2).max(),
                 np.abs(p_sigma @ p_sigma - p_sigma).max())
    report.add("symmetric_projector", scope, dev, op,
               "two-fold symmetric projector is the permutation symmetrizer")

    # The glue between the kinds and the whole space: each permutation maps every
    # V_t, so its row of block_of, to itself, and moves the flat indices of a V_t
    # as its kind's permutation matrix moves them.  Float rows let a NaN show.
    rows = np.stack([vts.block_of, np.arange(n**3)]).astype(float)
    moved = [spaces.permute_registers(rows, perm, n) for perm, _ in kinds.PERMUTATIONS]
    dev = _worst(*(np.abs(m[0] - rows[0]).max() for m in moved),
                 *(np.abs(m[1, cols] - cols @ kind.perms[s]).max(initial=0.0)
                   for s, m in enumerate(moved)
                   for cols, kind in zip(vts.groups, kinds.kind_table())))
    report.add("threefold_permutation_invariance", scope, dev, tight,
               "three-fold symmetric vectors are fixed by all register permutations")

    # Operators built alike on every V_t are read once per kind present at n,
    # and a sum over the V_t counts each kind's term once per V_t of that kind.
    # The averaged inputs are w times the kinds' rho1 and rho2.  By Schur-Weyl
    # duality they and the detection operators are sums of the six permutations,
    # so each kind's S1, S2 and S3 from its permutation matrices must equal its
    # blocks built from the paper's rows; by the glue check these are the V_t
    # blocks of the sums on the whole space.  A Frobenius distance between two
    # copies joins the negativity of the one checked (Weyl, ||.||_2 <= ||.||_F).
    grid, weight = np.linspace(0.0, np.pi / 2, 50), spaces.mean_density_weight(n)
    present = [(count, kind, ops) for count, kind, ops
               in zip(counts, kinds.kind_table(), povm.kind_povms(grid)) if count]
    sums = [kinds.symmetrizers(kind.perms) for _, kind, _ in present]
    dev = 0.0
    for index, entry, span in ((0, "rho1", "s1"), (1, "rho2", "s2")):
        blocks = [weight * getattr(kind, entry) for _, kind, _ in present]
        lowest = np.min([_lowest_eigenvalues(block) for block in blocks])
        trace = sum(count * np.trace(block) for (count, *_), block in zip(present, blocks))
        # w S1 (w S2) from the permutations, and from the product-basis rows.
        copies = _worst(*(np.linalg.norm(block - weight * copy)
                          for block, (_, kind, _), s in zip(blocks, present, sums)
                          for copy in (s[index], getattr(kind, span))))
        dev = _worst(dev, abs(trace - 1), np.maximum(0.0, -lowest), copies)
    report.add("mean_densities_are_states", scope, dev, tight,
               "averaged inputs are unit-trace positive operators")

    # Per kind present, u3 over its S1 rows and over its S2 rows gives its unit
    # symmetric vector, as wide as each V_t of its group.
    dev = _worst(*(np.linalg.norm(kind.u3 @ rows - unit)
                   for count, kind, unit in zip(counts, kinds.kind_table(), units) if count
                   for rows in (kind.s1_rows, kind.s2_rows)),
                 *(abs(cols.shape[1] - unit.size) for cols, unit in zip(vts.groups, units)))
    report.add("symmetric_vector_expansions", scope, dev, tight,
               "product-basis expansions reconstruct the symmetric vectors")

    paired = [kind for _, kind, _ in present if kind.cases]  # {a,a,a} has no g or h rows
    dev = _worst(*(np.abs(a @ b.T - overlap * np.eye(len(a))).max() for k in paired
                   for a, b, overlap in ((k.g, k.g, 1.0), (k.h, k.h, 1.0), (k.g, k.h, -0.5))))
    report.add("paired_basis_structure", scope, dev, tight,
               "g/h families orthonormal with diagonal cross overlap -1/2")

    dev = _worst(*(np.abs(rows @ np.full(k.d, k.d**-0.5)).max()  # the unit symmetric vector
                   for k in paired for rows in (k.g, k.h)))
    report.add("paired_basis_off_symmetric", scope, dev, tight,
               "g/h vectors are orthogonal to the fully symmetric subspace")

    dev = _worst(*(_or_inf(lambda: np.abs(jordan_angles(k.g, k.h) - 0.5).max()) for k in paired))
    report.add("principal_angle_cosines", scope, dev, tight,
               "all principal-angle cosines between the families equal 1/2")

    # Per kind: rho_1 = w (P_0 + P_g), rho_2 = w (P_0 + P_h), S1 = P_0 + P_g, S2 = P_0 + P_h.
    dev_density = _worst(*(np.abs(weight * (kind.p0 + family) - weight * rho).max()
                           for _, kind, _ in present
                           for family, rho in ((kind.p_g, kind.rho1), (kind.p_h, kind.rho2))))
    dev_spans = _worst(*(np.abs(kind.p0 + family - span).max()
                         for _, kind, _ in present
                         for family, span in ((kind.p_g, kind.s1), (kind.p_h, kind.s2))))
    report.add("density_decomposition", scope, dev_density, tight,
               "paired-basis decomposition rebuilds the averaged inputs")
    report.add("complement_spans", scope, dev_spans, op,
               "g (resp. h) dyads complete the symmetric projector to S1 (resp. S2)")

    # One eigensolve per kind gives the exact lambda_min of its pi1, pi2 and pi0 at
    # every angle; each h_perp row must equal g_perp/2 + (sqrt(3)/2) h.  Each kind's
    # S3 - S2 and S3 - S1 must be its P_g_perp and P_h_perp, and a (S3 - S2),
    # b (S3 - S1) and their complement, as total_povm builds them, its blocks at
    # every angle: the distance, the largest over the kinds, joins each operator's
    # negativity, and their completeness and traces join the other two checks.
    h_perp_gap = _worst(*(
        np.abs(kind.h_perp - (0.5 * kind.g_perp + np.sqrt(3.0) / 2.0 * kind.h)).max(initial=0.0)
        for _, kind, _ in present))
    projector_gap = _worst(*(np.linalg.norm(copy - proj)
                             for (_, kind, _), (s1, s2, s3) in zip(present, sums)
                             for copy, proj in ((s3 - s2, kind.p_g_perp), (s3 - s1, kind.p_h_perp))))
    a, b = np.array([povm.detection_weights(w) for w in grid]).T[:, :, None, None]
    built = []  # per kind present: (K, 3, d, d), as kind_povms gives them
    for (_, kind, _), (s1, s2, s3) in zip(present, sums):
        pi1, pi2 = a * (s3 - s2), b * (s3 - s1)
        built.append(np.stack([pi1, pi2, np.eye(kind.d) - pi1 - pi2], axis=1))
    distance = np.max([np.sqrt(((ops - copy) ** 2).sum(axis=(2, 3)))
                       for (*_, ops), copy in zip(present, built)], axis=0)
    negativity = np.maximum(0.0, -np.min([_lowest_eigenvalues(ops) for *_, ops in present], axis=0))
    rhos = [[count * weight * getattr(kind, entry) for count, kind, _ in present]
            for entry in ("rho1", "rho2")]
    complete, unambiguous = np.max([_completeness_and_unambiguity(
        [stack[:, :, None] for stack in stacks], rhos)
        for stacks in ([ops for *_, ops in present], built)], axis=0)
    dev = _worst(h_perp_gap, projector_gap, (negativity + distance).max())
    report.add("povm_positive", scope, dev, op,
               "all three detection operators are positive semidefinite on a 50-point grid")
    report.add("povm_complete", scope, _worst(complete.max()), op,
               "detection operators sum to the identity")
    report.add("povm_unambiguous_mixed", scope, _worst(unambiguous.max()), tight,
               "wrong-state expectation values vanish for the averaged inputs")

    # On the grid, and at the optimum, where the trace must be optimal_average's value.
    priors = Priors.from_eta1(0.3)
    best = povm.optimal_average(n, priors)
    angles = np.append(grid[::7], best.omega1_star)
    closed = [*(povm.average_success(n, omega1, priors) for omega1 in grid[::7]), best.value]
    dev = _or_inf(lambda: np.abs(povm.average_success_trace(n, angles, priors) - closed).max())
    report.add("average_success_closed_form", scope, dev, op,
               "closed-form averaged success equals the trace evaluation")

    # The seeded pairs, each library call taking the whole stack at once.
    states = _haar_rows(optics.seeded_stream(977), (SEEDED_PAIRS, 2), n)
    psi1, psi2 = states[:, 0], states[:, 1]
    closed = povm.pure_success(psi1, psi2, 0.7, priors, n)
    dev_pure = _or_inf(lambda: np.abs(
        closed - povm.pure_success_expectation(psi1, psi2, 0.7, priors, n)).max())
    povms = povm.kind_povms(0.7)
    dev_unamb_pure = _worst(*(  # |pi_k |wrong input>| per pair, from its V_t blocks
        np.sqrt(sum((np.abs(np.einsum("ij,tbj->tbi", ops[0, k], amps)) ** 2).sum(axis=(1, 2))
                    for ops, amps in zip(povms, spaces.gather_blocks(kets, n)))).max()
        for k, kets in ((0, spaces.product_ket(psi1, psi2, psi2)),
                        (1, spaces.product_ket(psi1, psi1, psi2)))
    ))
    identity = overlap_identity_check(psi1, psi2, n)
    dev_identity = _worst(np.abs(identity.sum_g - identity.closed_form).max(),
                          np.abs(identity.sum_h - identity.closed_form).max())
    report.add("pure_success_closed_form", scope, dev_pure, op,
               "closed-form pure-state success equals the expectation value")
    report.add("povm_unambiguous_pure", scope, dev_unamb_pure, op,
               "wrong-state detection amplitudes vanish for random pure pairs")
    report.add("reciprocal_overlap_identity", scope, dev_identity, op,
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


def _global_checks(n_max: int, tol: float | None, report: VerificationReport) -> None:
    scope = "global"
    tight, op, scan = (TIGHT, OP, SCAN) if tol is None else (tol, tol, tol)
    dev = 0.0
    for eta1 in np.linspace(0.01, 0.99, 99):
        priors = Priors.from_eta1(float(eta1))
        dev = _worst(dev, abs(povm.optimal_subspace(priors).value - _grid_max(priors)[0]))
    report.add("regime_optima_vs_scan", scope, dev, scan,
               "three-regime optimum matches a 1e-6 grid scan for 99 priors")

    # The regime switches between adjacent doubles: just below 1/5 and just above 4/5.
    dev = 0.0
    for boundary in (0.2, 0.8):
        values = [povm.optimal_subspace(Priors.from_eta1(eta1)).value
                  for eta1 in (np.nextafter(boundary, 0.0), boundary, np.nextafter(boundary, 1.0))]
        dev = _worst(dev, np.ptp(values))
    report.add("regime_continuity", scope, dev, tight,
               "endpoint and interior optimum formulas agree at the regime boundaries")

    # The same two-dimensional pair embedded at every n, through the V_t blocks
    # of the detection operators.
    priors = Priors.from_eta1(0.3)
    states = [(e[0], (e[0] + e[1]) / np.sqrt(2)) for e in map(np.eye, range(max(5, n_max), 1, -1))]
    dev = _or_inf(lambda: np.ptp([povm.pure_success_expectation(psi1, psi2, 0.8, priors, len(psi1))
                                  for psi1, psi2 in states]) / 0.5)
    report.add("dimension_independence", scope, dev, op,
               "normalized pure-state success is independent of the qudit dimension")

    block = {name: getattr(build_gh_bases(2), name)[0] for name in ("g", "h", "g_perp")}
    dev = 0.0
    for omega1 in np.linspace(0.0, np.pi / 2, 20):
        net = optics.discriminator_network(omega1)
        ops = povm.total_povm(2, omega1)
        for which, state in block.items():
            probs = optics.output_distribution(net, optics.discriminator_port_state(which))
            expected = [np.vdot(state, pi @ state).real for pi in ops]
            dev = _worst(dev, np.abs(probs - np.array(expected)).max())
    report.add("network_born_rule", scope, dev, tight,
               "six-port click probabilities equal the detection-operator expectations")

    dev = 0.0
    max_layers_ok = True
    rng = optics.seeded_stream(4242)
    for dim in range(2, 9):
        q, r = np.linalg.qr(_complex_normal(rng, (dim, dim)))
        target = q * (np.diag(r) / np.abs(np.diag(r)))
        net = optics.reck_decompose(target)
        max_layers_ok &= len(net.modes) <= dim * (dim - 1) // 2
        dev = _worst(dev, np.abs(net.unitary() - target).max())
    report.add("mesh_synthesis_roundtrip", scope, dev if max_layers_ok else np.inf,
               op, "triangular mesh synthesis reproduces random unitaries up to size 8")

    shots, state = 20_000, optics.discriminator_port_state("g")
    net = optics.discriminator_network(povm.omega1_from_x(2.0))
    probs = optics.output_distribution(net, state)
    counts = optics.simulate_clicks(net, state, shots, seed=31).counts
    tv = 0.5 * np.abs(np.array(list(counts.values())) / shots - probs).sum()
    report.add("sampled_click_convergence", scope, tv, 5 * np.sqrt(3 / shots),
               "empirical click frequencies converge at the statistical rate")

    dev_sigma = 0.0
    for (n, eta1) in ((2, 0.5), (3, 0.1), (min(5, max(2, n_max)), 0.9)):
        priors_i = Priors.from_eta1(eta1)
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


def verify_all(n_max: int, tol: float | None = None) -> VerificationReport:
    """Run every invariant check for n = 2..n_max plus the global checks.

    Each comparison against TIGHT, OP or SCAN uses `tol` instead when it is given;
    the statistical and exact checks keep their own bounds.  Failures are recorded
    in the report, not raised.  A tol that is not a finite real number >= 0, or an
    n_max whose per-n suite would peak over spaces.MAX_BUILD_BYTES (n_max > 48),
    raises DomainError before any work.
    """
    if tol is not None:
        tol = spaces.check_real(tol, "tol", 0.0, np.finfo(float).max)
    n_max = spaces.check_integer(n_max, 2, "n_max")
    # The per-n suite peaked at 4.76, 4.92, 4.99 and 5.03 times the seeded pairs'
    # kets at n = 30, 40, 45 and 48 (tracemalloc); 6 times them admits n_max <= 48.
    spaces.check_build_bytes(6 * 16 * SEEDED_PAIRS * n_max**3, f"the per-n suite at n_max {n_max}")
    report = VerificationReport(n_max=n_max)
    for n in range(2, n_max + 1):
        _checks_for_n(n, tol, report)
    _global_checks(n_max, tol, report)
    return report
