"""Correctness checks for the benchmark workloads.

Every expected value here is computed from numpy alone, apart from the
program: the success curve P(x), the Haar-pair overlap law, the averaged
input state built from an explicit SWAP, and a mesh rebuilt from its network
file with two-row updates.  Each checker returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Per-dimension checks of `qudisc verify` (scope "n=<n>") and the library
# default tolerance of each; the README gives the command that regenerates
# this table from a fresh `verify --json` record.
TIGHT, OP, SCAN = 1e-12, 1e-10, 1e-6
PER_N_CHECKS = {
    "dimension_formulas": 0.0,
    "symmetric_bases_orthonormal": TIGHT,
    "symmetric_projector": OP,
    "threefold_permutation_invariance": TIGHT,
    "mean_densities_are_states": TIGHT,
    "symmetric_vector_expansions": TIGHT,
    "paired_basis_structure": TIGHT,
    "paired_basis_off_symmetric": TIGHT,
    "principal_angle_cosines": TIGHT,
    "density_decomposition": TIGHT,
    "complement_spans": OP,
    "povm_positive": OP,
    "povm_complete": OP,
    "povm_unambiguous_mixed": TIGHT,
    "average_success_closed_form": OP,
    "pure_success_closed_form": OP,
    "povm_unambiguous_pure": OP,
    "reciprocal_overlap_identity": OP,
}
GLOBAL_CHECKS = {
    "regime_optima_vs_scan": SCAN,
    "regime_continuity": TIGHT,
    "dimension_independence": OP,
    "network_born_rule": TIGHT,
    "mesh_synthesis_roundtrip": OP,
    "sampled_click_convergence": 5 * math.sqrt(3 / 20_000),
    "mc_success_consistency": 3.0,
    "empirical_mean_density": 0.01,
    "haar_first_component_law": 0.0,
}
# The record prints numbers to 15 significant digits.
PRINT_SLACK = 1e-13

MESH_TOL = 1e-9
SIGMAS = 5.0


def required_verify_checks(n_max: int) -> dict[tuple[str, str], float]:
    """(scope, name) -> loosest tolerance allowed, for `verify --n-max n_max`."""
    required = {
        (f"n={n}", name): tol
        for n in range(2, n_max + 1)
        for name, tol in PER_N_CHECKS.items()
    }
    required.update({("global", name): tol for name, tol in GLOBAL_CHECKS.items()})
    return required


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON token {token}")


def strict_json(text: str):
    """Parse JSON, rejecting the NaN/Infinity tokens the standard forbids."""
    return json.loads(text, parse_constant=_reject_constant)


def check_verify_record(text: str, exit_code: int, n_max: int) -> list[str]:
    """The `verify --json` record passes every required check at its tolerance."""
    try:
        record = strict_json(text)
    except ValueError as exc:
        return [f"record is not strict JSON: {exc}"]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    try:
        results = record["results"]
        checks = results["checks"]
        if results["passed"] is not True:
            problems.append("record reports passed != true")
        if record["params"]["n_max"] != n_max:
            problems.append(f"record has n_max {record['params']['n_max']}")
    except (KeyError, TypeError) as exc:
        return problems + [f"record lacks field {exc}"]

    required = required_verify_checks(n_max)
    seen = set()
    for check in checks:
        key = (check.get("scope"), check.get("name"))
        if key in seen:
            problems.append(f"check {key} reported twice")
        seen.add(key)
        if key not in required:
            continue
        if check.get("passed") is not True:
            problems.append(f"check {key} did not pass")
        tol = check.get("tolerance")
        if not isinstance(tol, (int, float)) or tol > required[key] * (1 + PRINT_SLACK):
            problems.append(f"check {key} tolerance {tol!r} looser than {required[key]!r}")
        dev = check.get("worst_deviation")
        if not isinstance(dev, (int, float)) or not dev <= tol:
            problems.append(f"check {key} deviation {dev!r} exceeds tolerance {tol!r}")
    for key in sorted(set(required) - seen):
        problems.append(f"check {key} missing")
    return problems


def success_curve(x: float, eta1: float) -> float:
    """P(x) = 1 - eta1 x / 4 - eta2 / x."""
    return 1.0 - eta1 * x / 4.0 - (1.0 - eta1) / x


def check_discriminator(
    counts: dict, input_counts: dict, successes: int, shots: int, eta1: float, x: float
) -> list[str]:
    """Tallies add up and the success rate sits within 5 sigma of P(x)."""
    problems = []
    if sorted(counts) != ["D1", "D2", "F"] or sum(counts.values()) != shots:
        problems.append(f"click counts {counts} do not sum to {shots} shots")
    if sorted(input_counts) != ["g", "h"] or sum(input_counts.values()) != shots:
        problems.append(f"input counts {input_counts} do not sum to {shots} shots")
    if not 0 <= successes <= shots:
        problems.append(f"{successes} successes out of {shots} shots")
        return problems
    p = success_curve(x, eta1)
    sigma = math.sqrt(p * (1.0 - p) / shots)
    emp = successes / shots
    if not abs(emp - p) <= SIGMAS * sigma:
        problems.append(f"empirical success {emp} is {abs(emp - p) / sigma:.1f} sigma from P(x) = {p}")
    return problems


def pure_prefactor(eta1: float, omega1: float) -> float:
    """Success per unit (1 - |<psi1|psi2>|^2) at angle omega1."""
    s2, c2 = math.sin(omega1) ** 2, math.cos(omega1) ** 2
    return 0.5 * eta1 * s2 + 2.0 * (1.0 - eta1) * c2 / (1.0 + 3.0 * c2)


def check_mc_success(mean: float, trials: int, n: int, eta1: float, omega1: float) -> list[str]:
    """The Monte Carlo mean sits within 5 standard errors of prefactor (1 - 1/n).

    For Haar pairs |<psi1|psi2>|^2 follows Beta(1, n-1): mean 1/n, variance
    (n-1) / (n^2 (n+1)), which fixes the standard error without trusting the
    program's own estimate.
    """
    pref = pure_prefactor(eta1, omega1)
    target = pref * (1.0 - 1.0 / n)
    stderr = pref * math.sqrt((n - 1) / (n * n * (n + 1)) / trials)
    if not abs(mean - target) <= SIGMAS * stderr:
        return [f"mc_success mean {mean} is not within {SIGMAS} standard errors of {target}"]
    return []


def swap_operator(n: int) -> np.ndarray:
    swap = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            swap[i * n + j, j * n + i] = 1.0
    return swap


def expected_mean_density(n: int) -> np.ndarray:
    """2/(n^2 (n+1)) ((I + SWAP)/2 (x) I): the AB-symmetric averaged input."""
    sym = (np.eye(n * n) + swap_operator(n)) / 2.0
    return 2.0 / (n * n * (n + 1)) * np.kron(sym, np.eye(n))


def mean_density_bound(n: int, trials: int, miss: float = 1e-9) -> float:
    """Deviation allowed per entry of a mean of `trials` rank-one projectors.

    Real and imaginary parts of every entry lie in [-1, 1], so by Hoeffding
    and a union bound over the 2 n^6 parts, a larger deviation has
    probability below `miss`.
    """
    parts = 2 * n**6
    return math.sqrt(2.0 * math.log(2.0 * parts / miss) / trials)


def check_mean_density(matrix: np.ndarray, n: int, trials: int) -> list[str]:
    """The sampled projector average is a unit-trace Hermitian matrix near the target."""
    matrix = np.asarray(matrix)
    dim = n**3
    if matrix.shape != (dim, dim) or not np.all(np.isfinite(matrix)):
        return [f"mean density has shape {matrix.shape} or non-finite entries"]
    problems = []
    if np.abs(matrix - matrix.conj().T).max() > 1e-12:
        problems.append("mean density is not Hermitian")
    if abs(np.trace(matrix) - 1.0) > 1e-9:
        problems.append(f"mean density has trace {np.trace(matrix)}")
    dev = np.abs(matrix - expected_mean_density(n)).max()
    bound = mean_density_bound(n, trials)
    if dev > bound:
        problems.append(f"mean density deviates by {dev} > {bound}")
    return problems


def parse_network(text: str):
    """Read a network file: (modes, [(a, b, omega, phi, theta)], phases), 0-based modes."""
    modes, layers, phases = None, [], {}
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "MODES" and len(parts) == 2:
            modes = int(parts[1])
        elif parts[0] == "BS" and len(parts) == 6:
            a, b = int(parts[1]) - 1, int(parts[2]) - 1
            layers.append((a, b, *(float(v) for v in parts[3:6])))
        elif parts[0] == "PHASE" and len(parts) == 3:
            phases[int(parts[1]) - 1] = float(parts[2])
        else:
            raise ValueError(f"malformed network line {raw!r}")
    if modes is None:
        raise ValueError("network has no MODES line")
    for a, b, *_ in layers:
        if not (0 <= a < modes and 0 <= b < modes and a != b):
            raise ValueError(f"layer on modes {a + 1}, {b + 1} outside {modes}")
    if any(not 0 <= m < modes for m in phases):
        raise ValueError("phase on a mode outside the network")
    return modes, layers, np.array([phases.get(m, 0.0) for m in range(modes)])


def rebuild_unitary(text: str) -> tuple[np.ndarray, int]:
    """Compose U = L_0 L_1 ... L_k diag(exp(i phases)) by two-row updates.

    Layer (a, b, w, phi, theta) mixes rows a and b with the block
    [[sin w e^{i phi}, cos w e^{i phi}], [cos w e^{i theta}, -sin w e^{i theta}]].
    Returns the unitary and the number of two-mode layers.
    """
    modes, layers, phases = parse_network(text)
    mat = np.diag(np.exp(1j * phases))
    for a, b, omega, phi, theta in reversed(layers):
        s, c = math.sin(omega), math.cos(omega)
        row_a, row_b = mat[a].copy(), mat[b]
        mat[a] = np.exp(1j * phi) * (s * row_a + c * row_b)
        mat[b] = np.exp(1j * theta) * (c * row_a - s * row_b)
    return mat, len(layers)


def check_mesh(text: str, target: np.ndarray) -> list[str]:
    """The network file rebuilds the target unitary within 1e-9.

    A one-dimensional target is a prepared state: only the first column of
    the rebuilt unitary has to match it.
    """
    target = np.asarray(target)
    dim = target.shape[0]
    try:
        rebuilt, layers = rebuild_unitary(text)
    except ValueError as exc:
        return [f"network file unreadable: {exc}"]
    if rebuilt.shape[0] != dim:
        return [f"network has {rebuilt.shape[0]} modes, target has {dim}"]
    problems = []
    if layers > dim * (dim - 1) // 2:
        problems.append(f"{layers} layers exceed N(N-1)/2 = {dim * (dim - 1) // 2}")
    got = rebuilt[:, 0] if target.ndim == 1 else rebuilt
    dev = np.abs(got - target).max()
    if not dev <= MESH_TOL:
        problems.append(f"rebuilt network deviates from the target by {dev}")
    return problems
