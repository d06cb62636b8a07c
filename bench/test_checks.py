"""The benchmark's correctness checkers accept right outputs and reject wrong ones.

    python3 -m pytest bench/test_checks.py
"""

import json
import math

import numpy as np
import pytest

import checks


def verify_record(n_max=3, drop=None, fail=None, loosen=None) -> str:
    rows = []
    for (scope, name), tol in checks.required_verify_checks(n_max).items():
        if (scope, name) == drop:
            continue
        rows.append({
            "name": name,
            "scope": scope,
            "passed": (scope, name) != fail,
            "worst_deviation": 0.0,
            "tolerance": tol * 10 if (scope, name) == loosen else tol,
        })
    passed = fail is None
    record = {"command": "verify", "params": {"n_max": n_max, "tol": None},
              "results": {"checks": rows, "passed": passed}}
    return json.dumps(record)


def test_required_verify_list_has_18_per_dimension_and_9_global_checks():
    required = checks.required_verify_checks(6)
    assert len(required) == 18 * 5 + 9
    assert sum(scope == "global" for scope, _ in required) == 9


def test_verify_record_accepted():
    assert checks.check_verify_record(verify_record(), 0, 3) == []


@pytest.mark.parametrize("change", [
    {"fail": ("n=2", "povm_positive")},
    {"drop": ("n=3", "paired_basis_structure")},
    {"drop": ("global", "haar_first_component_law")},
    {"loosen": ("global", "regime_optima_vs_scan")},
])
def test_verify_record_with_failed_missing_or_loose_check_rejected(change):
    assert checks.check_verify_record(verify_record(**change), 0, 3)


def test_verify_record_with_nan_token_or_bad_exit_rejected():
    text = verify_record().replace('"tol": null', '"tol": NaN')
    assert checks.check_verify_record(text, 0, 3)
    assert checks.check_verify_record(verify_record(), 1, 3)
    assert checks.check_verify_record(verify_record(n_max=2), 0, 3)


def discriminator_output(shots=10_000, eta1=0.4, x=2.5):
    p = checks.success_curve(x, eta1)
    counts = {"D1": 3000, "D2": 3000, "F": shots - 6000}
    inputs = {"g": 4000, "h": shots - 4000}
    return counts, inputs, round(p * shots), shots, eta1, x


def test_discriminator_tallies_accepted():
    assert checks.check_discriminator(*discriminator_output()) == []


def test_counts_not_summing_to_shots_rejected():
    counts, inputs, successes, shots, eta1, x = discriminator_output()
    counts["F"] += 1
    assert checks.check_discriminator(counts, inputs, successes, shots, eta1, x)
    inputs["h"] -= 1
    counts["F"] -= 1
    assert checks.check_discriminator(counts, inputs, successes, shots, eta1, x)


def test_success_rate_far_from_curve_rejected():
    counts, inputs, successes, shots, eta1, x = discriminator_output()
    sigma = math.sqrt(checks.success_curve(x, eta1) * (1 - checks.success_curve(x, eta1)) / shots)
    assert checks.check_discriminator(counts, inputs, successes + int(6 * sigma * shots) + 1,
                                      shots, eta1, x)


def test_mc_success_mean_checked_against_haar_overlap_law():
    n, eta1, omega1, trials = 3, 0.3, 0.8, 10_000
    target = checks.pure_prefactor(eta1, omega1) * (1 - 1 / n)
    assert checks.check_mc_success(target, trials, n, eta1, omega1) == []
    # A mean taken with the wrong overlap law, E|<psi1|psi2>|^2 = 1/n^2.
    wrong = checks.pure_prefactor(eta1, omega1) * (1 - 1 / n**2)
    assert checks.check_mc_success(wrong, trials, n, eta1, omega1)


def test_mean_density_target_is_a_state_on_the_ab_symmetric_subspace():
    rho = checks.expected_mean_density(2)
    assert np.isclose(np.trace(rho), 1.0)
    assert checks.check_mean_density(rho, 2, 10_000) == []
    # The BC-symmetric input is a different state and must not pass.
    sym = (np.eye(4) + checks.swap_operator(2)) / 2
    rho_bc = 2 / (4 * 3) * np.kron(np.eye(2), sym)
    assert checks.check_mean_density(rho_bc, 2, 10_000)


def embed(block, a, b, modes):
    mat = np.eye(modes, dtype=complex)
    mat[np.ix_([a, b], [a, b])] = block
    return mat


def block(omega, phi, theta):
    s, c = math.sin(omega), math.cos(omega)
    return np.array([[s * np.exp(1j * phi), c * np.exp(1j * phi)],
                     [c * np.exp(1j * theta), -s * np.exp(1j * theta)]])


NETWORK = """MODES 3
BS 1 2 0.3 0.1 -0.4
BS 2 3 1.1 2.0 0.5
BS 1 2 0.7 -1.2 0.25
PHASE 1 0.9
PHASE 3 -0.6
"""


def network_target():
    """The documented product: listed layers left to right, then the phases."""
    return (embed(block(0.3, 0.1, -0.4), 0, 1, 3)
            @ embed(block(1.1, 2.0, 0.5), 1, 2, 3)
            @ embed(block(0.7, -1.2, 0.25), 0, 1, 3)
            @ np.diag(np.exp(1j * np.array([0.9, 0.0, -0.6]))))


def test_network_file_rebuilds_its_unitary_and_first_column():
    assert checks.check_mesh(NETWORK, network_target()) == []
    assert checks.check_mesh(NETWORK, network_target()[:, 0]) == []


@pytest.mark.parametrize("old, new", [
    ("BS 2 3 1.1 2.0", "BS 2 3 1.1000001 2.0"),
    ("PHASE 3 -0.6", "PHASE 3 -0.6000001"),
    ("BS 1 2 0.7", "BS 2 1 0.7"),
    ("PHASE 1 0.9\n", ""),
])
def test_perturbed_network_file_rejected(old, new):
    assert checks.check_mesh(NETWORK.replace(old, new), network_target())


def test_malformed_network_or_too_many_layers_rejected():
    assert checks.check_mesh(NETWORK.replace("BS 2 3 1.1 2.0 0.5", "BS 2 3 1.1 2.0"),
                             network_target())
    assert checks.check_mesh(NETWORK.replace("PHASE 3", "PHASE 4"), network_target())
    extra = NETWORK.replace("PHASE 1", "BS 1 3 1.5707963267948966 0 0\nBS 1 3 1.5707963267948966 0 0\nPHASE 1")
    assert np.allclose(checks.rebuild_unitary(extra)[0], network_target())
    assert checks.check_mesh(extra, network_target())
