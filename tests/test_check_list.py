"""The verification suite's check list, pinned.

`verify_all(6)` must report exactly these checks, in this order, with these
scopes, tolerances and claims.  Dropping, reordering or loosening a check
means editing this table.  The benchmark's record checker (bench/checks.py)
requires the same names, at tolerances no tighter than these, so a renamed,
moved or loosened check fails here before a benchmark run refuses it.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

from qudisc.harness import VerificationReport, verify_all

CHECKS_PATH = Path(__file__).resolve().parents[1] / "bench" / "checks.py"

# (name, tolerance, claim) of the checks run at every n, in run order.
PER_N_CHECKS = [
    ("dimension_formulas", 0.0,
     "closed-form subspace dimensions equal constructive SVD ranks"),
    ("symmetric_bases_orthonormal", 1e-12,
     "two- and three-fold symmetric bases have identity Gram matrices"),
    ("symmetric_projector", 1e-10,
     "two-fold symmetric projector is the permutation symmetrizer"),
    ("threefold_permutation_invariance", 1e-12,
     "three-fold symmetric vectors are fixed by all register permutations"),
    ("mean_densities_are_states", 1e-12,
     "averaged inputs are unit-trace positive operators"),
    ("symmetric_vector_expansions", 1e-12,
     "product-basis expansions reconstruct the symmetric vectors"),
    ("paired_basis_structure", 1e-12,
     "g/h families orthonormal with diagonal cross overlap -1/2"),
    ("paired_basis_off_symmetric", 1e-12,
     "g/h vectors are orthogonal to the fully symmetric subspace"),
    ("principal_angle_cosines", 1e-12,
     "all principal-angle cosines between the families equal 1/2"),
    ("density_decomposition", 1e-12,
     "paired-basis decomposition rebuilds the averaged inputs"),
    ("complement_spans", 1e-10,
     "g (resp. h) dyads complete the symmetric projector to S1 (resp. S2)"),
    ("povm_positive", 1e-10,
     "all three detection operators are positive semidefinite on a 50-point grid"),
    ("povm_complete", 1e-10,
     "detection operators sum to the identity"),
    ("povm_unambiguous_mixed", 1e-12,
     "wrong-state expectation values vanish for the averaged inputs"),
    ("average_success_closed_form", 1e-10,
     "closed-form averaged success equals the trace evaluation"),
    ("pure_success_closed_form", 1e-10,
     "closed-form pure-state success equals the expectation value"),
    ("povm_unambiguous_pure", 1e-10,
     "wrong-state detection amplitudes vanish for random pure pairs"),
    ("reciprocal_overlap_identity", 1e-10,
     "summed reciprocal overlaps equal (1 - overlap^2)/2 for random pairs"),
]

# (name, tolerance, claim) of the checks run once, after the per-n checks.
GLOBAL_CHECKS = [
    ("regime_optima_vs_scan", 1e-06,
     "three-regime optimum matches a 1e-6 grid scan for 99 priors"),
    ("regime_continuity", 1e-12,
     "endpoint and interior optimum formulas agree at the regime boundaries"),
    ("dimension_independence", 1e-10,
     "normalized pure-state success is independent of the qudit dimension"),
    ("network_born_rule", 1e-12,
     "six-port click probabilities equal the detection-operator expectations"),
    ("mesh_synthesis_roundtrip", 1e-10,
     "triangular mesh synthesis reproduces random unitaries up to size 8"),
    ("sampled_click_convergence", 0.06123724356957945,
     "empirical click frequencies converge at the statistical rate"),
    ("mc_success_consistency", 3.0,
     "Monte Carlo success estimates sit within three standard errors"),
    ("empirical_mean_density", 0.01,
     "sampled projector average converges to the analytic input state"),
    ("haar_first_component_law", 0.0,
     "squared first component of random states follows the Beta(1, n-1) law"),
]


def test_verify_all_takes_only_n_max_so_no_argument_replaces_a_bound():
    # Each check's bound is a constant of harness; the report keeps each
    # worst deviation for a caller who wants to compare with another bound.
    assert list(inspect.signature(verify_all).parameters) == ["n_max"]
    with pytest.raises(TypeError):
        verify_all(2, 1.0)
    assert [f.name for f in dataclasses.fields(VerificationReport)] == ["results"]


def test_verify_all_runs_exactly_the_pinned_checks():
    expected = [(f"n={n}", *row) for n in (2, 3, 4, 5, 6) for row in PER_N_CHECKS]
    expected += [("global", *row) for row in GLOBAL_CHECKS]
    report = verify_all(6)
    assert [(r.scope, r.name, r.tolerance, r.claim) for r in report.results] == expected
    assert len(expected) == 99 and report.passed


def _bench_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_requires_exactly_the_pinned_checks_at_no_looser_tolerance():
    bench = _bench_checks()
    for pinned, required in ((PER_N_CHECKS, bench.PER_N_CHECKS),
                             (GLOBAL_CHECKS, bench.GLOBAL_CHECKS)):
        names = [name for name, *_ in pinned]
        assert len(names) == len(set(names)) and set(names) == set(required)
        assert not [name for name, tol, _ in pinned if tol > required[name]]
