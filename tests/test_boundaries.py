"""Every refusal of malformed input that a test checks on its own is one row
of REFUSALS.

A row is a call, the package error it must raise (ContractError for arrays of
states, rows or operators; DomainError for scalars and angle arrays) and the
message it must match.  No row may return a result or raise a builtin error,
but for a command line that argparse refuses: its exit status, SystemExit(2).
Each row runs once, as test_malformed_input_raises_the_package_error[<id>], so
the ids are unique.  A row moved here from a module's test file has the old
test's name as its id, with `-case` for a case of a parametrized test and `#k`
for the k-th call of one test, so `-k <old name>` selects it.  A refusal stays
in its module's file when it checks more than the call: a patched stream or a
memory bound.  The values a call accepts stay in its module's tests.  The
reference copies of diagonal_blocks and block_stacks check their input as the
package does.
"""

import ast
import numbers
import re
import sys
import tempfile
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from qudisc import cli, harness, jordan, optics, povm, scalars, spaces
from qudisc.errors import ContractError, DomainError
from references import block_stacks, diagonal_blocks, s1_rows_by_kron, symmetric_basis_3
from shared import state_stacks
from test_harness import FAULTS

PRIORS = povm.Priors.from_eta1(0.5)
RAGGED = [[1, 0], [1]]
E0, E1 = np.eye(2)
NET = optics.Interferometer(2)


@numbers.Real.register
class PastTheFloats:
    """A real number that float() cannot hold."""

    def __float__(self):
        raise OverflowError("too large for a float")


def rows(name, error, match, *calls, first=0):
    """One row per call, refusing with `error` and a message that matches
    `match`.  A lone call's id is `name`; several are name#first, name#first+1, ..."""
    return [pytest.param(call, error, match,
                         id=name if len(calls) == 1 and not first else f"{name}#{first + k}")
            for k, call in enumerate(calls)]


def each(call, *cases):
    """call(case) for each case, as calls of no argument."""
    return [partial(call, case) for case in cases]


def _read_amplitude_text(text):
    """cli._read_amplitudes on a file that holds `text`."""
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "amps.txt"
        path.write_text(text)
        return cli._read_amplitudes(str(path))


def _one_bad_row(bad):
    """Ten pairs of unit states at n = 3 with row 6 of the first stack times
    `bad`, and, once, stacks of the wrong shapes, refused by each stacked call."""
    psi1, psi2 = state_stacks(3, 10, seed=5)
    psi1[6] *= bad
    pairs = [(psi1, psi2)]
    if np.isnan(bad):
        pairs += [(psi2[:4], psi2), (psi2[None], psi2[None])]
    return rows(f"test_one_bad_row_in_a_stack_is_refused-{bad}", ContractError,
                r"states must (be unit vectors|be two vectors of one length|have 1 or 2 axes)", *(
        partial(call, *pair) for pair in pairs for call in (
            lambda a, b: povm.pure_success(a, b, 0.7, PRIORS),
            lambda a, b: povm.pure_success_expectation(a, b, 0.7, PRIORS),
            lambda a, b: harness.overlap_identity_check(a, b))))


BAD_KEYS = [-1, 2**64, 2.5, np.nan, np.inf, "7", None]
NON_UNIT_PAIRS = [([np.nan, 0], [1, 0]), ([1, 0], [np.inf, 0]), ([1, 1], [1, 0]),
                  ([0.5, 0], [0, 1]), ([1, 0, 0], [1, 0])]
WRONG_WIDTHS = [
    lambda: diagonal_blocks(np.eye(7), 2),
    lambda: diagonal_blocks(np.eye(9), 2),  # would count the ninth diagonal entry as off-block
    lambda: diagonal_blocks(np.eye(8)[:, :7], 2),
    lambda: diagonal_blocks(np.ones(64), 2),
]
NON_NUMERIC = "test_non_numeric_input_raises_the_package_errors"
NAN_FAMILY = np.array([[np.nan, 0.0], [0.0, 1.0]])  # its Gram deviation is NaN, not above the bound
SPLITTER = optics.Interferometer(2, [(0, 1)], [(0.3, 0, 0)])
# (Interferometer arguments, the message that refuses them)
BAD_LAYERS = [
    ((2, [(1, 1)], [(0.3, 0, 0)]), "layer modes must differ"),
    ((2, [(0, 5)], [(0.1, 0, 0)]), "layer modes outside the network"),
    ((2, [(0.5, 1)], [(0.3, 0, 0)]), "layer modes must be whole numbers"),
    ((2, [(-1, 1)], [(0.3, 0, 0)]), "layer modes outside the network"),
    ((2, [(0, np.nan)], [(0.3, 0, 0)]), "layer modes must be whole numbers"),
    ((2, [(0, 1)], [(np.nan, 0.0, 0.0)]), "layer angles must be finite"),
    ((2, [(0, 1)], [(0.3, np.inf, 0.0)]), "layer angles must be finite"),
    ((2, [(0, 1)], [(0.3, 0.0, -np.inf)]), "layer angles must be finite"),
    ((2, [(0, 1)], [("0.3", 0.0, 0.0)]), "layer angles must be an array of real numbers"),
    ((2, [(0, 1)], [(0.3, None, 0.0)]), "layer angles must be an array of real numbers"),
    ((2, [(0, 1)], [(0.3, 0.0, 1j)]), "layer angles must be an array of real numbers"),
    ((2, (), (), (np.nan, 0.0)), "phases must be finite"),
    ((2, (), (), (0.0, np.inf)), "phases must be finite"),
    ((2, (), (), ("a", 0.0)), "phases must be an array of real numbers"),
    ((2, (), (), (0.1,)), r"phases must have shape \(2,\), got \(1,\)"),
    ((2, (), (), ((0.1, 0.2),)), r"phases must have shape \(2,\), got \(1, 2\)"),
    ((2, (), (), (None, 0.0)), "phases must be an array of real numbers"),
    ((0,), "num_modes must be an integer >= 1"),
    ((-1,), "num_modes must be an integer >= 1"),
    ((2.5,), "num_modes must be an integer >= 1"),
    ((np.nan,), "num_modes must be an integer >= 1"),
    ((optics.MAX_MODES + 1,), "num_modes must not exceed 4096"),
    ((3, [(0, 1)], []), r"must have shapes \(L, 2\) and \(L, 3\), got \(1, 2\) and \(0,\)"),
    ((3, [(0, 1, 2)], [(0.3, 0.0, 0.0)]), r"got \(1, 3\) and \(1, 3\)"),
    ((3, [(0, 1)], [(0.3, 0.0)]), r"got \(1, 2\) and \(1, 2\)"),
    ((3, [0, 1], [0.3, 0.0, 0.0]), r"got \(2,\) and \(3,\)"),  # flat, not one row per layer
    ((3, [(0, 2**70)], [(0.3, 0.0, 0.0)]), "layer modes must be an array of real numbers"),
    ((3, [(0, 1), (1,)], [(0.3, 0.0, 0.0)] * 2), "layer modes must be a rectangular array"),
    # Integer arrays of modes are checked as they are, with no float cast.
    ((2, np.array([(0, 2)]), [(0.3, 0.0, 0.0)]), "layer modes outside the network"),
    ((2, np.array([(-1, 1)], dtype=np.int8), [(0.3, 0.0, 0.0)]), "layer modes outside the network"),
    ((2, np.array([(1, 1)], dtype=np.uint64), [(0.3, 0.0, 0.0)]), "layer modes must differ"),
    ((2, np.array([(1, 0, 1)]), [(0.3, 0.0, 0.0)]), r"got \(1, 3\) and \(1, 3\)"),
    ((2, np.array([(True, False)]), [(0.3, 0.0, 0.0)]),
     "layer modes must be an array of real numbers"),
]
# (network text, the message that refuses it)
BAD_TEXTS = [
    ("BS 1 2 0.1 0 0\n", "missing MODES header"),
    ("MODES 2\nPHASE 5 0.1\n", "PHASE line for a mode outside the network"),
    ("MODES 2\nPHASE 0 0.1\n", "PHASE line for a mode outside the network"),
    ("MODES 0\n", "line 'MODES 0': num_modes must be an integer >= 1"),
    ("MODES 2\nMODES 3\n", "line 'MODES 3': repeated header or phase"),
    ("MODES x\n", "line 'MODES x': modes must be whole numbers"),
    ("MODES 2\nBS 1 2\n", "unrecognized line: 'BS 1 2'"),  # too few values
    ("MODES 2\nBS 1 2 0.1 0 0 7\n", "unrecognized line"),  # too many values
    ("MODES 2\nBS 1 2 nan 0 0\n", "layer angles must be finite"),
    ("MODES 2\nPHASE 1 inf\n", "phases must be finite"),
    ("MODES 2\nPHASE 1 0.1\nPHASE 1 0.2\n", "line 'PHASE 1 0.2': repeated header or phase"),
    ("MODES 2\nBS 1.5 2 0.1 0 0\n", "layer modes must be whole numbers"),
    ("MODES 2\nBS 0 1 0.1 0 0\n", "layer modes outside the network"),  # modes are 1-based
    ("MODES 2\nBS 1 1 0.1 0 0\n", "layer modes must differ"),
    ("MODES 2\nBS 1 3 0.1 0 0\n", "layer modes outside the network"),
    ("MODES 2\nBS 1 99999999999999999999 0.1 0 0\n", "layer modes outside the network"),
    ("MODES 2\nBS 1 2 0.1 x 0\n", "layer angles must be real numbers"),
    ("MODES 1e3\n", "line 'MODES 1e3': modes must be whole numbers"),
    ("MODES 2\nPHASE 1 x\n", "line 'PHASE 1 x': modes must be whole numbers, phases real"),
    ("MODES 2\nBS 1e0 2 0.1 0 0\n", "layer modes must be whole numbers"),  # as MODES 1e3 is
    # Six fields that are not a BS line, and a BS line with a trailing comment.
    ("MODES 2\nbs 1 2 0.1 0 0\n", "unrecognized line: 'bs 1 2 0.1 0 0'"),
    ("MODES 2\nBS 1 2 0.1 0 0 # c\n", "unrecognized line: 'BS 1 2 0.1 0 0 # c'"),
]
# The calls that take a Priors, given one.
PRIORS_TAKERS = {
    "success_curve_x": lambda priors: povm.success_curve_x(2.0, priors),
    "optimal_subspace": povm.optimal_subspace,
    "average_success": lambda priors: povm.average_success(2, 0.5, priors),
    "optimal_average": lambda priors: povm.optimal_average(2, priors),
    "pure_success": lambda priors: povm.pure_success(E0, E1, 0.5, priors),
    "optimal_pure": lambda priors: povm.optimal_pure(0.5, priors),
    "average_success_trace": lambda priors: povm.average_success_trace(2, 0.5, priors),
    "pure_success_expectation": lambda priors: povm.pure_success_expectation(
        E0, E1, 0.5, priors),
    "mc_success": lambda priors: harness.mc_success(2, 0.5, priors, 100, 0),
    "simulate_discriminator": lambda priors: optics.simulate_discriminator(0.5, priors, 10, 0),
    "analytic_discriminator_probabilities": lambda priors:
        optics.analytic_discriminator_probabilities(0.5, priors),
}

REFUSALS = [
    # Inputs that reached numpy's ValueError or TypeError, or ran.
    *rows("jordan_angles-ragged", ContractError,
          "first family must be a rectangular array of numbers",
          lambda: jordan.jordan_angles(RAGGED, [[1, 0]])),
    *rows("product_blocks-ragged", ContractError, "states must be a rectangular array of numbers",
          lambda: spaces.product_blocks(RAGGED, [1, 0], [1, 0])),
    *rows("pure_success-ragged", ContractError, "states must be a rectangular array of numbers",
          lambda: povm.pure_success(RAGGED, [1, 0], 0.5, PRIORS)),
    *rows("overlap_identity_check-ragged", ContractError,
          "states must be a rectangular array of numbers",
          lambda: harness.overlap_identity_check(RAGGED, np.eye(2))),
    *rows("pure_success-str", ContractError, "states must be an array of numbers",
          lambda: povm.pure_success("ab", [1, 0], 0.5, PRIORS)),
    *rows("product_blocks-mismatched-stacks", ContractError,
          "states must be three vectors or three stacks of one length",
          lambda: spaces.product_blocks(np.eye(3, 2), np.eye(2), np.eye(2))),
    *rows("product_blocks-unequal-lengths", ContractError, "all of n >= 2 entries, got shapes",
          lambda: spaces.product_blocks(np.ones(3), np.ones(2), np.ones(2)),
          lambda: spaces.product_blocks(np.ones(2), np.ones(3), np.ones(2)),
          lambda: spaces.product_blocks(np.ones((4, 2)), np.ones((4, 2)), np.ones((4, 3))),
          lambda: spaces.product_blocks([1], [1], [1])),
    *rows("kind_povms-ragged", DomainError, "omega1 must be a rectangular array of numbers",
          lambda: povm.kind_povms([[0.1], [0.2, 0.3]])),
    *rows("average_success_trace-ragged", DomainError,
          "omega1 must be a rectangular array of numbers",
          lambda: povm.average_success_trace(3, [[0.1], [0.2, 0.3]], PRIORS)),
    *rows("check_integer-bool", DomainError, "x must be an integer >= 0",
          lambda: scalars.check_integer(True, 0, "x")),
    *rows("from_text-bytes", DomainError, "network text must be a str",
          lambda: optics.Interferometer.from_text(b"MODES 2\n")),
    *rows("from_text-None", DomainError, "network text must be a str",
          lambda: optics.Interferometer.from_text(None)),
    # Past the floats: float() raised OverflowError on these.
    *rows("check_integer-Fraction(10**400,3)", DomainError, "x must be an integer >= 0",
          lambda: scalars.check_integer(Fraction(10**400, 3), 0, "x")),
    *rows("check_integer-real-past-the-floats", DomainError, "x must be an integer >= 0",
          lambda: scalars.check_integer(PastTheFloats(), 0, "x")),
    *rows("check_integer-Fraction(10**400)-above-high", DomainError, "x must not exceed 10",
          lambda: scalars.check_integer(Fraction(10**400), 0, "x", 10)),
    *rows("Interferometer-bool", DomainError, "num_modes must be an integer >= 1",
          lambda: optics.Interferometer(True)),
    *rows("haar_state-bool", DomainError, "dimension must be an integer >= 1",
          lambda: harness.haar_state(True, 0)),
    *rows("empirical_mean_density-bool", DomainError, "which must be an integer >= 1",
          lambda: harness.empirical_mean_density(2, True, 10, 0)),
    *rows("reck_decompose-bool", ContractError, "input must be an array of numbers",
          lambda: optics.reck_decompose(np.eye(2, dtype=bool))),
    *rows("verify--tol", SystemExit, "^2$",  # a retired option; argparse exits before verify runs
          lambda: sys.exit(cli.main(["verify", "--n-max", "2", "--tol", "1e-9"]))),
    *rows("_read_amplitudes-commas-alone", DomainError,
          r"line 2 ',': expected one or two values \(re \[im\]\)",
          lambda: _read_amplitude_text("0.6\n,\n0.8\n")),
    # The other entry points, one malformed input each.
    *rows("diagonal_blocks-ragged", ContractError, "op must be a rectangular array of numbers",
          lambda: diagonal_blocks(RAGGED, 2)),
    *rows("diagonal_blocks-object", ContractError, "op must be an array of numbers",
          lambda: diagonal_blocks(np.full((8, 8), None), 2)),
    *rows("product_blocks-None", ContractError, "states must be an array of numbers",
          lambda: spaces.product_blocks([1, 0], [1, 0], None)),
    *rows("product_blocks-bool", ContractError, "states must be an array of numbers",
          lambda: spaces.product_blocks([1, 0], np.ones(2, dtype=bool), [1, 0])),
    *rows("permute_registers-str", ContractError, "rows must be an array of numbers",
          lambda: spaces.permute_registers("abcd", (1, 0), 2)),
    *rows("constructive_dimension_table-ranks", ContractError, "kind ranks must",
          lambda: spaces.constructive_dimension_table(3, [[1] * 7] * 3),
          lambda: spaces.constructive_dimension_table(3, [1] * 7),
          lambda: spaces.constructive_dimension_table(3, RAGGED)),
    *rows("check_unit_states-mismatched-stacks", ContractError,
          "states must be two vectors of one length, or equal stacks of them",
          lambda: spaces.check_unit_states(np.eye(3, 2), np.eye(2))),
    # The states' last axis is their qudit dimension, refused below 2 as check_dimension refuses.
    *(row for label, shape in (("one-entry", (1,)), ("one-entry-stacks", (3, 1)), ("empty", (0,)))
      for row in rows(
          f"unit-states-{label}", DomainError, "qudit dimension must be an integer >= 2",
          *each(lambda call, shape=shape: call(np.ones(shape), np.ones(shape)),
                lambda a, b: povm.pure_success(a, b, 0.7, PRIORS),
                lambda a, b: povm.pure_success_expectation(a, b, 0.7, PRIORS),
                harness.overlap_identity_check, spaces.check_unit_states))),
    *rows("product_blocks-object", ContractError, "states must be an array of numbers",
          lambda: spaces.product_blocks([1, None], [1, 0], [1, 0])),
    *rows("pure_success_expectation-bool", ContractError, "states must be an array of numbers",
          lambda: povm.pure_success_expectation(E0, [True, False], 0.5, PRIORS)),
    *rows("apply-str", ContractError, "states must be an array of numbers",
          lambda: NET.apply([1, "a"])),
    *rows("jordan_angles-None", ContractError, "first family must be an array of numbers",
          lambda: jordan.jordan_angles(None, np.eye(2))),
    *rows("output_distribution-ragged", ContractError,
          "input must be a rectangular array of numbers",
          lambda: optics.output_distribution(NET, RAGGED)),
    *rows("reck_decompose-ragged", ContractError, "input must be a rectangular array of numbers",
          lambda: optics.reck_decompose([[1, 0], [0]])),
    *rows("prepare_state_network-object", ContractError, "amplitudes must be an array of numbers",
          lambda: optics.prepare_state_network([0.6, None], 2)),
    *rows("prepare_state_network-bool", DomainError, "num_modes must be an integer >= 1",
          lambda: optics.prepare_state_network([0.6, 0.8], True)),
    *rows("Interferometer-bool-modes", DomainError, "layer modes must be an array of real numbers",
          lambda: optics.Interferometer(2, [(True, False)], [(0.1, 0.0, 0.0)])),
    *rows("simulate_clicks-2**64", DomainError, "seed must not exceed",
          lambda: optics.simulate_clicks(NET, E0, 10, 2**64)),
    *rows("mc_success-2**64", DomainError, "seed must not exceed",
          lambda: harness.mc_success(2, 0.5, PRIORS, 100, 2**64)),
    *rows("simulate_discriminator-bool", DomainError, "shots must be an integer >= 1",
          lambda: optics.simulate_discriminator(0.5, PRIORS, True, 0)),
    *rows("kind_povms-str", DomainError, "omega1 must be an array of real numbers",
          lambda: povm.kind_povms("ab")),
    *rows("kind_povms-object", DomainError, "omega1 must be an array of real numbers",
          lambda: povm.kind_povms([0.1, None])),
    *rows("kind_povms-bool", DomainError, "omega1 must be an array of real numbers",
          lambda: povm.kind_povms(True)),
    *rows("total_povm-bool", DomainError, "qudit dimension must be an integer >= 2",
          lambda: povm.total_povm(True, 0.5)),
    *rows("omega1_from_x-10**400", DomainError, "x must be a real number",
          lambda: povm.omega1_from_x(10**400)),
    *rows("optimal_pure-bool", DomainError, "overlap_sq must be a real number",
          lambda: povm.optimal_pure(True, PRIORS)),
    *rows("Priors-bool", DomainError, "eta1 must be a real number",
          lambda: povm.Priors(True)),
    *rows("check_real-complex", DomainError, "x must be a real number",
          lambda: spaces.check_real(np.complex128(0.5), "x")),

    # From tests/test_spaces.py.
    *rows("test_check_integer_semantics", DomainError, "value must be an integer >= [024], got",
          *(partial(scalars.check_integer, value, low, "value") for value, low in (
              (True, 0), (2.5, 0), (np.nan, 0), (np.inf, 0), ("3", 0), (None, 0), (3, 4),
              (np.int64(3), 4), (-1, 0), (True, 2), (np.bool_(True), 0)))),
    *(row for n in (2, 3, 4) for row in rows(
        f"test_permutation_operator_matches_column_loop-{n}", DomainError,
        "is not a permutation of the registers",
        *each(lambda perm, n=n: spaces.permute_registers(np.eye(n**len(perm)), perm, n),
              (0, 0), (1, 2), (0, 2, 1, 1)))),
    *(row for n in (2, 3, 4) for row in rows(
        # Rows of n^2 entries under a three-register permutation: entries would
        # move between rows.  A ragged nested list is no array at all.
        f"test_permutation_operator_matches_column_loop-{n}", ContractError,
        r"rows must (be a rectangular array|have \d+ entries)",
        *each(lambda bad, n=n: spaces.permute_registers(bad, (1, 0, 2), n),
              np.eye(n**2), np.ones(n**3 + 1), np.float64(1.0), [[1.0] * n**3, [1.0]]),
        first=3)),
    *rows("test_permutation_operator_matches_column_loop-n1", DomainError,
          "qudit dimension must be an integer >= 2",
          lambda: spaces.permute_registers(np.eye(1), (1, 0), 1)),
    *rows("test_symmetric_bases_reject_dimension_one", DomainError,
          "qudit dimension must be an integer >= 2",
          lambda: spaces.symmetric_basis_2(1), lambda: symmetric_basis_3(1)),
    *rows("test_dimension_table_values", DomainError, "qudit dimension must be an integer >= 2",
          *(partial(check, bad) for bad in (1, 2.5, np.inf, -np.inf, np.nan, "3", None,
                                            np.float64(2.5), np.float64("nan"))
            for check in (scalars.dimension_table, scalars.check_dimension))),
    *rows("test_block_stacks_restrict_rows_and_refuse_rows_across_blocks", ContractError,
          "each row must be supported in exactly one label-multiset space V_t",
          # Row 4 lies in V_{1,1,2}; flat index 26 is |333>.
          lambda: block_stacks(s1_rows_by_kron(3)
                               + 1e-9 * np.outer(np.eye(18)[4], np.eye(27)[26]), 3),
          lambda: block_stacks(np.vstack([s1_rows_by_kron(3), np.zeros(27)]), 3)),
    *(row for k, call in enumerate(WRONG_WIDTHS, 3) for row in rows(  # ids 0-2 were flat kets
        f"test_block_readers_reject_operators_and_kets_of_the_wrong_width-<lambda>{k}",
        ContractError, r"op must (have|be) 2\^3|op must have 2 axes", call)),

    # From tests/test_jordan.py.
    *rows("test_jordan_angles_rejects_non_orthonormal", ContractError, "family is not orthonormal",
          lambda: jordan.jordan_angles([[1.0, 0.0], [1.0, 0.0]], np.eye(2)),
          lambda: jordan.jordan_angles(NAN_FAMILY, np.eye(2)),
          lambda: jordan.jordan_angles(np.eye(2), NAN_FAMILY)),
    *rows("test_jordan_angles_rejects_non_orthonormal", ContractError,
          "first family must have 2 axes",
          # Two unit vectors are not two families: a one-row family is (1, n).
          lambda: jordan.jordan_angles([1.0, 0.0], [0.0, 1.0]), first=3),
    *rows("test_build_rejects_bad_dimension", DomainError,
          "qudit dimension must be an integer >= 2",
          lambda: jordan.build_gh_bases(1)),

    # From tests/test_optics.py.
    *(row for k, (args, match) in enumerate(BAD_LAYERS) for row in rows(
        f"test_layer_validation#{k}", DomainError, match, partial(optics.Interferometer, *args))),
    *rows("test_reck_rejects_non_unitary", ContractError,
          "input matrix is not unitary|input must be a non-empty square matrix",
          *each(optics.reck_decompose, np.ones((3, 3)), np.ones((2, 3)), np.full((2, 2), np.nan),
                np.diag([1.0, np.inf]), np.zeros((0, 0)))),
    *(row for k, (text, match) in enumerate(BAD_TEXTS) for row in rows(
        f"test_serialization_roundtrip#{k}", DomainError, match,
        partial(optics.Interferometer.from_text, text))),
    *rows("test_apply_rejects_malformed_states", ContractError,
          "states must (be an array of numbers|be finite|have)",
          *each(lambda states: optics.discriminator_network(0.3).apply(states),
                np.ones(2), np.ones((4, 2)), np.ones((3, 2, 1)), np.float64(1.0), "abc",
                np.array([1.0, np.nan, 0.0]), np.array([[1.0], [np.inf], [0.0]]),
                np.array([1.0, complex(0.0, -np.inf), 0.0]))),
    *rows("test_prepare_rejects_unnormalized", ContractError, "amplitudes must have unit norm",
          *each(lambda amps: optics.prepare_state_network(np.array(amps), 2),
                [1.0, 1.0], [np.nan, 0.5])),
    *(row for bad in BAD_KEYS for row in rows(
        f"test_seeded_stream_rejects_keys_outside_64_bits-{bad}", DomainError,
        "must not exceed" if bad == 2**64 else "must be an integer >= 0",
        partial(optics.seeded_stream, bad))),
    *rows("test_simulate_clicks_deterministic_and_validated", ContractError,
          "input must have 2 amplitudes",
          lambda: optics.simulate_clicks(SPLITTER, np.array([1, 0, 0], dtype=complex), 10, 0)),
    *rows("test_simulate_clicks_deterministic_and_validated", DomainError,
          "shots must be an integer >= 1",
          *each(lambda shots: optics.simulate_clicks(SPLITTER, E0, shots=shots, seed=0),
                0, 2.5, np.nan), first=2),
    *rows("test_output_distribution_takes_one_unit_vector_of_n_amplitudes", ContractError,
          "input must (be a unit vector|have 1 axes|have 2 amplitudes)",
          *each(lambda bad: optics.output_distribution(SPLITTER, np.array(bad)),
                [1.0, 0.0, 0.0], [[1.0], [0.0]], [1.0, 1.0], [np.nan, 0.0])),

    # From tests/test_povm.py.
    *rows("test_priors_validation", DomainError, r"eta1 must lie in \[0.0, 1.0\]",
          *each(povm.Priors, -0.1, 1.1, np.nan, np.inf, -np.inf)),
    *rows("test_clamp_probability", ContractError, "is not a probability",
          *each(povm.clamp_probability, 1.0005, np.nan, -np.inf)),
    *rows("test_clamp_probability_arrays", ContractError, "are not all probabilities",
          *each(lambda bad: povm.clamp_probability(np.array([0.5, bad])), 1.0005, np.nan)),
    *rows("test_success_curve_values", DomainError, "x must lie in",
          *each(lambda x: povm.success_curve_x(x, PRIORS), 0.5, 4.5)),
    *rows("test_pure_success_examples", ContractError, "states must be",
          *each(lambda pair: povm.pure_success(*pair, povm.omega1_from_x(2.0), PRIORS),
                (E0, np.ones(3) / np.sqrt(3)), (np.array([np.nan, 0]), E1),
                (np.array([np.inf, 0]), E1), (2 * E0, E1))),
    *rows("test_pure_success_expectation_validates_states", ContractError, "states must be",
          *each(lambda pair: povm.pure_success_expectation(*pair, 0.7, PRIORS),
                (1.2 * E0, E1),  # not normalized: it used to evaluate to 0.521
                (E0, np.ones(3) / np.sqrt(3)),  # states of lengths 2 and 3
                (np.array([np.nan, 0.0]), E1), (E0, np.array([np.nan, 0.0])))),
    *rows("test_total_povm_blocks_validate_angles_and_keep_their_cache_read_only", DomainError,
          "omega1 must lie in",
          *each(lambda bad: povm.kind_povms([0.3, bad]), -0.1, np.nan, 2.0)),
    *_one_bad_row(np.nan), *_one_bad_row(1.001), *_one_bad_row(0.0),
    *rows("test_check_omega1_takes_real_numbers_but_not_strings_bytes_or_booleans", DomainError,
          "omega1 must be a real number",
          *each(povm.check_omega1, "0.5", b"0.5", True, np.True_)),
    *(row for name, call in PRIORS_TAKERS.items() for row in rows(
        f"test_priors_that_are_not_priors_raise_domain_error-{name}", DomainError,
        "priors must be a Priors", *each(call, None, "x", 0.3, (0.3, 0.7)))),
    *rows("Priors.from_eta1-outside-0-1", DomainError, r"eta1 must lie in \[0.0, 1.0\]",
          *each(povm.Priors.from_eta1, -0.1, 1.5, np.inf)),
    *rows("test_optimal_pure_examples", DomainError, "overlap_sq must lie in",
          lambda: povm.optimal_pure(1.0005, PRIORS)),
    *rows("test_omega2_constraint_values", DomainError, "omega1 must lie in",
          lambda: povm.omega2_constraint(-0.1)),
    *rows(f"{NON_NUMERIC}-check_omega1-None", DomainError, "omega1 must be a real number",
          lambda: povm.check_omega1(None)),
    *rows(f"{NON_NUMERIC}-check_omega1-str", DomainError, "omega1 must be a real number",
          lambda: povm.check_omega1("a")),
    *rows(f"{NON_NUMERIC}-check_omega1-complex", DomainError, "omega1 must be a real number",
          lambda: povm.check_omega1(1j)),
    *rows(f"{NON_NUMERIC}-x_from_omega1", DomainError, "omega1 must be a real number",
          lambda: povm.x_from_omega1(None)),
    *rows(f"{NON_NUMERIC}-detection_weights", DomainError, "omega1 must be a real number",
          lambda: povm.detection_weights("a")),
    *rows(f"{NON_NUMERIC}-discriminator_network", DomainError, "omega1 must be a real number",
          lambda: optics.discriminator_network(None)),
    *rows(f"{NON_NUMERIC}-reck_decompose", ContractError, "input must be an array of numbers",
          lambda: optics.reck_decompose([["a"]])),
    *rows(f"{NON_NUMERIC}-output_distribution", ContractError, "input must be an array of numbers",
          lambda: optics.output_distribution(optics.Interferometer(num_modes=1), ["a"])),
    *rows(f"{NON_NUMERIC}-prepare_state_network", ContractError,
          "amplitudes must be an array of numbers",
          lambda: optics.prepare_state_network(["a"], 1)),
    *rows(f"{NON_NUMERIC}-omega1_from_x-str", DomainError, "x must be a real number",
          lambda: povm.omega1_from_x("2")),
    *rows(f"{NON_NUMERIC}-omega1_from_x-None", DomainError, "x must be a real number",
          lambda: povm.omega1_from_x(None)),
    *rows(f"{NON_NUMERIC}-success_curve_x", DomainError, "x must be a real number",
          lambda: povm.success_curve_x("2", PRIORS)),
    *rows(f"{NON_NUMERIC}-optimal_pure", DomainError, "overlap_sq must be a real number",
          lambda: povm.optimal_pure("x", PRIORS)),
    *rows(f"{NON_NUMERIC}-Priors", DomainError, "eta1 must be a real number",
          lambda: povm.Priors("a")),
    *rows(f"{NON_NUMERIC}-Priors.from_eta1", DomainError, "eta1 must be a real number",
          lambda: povm.Priors.from_eta1(None)),
    *rows(f"{NON_NUMERIC}-prepare_state_network-n", DomainError,
          "num_modes must be an integer >= 1",
          lambda: optics.prepare_state_network(np.array([0.6, 0.8]), 2.0 + 0.5)),
    *rows(f"{NON_NUMERIC}-permute_registers", DomainError, "register index must be an integer >= 0",
          lambda: spaces.permute_registers(np.eye(4), (1.5, 0), 2)),
    *rows(f"{NON_NUMERIC}-permute_registers-None", DomainError,
          "None is not a permutation of the registers",
          lambda: spaces.permute_registers(np.eye(4), None, 2)),
    *rows(f"{NON_NUMERIC}-discriminator_port_state", DomainError, "unknown input",
          lambda: optics.discriminator_port_state(["g"])),
    *rows(f"{NON_NUMERIC}-jordan_angles-None", ContractError,
          "first family must be an array of numbers",
          lambda: jordan.jordan_angles(None, None)),
    *rows(f"{NON_NUMERIC}-jordan_angles-str", ContractError,
          "first family must be an array of numbers",
          lambda: jordan.jordan_angles("a", "b")),
    *rows(f"{NON_NUMERIC}-product_blocks-None", ContractError,
          "states must be an array of numbers",
          lambda: spaces.product_blocks(None, [1, 0], [1, 0])),
    *rows(f"{NON_NUMERIC}-product_blocks-str", ContractError, "states must be an array of numbers",
          lambda: spaces.product_blocks("a", [1, 0], [1, 0])),
    *rows(f"{NON_NUMERIC}-product_blocks-float", ContractError, "states must have 1 or 2 axes",
          lambda: spaces.product_blocks(1.0, [1, 0], [1, 0])),

    # From tests/test_harness.py.
    *rows("test_haar_state_basics", DomainError, "dimension must be an integer >= 1",
          *each(lambda n: harness.haar_state(n, seed=1), 0, 1.5, np.inf, np.nan)),
    *rows("test_empirical_mean_density_validation", DomainError,
          "which must not exceed 2|trials must be an integer >= 1",
          lambda: harness.empirical_mean_density(2, 3, trials=10, seed=0),
          *each(lambda trials: harness.empirical_mean_density(2, 1, trials=trials, seed=0),
                0, 2.5, np.nan)),
    *(row for k, pair in enumerate(NON_UNIT_PAIRS) for row in rows(
        f"test_overlap_identity_rejects_non_unit_states-psi1{k}-psi2{k}", ContractError,
        "states must be",
        partial(harness.overlap_identity_check, *map(np.array, pair)))),
    *rows("test_mc_success_validation", DomainError,
          "trials must be an integer >= 100|omega1 must lie in",
          *each(lambda trials: harness.mc_success(2, 0.3, PRIORS, trials=trials, seed=0),
                50, 150.5, np.nan, np.inf),
          lambda: harness.mc_success(2, 5.0, PRIORS, trials=200, seed=0)),
    *rows("test_verify_all_rejects_bad_nmax", DomainError, "n_max must be an integer >= 2",
          *each(harness.verify_all, 1, 2.5, np.inf, np.nan)),
]


@pytest.mark.parametrize("call, error, match", REFUSALS)
def test_malformed_input_raises_the_package_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("table", [REFUSALS, FAULTS], ids=["REFUSALS", "FAULTS"])
def test_the_row_ids_of_each_table_are_unique(table):
    # A row's id is its node id, and pytest would rename a repeated one silently.
    ids = [row.id for row in table]
    assert sorted({i for i in ids if ids.count(i) > 1}) == []


def test_a_whole_fraction_past_the_floats_is_its_exact_integer():
    value = scalars.check_integer(Fraction(10**400), 0, "x")
    assert type(value) is int and value == 10**400


def _only_refusals(body):
    """Whether statements are pytest.raises(DomainError|ContractError) blocks,
    alone or in loops, beside assignments that set them up and a docstring."""
    return all(isinstance(s, ast.Assign)
               or isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)
               or isinstance(s, ast.For) and not s.orelse and _only_refusals(s.body)
               or isinstance(s, ast.With) and all(re.fullmatch(
                   r"pytest\.raises\((Domain|Contract)Error\b.*\)", ast.unparse(item.context_expr))
                   for item in s.items)
               for s in body)


def test_no_test_elsewhere_holds_only_refusals():
    # A test that checks more than a refusal, such as a memory bound or an
    # unbuilt stream, stays in its module's file; one that checks only that
    # calls raise is rows of REFUSALS.
    lone = [f"{path.name}::{node.name}"
            for path in sorted(Path(__file__).parent.glob("test_*.py"))
            if path.name != Path(__file__).name
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test")
            and any(isinstance(s, ast.With) for s in ast.walk(node)) and _only_refusals(node.body)]
    assert lone == []
