"""Every public entry point refuses malformed input with the package's errors.

Arrays of states, rows or operators raise ContractError; scalars and angle
arrays raise DomainError.  No row may return a result or raise a builtin error.
The reference copy of diagonal_blocks, which the tests compare against, checks
its input as the package does.
"""

import numbers
from fractions import Fraction

import numpy as np
import pytest

from qudisc import harness, jordan, optics, povm, spaces
from qudisc.errors import ContractError, DomainError
from references import diagonal_blocks

PRIORS = povm.Priors.from_eta1(0.5)
RAGGED = [[1, 0], [1]]
E0 = np.array([1.0, 0.0])
NET = optics.Interferometer(2)


@numbers.Real.register
class PastTheFloats:
    """A real number that float() cannot hold."""

    def __float__(self):
        raise OverflowError("too large for a float")


@pytest.mark.parametrize("call, error", [
    # Inputs that reached numpy's ValueError or TypeError, or ran.
    pytest.param(lambda: jordan.jordan_angles(RAGGED, [[1, 0]]), ContractError,
                 id="jordan_angles-ragged"),
    pytest.param(lambda: spaces.product_ket(RAGGED, [1, 0], [1, 0]), ContractError,
                 id="product_ket-ragged"),
    pytest.param(lambda: povm.pure_success(RAGGED, [1, 0], 0.5, PRIORS, 2), ContractError,
                 id="pure_success-ragged"),
    pytest.param(lambda: harness.overlap_identity_check(RAGGED, np.eye(2), 2), ContractError,
                 id="overlap_identity_check-ragged"),
    pytest.param(lambda: povm.pure_success("ab", [1, 0], 0.5, PRIORS, 2), ContractError,
                 id="pure_success-str"),
    pytest.param(lambda: spaces.product_ket(np.eye(3, 2), np.eye(2), np.eye(2)), ContractError,
                 id="product_ket-mismatched-stacks"),
    pytest.param(lambda: povm.kind_povms([[0.1], [0.2, 0.3]]), DomainError,
                 id="kind_povms-ragged"),
    pytest.param(lambda: povm.average_success_trace(3, [[0.1], [0.2, 0.3]], PRIORS), DomainError,
                 id="average_success_trace-ragged"),
    pytest.param(lambda: spaces.check_integer(True, 0, "x"), DomainError,
                 id="check_integer-bool"),
    # Past the floats: float() raised OverflowError on these.
    pytest.param(lambda: spaces.check_integer(Fraction(10**400, 3), 0, "x"), DomainError,
                 id="check_integer-Fraction(10**400,3)"),
    pytest.param(lambda: spaces.check_integer(Fraction(10**400), 0, "x", 10), DomainError,
                 id="check_integer-Fraction(10**400)-above-high"),
    pytest.param(lambda: spaces.check_integer(PastTheFloats(), 0, "x"), DomainError,
                 id="check_integer-real-past-the-floats"),
    pytest.param(lambda: optics.Interferometer(True), DomainError, id="Interferometer-bool"),
    pytest.param(lambda: harness.haar_state(True, 0), DomainError, id="haar_state-bool"),
    pytest.param(lambda: harness.empirical_mean_density(2, True, 10, 0), DomainError,
                 id="empirical_mean_density-bool"),
    pytest.param(lambda: optics.reck_decompose(np.eye(2, dtype=bool)), ContractError,
                 id="reck_decompose-bool"),
    pytest.param(lambda: harness.verify_all(2, harness.Tolerances(tight=np.nan)), DomainError,
                 id="Tolerances-nan"),
    # The other entry points, one malformed input each.
    pytest.param(lambda: diagonal_blocks(RAGGED, 2), ContractError,
                 id="diagonal_blocks-ragged"),
    pytest.param(lambda: diagonal_blocks(np.full((8, 8), None), 2), ContractError,
                 id="diagonal_blocks-object"),
    pytest.param(lambda: spaces.gather_blocks(None, 2), ContractError, id="gather_blocks-None"),
    pytest.param(lambda: spaces.gather_blocks(np.ones(8, dtype=bool), 2), ContractError,
                 id="gather_blocks-bool"),
    pytest.param(lambda: spaces.permute_registers("abcd", (1, 0), 2), ContractError,
                 id="permute_registers-str"),
    pytest.param(lambda: spaces.check_unit_states(np.eye(3, 2), np.eye(2), 2), ContractError,
                 id="check_unit_states-mismatched-stacks"),
    pytest.param(lambda: spaces.product_ket([1, None], [1, 0], [1, 0]), ContractError,
                 id="product_ket-object"),
    pytest.param(lambda: povm.pure_success_expectation(E0, [True, False], 0.5, PRIORS, 2),
                 ContractError, id="pure_success_expectation-bool"),
    pytest.param(lambda: jordan.jordan_angles(None, np.eye(2)), ContractError,
                 id="jordan_angles-None"),
    pytest.param(lambda: NET.apply([1, "a"]), ContractError, id="apply-str"),
    pytest.param(lambda: optics.output_distribution(NET, RAGGED), ContractError,
                 id="output_distribution-ragged"),
    pytest.param(lambda: optics.reck_decompose([[1, 0], [0]]), ContractError,
                 id="reck_decompose-ragged"),
    pytest.param(lambda: optics.prepare_state_network([0.6, None], 2), ContractError,
                 id="prepare_state_network-object"),
    pytest.param(lambda: optics.prepare_state_network([0.6, 0.8], True), DomainError,
                 id="prepare_state_network-bool"),
    pytest.param(lambda: optics.Interferometer(2, [(True, False)], [(0.1, 0.0, 0.0)]), DomainError,
                 id="Interferometer-bool-modes"),
    pytest.param(lambda: optics.two_mode_unitary([0.1, None], 0.0, 0.0), DomainError,
                 id="two_mode_unitary-object"),
    pytest.param(lambda: optics.seeded_stream(2**64), DomainError, id="seeded_stream-2**64"),
    pytest.param(lambda: optics.simulate_clicks(NET, E0, 10, 2**64), DomainError,
                 id="simulate_clicks-2**64"),
    pytest.param(lambda: optics.simulate_discriminator(0.5, PRIORS, True, 0), DomainError,
                 id="simulate_discriminator-bool"),
    pytest.param(lambda: harness.mc_success(2, 0.5, PRIORS, 100, 2**64), DomainError,
                 id="mc_success-2**64"),
    pytest.param(lambda: harness.haar_state(2, 0, 2**64), DomainError, id="haar_state-2**64"),
    pytest.param(lambda: povm.kind_povms("ab"), DomainError, id="kind_povms-str"),
    pytest.param(lambda: povm.kind_povms([0.1, None]), DomainError, id="kind_povms-object"),
    pytest.param(lambda: povm.kind_povms(True), DomainError, id="kind_povms-bool"),
    pytest.param(lambda: povm.total_povm(True, 0.5), DomainError, id="total_povm-bool"),
    pytest.param(lambda: povm.omega1_from_x(None), DomainError, id="omega1_from_x-None"),
    pytest.param(lambda: povm.omega1_from_x(10**400), DomainError, id="omega1_from_x-10**400"),
    pytest.param(lambda: povm.optimal_pure(True, PRIORS), DomainError, id="optimal_pure-bool"),
    pytest.param(lambda: povm.Priors(True, False), DomainError, id="Priors-bool"),
    pytest.param(lambda: spaces.label_blocks(2, True), DomainError, id="label_blocks-bool"),
    pytest.param(lambda: spaces.check_real(np.complex128(0.5), "x"), DomainError,
                 id="check_real-complex"),
    pytest.param(lambda: harness.Tolerances(op=np.inf), DomainError, id="Tolerances-inf"),
])
def test_malformed_input_raises_the_package_error(call, error):
    with pytest.raises(error):
        call()


def test_a_whole_fraction_past_the_floats_is_its_exact_integer():
    value = spaces.check_integer(Fraction(10**400), 0, "x")
    assert type(value) is int and value == 10**400
