"""Integer checks and the closed-form subspace dimensions, without numpy.

The subspace dimensions are integer formulas in the qudit dimension n, so
`qudisc dims` runs on this module alone and never loads numpy.
:mod:`qudisc.spaces` imports these names back for the numerical layers.
"""

import numbers
from collections import namedtuple

from .errors import DomainError


def check_integer(value, low: int, what: str, high: int | None = None) -> int:
    """`value` as an int; DomainError unless it is a whole number in [low, high],
    with no upper bound when high is None (NaN, inf and booleans are not whole numbers)."""
    if type(value) is int and low <= value and (high is None or value <= high):
        return value  # the common case, without the ABC checks
    if not (_is_whole(value) and value >= low):
        raise DomainError(f"{what} must be an integer >= {low}, got {value!r}")
    if high is not None and value > high:
        raise DomainError(f"{what} must not exceed {high}, got {value!r}")
    return int(value)


def _is_whole(value) -> bool:
    """Whether a number is whole: exactly for ints and fractions, through float()
    for other reals (NaN, inf and booleans are not whole; numpy's booleans are
    not numbers.Real)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    if isinstance(value, numbers.Rational):  # float() of Fraction(10**400, 3) overflows
        return value.denominator == 1
    try:
        return float(value).is_integer()
    except OverflowError:  # a real beyond the floats
        return False


def check_dimension(n: int) -> int:
    return check_integer(n, 2, "qudit dimension")


class DimensionTable(namedtuple("DimensionTable", "sigma s0 s1 s2 s3 s4 s5 s6 i0")):
    """Dimensions of the subspace hierarchy at qudit dimension n.

    sigma: two-fold symmetric subspace.
    s0: three-fold symmetric subspace, the common part of s1 and s2.
    s1, s2: symmetric-AB (resp. BC) times the remaining register.
    s3: span of s1 and s2.
    s4, s5: orthogonal complements of s0 in s1 (resp. s2).
    s6: orthogonal complement of s0 in s3.
    i0: number of paired basis vectors spanning s4 and s5 (= dim s4).
    """

    __slots__ = ()


def dimension_table(n: int) -> DimensionTable:
    """Closed-form subspace dimensions."""
    n = check_dimension(n)
    sigma = n * (n + 1) // 2
    s0 = n * (n + 1) * (n + 2) // 6
    s1 = n**2 * (n + 1) // 2
    s3 = n * (n + 1) * (5 * n - 2) // 6
    i0 = n * (n + 1) * (n - 1) // 3
    return DimensionTable(
        sigma=sigma, s0=s0, s1=s1, s2=s1, s3=s3,
        s4=s1 - s0, s5=s1 - s0, s6=2 * i0, i0=i0,
    )
