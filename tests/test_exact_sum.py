"""Property tests for the harness's exact reduce: it must equal math.fsum bit for bit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from optev.harness import _exact_sum


def outcome(total, values):
    """repr of the sum, or the exception type, so signed zeros and overflow compare too."""
    try:
        return repr(total(values))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__


def correctly_rounded(values):
    """fsum's result or error; where fsum's partial sums overflow, the rational sum's."""
    try:
        return math.fsum(values)
    except OverflowError as exc:
        if "intermediate" not in str(exc):
            raise
        return float(sum(map(Fraction, values)))


def assert_equals_fsum(xs):
    assert outcome(_exact_sum, np.array(xs, dtype=float)) == outcome(correctly_rounded, xs)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(finite))
def test_equals_fsum_on_finite_floats(xs):
    assert_equals_fsum(xs)


@given(st.lists(finite, min_size=1), st.randoms(use_true_random=False))
def test_equals_fsum_when_values_cancel(xs, random):
    # every value with its negation, shuffled, plus one leftover: the sum is
    # that leftover or a zero, found only by exact arithmetic
    values = xs + [-x for x in xs[1:]]
    random.shuffle(values)
    assert_equals_fsum(values)


@given(st.lists(st.integers(-(2**53), 2**53), min_size=1), st.integers(-1074, 970))
def test_equals_fsum_on_wide_mantissas_at_one_scale(mantissas, exponent):
    assert_equals_fsum([math.ldexp(m, exponent) for m in mantissas])


@pytest.mark.parametrize(
    "xs",
    [
        [1e300, -1e300, 1e-300, 5e-324],
        [1.0, 2**-1074, -(2**-1074)],
        [1e16, 1.0, -1e16],
        [-0.0, -0.0],
        [0.1] * 10,
        np.random.default_rng(0).standard_normal(10**5).tolist(),
        [1.7976931348623157e308, 1.7976931348623157e308],
        [1.0, math.inf],
        [math.inf, -math.inf],
        [1.0, math.nan],
        [],
    ],
    ids=["huge-cancel", "subnormal-cancel", "absorbed-one", "negative-zeros", "tenths", "normals",
         "overflow", "inf", "inf-minus-inf", "nan", "empty"],
)
def test_equals_fsum_on_fixed_cases(xs):
    assert_equals_fsum(xs)
