"""Property tests for the harness's exact reduce: it must equal math.fsum bit for bit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from optev import harness
from optev.harness import BLOCK, _exact_sum


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
        [0.0] * (2 * BLOCK + 3),
        [-0.0] * (2 * BLOCK + 3),
        [0.1] * 10,
        np.random.default_rng(0).standard_normal(10**5).tolist(),
        [1.7976931348623157e308, 1.7976931348623157e308],
        [1.0, math.inf],
        [math.inf, -math.inf],
        [1.0, math.nan],
        [],
    ],
    ids=["huge-cancel", "subnormal-cancel", "absorbed-one", "negative-zeros", "zeros-past-block",
         "negative-zeros-past-block", "tenths", "normals",
         "overflow", "inf", "inf-minus-inf", "nan", "empty"],
)
def test_equals_fsum_on_fixed_cases(xs):
    assert_equals_fsum(xs)


@pytest.mark.parametrize("flush", [BLOCK, 3 * BLOCK, 3 * BLOCK + 5])
def test_equals_fsum_across_flushes(monkeypatch, flush):
    # a flush period of a few blocks stands in for 2**26 values: the buckets
    # go into the int at every period, with a short last period
    monkeypatch.setattr(harness, "_FLUSH", flush)
    rng = np.random.default_rng(flush)
    values = np.ldexp(rng.standard_normal(10 * BLOCK + 7), rng.integers(-60, 60, 10 * BLOCK + 7))
    assert_equals_fsum(values.tolist())
    cancelling = np.concatenate([values, -values[::-1]])
    assert_equals_fsum(cancelling.tolist())
    assert_equals_fsum(np.append(cancelling, [-0.0, 2**-1074]).tolist())
