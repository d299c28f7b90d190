"""Property tests for the harness's exact reduce: it must equal math.fsum bit for bit."""

import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from optev import harness, sampling
from optev.harness import _CHUNK, BLOCK, _exact_sum


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
        [0.0] * (2 * _CHUNK + 3),
        [-0.0] * (2 * _CHUNK + 3),
        [0.1] * 10,
        np.random.default_rng(0).standard_normal(10**5).tolist(),
        [1.7976931348623157e308, 1.7976931348623157e308],
        [1.0, math.inf],
        [math.inf, -math.inf],
        [1.0, math.nan],
        [],
        # subnormals only: sigma stops at 2**-1022, where x + sigma is exact
        [2**-1074] * 3 + [-(2**-1073), 3 * 2**-1074, 2**-1023 - 2**-1074],
        [2**-1074] * (_CHUNK + 1),
        # too near overflow for sigma to exist: summed as Python ints
        [2.0**1023, -(2.0**1023), 2.0**1003, 1.0, -(2.0**1003) + 2.0**951, 2**-1074],
        [1.7976931348623157e308, -1.7976931348623157e308, 2.0**1022, 2.0**-1074] * 5,
        # one value per power of two from 2**-1074 to 2**1000: many levels
        [math.ldexp(1.0, e) for e in range(-1074, 1001)],
        [math.ldexp((-1) ** e * 1.5, e) for e in range(-1074, 1000, 7)],
    ],
    ids=["huge-cancel", "subnormal-cancel", "absorbed-one", "negative-zeros", "zeros-past-block",
         "negative-zeros-past-block", "zeros-past-chunk", "negative-zeros-past-chunk", "tenths", "normals",
         "overflow", "inf", "inf-minus-inf", "nan", "empty", "subnormals", "subnormals-past-chunk",
         "near-overflow-cancel", "max-cancel", "every-power-of-two", "alternating-span"],
)
def test_equals_fsum_on_fixed_cases(xs):
    assert_equals_fsum(xs)


@pytest.mark.parametrize("chunk", [BLOCK, 3 * BLOCK, 3 * BLOCK + 5])
def test_equals_fsum_across_chunks(monkeypatch, chunk):
    # chunks of a few blocks: each chunk's levels go into the int in turn,
    # with a short last chunk
    monkeypatch.setattr(harness, "_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    values = np.ldexp(rng.standard_normal(10 * BLOCK + 7), rng.integers(-60, 60, 10 * BLOCK + 7))
    assert_equals_fsum(values.tolist())
    cancelling = np.concatenate([values, -values[::-1]])
    assert_equals_fsum(cancelling.tolist())
    assert_equals_fsum(np.append(cancelling, [-0.0, 2**-1074]).tolist())


@given(st.lists(finite, min_size=8, max_size=64), st.integers(1, 7))
def test_equals_fsum_across_small_chunks(xs, chunk):
    # every chunk finds its own sigma, and one may take the near-overflow path
    # while the next does not
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_CHUNK", chunk)
        assert_equals_fsum(xs)


def test_kept_buffers_grow_for_a_larger_chunk(monkeypatch):
    # the level and remainder buffers are the thread's kept scratch, sized by
    # the first sum to the smaller of its length and the chunk; a fresh
    # thread starts with none, so a larger chunk later must grow them
    rng = np.random.default_rng(5)
    values = np.ldexp(rng.standard_normal(4 * _CHUNK + 9), rng.integers(-60, 60, 4 * _CHUNK + 9))

    def in_thread():
        assert_equals_fsum(values[:100].tolist())
        monkeypatch.setattr(harness, "_CHUNK", 2 * _CHUNK)
        assert_equals_fsum(values.tolist())
        return sampling._kept.level.size, sampling._kept.remainder.size

    with ThreadPoolExecutor(1) as thread:
        assert thread.submit(in_thread).result(timeout=60) == (2 * _CHUNK * 8, 2 * _CHUNK * 8)


def test_reads_its_input_without_changing_it():
    values = np.ldexp(np.random.default_rng(3).standard_normal(3 * BLOCK), -40)
    before = values.tobytes()
    _exact_sum(values)
    assert values.tobytes() == before


# --- the early stop after two levels ---

@pytest.fixture
def full_passes(monkeypatch):
    """One entry per call of ``_exact_sum``: whether it ran the full extraction."""
    calls = []
    real = harness._exact_sum

    def spy(values, full=False):
        calls.append(full)
        return real(values, full)

    monkeypatch.setattr(harness, "_exact_sum", spy)
    return calls


@pytest.mark.parametrize(
    "xs",
    [
        [1.0, 2**-53],
        [1.0, 2**-53, 2**-200],
        [1.0, 2**-53, -(2**-200)],
        [1.0, 2**-53, 2**-1074],
        [1e300, -1e300, 1e-300],
    ],
    ids=["tie", "tie-above", "tie-below", "tie-subnormal-above", "cancel-to-tiny"],
)
def test_two_levels_that_cannot_decide_fall_back_to_the_full_extraction(full_passes, xs):
    # a half-ulp tie, or a total far below the first values, is left open by
    # the bound on the second level's remainders
    assert outcome(harness._exact_sum, np.array(xs)) == outcome(correctly_rounded, xs)
    assert full_passes == [False, True]


def test_squared_errors_are_decided_after_two_levels(full_passes):
    errors = np.random.default_rng(4).standard_normal(20_000) ** 2
    assert repr(harness._exact_sum(errors)) == repr(math.fsum(errors.tolist()))
    assert full_passes == [False]


@st.composite
def near_ties(draw):
    """A value, pieces of plus or minus half its ulp, and one tail far below
    them, shuffled: totals on or next to a rounding boundary."""
    exponent = draw(st.integers(-1000, 971))
    value = math.ldexp(draw(st.integers(2**52, 2**53 - 1)) * draw(st.sampled_from([1, -1])), exponent)
    pieces = draw(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=4))
    tail = math.ldexp(draw(st.integers(-(2**53) + 1, 2**53 - 1)), draw(st.integers(-1074, exponent - 56)))
    return draw(st.permutations([value, tail] + [math.ldexp(sign, exponent - 1) for sign in pieces]))


@given(near_ties(), st.sampled_from([_CHUNK, 1, 2, 3]))
def test_equals_fsum_on_near_ties(xs, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_CHUNK", chunk)
        assert_equals_fsum(xs)
