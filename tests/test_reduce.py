"""Tests for the harness's reduce: numpy's pairwise sum of the squared errors.

The README states the rule: for non-negative terms the sum's rounding error
is at most (16 + log2(M/128)) 2**-52 of the exact total, and the sum of a
given array does not depend on the worker count that filled it.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from optev import ExperimentConfig, RadialLaw, load_observable, rows_to_csv, run_experiment
from optev import harness
from optev.estimators import estimate_from_sums
from optev.harness import BLOCK


def relative_bound(m):
    """The README's bound on the reduce's relative rounding error for m terms."""
    return (16 + math.log2(m / 128)) * 2.0**-52


def exact_sum(values):
    """The exact total of finite floats, as an int in units of 2**-1074."""
    return sum((num << 1074) // den for num, den in map(float.as_integer_ratio, values))


def assert_within_bound(values):
    values = np.asarray(values, dtype=float)
    total = float(values.sum())
    exact = exact_sum(values.tolist())
    error = abs(exact_sum([total]) - exact)
    # the bound as the exact ratio of ints, so neither side rounds or overflows
    num, den = relative_bound(values.size).as_integer_ratio()
    assert error * den <= num * exact, (total, math.fsum(values.tolist()))


non_negative = st.floats(min_value=0.0, max_value=1e300)


@given(st.lists(non_negative, min_size=1, max_size=600))
def test_sum_of_non_negative_floats_is_within_the_bound(xs):
    assert_within_bound(xs)


@given(st.lists(st.floats(-1e150, 1e150).map(lambda x: x * x), min_size=1, max_size=600))
def test_sum_of_squares_is_within_the_bound(xs):
    assert_within_bound(xs)


@given(st.integers(1, 5 * BLOCK), st.integers(0, 2**32 - 1), st.integers(0, 80))
def test_sum_of_many_wide_values_is_within_the_bound(m, seed, spread):
    # sizes past a block and past numpy's 128-value leaves, exponents over
    # up to 2 * spread binades
    rng = np.random.default_rng(seed)
    assert_within_bound(np.ldexp(rng.random(m), rng.integers(-spread, spread + 1, m)))


@pytest.mark.parametrize(
    "xs",
    [
        [0.0] * (2 * BLOCK + 3),
        [0.1] * 10,
        [0.1] * (3 * BLOCK + 5),
        [2.0**-1074] * (BLOCK + 1),
        [math.ldexp(1.0, e) for e in range(-1074, 1001)],
        # a one-by-one sum keeps 1.0 and loses every 2**-53, 2**-40 of the
        # total; the pairwise sum adds the small values among themselves first
        [1.0] + [2.0**-53] * (2 * BLOCK),
        [1e300] + [1e-300] * 100,
        [1.7976931348623157e308 / 4] * 3,
        (np.random.default_rng(0).standard_normal(10**5) ** 2).tolist(),
        np.ldexp(np.random.default_rng(1).random(20_000), np.random.default_rng(2).integers(-500, 500, 20_000)).tolist(),
        np.random.default_rng(127).random(127).tolist(),
        np.random.default_rng(128).random(128).tolist(),
        np.random.default_rng(129).random(129).tolist(),
        np.random.default_rng(136).random(136).tolist(),
        np.random.default_rng(8193).random(8193).tolist(),
    ],
    ids=["zeros-past-block", "tenths", "tenths-past-block", "subnormals-past-block", "every-power-of-two",
         "one-and-half-ulps", "huge-and-tiny", "near-overflow", "squared-normals", "wide-exponents",
         "leaf-127", "leaf-128", "leaf-129", "leaf-136", "past-8192"],
)
def test_sum_is_within_the_bound_on_fixed_cases(xs):
    assert_within_bound(xs)


@pytest.mark.parametrize("xs, expected", [([1.0, math.inf], math.inf), ([1.0, math.nan], math.nan)], ids=["inf", "nan"])
def test_non_finite_terms_pass_through(xs, expected):
    assert repr(float(np.array(xs).sum())) == repr(expected)


def test_sum_past_the_largest_float_warns_and_is_inf():
    with pytest.warns(RuntimeWarning, match="overflow"):
        total = float(np.array([1.7976931348623157e308] * 2).sum())
    assert total == math.inf


def test_sum_reads_its_input_without_changing_it():
    values = np.ldexp(np.random.default_rng(3).random(3 * BLOCK), -40)
    before = values.tobytes()
    float(values.sum())
    assert values.tobytes() == before


# --- the reduce inside run_experiment ---

def fresh(config, observable=None):
    """``run_experiment`` on a fresh draw: the draw memo is emptied first."""
    harness._memo.entry = None
    return run_experiment(config, observable=observable)


@pytest.mark.parametrize("ensemble", ["haar-pure", RadialLaw.uniform_ball()], ids=["haar", "bloch"])
@pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1, 4 * BLOCK + 7])
def test_rows_are_byte_identical_at_every_worker_count(ensemble, trials):
    # the blocks write fixed slots and one thread sums the array, so a row
    # cut into 1, 2 or 3 workers' blocks gives the same bits
    config = ExperimentConfig(dim=2, copies=2, trials=trials, master_seed=61, ensemble=ensemble)
    texts = [rows_to_csv([fresh(replace(config, workers=workers))]) for workers in (1, 2, 3)]
    assert texts == texts[:1] * 3


@pytest.mark.parametrize(
    "estimator, ensemble",
    [
        ("sample-average", "haar-pure"),
        ("optimal-pure", "haar-pure"),
        ("optimal-mixed-qubit", RadialLaw.uniform_ball()),
    ],
    ids=["sample-average", "optimal-pure", "optimal-mixed-qubit"],
)
def test_row_is_within_the_bound_of_the_exact_reduce(estimator, ensemble):
    obs = load_observable("diag(1,-2)")
    config = ExperimentConfig(
        dim=2, copies=1, trials=3 * BLOCK + 5, master_seed=62, estimator=estimator, ensemble=ensemble,
        observable_source="diag(1,-2)",
    )
    row = fresh(config, obs)
    m = config.trials
    truths, sums = harness._draw(config, obs)
    errors = (estimate_from_sums(config.estimator, sums, config.copies, obs, config.ensemble.second_moment()) - truths) ** 2
    exact = exact_sum(errors.tolist()) / (1 << 1074)
    # the division by M adds one rounding to the sum's bound
    assert abs(row.empirical_mse - exact / m) <= (relative_bound(m) + 2.0**-52) * exact / m
    centred = (errors - row.empirical_mse) ** 2
    exact_se = math.sqrt(exact_sum(centred.tolist()) / (1 << 1074) / (m - 1) / m)
    assert abs(row.standard_error - exact_se) <= (relative_bound(m) + 2.0**-50) * exact_se


@pytest.mark.parametrize("ensemble", ["haar-pure", RadialLaw.uniform_ball()], ids=["haar", "bloch"])
def test_a_run_on_a_kept_draw_allocates_no_array_of_its_size(ensemble):
    # the squared errors are formed and summed in the calling thread's kept
    # buffer, so once it is warm a run allocates no 8 M bytes of its own
    config = ExperimentConfig(dim=2, copies=3, trials=20_000, master_seed=63, ensemble=ensemble)
    first = fresh(config)
    tracemalloc.start()
    try:
        again = run_experiment(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * config.trials
    assert replace(again, wall_time=0.0) == replace(first, wall_time=0.0)
