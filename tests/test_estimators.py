"""Tests for estimators.py: simulation, estimates, closed-form errors."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from optev import (
    EstimatorKind,
    PureState,
    analytic_delta_av,
    analytic_delta_mixed_qubit,
    analytic_delta_opt,
    derive_stream,
    enumerate_occupations,
    estimate_optimal,
    estimate_optimal_mixed_qubit,
    estimate_sample_average,
    expectation,
    make_observable,
    outcome_distribution,
    sample_haar_amplitudes,
    simulate_measurements,
)
from optev.estimators import analytic_bias_mean, analytic_second_moment, draw_counts, estimate_from_sums
from optev.symmetric import omega_hat


def random_observable(d, rng):
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return make_observable((raw + raw.conj().T) / 2)


def occupation(obs, indices):
    """Counts of the eigenbasis outcomes ``indices``."""
    return np.bincount(indices, minlength=obs.dim)


SIGMA_Z = make_observable([[1, 0], [0, -1]])


# --- simulate_measurements ---

def test_eigenstate_outcomes_are_deterministic():
    out = simulate_measurements(PureState(np.array([1.0, 0.0])), SIGMA_Z, 5, derive_stream(1, 0))
    assert np.array_equal(out, [5, 0])  # every outcome is index 0
    assert out @ SIGMA_Z.eigenvalues == 5.0  # every value is +1


def test_equator_outcome_frequency():
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    out = simulate_measurements(plus, SIGMA_Z, 1_000_000, derive_stream(2, 0))
    fraction = out[0] / 1_000_000
    assert abs(fraction - 0.5) < 0.0015  # 3 sigma binomial


def test_degenerate_identity_observable():
    obs = make_observable(np.eye(3))
    state = PureState(np.array([0.6, 0.8, 0.0], dtype=complex))
    out = simulate_measurements(state, obs, 4, derive_stream(3, 0))
    assert out.sum() == 4
    assert out @ obs.eigenvalues == 4.0  # every value is 1


def test_zero_measurements_rejected():
    with pytest.raises(ValueError):
        simulate_measurements(PureState(np.array([1.0, 0.0])), SIGMA_Z, 0, derive_stream(4, 0))


@pytest.mark.parametrize("copies", [2.5, 2.0, True, False, 0, -3, 2**63, "2"])
def test_copies_must_be_an_int_in_range(copies):
    # floats once gave numbers, bools counted as 1, and 2**63 reached
    # numpy's OverflowError; every function that takes copies refuses them
    state = PureState(np.array([1.0, 0.0]))
    calls = (
        lambda: analytic_delta_opt(SIGMA_Z, copies),
        lambda: analytic_delta_av(SIGMA_Z, copies),
        lambda: analytic_bias_mean(state, SIGMA_Z, copies),
        lambda: simulate_measurements(state, SIGMA_Z, copies, derive_stream(4, 0)),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"copies must be an integer in \[1, 2\*\*63\)"):
            call()


def test_largest_copies_is_accepted():
    assert analytic_delta_opt(SIGMA_Z, 2**63 - 1) > 0.0
    out = simulate_measurements(PureState(np.array([1.0, 0.0])), SIGMA_Z, 2**63 - 1, derive_stream(4, 0))
    assert out.tolist() == [2**63 - 1, 0]


@pytest.mark.parametrize("copies", [1, 10_000])
def test_draw_counts_never_picks_zero_probability(copies):
    p = np.array([[0.5, 0.0, 0.5], [0.0, 0.0, 1.0], [0.25, 0.75, 0.0], [1e-300, 0.0, 0.0]])
    rows = np.repeat(p, 1000, axis=0)
    counts = draw_counts(rows, copies, derive_stream(5, copies))
    assert (counts[rows == 0.0] == 0).all()
    assert (counts[1000:2000] == [0, 0, copies]).all()
    assert (counts[3000:] == [copies, 0, 0]).all()
    # one count per outcome and copy: nothing lands outside the d outcomes
    assert counts.shape == rows.shape and (counts.sum(axis=1) == copies).all()


@pytest.mark.parametrize("copies", [1, 10])
@pytest.mark.parametrize(
    "row",
    [[0.0, 0.0], [-0.1, 1.1], [math.nan, 1.0], [math.inf, 1.0], [0.5, -math.inf], [math.inf, -math.inf], [1e308, 1e308]],
)
def test_draw_counts_rejects_bad_rows(row, copies):
    # a bad row among good ones, so the check looks at every row
    p = np.array([[0.5, 0.5], row, [1.0, 0.0]])
    with pytest.raises(ValueError, match="finite and non-negative with a positive sum"):
        draw_counts(p, copies, derive_stream(6, 0))
    with pytest.raises(ValueError, match="finite and non-negative with a positive sum"):
        draw_counts(np.array(row), copies, derive_stream(6, 0))


@pytest.mark.parametrize("copies", [1, 2, 9, 2**63 - 1])
@pytest.mark.parametrize("d", [2, 3, 8, 17])
def test_single_row_draws_the_block_row(d, copies):
    rng = np.random.default_rng(d)
    rows = rng.random((30, d)) * rng.choice([1e-300, 1.0, 1e300], size=(30, 1))
    rows[rng.random((30, d)) < 0.3] = 0.0
    rows[:, 0] += 1e-300  # a positive sum in every row
    rows[1] = 0.0
    rows[1, :2] = 8e307  # a sum too large for the short path, not for the block path
    for k, row in enumerate(rows):
        single = draw_counts(row, copies, derive_stream(8, k))
        block = draw_counts(row[None], copies, derive_stream(8, k))
        assert single.dtype == np.int64 and single.shape == (d,)
        assert np.array_equal(single, block[0])


def test_one_copy_draw_frequencies():
    # unnormalized rows, so the draw must scale the cumulative row itself
    p = np.array([0.1, 0.0, 0.45, 0.2, 0.25]) * 3.0
    trials = 400_000
    counts = draw_counts(np.broadcast_to(p, (trials, 5)), 1, derive_stream(7, 0))
    assert counts.dtype == np.int64 and (counts.sum(axis=1) == 1).all()
    want = p / p.sum()
    se = np.sqrt(want * (1.0 - want) / trials)
    assert (np.abs(counts.mean(axis=0) - want) <= 5.0 * se).all()


# --- point estimators ---

def test_sample_average_values():
    assert estimate_sample_average(occupation(SIGMA_Z, [0]), SIGMA_Z) == 1.0
    assert estimate_sample_average(occupation(SIGMA_Z, [0, 1, 0, 1]), SIGMA_Z) == 0.0
    obs = make_observable(np.diag([2.0, 5.0, 2.0]))  # eigenvalues sorted: 5, 2, 2
    assert estimate_sample_average(occupation(obs, [1, 2, 0]), obs) == 3.0


def test_sample_average_rejects_empty():
    with pytest.raises(ValueError):
        estimate_sample_average(np.zeros(2, dtype=int), SIGMA_Z)


def test_optimal_single_qubit_outcome_is_one_third():
    assert estimate_optimal(occupation(SIGMA_Z, [0]), SIGMA_Z) == 1 / 3


def test_optimal_identity_observable_always_one():
    obs = make_observable(np.eye(4))
    assert estimate_optimal(occupation(obs, [0, 2, 3]), obs) == 1.0


def test_optimal_d3_example_matches_shrinkage_operator():
    obs = make_observable(np.diag([3.0, 0.0, -3.0]))
    est = estimate_optimal(occupation(obs, [0, 0]), obs)
    assert est == pytest.approx(1.2, abs=1e-15)
    # the shrinkage operator's eigenvalue on |00> is the same number
    hat = omega_hat(obs, 2)
    basis = np.kron(obs.eigenvectors[:, 0], obs.eigenvectors[:, 0])
    assert abs(float((basis.conj() @ hat @ basis).real) - est) < 1e-12


def test_mixed_estimator_reduces_to_pure_at_full_moment():
    assert estimate_optimal_mixed_qubit(occupation(SIGMA_Z, [0]), SIGMA_Z, 1.0) == pytest.approx(
        1 / 3, abs=1e-15
    )


def test_mixed_estimator_ignores_data_at_zero_moment():
    rng = np.random.default_rng(6)
    for _ in range(10):
        obs = random_observable(2, rng)
        for index in (0, 1):
            est = estimate_optimal_mixed_qubit(occupation(obs, [index]), obs, 0.0)
            assert est == obs.trace / 2  # exactly: data weight is zero


def test_mixed_estimator_example_value():
    est = estimate_optimal_mixed_qubit(occupation(SIGMA_Z, [0]), SIGMA_Z, 0.6)
    assert est == pytest.approx(0.2, abs=1e-15)


def quadrature_bayes_estimates(obs, n2):
    """Per-outcome estimates minimizing the ensemble MSE, by quadrature.

    For a fixed-radius isotropic ensemble the optimum is the conditional
    mean <p_i t> / <p_i>, reduced to a 1-D integral over u = cos(theta)
    between the Bloch vector and the observable axis.
    """
    trace, trace_sq = obs.trace, obs.trace_square
    half_gap = math.sqrt(max(0.0, 2 * trace_sq - trace**2)) / 2  # |b| of Omega = aI + b.sigma
    a = trace / 2
    radius = math.sqrt(n2)
    u, weights = leggauss(200)
    truth = a + half_gap * radius * u
    p_top = (1 + radius * u) / 2
    estimates, minimum = [], 0.0
    for p in (p_top, 1 - p_top):
        num = float(weights @ (p * truth)) / 2
        den = float(weights @ p) / 2
        estimates.append(num / den)
        minimum += float(weights @ (p * (num / den - truth) ** 2)) / 2
    return estimates, minimum


def test_mixed_estimator_matches_brute_force_minimization():
    rng = np.random.default_rng(7)
    for n2 in (0.36, 0.6, 1.0):
        for _ in range(5):
            obs = random_observable(2, rng)
            best, _ = quadrature_bayes_estimates(obs, n2)
            for index, want in enumerate(best):
                got = estimate_optimal_mixed_qubit(occupation(obs, [index]), obs, n2)
                assert abs(got - want) < 1e-12


def test_mixed_estimator_validation():
    with pytest.raises(ValueError):
        estimate_optimal_mixed_qubit(occupation(SIGMA_Z, [0, 1]), SIGMA_Z, 0.5)
    with pytest.raises(ValueError):
        estimate_optimal_mixed_qubit(occupation(SIGMA_Z, [0]), SIGMA_Z, 1.5)
    obs3 = make_observable(np.diag([1.0, 0.0, -1.0]))
    with pytest.raises(ValueError):
        estimate_optimal_mixed_qubit(occupation(obs3, [0]), obs3, 0.5)


# --- closed-form errors ---

def test_delta_opt_headline_value():
    assert analytic_delta_opt(SIGMA_Z, 1) == 2 / 9


def test_delta_opt_identity_is_zero():
    obs = make_observable(np.eye(3))
    assert analytic_delta_opt(obs, 4) == 0.0


def test_delta_opt_d3_example():
    obs = make_observable(np.diag([3.0, 0.0, -3.0]))
    assert analytic_delta_opt(obs, 2) == pytest.approx(0.9, abs=1e-15)


def test_delta_av_headline_value():
    assert analytic_delta_av(SIGMA_Z, 1) == 2 / 3


def test_delta_ratio_is_copies_plus_dim_over_copies():
    rng = np.random.default_rng(8)
    obs = random_observable(4, rng)
    assert analytic_delta_av(obs, 2) / analytic_delta_opt(obs, 2) == pytest.approx(3.0, rel=1e-13)


def test_bias_mean_deterministic_case():
    state = PureState(np.array([1.0, 0.0]))
    assert analytic_bias_mean(state, SIGMA_Z, 1) == 1 / 3


def test_bias_mean_identity_observable():
    obs = make_observable(np.eye(3))
    state = PureState(np.array([0.0, 1.0, 0.0], dtype=complex))
    assert analytic_bias_mean(state, obs, 7) == 1.0


def test_sample_average_unbiased_at_fixed_state():
    rng = np.random.default_rng(14)
    obs = random_observable(3, rng)
    amp = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    state = PureState(amp / np.linalg.norm(amp))
    copies, trials = 3, 200_000
    p = np.broadcast_to(outcome_distribution(state, obs), (trials, 3))
    averages = draw_counts(p, copies, derive_stream(44, 0)) @ obs.eigenvalues / copies
    sigma = float(averages.std(ddof=1)) / math.sqrt(trials)
    assert abs(float(averages.mean()) - expectation(state, obs)) < 3 * sigma


def test_bias_mean_matches_monte_carlo():
    rng = np.random.default_rng(9)
    obs = random_observable(3, rng)
    amp = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    state = PureState(amp / np.linalg.norm(amp))
    copies, trials = 5, 1_000_000
    p = np.broadcast_to(outcome_distribution(state, obs), (trials, 3))
    estimates = (obs.trace + draw_counts(p, copies, derive_stream(42, 0)) @ obs.eigenvalues) / (copies + 3)
    sigma = float(estimates.std(ddof=1)) / math.sqrt(trials)
    assert abs(float(estimates.mean()) - analytic_bias_mean(state, obs, copies)) < 3 * sigma


@pytest.mark.parametrize("d, copies", [(2, 1), (2, 3), (3, 2), (4, 4)])
def test_exact_count_distribution_matches_closed_forms(d, copies):
    # no sampling: every occupation vector c of the N outcomes, weighted by
    # its multinomial probability at a fixed non-eigen state
    rng = np.random.default_rng(100 + d)
    obs = random_observable(d, rng)
    amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    state = PureState(amp / np.linalg.norm(amp))
    p, w = outcome_distribution(state, obs), obs.eigenvalues
    t = expectation(state, obs)
    counts = np.array(enumerate_occupations(d, copies))
    pmf = np.array(
        [math.factorial(copies) * math.prod(pi**ci / math.factorial(ci) for pi, ci in zip(p, c)) for c in counts]
    )
    sums = counts @ w
    optimal = estimate_from_sums(EstimatorKind.OPTIMAL_PURE, sums, copies, obs)
    average = estimate_from_sums(EstimatorKind.SAMPLE_AVERAGE, sums, copies, obs)
    variance = float(p @ (w - t) ** 2)
    assert abs(pmf.sum() - 1.0) < 1e-12
    assert abs(pmf @ optimal - analytic_bias_mean(state, obs, copies)) < 1e-12
    assert abs(pmf @ (average - t) ** 2 - variance / copies) < 1e-12
    want = (copies * variance + (obs.trace - d * t) ** 2) / (copies + d) ** 2
    assert abs(pmf @ (optimal - t) ** 2 - want) < 1e-12


def test_second_moment_values():
    assert analytic_second_moment(SIGMA_Z) == 1 / 3
    obs_id = make_observable(np.eye(5))
    assert analytic_second_moment(obs_id) == 1.0
    obs = make_observable(np.diag([1.0, 0.0]))
    assert analytic_second_moment(obs) == 1 / 3


def test_second_moment_haar_monte_carlo():
    amps = sample_haar_amplitudes(2, 1_000_000, derive_stream(43, 0))
    squared = (2 * np.abs(amps[:, 0]) ** 2 - 1) ** 2  # (tr[rho sigma_z])^2
    assert abs(float(squared.mean()) - 1 / 3) < 0.002
    quartic = np.abs(amps[:, 0]) ** 4  # |c_0|^4 under Haar: second moment of diag(1,0)
    assert abs(float(quartic.mean()) - 1 / 3) < 0.002


def test_delta_mixed_consistency_points():
    assert analytic_delta_mixed_qubit(SIGMA_Z, 1.0) == analytic_delta_opt(SIGMA_Z, 1)
    assert analytic_delta_mixed_qubit(SIGMA_Z, 0.0) == 0.0


def test_delta_mixed_matches_brute_force_minimum():
    rng = np.random.default_rng(10)
    for n2 in (0.2, 0.36, 0.6, 1.0):
        for _ in range(5):
            obs = random_observable(2, rng)
            _, minimum = quadrature_bayes_estimates(obs, n2)
            assert abs(analytic_delta_mixed_qubit(obs, n2) - minimum) < 1e-12


def test_delta_mixed_sigma_z_value():
    # (0.6/12) * (1 - 0.2) * 4
    assert analytic_delta_mixed_qubit(SIGMA_Z, 0.6) == pytest.approx(0.16, abs=1e-15)


# --- invariants ---

def test_dominance_unless_identity():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4):
        for copies in (1, 2, 8):
            obs = random_observable(d, rng)
            assert analytic_delta_opt(obs, copies) < analytic_delta_av(obs, copies)
    obs_id = make_observable(np.eye(3))
    assert analytic_delta_opt(obs_id, 2) == analytic_delta_av(obs_id, 2) == 0.0


def test_shift_covariance():
    rng = np.random.default_rng(12)
    for _ in range(10):
        obs = random_observable(3, rng)
        shift = rng.standard_normal()
        shifted = make_observable(obs.matrix + shift * np.eye(3))
        out = occupation(obs, [0, 2, 1])
        assert abs(estimate_optimal(out, shifted) - estimate_optimal(out, obs) - shift) < 1e-12
        assert (
            abs(estimate_sample_average(out, shifted) - estimate_sample_average(out, obs) - shift) < 1e-12
        )
        assert abs(analytic_delta_opt(shifted, 2) - analytic_delta_opt(obs, 2)) < 1e-12
        assert abs(analytic_delta_av(shifted, 2) - analytic_delta_av(obs, 2)) < 1e-12


def test_scale_covariance():
    rng = np.random.default_rng(13)
    obs = random_observable(3, rng)
    scale = 2.5
    scaled = make_observable(scale * obs.matrix)
    out = occupation(obs, [1, 0])
    assert abs(estimate_optimal(out, scaled) - scale * estimate_optimal(out, obs)) < 1e-12
    assert abs(analytic_delta_opt(scaled, 2) - scale**2 * analytic_delta_opt(obs, 2)) < 1e-11
    assert abs(analytic_delta_av(scaled, 2) - scale**2 * analytic_delta_av(obs, 2)) < 1e-11


def test_count_validation():
    estimators = (
        lambda counts: estimate_sample_average(counts, SIGMA_Z),
        lambda counts: estimate_optimal(counts, SIGMA_Z),
        lambda counts: estimate_optimal_mixed_qubit(counts, SIGMA_Z, 0.5),
    )
    # wrong length, not 1-D, not integers, negative, no outcome at all
    for bad in ([1], [1, 0, 0], [[1, 0]], [1.0, 0.0], [True, False], [2, -1], [0, 0]):
        for estimate in estimators:
            with pytest.raises(ValueError):
                estimate(np.array(bad))
