"""Tests for estimators.py: simulation, estimates, closed-form errors."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
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
from optev.cli import main
from optev.estimators import _moment_form, affine_form, analytic_mse, ensemble_moments, estimate_from_sums
from optev.harness import ConfigError, ExperimentConfig
from optev.sampling import HAAR_PURE, RadialLaw
from optev.symmetric import estimator_operator


def random_observable(d, rng):
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return make_observable((raw + raw.conj().T) / 2)


def occupation(obs, indices):
    """Counts of the eigenbasis outcomes ``indices``."""
    return np.bincount(indices, minlength=obs.dim)


SIGMA_Z = make_observable([[1, 0], [0, -1]])


# --- simulate_measurements ---

@pytest.mark.parametrize("copies", [1, 5, 10**4])
def test_eigenstate_outcomes_are_deterministic(copies):
    out = simulate_measurements(PureState(np.array([1.0, 0.0])), SIGMA_Z, copies, derive_stream(1, 0))
    assert np.array_equal(out, [copies, 0])  # every outcome is index 0
    assert out @ SIGMA_Z.eigenvalues == copies  # every value is +1


@pytest.mark.parametrize("copies", [1, 5, 10**4])
def test_zero_probability_outcome_is_never_drawn(copies):
    obs = make_observable(np.diag([3.0, 2.0, 1.0]))
    state = PureState(np.array([0.6, 0.0, 0.8]))
    assert outcome_distribution(state, obs)[1] == 0.0
    for k in range(100):
        out = simulate_measurements(state, obs, copies, derive_stream(5, k))
        # at N = 1 these make a one-hot row
        assert out.dtype == np.int64 and out.shape == (3,)
        assert (out >= 0).all() and out.sum() == copies and out[1] == 0


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
        lambda: simulate_measurements(state, SIGMA_Z, copies, derive_stream(4, 0)),
    )
    for call in calls:
        with pytest.raises(ValueError, match=r"copies must be an integer in \[1, 2\*\*63\)"):
            call()


def test_largest_copies_is_accepted():
    assert analytic_delta_opt(SIGMA_Z, 2**63 - 1) > 0.0
    out = simulate_measurements(PureState(np.array([1.0, 0.0])), SIGMA_Z, 2**63 - 1, derive_stream(4, 0))
    assert out.tolist() == [2**63 - 1, 0]


@pytest.mark.parametrize("copies", [1, 2, 9, 2**63 - 1])
@pytest.mark.parametrize("d", [2, 3, 8, 17])
def test_draw_is_one_multinomial_call(d, copies):
    # the counts are numpy's multinomial(N, p) on the given stream, bit for
    # bit, at N = 1 too; some states have exactly-zero amplitudes
    rng = np.random.default_rng(d)
    obs = random_observable(d, rng)
    for k in range(30):
        amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        amp[rng.random(d) < 0.3] = 0.0
        amp[k % d] += 1.0  # a nonzero vector
        state = PureState(amp / np.linalg.norm(amp))
        p = outcome_distribution(state, obs)
        out = simulate_measurements(state, obs, copies, derive_stream(8, k))
        assert out.dtype == np.int64 and out.shape == (d,)
        assert np.array_equal(out, derive_stream(8, k).multinomial(copies, p / p.sum()))


def test_one_copy_draw_frequencies():
    p = np.array([0.1, 0.0, 0.45, 0.2, 0.25])
    obs = make_observable(np.diag([5.0, 4.0, 3.0, 2.0, 1.0]))
    state = PureState(np.sqrt(p))
    trials = 40_000
    stream = derive_stream(7, 0)
    counts = np.array([simulate_measurements(state, obs, 1, stream) for _ in range(trials)])
    assert (counts.sum(axis=1) == 1).all()
    se = np.sqrt(p * (1.0 - p) / trials)
    assert (np.abs(counts.mean(axis=0) - p) <= 5.0 * se).all()


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
    hat = estimator_operator("optimal-pure", obs, 2)
    basis = np.kron(obs.eigenvectors[:, 0], obs.eigenvectors[:, 0])
    assert abs(float((basis.conj() @ hat @ basis).real) - est) < 1e-12


def test_mixed_estimator_reduces_to_pure_at_full_moment():
    assert estimate_optimal_mixed_qubit(occupation(SIGMA_Z, [0]), SIGMA_Z, 1.0) == pytest.approx(
        1 / 3, abs=1e-15
    )


@pytest.mark.parametrize("copies", [1, 3, 2**62])
def test_mixed_estimator_ignores_data_at_zero_moment(copies):
    rng = np.random.default_rng(6)
    spread = np.random.default_rng(36).standard_normal(50) * copies
    sums = np.concatenate([spread, [-float(copies), -0.0, 0.0, float(copies), -1e300]])
    for _ in range(10):
        obs = random_observable(2, rng)
        for counts in ([copies, 0], [0, copies], [copies - 1, 1]):
            est = estimate_optimal_mixed_qubit(np.array(counts), obs, 0.0)
            assert est == obs.trace / 2  # exactly: data weight is zero
        assert (estimate_from_sums(EstimatorKind.OPTIMAL_MIXED_QUBIT, sums, copies, obs, 0.0) == obs.trace / 2).all()


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


@pytest.mark.parametrize(
    "obs, counts, n2",
    [
        (make_observable(np.diag([1.0, 0.0, -1.0])), [1, 0, 0], 0.5),
        (SIGMA_Z, [1, 0], -0.1),
        (SIGMA_Z, [1, 0], 1.5),
        (SIGMA_Z, [1, 0], math.nan),
    ],
    ids=["d3", "n2-negative", "n2-above-one", "n2-nan"],
)
def test_the_mixed_estimator_rejects_an_input_outside_its_domain(obs, counts, n2):
    with pytest.raises(ValueError, match="^the mixed-qubit estimator needs "):
        estimate_optimal_mixed_qubit(np.array(counts), obs, n2)
    # the closed form takes no counts
    with pytest.raises(ValueError, match="^the mixed-qubit estimator needs "):
        analytic_delta_mixed_qubit(obs, n2)


@pytest.mark.parametrize(
    "config, flags",
    [({}, []), ({"dim": 3}, ["--dim", "3"])],
    ids=["haar", "haar-d3"],
)
def test_a_mixed_estimator_config_outside_its_domain_is_one_line_error(config, flags, capsys):
    with pytest.raises(ConfigError, match="^the mixed-qubit estimator needs "):
        ExperimentConfig(estimator="optimal-mixed-qubit", **config)
    assert main(["simulate", "--estimator", "optimal-mixed-qubit", "--trials", "10", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("optev: error: the mixed-qubit estimator needs ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


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
    assert estimate_from_sums(EstimatorKind.OPTIMAL_PURE, 1 * expectation(state, SIGMA_Z), 1, SIGMA_Z) == 1 / 3


def test_bias_mean_identity_observable():
    obs = make_observable(np.eye(3))
    state = PureState(np.array([0.0, 1.0, 0.0], dtype=complex))
    assert estimate_from_sums(EstimatorKind.OPTIMAL_PURE, 7 * expectation(state, obs), 7, obs) == 1.0


def test_sample_average_unbiased_at_fixed_state():
    rng = np.random.default_rng(14)
    obs = random_observable(3, rng)
    amp = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    state = PureState(amp / np.linalg.norm(amp))
    copies, trials = 3, 200_000
    p = outcome_distribution(state, obs)
    counts = derive_stream(44, 0).multinomial(copies, np.broadcast_to(p / p.sum(), (trials, 3)))
    averages = counts @ obs.eigenvalues / copies
    sigma = float(averages.std(ddof=1)) / math.sqrt(trials)
    assert abs(float(averages.mean()) - expectation(state, obs)) < 3 * sigma


def test_bias_mean_matches_monte_carlo():
    rng = np.random.default_rng(9)
    obs = random_observable(3, rng)
    amp = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    state = PureState(amp / np.linalg.norm(amp))
    copies, trials = 5, 1_000_000
    p = outcome_distribution(state, obs)
    counts = derive_stream(42, 0).multinomial(copies, np.broadcast_to(p / p.sum(), (trials, 3)))
    estimates = (obs.trace + counts @ obs.eigenvalues) / (copies + 3)
    sigma = float(estimates.std(ddof=1)) / math.sqrt(trials)
    mean = estimate_from_sums(EstimatorKind.OPTIMAL_PURE, copies * expectation(state, obs), copies, obs)
    assert abs(float(estimates.mean()) - mean) < 3 * sigma


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
    mean = estimate_from_sums(EstimatorKind.OPTIMAL_PURE, copies * t, copies, obs)
    assert abs(pmf @ optimal - mean) < 1e-12
    assert abs(pmf @ (average - t) ** 2 - variance / copies) < 1e-12
    want = (copies * variance + (obs.trace - d * t) ** 2) / (copies + d) ** 2
    assert abs(pmf @ (optimal - t) ** 2 - want) < 1e-12


def second_moment(obs):
    """E[t^2] over Haar states, mu^2 + V_t."""
    mu, v_t, _ = ensemble_moments(obs)
    return mu * mu + v_t


def test_second_moment_values():
    assert second_moment(SIGMA_Z) == 1 / 3
    obs_id = make_observable(np.eye(5))
    assert second_moment(obs_id) == 1.0
    obs = make_observable(np.diag([1.0, 0.0]))
    assert second_moment(obs) == 1 / 3


@pytest.mark.parametrize(
    "matrix",
    [
        np.diag([1000.0, 1000.001, 999.9995]),
        [[1000.0, 1e-3 + 2e-3j], [1e-3 - 2e-3j, 1000.0005]],
    ],
    ids=["diagonal", "off-diagonal"],
)
def test_delta_opt_keeps_its_digits_near_a_multiple_of_the_identity(matrix):
    # d tr Omega^2 and (tr Omega)^2 agree to about 10 of their 16 digits here,
    # so their difference keeps only the rest; the oracle sums exact fractions
    # of the very float entries the observable holds
    obs, copies = make_observable(matrix), 2
    d = obs.dim
    entries = [(Fraction(z.real), Fraction(z.imag)) for z in obs.matrix.reshape(-1)]
    trace = sum(Fraction(obs.matrix[i, i].real) for i in range(d))
    c = d * sum(re * re + im * im for re, im in entries) - trace * trace
    want = c / (d * (d + 1) * (copies + d))
    assert abs(Fraction(analytic_delta_opt(obs, copies)) - want) <= Fraction(1, 10**12) * want


def test_second_moment_haar_monte_carlo():
    amps = sample_haar_amplitudes(2, 1_000_000, derive_stream(43, 0))
    squared = (2 * np.abs(amps[:, 0]) ** 2 - 1) ** 2  # (tr[rho sigma_z])^2
    assert abs(float(squared.mean()) - 1 / 3) < 0.002
    quartic = np.abs(amps[:, 0]) ** 4  # |c_0|^4 under Haar: second moment of diag(1,0)
    assert abs(float(quartic.mean()) - 1 / 3) < 0.002


def test_delta_mixed_consistency_points():
    assert analytic_delta_mixed_qubit(SIGMA_Z, 1.0) == analytic_delta_opt(SIGMA_Z, 1)
    assert analytic_delta_mixed_qubit(SIGMA_Z, 0.0) == 0.0


def test_delta_mixed_at_n2_one_is_the_one_copy_pure_optimum_bit_for_bit():
    rng = np.random.default_rng(26)
    for _ in range(200):
        obs = random_observable(2, rng)
        assert analytic_delta_mixed_qubit(obs, 1.0) == analytic_delta_opt(obs, 1)


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


@st.composite
def spectra(draw):
    d = draw(st.integers(2, 5))
    return draw(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d))


@given(spectra(), st.integers(1, 6), st.sampled_from([EstimatorKind.OPTIMAL_PURE, EstimatorKind.SAMPLE_AVERAGE]))
# squares of the entries are subnormal: a^2/18 must round once, to 1.249e-320
@example([0.0, 4.7411365881273884e-160], 1, EstimatorKind.OPTIMAL_PURE)
def test_haar_mse_is_the_exact_sum_over_compositions(eigenvalues, copies, kind):
    # under Haar the counts c are uniform over the compositions of N and
    # p | c ~ Dirichlet(1 + c), so given c the error is (est - m)^2 + Var(t | c);
    # summed in exact rationals, which round once, even in the subnormal range
    obs = make_observable(np.diag(eigenvalues))
    d, w = obs.dim, obs.eigenvalues
    compositions = enumerate_occupations(d, copies)
    estimates = estimate_from_sums(kind, np.array(compositions) @ w, copies, obs)
    exact_w, alpha0 = [Fraction(x) for x in w.tolist()], copies + d
    total = Fraction(0)
    for counts, estimate in zip(compositions, estimates.tolist()):
        m = sum((1 + c) * x for c, x in zip(counts, exact_w)) / alpha0
        variance = (sum((1 + c) * x * x for c, x in zip(counts, exact_w)) / alpha0 - m * m) / (alpha0 + 1)
        total += (Fraction(estimate) - m) ** 2 + variance
    want = float(total / len(compositions))
    scale = float(np.max(w**2))
    assert analytic_mse(kind, obs, copies) == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


@pytest.mark.parametrize("exponent", [-300, -520, -530])
def test_closed_forms_of_a_tiny_observable_are_the_scaled_ones(exponent):
    # every closed form is one exact integer quotient of the stored entries,
    # rounded once, so a tiny observable takes the path of any other, and its
    # forms are those of Omega scaled by 2**e or 4**e; among the subnormals
    # that scaling rounds again, which at these cases changes no bit
    obs = random_observable(3, np.random.default_rng(13))
    tiny = make_observable(np.ldexp(obs.matrix.real, exponent) + 1j * np.ldexp(obs.matrix.imag, exponent))
    for kind in (EstimatorKind.OPTIMAL_PURE, EstimatorKind.SAMPLE_AVERAGE):
        assert analytic_mse(kind, tiny, 4) == math.ldexp(analytic_mse(kind, obs, 4), 2 * exponent)
    mu, v_t, v_w = ensemble_moments(obs)
    want = math.ldexp(mu, exponent), math.ldexp(v_t, 2 * exponent), math.ldexp(v_w, 2 * exponent)
    assert ensemble_moments(tiny) == want
    qubit = make_observable([[0.5, 0.25 - 1j], [0.25 + 1j, -2.0]])
    tiny_qubit = make_observable(np.ldexp(qubit.matrix.real, exponent) + 1j * np.ldexp(qubit.matrix.imag, exponent))
    for n2 in (0.0, 0.6, 1.0):
        want = analytic_mse(EstimatorKind.OPTIMAL_MIXED_QUBIT, qubit, 1, n2)
        assert analytic_mse(EstimatorKind.OPTIMAL_MIXED_QUBIT, tiny_qubit, 1, n2) == math.ldexp(want, 2 * exponent)


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


@pytest.mark.parametrize(
    "counts",
    [
        # numpy's integer sums wrap: to 1, to -2 and to 0
        np.array([2**64 - 1, 2], dtype=np.uint64),
        np.array([2**63 - 1, 2**63 - 1], dtype=np.int64),
        np.array([2**63 - 1, 2**63 - 1, 2], dtype=np.int64),
    ],
    ids=["uint64", "int64", "int64-three-outcomes"],
)
def test_a_count_total_past_2_to_the_63_is_rejected(counts):
    obs = make_observable(np.diag([1.0, -1.0, 0.0][: counts.size]))
    estimators = [estimate_sample_average, estimate_optimal]
    if counts.size == 2:
        estimators.append(lambda c, o: estimate_optimal_mixed_qubit(c, o, 0.5))
    total = sum(counts.tolist())
    for estimate in estimators:
        with pytest.raises(ValueError, match=rf"copies must be an integer in \[1, 2\*\*63\), got {total}$"):
            estimate(counts, obs)


def test_every_accepted_estimator_is_unbiased_over_its_ensemble():
    # analytic_mse drops the squared mean error (alpha + pi mu)^2, which is
    # zero exactly when alpha + pi mu = 0; an estimator or ensemble for which
    # it is not must fail here, not get a wrong closed form
    obs = random_observable(2, np.random.default_rng(32))
    ensembles = [HAAR_PURE, RadialLaw.uniform_ball(), RadialLaw.fixed_radius(0.6**0.5), RadialLaw.two_point(0.3, 0.9)]
    accepted = 0
    for ensemble in ensembles:
        for kind in EstimatorKind:
            for dim in (2, 3, 8):
                for copies in (1, 7):
                    try:
                        ExperimentConfig(dim=dim, copies=copies, estimator=kind, ensemble=ensemble)
                    except ConfigError:
                        continue
                    accepted += 1
                    n2 = ensemble.second_moment()
                    alpha, beta, gamma = affine_form(kind, copies, dim, n2)
                    m = _moment_form(dim, n2)[0]
                    # the estimate (alpha tr + beta S)/gamma has mean error
                    # (alpha tr + pi mu)/gamma with mu = tr/m
                    assert Fraction(alpha) + Fraction(beta * copies - gamma, m) == 0, (ensemble, kind, dim, copies)
                    if dim == 2:
                        sums = np.array([-3.5, 0.25, 1.0])
                        want = [float((alpha * Fraction(obs.trace) + beta * Fraction(x)) / gamma) for x in sums.tolist()]
                        assert estimate_from_sums(kind, sums, copies, obs, n2) == pytest.approx(want, rel=1e-15, abs=1e-15)
    # Haar: two estimators at 3 dimensions and 2 copy counts; each Bloch law:
    # two at d = 2 and 2 copy counts, and the mixed-qubit one at both
    assert accepted == 2 * 3 * 2 + 3 * (2 * 2 + 2)


def exact_c(obs):
    """c = d tr Omega^2 - (tr Omega)^2 in Fractions of the stored entries."""
    d, entries = obs.dim, [Fraction(x) for x in obs.matrix.view(np.float64).ravel().tolist()]
    trace = sum(entries[:: 2 * (d + 1)])
    return d * sum(x * x for x in entries) - trace * trace


@pytest.mark.parametrize("d, n2", [(d, None) for d in (2, 3, 4, 8)] + [(2, n2) for n2 in (0.0, 5e-324, 1e-300, 0.36, 0.6, 1 / 3, 1.0)])
def test_every_optimal_row_is_the_linear_bayes_row_of_the_mean_purity(d, n2):
    # an ensemble of mean purity P = E[tr rho^2] (1 for Haar, (1 + n2)/2 for a
    # Bloch law) has mu = tr/d, V_t = c (d P - 1)/(d^2 (d^2 - 1)) and
    # V_w = c/d^2 - V_t; its optimal estimate is the mean of the N values and
    # kappa = V_w/V_t = d (d - P)/(d P - 1) pseudo-values tr/d, whose error is
    # V_t V_w/(N V_t + V_w)
    purity = Fraction(1) if n2 is None else (1 + Fraction(n2)) / 2
    m, w, t, q = _moment_form(d, n2)
    assert m == d
    assert Fraction(t, q) == (d * purity - 1) / (d * d * (d * d - 1))
    assert Fraction(w, q) == Fraction(1, d * d) - Fraction(t, q)
    kind = EstimatorKind.OPTIMAL_PURE if n2 is None else EstimatorKind.OPTIMAL_MIXED_QUBIT
    obs = random_observable(d, np.random.default_rng(35))
    v_t, v_w = exact_c(obs) * Fraction(t, q), exact_c(obs) * Fraction(w, q)
    for copies in (1, 2, 7, 2**62):
        alpha, beta, gamma = affine_form(kind, copies, d, n2)
        assert math.gcd(alpha, beta, gamma) == 1
        total = copies * (d * purity - 1) + d * (d - purity)
        assert Fraction(alpha, gamma) == (d - purity) / total
        assert Fraction(beta, gamma) == (d * purity - 1) / total
        assert analytic_mse(kind, obs, copies, n2) == float(v_t * v_w / (copies * v_t + v_w))
        # optimal-pure reads Haar's row, kappa = d, on every ensemble
        assert affine_form(EstimatorKind.OPTIMAL_PURE, copies, d, n2) == (1, 1, copies + d)


@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_estimates_into_out_are_the_same_bits(kind):
    obs, n2 = random_observable(2, np.random.default_rng(5)), 0.6
    sums = np.random.default_rng(6).standard_normal(1000)
    want = estimate_from_sums(kind, sums, 1, obs, n2)
    out = np.empty(1000)
    assert estimate_from_sums(kind, sums, 1, obs, n2, out=out) is out
    assert np.array_equal(out, want)
    copy = sums.copy()
    assert estimate_from_sums(kind, copy, 1, obs, n2, out=copy) is copy
    assert np.array_equal(copy, want)
