"""Measurement simulation, the three estimators, and their closed-form errors.

The estimation target is t = tr[rho Omega].  Measuring Omega independently
on each of N copies yields eigenvalue indices (i_1, ..., i_N); every
estimator here sees them only through their counts c_i, the number of copies
that gave outcome i.  The sample average is the mean of the observed
eigenvalues.  An optimal estimate averages them with kappa = d(d - E[P])/(d E[P] - 1)
pseudo-values tr Omega/d, E[P] = E[tr rho^2] the ensemble's mean purity: Haar's
kappa = d is all d eigenvalues of the observable, (tr Omega + sum_i c_i Omega_i) / (N + d).
"""

from __future__ import annotations

import enum
import math
import operator

import numpy as np

from .hermitian import Observable, PureState, eigenvalue_sum, outcome_distribution


class EstimatorKind(str, enum.Enum):
    SAMPLE_AVERAGE = "sample-average"
    OPTIMAL_PURE = "optimal-pure"
    OPTIMAL_MIXED_QUBIT = "optimal-mixed-qubit"


def simulate_measurements(
    state: PureState, obs: Observable, copies: int, stream: np.random.Generator
) -> np.ndarray:
    """Outcome counts of N independent measurements of the observable's eigenbasis."""
    copies = check_int("copies", copies, 1, bits=63)
    p = outcome_distribution(state, obs)
    # renormalized: multinomial rejects rows that sum to more than 1 + 1e-12
    return stream.multinomial(copies, p / p.sum())


def estimate_from_sums(
    kind: EstimatorKind | str, value_sums, copies: int, obs: Observable | None, n2: float | None = None, out=None
) -> np.ndarray:
    """Estimates from sums of observed eigenvalues, one per entry of ``value_sums``.

    Every estimator here sees the outcomes only through sum_n Omega_{i_n}:
    the sample average is sum / N, the optimal estimate (tr Omega + sum) / (N + d),
    the mixed-qubit one ((3 - n2)/2 tr Omega + n2 sum) / ((N - 1) n2 + 3):
    :func:`affine_form`'s rows in float steps, which do not check its domain.
    The sample average ignores ``obs``.  The estimates go into ``out`` if given, which may be ``value_sums`` itself.
    """
    kind = EstimatorKind(kind)
    sums = np.asarray(value_sums, dtype=float)
    if kind is EstimatorKind.SAMPLE_AVERAGE:
        return np.divide(sums, copies, out=out)
    if kind is EstimatorKind.OPTIMAL_PURE:
        estimates = np.add(sums, obs.trace, out=out)
        estimates /= copies + obs.dim
        return estimates
    # gamma is 3.0 at N = 1, and (3 - n2)/(2 gamma) keeps n2 = 0 exactly trace/2
    gamma = (copies - 1) * n2 + 3.0
    estimates = np.multiply(n2 / gamma, sums, out=out)
    estimates += (3.0 - n2) / (2.0 * gamma) * obs.trace
    return estimates


def check_int(name: str, value, low: int, bits: int = 64) -> int:
    """``value`` as an ``int``, if ``operator.index`` takes it (bools excluded) and it lies in
    [low, 2**bits); else ``ValueError``.  The one rule for every count, size and seed.

    A copy count has ``bits=63``: the outcome draws, ``Generator.multinomial`` and
    ``binomial``, take a signed 64-bit count.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if low <= number < 2**bits:
                return number
    raise ValueError(f"{name} must be an integer in [{low}, 2**{bits}), got {value!r}")


def affine_form(kind: EstimatorKind | str, copies: int, dim: int, n2: float | None = None) -> tuple[int, int, int]:
    """Integers (alpha, beta, gamma): :func:`estimate_from_sums` is (alpha tr Omega + beta S)/gamma.

    The one definition of each estimator and its domain: the sample average is
    (0, 1, N), an optimal one the linear-Bayes row (w, m t, m (N t + w)) of
    :func:`_moment_form` over its gcd, Haar's for ``optimal-pure``, (1, 1, N + d),
    and the Bloch law's for ``optimal-mixed-qubit``, only at d = 2 and n2 in
    [0, 1], else ``ValueError``.
    """
    kind = EstimatorKind(kind)
    if kind is EstimatorKind.SAMPLE_AVERAGE:
        return 0, 1, copies
    if kind is EstimatorKind.OPTIMAL_PURE:
        n2 = None
    elif dim != 2 or n2 is None or not 0.0 <= n2 <= 1.0:
        raise ValueError(f"the mixed-qubit estimator needs d=2 and a Bloch ensemble with n2 in [0, 1], got d={dim}, n2={n2!r}")
    m, w, t, _ = _moment_form(dim, n2)
    g = math.gcd(w, m * t)  # which divides m (N t + w) too
    return w // g, m * t // g, m * (copies * t + w) // g


def _estimate(kind: EstimatorKind, counts, obs: Observable, n2: float | None = None) -> float:
    """The estimate of ``kind`` from outcome counts, in the estimator's domain, with
    the sum of observed eigenvalues by :func:`optev.hermitian.eigenvalue_sum` as in the harness."""
    c = np.asarray(counts)
    if c.shape != (obs.dim,) or not np.issubdtype(c.dtype, np.integer):
        raise ValueError(f"counts must be {obs.dim} integers, got {c.dtype} of shape {c.shape}")
    if (c < 0).any():
        raise ValueError(f"counts must be non-negative, got {c.tolist()}")
    # summed as Python ints: numpy's integer sum wraps past 2**63 or 2**64
    copies = check_int("copies", sum(c.tolist()), 1, bits=63)
    affine_form(kind, copies, obs.dim, n2)
    return float(estimate_from_sums(kind, eigenvalue_sum(c, obs.eigenvalues), copies, obs, n2))


def estimate_sample_average(counts, obs: Observable) -> float:
    """Arithmetic mean of the observed eigenvalues; unbiased for every state."""
    return _estimate(EstimatorKind.SAMPLE_AVERAGE, counts, obs)


def estimate_optimal(counts, obs: Observable) -> float:
    """Mean of the N observed values and the d eigenvalues of the observable.

    The d extra data points add up to tr Omega, so the estimate is
    (tr Omega + sum_i c_i Omega_i) / (N + d).  Minimizes the squared error
    averaged over the hypersphere-uniform pure-state ensemble; biased at
    finite N.
    """
    return _estimate(EstimatorKind.OPTIMAL_PURE, counts, obs)


def estimate_optimal_mixed_qubit(counts, obs: Observable, n2: float) -> float:
    """Optimal affine qubit estimate for an isotropic Bloch ensemble, at any N.

    The mean of the N observed values and (3 - n2)/n2 pseudo-values tr Omega/2,
    n2 the ensemble's Bloch-length second moment.  At n2 = 1 this is the pure-state
    optimal estimate; at n2 = 0 it is exactly tr Omega / 2.  Defined at d = 2, n2 in [0, 1].
    """
    return _estimate(EstimatorKind.OPTIMAL_MIXED_QUBIT, counts, obs, n2)


def _moment_form(dim: int, n2: float | None) -> tuple[int, int, int, int]:
    """Integers (m, w, t, q): :func:`ensemble_moments` is (tr Omega/m, c t/q, c w/q).

    A unitarily invariant ensemble of mean purity E[P] = E[tr rho^2] = a/b has mu = tr Omega/d,
    V_t = c (d E[P] - 1)/(d^2 (d^2 - 1)) and V_w = c/d^2 - V_t, c = d tr Omega^2 - (tr Omega)^2.
    A Bloch law has E[P] = (1 + n2)/2, and Haar (n2 None) E[P] = 1, as at n2 = 1.
    """
    a, b = (1.0 if n2 is None else float(n2)).as_integer_ratio()
    a, b = a + b, 2 * b
    return dim, dim * (b * dim - a), dim * a - b, b * dim * dim * (dim * dim - 1)


def ensemble_moments(obs: Observable, n2: float | None = None) -> tuple[float, float, float]:
    """(mu, V_t, V_w) of the Haar ensemble, or of a Bloch law with second moment n2.

    mu = E[t] and V_t = Var(t) for t = tr[rho Omega] and V_w = E[Var_p(Omega)], the mean variance
    of one outcome's eigenvalue, by :func:`_moment_form`: each one integer over another, from
    ``Observable.exact_sums``, so correctly rounded, subnormals included.
    """
    denominator, trace, square_sum = obs.exact_sums
    m, w, t, q = _moment_form(obs.dim, n2)
    c, scale = obs.dim * square_sum - trace * trace, denominator * denominator * q
    return trace / (m * denominator), c * t / scale, c * w / scale


def analytic_mse(kind: EstimatorKind | str, obs: Observable, copies: int, n2: float | None = None) -> float:
    """Ensemble-averaged squared error of an estimate (alpha tr Omega + beta S)/gamma.

    S = sum_i c_i Omega_i is, given the state, a sum of N independent
    eigenvalue draws, so with pi = beta N - gamma and ``ensemble_moments``
    the error is (beta^2 N V_w + pi^2 V_t + (alpha tr Omega + pi mu)^2) / gamma^2.
    Every estimator is unbiased over its ensemble, alpha tr Omega + pi mu = 0,
    which leaves one integer over another from ``Observable.exact_sums``,
    correctly rounded.  The Haar ensemble is n2 = None.
    """
    _, beta, gamma = affine_form(kind, copies, obs.dim, n2)
    denominator, trace, square_sum = obs.exact_sums
    _, w, t, q = _moment_form(obs.dim, n2)
    pi = beta * copies - gamma
    c = obs.dim * square_sum - trace * trace
    return c * (beta * beta * copies * w + pi * pi * t) / (denominator * denominator * q * gamma * gamma)


def analytic_delta_opt(obs: Observable, copies: int) -> float:
    """Minimal ensemble-averaged squared error of the optimal estimator.

    (d tr Omega^2 - (tr Omega)^2) / (d (d+1) (N+d)); zero iff the observable
    is a multiple of the identity.
    """
    return analytic_mse(EstimatorKind.OPTIMAL_PURE, obs, check_int("copies", copies, 1, bits=63))


def analytic_delta_av(obs: Observable, copies: int) -> float:
    """Ensemble-averaged squared error of the sample average.

    (d tr Omega^2 - (tr Omega)^2) / (d (d+1) N): the optimal error scaled by
    (N+d)/N.
    """
    return analytic_mse(EstimatorKind.SAMPLE_AVERAGE, obs, check_int("copies", copies, 1, bits=63))


def analytic_delta_mixed_qubit(obs: Observable, n2: float) -> float:
    """Minimal single-copy squared error for the isotropic qubit ensemble.

    (n2/12) (1 - n2/3) (2 tr Omega^2 - (tr Omega)^2) for a Bloch ensemble
    with second moment n2.  Agrees with the pure-state optimum at n2 = 1 and
    vanishes at n2 = 0, where the expectation value is known exactly.
    """
    return analytic_mse(EstimatorKind.OPTIMAL_MIXED_QUBIT, obs, 1, n2)


def analytic_bias(kind: EstimatorKind | str, obs: Observable, copies: int, n2: float | None = None) -> float:
    """Bias (alpha tr Omega + pi w_0)/gamma, pi = beta N - gamma, at the top eigenvector,
    where every outcome is the top eigenvalue w_0, also the truth, so S = N w_0.

    One integer over another from ``Observable.exact_sums`` and w_0's ratio,
    so correctly rounded, and exactly 0.0 for the sample average.
    """
    alpha, beta, gamma = affine_form(kind, copies, obs.dim, n2)
    denominator, trace, _ = obs.exact_sums
    p, q = float(obs.eigenvalues[0]).as_integer_ratio()
    return (alpha * trace * q + (beta * copies - gamma) * p * denominator) / (denominator * q * gamma)
