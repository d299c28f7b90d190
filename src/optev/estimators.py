"""Measurement simulation, the two estimators, and their closed-form errors.

The estimation target is t = tr[rho Omega].  Measuring Omega independently
on each of N copies yields eigenvalue indices (i_1, ..., i_N); every
estimator here sees them only through their counts c_i, the number of copies
that gave outcome i.  The sample average is the mean of the observed
eigenvalues, while the optimal estimator averages the N observed values
together with all d eigenvalues of the observable, i.e.
(tr Omega + sum_i c_i Omega_i) / (N + d).
"""

from __future__ import annotations

import enum
from itertools import accumulate

import numpy as np

from .hermitian import Observable, PureState, expectation, outcome_distribution


class EstimatorKind(str, enum.Enum):
    SAMPLE_AVERAGE = "sample-average"
    OPTIMAL_PURE = "optimal-pure"
    OPTIMAL_MIXED_QUBIT = "optimal-mixed-qubit"


def draw_counts(p, copies: int, generator: np.random.Generator) -> np.ndarray:
    """Outcome counts of ``copies`` measurements, one count row per row of ``p``.

    Rows need not be normalized, but every entry must be finite and
    non-negative and every row must have a positive sum.  One copy takes one
    ``generator.random`` draw per row, located in the row's cumulative
    distribution; more copies take one ``generator.multinomial`` draw per row.
    A 1-D ``p`` is one row and draws what it draws as a row of a block.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim == 1 and p.size:
        # one row, checked in Python floats: their sum is NaN or infinite,
        # with no warning, for a NaN, an infinity or entries too large to
        # add up.  A bad row, or one whose numpy sum might overflow, takes
        # the block path, which raises or draws
        row = p.tolist()
        cumulative = list(accumulate(row))
        total = cumulative[-1]
        if not (0.0 < total < 2.0**1023 and min(row) >= 0.0):
            return draw_counts(p[None], copies, generator)[0]
        if copies > 1:
            return generator.multinomial(copies, p / p.sum())
        # the block path's draw: its cumulative row adds the columns in order too
        u = generator.random()
        counts = np.zeros(p.size, dtype=np.int64)
        counts[next(i for i, c in enumerate(cumulative) if c / total > u)] = 1
        return counts
    with np.errstate(over="ignore", invalid="ignore"):
        if copies == 1:
            # column by column: numpy accumulates a short last axis one row
            # at a time, several times slower than d - 1 column additions
            cumulative = p.copy()
            for j in range(1, p.shape[-1]):
                cumulative[..., j] += cumulative[..., j - 1]
            # a copy, so the division below does not read what it writes
            total = cumulative[..., -1:].copy()
        else:
            total = p.sum(axis=-1, keepdims=True)
    # a NaN entry makes the minimum NaN, which fails every comparison; an
    # infinite entry, or finite ones too large to add up, make the row's sum
    # infinite
    if not (p.min(initial=0.0) >= 0.0 and ((total > 0.0) & (total < np.inf)).all()):
        raise ValueError("outcome probabilities must be finite and non-negative with a positive sum per row")
    if copies > 1:
        # renormalized: multinomial rejects rows that sum to an ulp above 1
        return generator.multinomial(copies, p / total)
    # divided by its own sum, each cumulative row ends in exactly 1, above
    # every uniform, so the entries above the row's uniform run to its end;
    # xor with the left neighbour keeps the run's first, the drawn outcome.
    # That is never an outcome of probability 0, whose entry repeats the one
    # before it.
    cumulative /= total
    first = cumulative > generator.random(total.shape)
    first[..., 1:] ^= first[..., :-1]
    return first.astype(np.int64)


def simulate_measurements(
    state: PureState, obs: Observable, copies: int, stream: np.random.Generator
) -> np.ndarray:
    """Outcome counts of N independent measurements of the observable's eigenbasis."""
    _check_copies(copies)
    return draw_counts(outcome_distribution(state, obs), copies, stream)


def estimate_from_sums(
    kind: EstimatorKind | str, value_sums, copies: int, obs: Observable | None, n2: float | None = None
) -> np.ndarray:
    """Estimates from sums of observed eigenvalues, one per entry of ``value_sums``.

    Every estimator here sees the outcomes only through sum_n Omega_{i_n}:
    the sample average is sum / N, the optimal estimate
    (tr Omega + sum) / (N + d), and the mixed-qubit estimate (N = 1)
    ((3 - n2)/2 tr Omega + n2 sum) / 3.  The sample average ignores ``obs``.
    """
    kind = EstimatorKind(kind)
    sums = np.asarray(value_sums, dtype=float)
    if kind is EstimatorKind.SAMPLE_AVERAGE:
        return sums / copies
    if kind is EstimatorKind.OPTIMAL_PURE:
        return (obs.trace + sums) / (copies + obs.dim)
    # (3 - n2)/6 keeps the n2 = 0 case exactly equal to trace/2
    return (3.0 - n2) / 6.0 * obs.trace + n2 / 3.0 * sums


def _check_copies(copies: int) -> None:
    # the outcome draw, Generator.multinomial, takes a signed 64-bit count
    if isinstance(copies, bool) or not isinstance(copies, int) or not 1 <= copies < 2**63:
        raise ValueError(f"copies must be an integer in [1, 2**63), got {copies!r}")


def _check_n2(n2: float) -> None:
    if not 0.0 <= n2 <= 1.0:
        raise ValueError(f"second moment n2 must lie in [0, 1], got {n2!r}")


def _value_sum(counts, obs: Observable) -> tuple[float, int]:
    """Sum of the observed eigenvalues and the number of outcomes behind ``counts``."""
    c = np.asarray(counts)
    if c.shape != (obs.dim,) or not np.issubdtype(c.dtype, np.integer):
        raise ValueError(f"counts must be {obs.dim} integers, got {c.dtype} of shape {c.shape}")
    if (c < 0).any() or c.sum() < 1:
        raise ValueError(f"counts must be non-negative with a total of at least 1, got {c.tolist()}")
    return c @ obs.eigenvalues, int(c.sum())


def estimate_sample_average(counts, obs: Observable) -> float:
    """Arithmetic mean of the observed eigenvalues; unbiased for every state."""
    value_sum, copies = _value_sum(counts, obs)
    return float(estimate_from_sums(EstimatorKind.SAMPLE_AVERAGE, value_sum, copies, obs))


def estimate_optimal(counts, obs: Observable) -> float:
    """Mean of the N observed values and the d eigenvalues of the observable.

    The d extra data points add up to tr Omega, so the estimate is
    (tr Omega + sum_i c_i Omega_i) / (N + d).  Minimizes the squared error
    averaged over the hypersphere-uniform pure-state ensemble; biased at
    finite N.
    """
    value_sum, copies = _value_sum(counts, obs)
    return float(estimate_from_sums(EstimatorKind.OPTIMAL_PURE, value_sum, copies, obs))


def estimate_optimal_mixed_qubit(counts, obs: Observable, n2: float) -> float:
    """Optimal single-copy qubit estimate for an isotropic Bloch ensemble.

    Returns ((3 - n2)/2 * tr Omega + n2 * Omega_{i_1}) / 3 where n2 is the
    ensemble's Bloch-length second moment.  At n2 = 1 this reduces to the
    pure-state optimal estimate; at n2 = 0 the observed datum is discarded
    and the output is exactly tr Omega / 2.
    """
    if obs.dim != 2:
        raise ValueError(f"mixed-qubit estimator requires d=2, got d={obs.dim}")
    value_sum, copies = _value_sum(counts, obs)
    if copies != 1:
        raise ValueError(f"mixed-qubit estimator requires exactly one outcome, got {copies}")
    _check_n2(n2)
    return float(estimate_from_sums(EstimatorKind.OPTIMAL_MIXED_QUBIT, value_sum, 1, obs, n2))


def analytic_delta_opt(obs: Observable, copies: int) -> float:
    """Minimal ensemble-averaged squared error of the optimal estimator.

    (d tr Omega^2 - (tr Omega)^2) / (d (d+1) (N+d)); zero iff the observable
    is a multiple of the identity.
    """
    _check_copies(copies)
    d = obs.dim
    return (d * obs.trace_square - obs.trace**2) / (d * (d + 1) * (copies + d))


def analytic_delta_av(obs: Observable, copies: int) -> float:
    """Ensemble-averaged squared error of the sample average.

    (d tr Omega^2 - (tr Omega)^2) / (d (d+1) N): the optimal error scaled by
    (N+d)/N.
    """
    _check_copies(copies)
    d = obs.dim
    return (d * obs.trace_square - obs.trace**2) / (d * (d + 1) * copies)


def analytic_bias_mean(state: PureState, obs: Observable, copies: int) -> float:
    """Exact conditional mean of the optimal estimate at fixed state.

    (tr Omega + N tr[rho Omega]) / (N + d); approaches tr[rho Omega] only as
    N grows.
    """
    _check_copies(copies)
    expected_sum = copies * expectation(state, obs)
    return float(estimate_from_sums(EstimatorKind.OPTIMAL_PURE, expected_sum, copies, obs))


def analytic_second_moment(obs: Observable) -> float:
    """Hypersphere-ensemble second moment of tr[rho Omega].

    ((tr Omega)^2 + tr Omega^2) / (d (d+1)).
    """
    d = obs.dim
    return (obs.trace**2 + obs.trace_square) / (d * (d + 1))


def analytic_delta_mixed_qubit(obs: Observable, n2: float) -> float:
    """Minimal single-copy squared error for the isotropic qubit ensemble.

    (n2/12) (1 - n2/3) (2 tr Omega^2 - (tr Omega)^2) for a Bloch ensemble
    with second moment n2.  Agrees with the pure-state optimum at n2 = 1 and
    vanishes at n2 = 0, where the expectation value is known exactly.
    """
    if obs.dim != 2:
        raise ValueError(f"mixed-qubit error formula requires d=2, got d={obs.dim}")
    _check_n2(n2)
    # grouped as n2 (3 - n2) / 36 so the n2 = 1 value equals the one-copy
    # pure optimum to the last bit
    return n2 * (3.0 - n2) / 36.0 * (2.0 * obs.trace_square - obs.trace**2)
