"""Tests for hermitian.py: observables, states, expectation values."""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from optev import (
    PureState,
    build_projector_occupation,
    build_projector_permutation,
    expectation,
    make_observable,
    observable_to_json,
    outcome_distribution,
)
from optev.hermitian import eigenvalue_sum, observable_from_json


def random_hermitian(d, rng):
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (raw + raw.conj().T) / 2


def random_state(d, rng):
    amp = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(amp / np.linalg.norm(amp))


# --- make_observable ---

def test_pauli_z_spectral_data():
    obs = make_observable([[1, 0], [0, -1]])
    assert np.array_equal(obs.eigenvalues, [1.0, -1.0])
    assert np.array_equal(obs.eigenvectors, np.eye(2))
    assert obs.trace == 0.0
    assert obs.trace_square == 2.0


def test_identity_d3_degenerate():
    obs = make_observable(np.eye(3))
    assert np.allclose(obs.eigenvalues, 1.0)
    gram = obs.eigenvectors.conj().T @ obs.eigenvectors
    assert np.abs(gram - np.eye(3)).max() < 1e-12


def test_random_hermitian_reconstruction_matches_reference_solver():
    rng = np.random.default_rng(10)
    h = random_hermitian(3, rng)
    obs = make_observable(h)
    rebuilt = (obs.eigenvectors * obs.eigenvalues) @ obs.eigenvectors.conj().T
    assert np.abs(rebuilt - h).max() < 1e-10
    # independent eigensolver agrees on the spectrum
    ref = np.sort(scipy.linalg.eigvalsh(h))[::-1]
    assert np.abs(obs.eigenvalues - ref).max() < 1e-10


def test_rejects_non_square():
    with pytest.raises(ValueError):
        make_observable(np.ones((2, 3)))


def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        make_observable([[0, 1], [0, 0]])


def test_rejects_dimension_one():
    with pytest.raises(ValueError):
        make_observable([[1.0]])


def test_observable_invariants_random_instances():
    rng = np.random.default_rng(11)
    for d in (2, 3, 4, 5):
        for _ in range(100):
            h = random_hermitian(d, rng)
            obs = make_observable(h)
            rebuilt = (obs.eigenvectors * obs.eigenvalues) @ obs.eigenvectors.conj().T
            assert np.abs(rebuilt - h).max() < 1e-10
            assert abs(obs.eigenvalues.sum() - obs.trace) < 1e-10
            gram = obs.eigenvectors.conj().T @ obs.eigenvectors
            assert np.abs(gram - np.eye(d)).max() < 1e-12
            assert (np.diff(obs.eigenvalues) <= 1e-12).all()


# --- expectation ---

def test_expectation_eigenstate():
    obs = make_observable([[1, 0], [0, -1]])
    assert expectation(PureState(np.array([1.0, 0.0])), obs) == 1.0


def test_expectation_equator():
    obs = make_observable([[1, 0], [0, -1]])
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    assert abs(expectation(plus, obs)) < 1e-12


def test_expectation_matches_quadratic_form():
    rng = np.random.default_rng(12)
    for _ in range(50):
        h = random_hermitian(4, rng)
        obs = make_observable(h)
        state = random_state(4, rng)
        direct = float(np.vdot(state.amplitudes, h @ state.amplitudes).real)
        assert abs(expectation(state, obs) - direct) < 1e-12


def test_expectation_global_phase_invariant():
    rng = np.random.default_rng(13)
    obs = make_observable(random_hermitian(3, rng))
    state = random_state(3, rng)
    rotated = PureState(state.amplitudes * np.exp(1j * 0.7345))
    assert abs(expectation(state, obs) - expectation(rotated, obs)) < 1e-12


def test_expectation_dimension_mismatch():
    obs = make_observable([[1, 0], [0, -1]])
    with pytest.raises(ValueError, match="mismatch"):
        expectation(PureState(np.array([1.0, 0, 0])), obs)


# --- the eigenvalue-sum rule ---

def first_to_last(column, w):
    """sum_i w_i x_i of one column in Python floats, from 0.0 in outcome order."""
    total = 0.0
    for x, weight in zip(column.tolist(), w.tolist()):
        total += weight * float(x)
    return total


@pytest.mark.parametrize("columns", [1, 2, 3, 4096])
@pytest.mark.parametrize("d", [2, 3, 8, 17, 64])
def test_eigenvalue_sum_adds_rows_first_to_last(d, columns):
    rng = np.random.default_rng(100 * d + columns)
    # magnitudes from 1e-8 to 1e8, so that another order of additions shows
    w = rng.standard_normal(d) * 10.0 ** rng.integers(-8, 9, d)
    p = rng.dirichlet(np.ones(d), columns).T.copy()
    counts = rng.multinomial(64, np.full(d, 1.0 / d), columns).T.copy()
    for x in (p, counts):
        want = np.array([first_to_last(column, w) for column in x.T])
        assert np.array_equal(eigenvalue_sum(x, w), want)
        # into kept buffers, as a Haar block sums
        out, products = np.empty(columns), np.empty((d, columns))
        eigenvalue_sum(x, w, out=out, products=products)
        assert np.array_equal(out, want)
        # any layout, and one column at a time
        assert np.array_equal(eigenvalue_sum(np.asfortranarray(x), w), want)
        assert [eigenvalue_sum(column, w) for column in x.T] == want.tolist()
    unweighted = np.array([first_to_last(column, np.ones(d)) for column in p.T])
    assert np.array_equal(eigenvalue_sum(p), unweighted)


@pytest.mark.parametrize("shape", [(3,), (3, 1), (3, 2)])
def test_eigenvalue_sum_of_negative_zeros_is_positive_zero(shape):
    # every product is -0.0; the rows are added from +0.0
    total = eigenvalue_sum(np.zeros(shape), np.array([-1.0, -2.0, -3.0]))
    assert not np.signbit(total).any()


# --- outcome_distribution ---

def test_outcomes_eigenstate():
    obs = make_observable([[1, 0], [0, -1]])
    assert np.array_equal(outcome_distribution(PureState(np.array([1.0, 0.0])), obs), [1.0, 0.0])


def test_outcomes_equator():
    obs = make_observable([[1, 0], [0, -1]])
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    assert np.abs(outcome_distribution(plus, obs) - 0.5).max() < 1e-12


def test_outcomes_match_projector_oracle():
    rng = np.random.default_rng(14)
    for _ in range(50):
        obs = make_observable(random_hermitian(3, rng))
        state = random_state(3, rng)
        p = outcome_distribution(state, obs)
        assert (p >= 0).all()
        assert abs(p.sum() - 1.0) < 1e-12
        for i in range(3):
            v = obs.eigenvectors[:, i]
            projector = np.outer(v, v.conj())
            oracle = float(np.vdot(state.amplitudes, projector @ state.amplitudes).real)
            assert abs(p[i] - oracle) < 1e-12
        assert abs(float(p @ obs.eigenvalues) - expectation(state, obs)) < 1e-12


@pytest.mark.parametrize("d", [2, 9, 16])
def test_a_batch_of_rows_gives_the_bits_of_each_state_alone(d):
    rng = np.random.default_rng(d)
    obs = make_observable(random_hermitian(d, rng))
    states = [random_state(d, rng) for _ in range(50)]
    rows = np.array([state.amplitudes for state in states])
    assert np.array_equal(outcome_distribution(rows, obs), [outcome_distribution(state, obs) for state in states])
    assert np.array_equal(expectation(rows, obs), [expectation(state, obs) for state in states])


# --- state containers ---

def test_pure_state_requires_normalization():
    with pytest.raises(ValueError, match="normalized"):
        PureState(np.array([1.0, 1.0]))


@pytest.mark.parametrize(
    "make, entries, message",
    [
        (PureState, [math.nan, 1.0], "normalized"),
        (PureState, [1.0, complex(0.0, math.nan)], "normalized"),
    ],
)
def test_states_reject_nan(make, entries, message):
    # NaN fails every comparison, so only a check written as "within the
    # bound" rejects it; an accepted NaN state has NaN expectations
    with pytest.raises(ValueError, match=message):
        make(np.array(entries))


@pytest.mark.parametrize(
    "make, entries, message",
    [
        (PureState, [0.0, 0.0], "normalized"),
        (PureState, [-0.1, 1.1], "normalized"),
        (PureState, [math.inf, 1.0], "normalized"),
        (PureState, [0.5, -math.inf], "normalized"),
        (PureState, [math.inf, -math.inf], "normalized"),
        (PureState, [1.0, complex(0.0, math.inf)], "normalized"),
        (PureState, [1e308, 1e308], "normalized"),
    ],
)
def test_states_reject_infinite_zero_and_unnormalized_entries(make, entries, message):
    # no state whose outcome distribution is not finite, non-negative and
    # normalized can be built, so the outcome draw never sees such a row
    with pytest.raises(ValueError, match=message):
        make(np.array(entries))


def test_states_are_immutable():
    state = PureState(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_stored_arrays_are_read_only_copies_of_the_input():
    # freezing is in place, so each constructor must copy what the caller owns
    matrix = np.array([[1.0, 0.5j], [-0.5j, -1.0]])
    amplitudes = np.array([0.6, 0.8j])
    obs = make_observable(matrix)
    for given, kept in (
        (matrix, obs.matrix),
        (amplitudes, PureState(amplitudes).amplitudes),
    ):
        assert given.flags.writeable
        assert not np.shares_memory(given, kept)
        assert not kept.flags.writeable
    for kept in (obs.eigenvalues, obs.eigenvectors):
        assert not kept.flags.writeable
    for construct in (build_projector_permutation, build_projector_occupation):
        assert not construct(2, 3).matrix.flags.writeable


# --- JSON format ---

def test_observable_json_round_trip():
    rng = np.random.default_rng(17)
    obs = make_observable(random_hermitian(3, rng))
    payload = observable_to_json(obs)
    assert json.loads(json.dumps(payload)) == payload
    again = observable_from_json(payload)
    assert np.abs(again.matrix - obs.matrix).max() < 1e-15


def test_observable_json_rejects_bad_shape():
    with pytest.raises(ValueError, match="shape"):
        observable_from_json({"dim": 3, "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]})


@pytest.mark.parametrize("entry", [{"re": 1}, [-1, 0, 7], [True, 0], True, [10**400, 0]])
def test_observable_json_entries_must_be_two_numbers(entry):
    with pytest.raises(ValueError, match=r"\[re, im\] pairs of numbers"):
        observable_from_json({"dim": 2, "matrix": [[entry, [0, 0]], [[0, 0], [1, 0]]]})


def test_observable_json_rejects_missing_keys():
    with pytest.raises(ValueError, match="missing"):
        observable_from_json({"dim": 2})
