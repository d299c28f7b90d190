"""Tests for symmetric.py: projectors, embeddings, partial traces, lemma."""

import math

import numpy as np
import pytest

from optev import (
    build_projector_occupation,
    build_projector_permutation,
    check_unbiased_lemma,
    derive_stream,
    embed_one_body,
    enumerate_occupations,
    estimate_optimal,
    estimate_sample_average,
    haar_average_tensor_power,
    make_observable,
    occupation_basis_vector,
    omega_hat,
    omega_hat_av,
    partial_trace_last,
    sample_haar_amplitudes,
    symmetric_dimension,
)
from optev.symmetric import tensor_power_rows


def random_observable(d, rng):
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return make_observable((raw + raw.conj().T) / 2)


SIGMA_Z = make_observable([[1, 0], [0, -1]])


# --- symmetric_dimension ---

def test_dimension_values():
    assert symmetric_dimension(2, 2) == 3
    assert symmetric_dimension(2, 3) == 4
    assert symmetric_dimension(1, 10) == 1
    assert symmetric_dimension(3, 3) == 10
    assert symmetric_dimension(3, 2) == 6


def test_dimension_rejects_overflow():
    with pytest.raises(OverflowError):
        symmetric_dimension(40, 40)


def test_dimension_rejects_bad_args():
    with pytest.raises(ValueError):
        symmetric_dimension(0, 2)


# --- projector constructions ---

def test_two_qubit_symmetrizer_is_identity_plus_swap():
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[2 * j + i, 2 * i + j] = 1.0
    got = build_projector_permutation(2, 2).matrix
    assert np.array_equal(got, (np.eye(4) + swap) / 2)
    assert got.trace() == 3.0


def test_traces_match_dimension():
    assert build_projector_permutation(2, 3).matrix.trace() == pytest.approx(4.0, abs=1e-9)
    assert build_projector_permutation(3, 3).matrix.trace() == pytest.approx(10.0, abs=1e-9)
    assert build_projector_occupation(3, 2).matrix.trace() == pytest.approx(6.0, abs=1e-9)


@pytest.mark.parametrize("d, n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (4, 2)])
def test_construction_equivalence(d, n):
    a = build_projector_permutation(d, n)
    b = build_projector_occupation(d, n)
    assert np.linalg.norm(a.matrix - b.matrix) < 1e-12
    assert a.dimension == b.dimension == symmetric_dimension(d, n)


def test_resource_guard():
    with pytest.raises(ValueError, match="guard"):
        build_projector_permutation(2, 13)
    with pytest.raises(ValueError, match="guard"):
        build_projector_occupation(8, 5)


def test_occupation_enumeration_counts():
    for d, n in ((2, 3), (3, 4), (4, 2)):
        occupations = enumerate_occupations(d, n)
        assert len(occupations) == symmetric_dimension(d, n)
        assert len(set(occupations)) == len(occupations)
        assert all(sum(c) == n for c in occupations)


def test_occupation_vector_bell_symmetric():
    vec = occupation_basis_vector(2, 2, (1, 1))
    want = np.zeros(4)
    want[1] = want[2] = 1 / math.sqrt(2)
    assert np.abs(vec - want).max() < 1e-15


# --- one-body embeddings ---

def test_embedding_positions():
    assert np.array_equal(embed_one_body(SIGMA_Z, 1, 2), np.kron(SIGMA_Z.matrix, np.eye(2)))
    assert np.array_equal(embed_one_body(SIGMA_Z, 2, 2), np.kron(np.eye(2), SIGMA_Z.matrix))


def test_embedding_trace_multiplicativity():
    rng = np.random.default_rng(1)
    obs = random_observable(3, rng)
    embedded = embed_one_body(obs, 2, 3)
    assert abs(embedded.trace() - 9 * obs.trace) < 1e-10


def test_embedding_position_out_of_range():
    with pytest.raises(ValueError):
        embed_one_body(SIGMA_Z, 3, 2)


def test_symmetrized_one_body_trace():
    rng = np.random.default_rng(2)
    obs = random_observable(2, rng)
    s = build_projector_permutation(2, 3).matrix
    want = symmetric_dimension(2, 3) / 2 * obs.trace
    for position in (1, 2, 3):
        got = float(np.trace(s @ embed_one_body(obs, position, 3)).real)
        assert abs(got - want) < 1e-10


# --- shrinkage and average operators ---

def test_omega_hat_eigenvalues_are_optimal_estimates():
    rng = np.random.default_rng(3)
    obs = random_observable(3, rng)
    hat = omega_hat(obs, 2)
    for a, (i, j) in enumerate((u, v) for u in range(3) for v in range(3)):
        column = np.kron(obs.eigenvectors[:, i], obs.eigenvectors[:, j])
        eig = float((column.conj() @ hat @ column).real)
        assert abs(eig - estimate_optimal(np.bincount([i, j], minlength=3), obs)) < 1e-12


def test_omega_hat_identity_observable():
    obs = make_observable(np.eye(2))
    assert np.abs(omega_hat(obs, 3) - np.eye(8)).max() < 1e-12


def test_omega_hat_trace_square_formula():
    rng = np.random.default_rng(4)
    for _ in range(5):
        obs = random_observable(2, rng)
        n, d = 3, 2
        s = build_projector_permutation(d, n).matrix
        hat = omega_hat(obs, n)
        got = float(np.trace(s @ hat @ hat).real)
        want = (
            symmetric_dimension(d, n)
            * (n * obs.trace_square + (n + d + 1) * obs.trace**2)
            / (d * (d + 1) * (n + d))
        )
        assert abs(got - want) < 1e-10


def test_omega_hat_av_eigenvalues_for_sigma_z():
    values = np.sort(np.linalg.eigvalsh(omega_hat_av(SIGMA_Z, 2)))
    assert np.abs(values - [-1.0, 0.0, 0.0, 1.0]).max() < 1e-12


def test_omega_hat_av_eigenvalue_is_sample_average():
    rng = np.random.default_rng(5)
    obs = random_observable(2, rng)
    av = omega_hat_av(obs, 3)
    indices = np.array([1, 0, 1])
    column = np.kron(
        np.kron(obs.eigenvectors[:, 1], obs.eigenvectors[:, 0]), obs.eigenvectors[:, 1]
    )
    counts = np.bincount(indices, minlength=2)
    assert abs(float((column.conj() @ av @ column).real) - estimate_sample_average(counts, obs)) < 1e-12


def test_omega_hat_av_reproduces_expectation():
    rng = np.random.default_rng(6)
    obs = random_observable(2, rng)
    av = omega_hat_av(obs, 3)
    amps = sample_haar_amplitudes(2, 100, derive_stream(60, 0))
    rows = tensor_power_rows(amps, 3)
    lhs = np.einsum("bi,ij,bj->b", rows.conj(), av, rows).real
    rhs = np.einsum("bi,ij,bj->b", amps.conj(), obs.matrix, amps).real
    assert np.abs(lhs - rhs).max() < 1e-12


# --- partial trace ---

def test_partial_trace_identity_for_symmetrizer():
    s3 = build_projector_permutation(2, 3).matrix
    s2 = build_projector_permutation(2, 2).matrix
    lhs = partial_trace_last(s3 @ embed_one_body(SIGMA_Z, 3, 3), 2, 3)
    rhs = s2 @ (SIGMA_Z.trace * np.eye(4) + embed_one_body(SIGMA_Z, 1, 2) + embed_one_body(SIGMA_Z, 2, 2)) / 3
    assert np.abs(lhs - rhs).max() < 1e-12


def test_partial_trace_factorized_input():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    got = partial_trace_last(np.kron(a, b), 2, 3)
    assert np.abs(got - a * b.trace()).max() < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((8, 8))
    assert abs(partial_trace_last(m, 2, 3).trace() - m.trace()) < 1e-12


def test_partial_trace_shape_mismatch():
    with pytest.raises(ValueError):
        partial_trace_last(np.eye(6), 2, 3)


# --- Haar tensor-power averages ---

def test_haar_average_first_moment():
    mean = haar_average_tensor_power(3, 1, 1_000_000, derive_stream(61, 0))
    assert np.linalg.norm(mean - np.eye(3) / 3) < 0.005


def test_haar_average_matches_batched_states():
    # consuming the stream in chunks must equal one flat batch
    mean = haar_average_tensor_power(2, 2, 1000, derive_stream(62, 0), chunk=128)
    amps = sample_haar_amplitudes(2, 1000, derive_stream(62, 0))
    rows = tensor_power_rows(amps, 2)
    assert np.abs(mean - (rows.T @ rows.conj()) / 1000).max() < 1e-12


# --- unbiasedness lemma ---

@pytest.mark.parametrize("d, copies", [(2, 2), (2, 3)])
def test_lemma_both_directions(d, copies):
    report = check_unbiased_lemma(d, copies, 1000, derive_stream(63, 0))
    assert report.forward_max_deviation < 1e-10
    assert report.converse_max_deviation < 1e-12
    assert report.passed


def test_lemma_negative_control_symmetrizer_itself():
    # A = S_N has tr[A rho^N] = 1 for every pure state: the lemma's
    # vanishing statement must NOT hold for it
    copies = 2
    s = build_projector_permutation(2, copies).matrix
    amps = sample_haar_amplitudes(2, 500, derive_stream(64, 0))
    rows = tensor_power_rows(amps, copies)
    values = np.einsum("bi,ij,bj->b", rows.conj(), s, rows).real
    assert np.abs(values - 1.0).max() < 1e-12
