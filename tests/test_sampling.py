"""Tests for sampling.py: streams, Haar states, Bloch ensembles."""

import math

import numpy as np
import pytest
import scipy.stats

from optev import (
    RadialLaw,
    build_projector_permutation,
    derive_stream,
    enumerate_occupations,
    make_observable,
    outcome_distribution,
    sample_bloch_mixed,
    sample_haar_amplitudes,
    sample_haar_pure,
)
from optev.harness import BLOCK
from optev.sampling import (
    _NETWORK_MAX,
    _sort_network,
    _uniform_subsets,
    sample_bloch_components,
    sample_bloch_vectors,
    sample_haar_counts,
)


# --- stream derivation ---

def test_equal_pairs_give_identical_sequences():
    a = derive_stream(42, 0).random(10)
    b = derive_stream(42, 0).random(10)
    assert np.array_equal(a, b)


def test_distinct_trial_indices_differ():
    a = derive_stream(42, 0).random(4)
    b = derive_stream(42, 1).random(4)
    assert not np.array_equal(a, b)


def test_pooled_uniform_mean():
    # 3 sigma for 10^6 uniforms: 3 / (sqrt(12) * 1000) ~ 0.00087 < 0.002
    total = 0.0
    for k in range(1000):
        total += derive_stream(7, k).random(1000).sum()
    assert abs(total / 1_000_000 - 0.5) < 0.002


@pytest.mark.parametrize("seed, k", [(0, 0), (7, 1), (2024, 4096), (2**64 - 1, 3)])
def test_stream_is_the_spawned_sfc64_child_of_the_master_seed(seed, k):
    child = np.random.SeedSequence(seed).spawn(k + 1)[k]
    want = np.random.Generator(np.random.SFC64(child))
    got = derive_stream(seed, k)
    assert np.array_equal(got.random(8), want.random(8))
    assert np.array_equal(got.standard_gamma(2.5, 8), want.standard_gamma(2.5, 8))


def test_negative_and_wide_seeds_are_masked():
    a = derive_stream(-1, 0).random(3)
    b = derive_stream(2**64 - 1, 0).random(3)
    assert np.array_equal(a, b)
    assert np.array_equal(derive_stream(5 + 2**64, 0).random(3), derive_stream(5, 0).random(3))
    # non-integers are refused, not truncated
    with pytest.raises(TypeError):
        derive_stream(1.5, 0)
    with pytest.raises(TypeError):
        derive_stream(1, 2.9)


@pytest.mark.parametrize("k", [0, 9, 2**64 - 1])
def test_trial_index_is_reduced_mod_2_64(k):
    assert np.array_equal(derive_stream(11, 2**64 + k).random(3), derive_stream(11, k).random(3))
    assert np.array_equal(derive_stream(11, k - 2**64).random(3), derive_stream(11, k).random(3))


def test_neighbouring_block_streams_are_uncorrelated():
    # first uniforms of the streams keying blocks k and k + BLOCK, over
    # n = 2 * 10^4 pairs; |r| < 4 / sqrt(n) is about a 4 sigma bound
    n = 20_000
    first = np.array([derive_stream(3, k).random() for k in range(0, (n + 1) * BLOCK, BLOCK)])
    assert abs(np.corrcoef(first[:-1], first[1:])[0, 1]) < 4.0 / math.sqrt(n)


# --- Haar sampling ---

def test_haar_state_is_normalized():
    state = sample_haar_pure(2, derive_stream(1, 0))
    assert abs(np.vdot(state.amplitudes, state.amplitudes).real - 1.0) < 1e-12


def test_batch_equals_sequential_draws():
    batch = sample_haar_amplitudes(3, 5, derive_stream(4, 9))
    stream = derive_stream(4, 9)
    singles = np.stack([sample_haar_pure(3, stream).amplitudes for _ in range(5)])
    assert np.array_equal(batch, singles)


def test_haar_isotropy_qubit():
    # 3 sigma per Bloch component at M = 10^6 is ~0.0017, well under 0.004
    amps = sample_haar_amplitudes(2, 1_000_000, derive_stream(21, 0))
    cross = amps[:, 0].conjugate() * amps[:, 1]
    bloch = np.array(
        [
            2 * cross.real.mean(),
            2 * cross.imag.mean(),
            (np.abs(amps[:, 0]) ** 2 - np.abs(amps[:, 1]) ** 2).mean(),
        ]
    )
    assert np.linalg.norm(bloch) < 0.004


def test_haar_second_tensor_moment_matches_symmetrizer():
    amps = sample_haar_amplitudes(2, 1_000_000, derive_stream(22, 0))
    pairs = (amps[:, :, None] * amps[:, None, :]).reshape(-1, 4)
    mean = (pairs.T @ pairs.conj()) / pairs.shape[0]
    target = build_projector_permutation(2, 2).matrix / 3.0
    assert np.linalg.norm(mean - target) < 0.005
    # the antisymmetric (singlet) block must vanish
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    assert abs(np.vdot(singlet, mean @ singlet)) < 0.003


def test_unitary_invariance_proxy_kolmogorov_smirnov():
    samples = 100_000
    amps = sample_haar_amplitudes(3, samples, derive_stream(23, 0))
    raw = np.random.default_rng(2024).standard_normal((3, 3)) + 1j * np.random.default_rng(
        2025
    ).standard_normal((3, 3))
    unitary, _ = np.linalg.qr(raw)
    rotated = amps @ unitary.T
    stat = scipy.stats.ks_2samp(np.abs(amps[:, 0]) ** 2, np.abs(rotated[:, 0]) ** 2).statistic
    critical = 1.628 * math.sqrt(2.0 / samples)  # 1% two-sample critical value
    assert stat < critical


def test_haar_rejects_small_dimension():
    with pytest.raises(ValueError):
        sample_haar_pure(1, derive_stream(0, 0))
    with pytest.raises(ValueError):
        sample_haar_counts(1, 1, 5, derive_stream(0, 0))


@pytest.mark.parametrize("copies", [0, 2**63, 2.0, True])
def test_haar_counts_rejects_bad_copies(copies):
    with pytest.raises(ValueError, match=r"copies must be an integer in \[1, 2\*\*63\)"):
        sample_haar_counts(2, copies, 5, derive_stream(0, 0))


# N <= d draws the N stars of the N + d - 1 slots, N > d the d - 1 bars
SIDES = [(2, 1), (3, 2), (8, 1), (8, 8), (3, 7), (2, 64), (8, 64)]


@pytest.mark.parametrize("d, copies", [(3, 2), (4, 3), (2, 5), (8, 1), (4, 4), (3, 4)])
def test_haar_counts_are_uniform_over_compositions(d, copies):
    # Dirichlet(1)-multinomial: each of the C(N+d-1, d-1) compositions of N
    # into d parts has the same probability
    samples = 60_000
    _, counts = sample_haar_counts(d, copies, samples, derive_stream(26, d * 100 + copies))
    assert counts.shape == (d, samples)
    assert counts.dtype == np.int64 and (counts >= 0).all() and (counts.sum(axis=0) == copies).all()
    compositions = np.array(enumerate_occupations(d, copies))
    assert len(compositions) == math.comb(copies + d - 1, d - 1)
    observed = (counts.T[:, None, :] == compositions[None, :, :]).all(axis=2).sum(axis=0)
    assert observed.sum() == samples
    assert scipy.stats.chisquare(observed).pvalue > 1e-3


@pytest.mark.parametrize("d, copies", SIDES)
def test_haar_counts_probabilities_follow_the_haar_eigenbasis_law(d, copies):
    samples = 100_000
    p, _ = sample_haar_counts(d, copies, samples, derive_stream(24, d * 100 + copies))
    assert p.shape == (d, samples)
    assert np.abs(p.sum(axis=0) - 1.0).max() <= 1e-15
    # Dirichlet(1, ..., 1) moments whatever the counts, each within 5 standard errors
    i, j = np.triu_indices(d, 1)
    for values, want in (
        (p, 1.0 / d),
        (p * p, 2.0 / (d * (d + 1))),
        (p[i] * p[j], 1.0 / (d * (d + 1))),
    ):
        se = values.std(axis=1, ddof=1) / math.sqrt(samples)
        assert (np.abs(values.mean(axis=1) - want) < 5 * se).all()


@pytest.mark.parametrize("d, copies", SIDES)
def test_haar_counts_posterior_mean(d, copies):
    # p | c is Dirichlet(1 + c), whose mean (1 + c)/(N + d) is the paper's
    # estimate with one default datum per eigenvalue
    samples = 100_000
    p, counts = sample_haar_counts(d, copies, samples, derive_stream(27, d * 100 + copies))
    assert p.shape == counts.shape == (d, samples)
    residual = p - (1.0 + counts) / (copies + d)
    se = residual.std(axis=1, ddof=1) / math.sqrt(samples)
    assert (np.abs(residual.mean(axis=1)) < 5 * se).all()


@pytest.mark.parametrize("d, copies", SIDES)
def test_haar_counts_match_the_forward_draw(d, copies):
    # the forward path draws a Haar state, its outcome distribution in a
    # random eigenbasis and then the counts; it is the oracle of the joint law
    samples = 100_000
    rng = np.random.default_rng(d * 100 + copies)
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    obs = make_observable((raw + raw.conj().T) / 2)
    p, counts = sample_haar_counts(d, copies, samples, derive_stream(28, d * 100 + copies))
    p, counts = p.T, counts.T
    stream = derive_stream(29, d * 100 + copies)
    forward_p = outcome_distribution(sample_haar_amplitudes(d, samples, stream), obs)
    forward_counts = stream.multinomial(copies, forward_p / forward_p.sum(axis=1, keepdims=True))
    w = obs.eigenvalues
    assert scipy.stats.ks_2samp(p @ w, forward_p @ w).pvalue > 1e-3
    assert scipy.stats.ks_2samp(counts @ w, forward_counts @ w).pvalue > 1e-3
    # E[c_i p_j], the two samples' means within 5 standard errors of their difference
    joint = (counts[:, :, None] * p[:, None, :]).reshape(samples, -1)
    forward_joint = (forward_counts[:, :, None] * forward_p[:, None, :]).reshape(samples, -1)
    se = np.hypot(joint.std(axis=0, ddof=1), forward_joint.std(axis=0, ddof=1)) / math.sqrt(samples)
    assert (np.abs(joint.mean(axis=0) - forward_joint.mean(axis=0)) < 5 * se).all()


# --- sorting a composition's slots ---

@pytest.mark.parametrize("k", range(1, _NETWORK_MAX + 4))
def test_sort_network_equals_numpy_sort(k):
    rng = np.random.default_rng(k)
    rows = np.empty((k + 1, 3000), dtype=np.uint64)
    rows[:k] = rng.integers(0, 2**64, (k, 3000), dtype=np.uint64)
    # a third of the columns near 2**63, where N = 2**63 - 1 puts the slots, with ties
    rows[:k, :1000] = rng.integers(2**63 - 3, 2**63 + 3, (k, 1000), dtype=np.uint64)
    want = np.sort(rows[:k], axis=0)
    got = _sort_network(rows)
    assert got.dtype == np.uint64 and got.shape == (k, 3000)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k", range(1, _NETWORK_MAX + 1))
def test_sort_network_sorts_every_zero_one_column(k):
    # a comparator network that sorts every 0-1 input sorts every input
    # (Knuth, TAOCP vol. 3, 5.3.4, the zero-one principle)
    columns = np.arange(2**k, dtype=np.uint64)
    rows = np.empty((k + 1, columns.size), dtype=np.uint64)
    rows[:k] = (columns >> np.arange(k, dtype=np.uint64)[:, None]) & np.uint64(1)
    ones = rows[:k].sum(axis=0)
    got = _sort_network(rows)
    assert np.array_equal(got, np.arange(k)[:, None] >= k - ones)


@pytest.mark.parametrize("k", [1, _NETWORK_MAX, _NETWORK_MAX + 1])
def test_uniform_subsets_are_sorted_subsets_on_both_sides_of_the_network(k):
    slots = 2 * k + 3
    rows = _uniform_subsets(slots, k, 5000, derive_stream(37, k))
    assert rows.shape == (k, 5000) and rows.dtype == np.uint64
    assert (rows[1:] > rows[:-1]).all() and (rows < slots).all()
    # each slot is chosen with probability k / slots, within 5 standard errors
    hits = np.bincount(rows.reshape(-1).astype(np.int64), minlength=slots)
    want = 5000 * k / slots
    assert (np.abs(hits - want) < 5 * math.sqrt(want * (1 - k / slots))).all()


# --- radial laws ---

def test_second_moment_closed_forms():
    assert RadialLaw.pure_surface().second_moment() == 1.0
    assert RadialLaw.uniform_ball().second_moment() == 0.6
    assert RadialLaw.fixed_radius(0.5).second_moment() == 0.25
    assert RadialLaw.two_point(1.0, 0.6).second_moment() == 0.6


@pytest.mark.parametrize(
    "law, sigma",
    [
        (RadialLaw.pure_surface(), 0.0),
        (RadialLaw.uniform_ball(), math.sqrt(12.0 / 175.0)),  # Var(r^2) for 3r^2 dr
        (RadialLaw.fixed_radius(math.sqrt(0.6)), 0.0),
        (RadialLaw.two_point(1.0, 0.6), math.sqrt(0.6 * 0.4)),
    ],
)
def test_empirical_second_moments(law, sigma):
    trials = 1_000_000
    radii = law.sample_radius(derive_stream(31, 0), size=trials)
    bound = 3.0 * sigma / math.sqrt(trials) + 1e-12
    assert abs(float(np.mean(radii**2)) - law.second_moment()) <= bound


def test_bloch_surface_law_unit_length():
    for k in range(50):
        state = sample_bloch_mixed(RadialLaw.pure_surface(), derive_stream(32, k))
        assert abs(np.linalg.norm(state.bloch) - 1.0) < 1e-12


def test_bloch_zero_radius_law():
    for k in range(10):
        state = sample_bloch_mixed(RadialLaw.fixed_radius(0.0), derive_stream(33, k))
        assert np.array_equal(state.bloch, np.zeros(3))


def test_bloch_direction_isotropy():
    rows = np.stack(
        [sample_bloch_mixed(RadialLaw.pure_surface(), derive_stream(34, k)).bloch for k in range(4000)]
    )
    assert np.abs(rows.mean(axis=0)).max() < 4.0 / math.sqrt(3 * 4000) * 3


@pytest.mark.parametrize(
    "law",
    [
        RadialLaw.pure_surface(),
        RadialLaw.uniform_ball(),
        RadialLaw.fixed_radius(math.sqrt(0.6)),
        RadialLaw.fixed_radius(0.0),
        RadialLaw.two_point(1.0, 0.6),
    ],
    ids=lambda law: law.label(),
)
def test_bloch_components_follow_the_projected_bloch_law(law):
    samples = 100_000
    s = sample_bloch_components(law, samples, derive_stream(35, 0))
    assert s.shape == (samples,) and (np.abs(s) <= law.radius).all()
    # the same law as whole isotropic Bloch vectors projected on a fixed axis
    axis = np.array([1.0, -2.0, 0.5]) / math.sqrt(5.25)
    projected = sample_bloch_vectors(law, samples, derive_stream(36, 0)) @ axis
    assert scipy.stats.ks_2samp(s, projected).pvalue > 1e-3
    # E[s^2] = <n^2> E[cos^2] = n2 / 3, within 5 standard errors
    se = float(np.std(s * s, ddof=1)) / math.sqrt(samples)
    assert abs(float(np.mean(s * s)) - law.second_moment() / 3.0) <= 5.0 * se


def test_radial_law_validation():
    with pytest.raises(ValueError, match="outside"):
        RadialLaw.fixed_radius(1.2)
    with pytest.raises(ValueError, match="weight"):
        RadialLaw.two_point(0.5, 1.5)
    with pytest.raises(ValueError, match="kind"):
        RadialLaw(kind="gaussian")


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "fixed-radius", "radius": None},
        {"kind": "fixed-radius", "radius": [1]},
        {"kind": "fixed-radius", "radius": "0.5"},
        {"kind": "two-point", "radius": 0.5, "weight": [1]},
        {"kind": "two-point", "radius": 0.5, "weight": True},
        {"kind": "fixed-radius", "radius": 10**400},
    ],
)
def test_radial_law_from_dict_rejects_non_numbers(payload):
    with pytest.raises(ValueError):
        RadialLaw.from_dict(payload)


def test_radial_law_dict_round_trip():
    for law in (
        RadialLaw.pure_surface(),
        RadialLaw.uniform_ball(),
        RadialLaw.fixed_radius(0.25),
        RadialLaw.two_point(0.9, 0.3),
    ):
        assert RadialLaw.from_dict(law.to_dict()) == law


def test_sampling_is_reproducible():
    first = [sample_haar_pure(4, derive_stream(77, k)).amplitudes for k in range(5)]
    second = [sample_haar_pure(4, derive_stream(77, k)).amplitudes for k in range(5)]
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
