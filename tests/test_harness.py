"""Tests for harness.py and cli.py: configs, runner, CSV, determinism."""

import concurrent.futures
import csv
import json
import math
import multiprocessing
import os
import resource
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import optev
from optev import (
    ConfigError,
    EstimatorKind,
    ExperimentConfig,
    PureState,
    RadialLaw,
    analytic_delta_av,
    analytic_delta_opt,
    derive_stream,
    estimate_optimal,
    estimate_optimal_mixed_qubit,
    estimate_sample_average,
    expectation,
    load_observable,
    make_observable,
    observable_to_json,
    rows_to_csv,
    run_experiment,
)
from optev import harness, hermitian, sampling
from optev.cli import main
from optev.estimators import analytic_mse, estimate_from_sums
from optev.harness import BLOCK, CSV_COLUMNS, _draw_block, load_config, run_sweep
from optev.sampling import HAAR_PURE, _draw_haar_counts


def fresh(config, observable=None):
    """``run_experiment`` on a fresh draw: the draw memo is emptied first."""
    harness._last_draw = None
    return run_experiment(config, observable=observable)


def haar_counts(d, copies, count, stream):
    """Probabilities and counts of ``count`` Haar states, (d, count) arrays the test owns."""
    p, counts = np.empty((d, count)), np.empty((d, count), dtype=np.int64)
    _draw_haar_counts(copies, stream, p, counts)
    return p, counts


def run_trials(config, obs):
    """All of ``config``'s trials through ``_draw_block``, block by block, then the
    ensemble's ``finish`` over the whole run, written into NaN-filled out arrays,
    so a slot no block writes shows: its truth stays NaN through ``finish``."""
    truths, sums = np.full(config.trials, np.nan), np.full(config.trials, np.nan)
    for k in range(0, config.trials, BLOCK):
        _draw_block(config, obs, truths, sums, k)
    config.ensemble.finish(obs, config.copies, truths, sums, np.empty(config.trials))
    return truths, sums


# --- load_observable ---

def test_builtin_pauli_z():
    obs = load_observable("pauli-z")
    assert np.array_equal(obs.eigenvalues, [1.0, -1.0])


def test_builtin_identity_needs_dim():
    assert load_observable("identity", dim=3).trace == 3.0
    with pytest.raises(ConfigError):
        load_observable("identity")


def test_builtin_diag():
    obs = load_observable("diag(3,0,-3)")
    assert obs.dim == 3
    assert np.array_equal(obs.eigenvalues, [3.0, 0.0, -3.0])


def test_unknown_builtin():
    with pytest.raises(ConfigError, match="unknown builtin"):
        load_observable("pauli-q")


def test_observable_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    obs = make_observable((raw + raw.conj().T) / 2)
    path = tmp_path / "obs.json"
    path.write_text(json.dumps(observable_to_json(obs)))
    loaded = load_observable(path)
    assert np.abs(loaded.matrix - obs.matrix).max() < 1e-15


def test_malformed_json_names_line_and_column(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2,\n  "matrix": [[[1, 0], [0, 0]],\n}')
    with pytest.raises(ConfigError, match=r"line 3 column \d+"):
        load_observable(path)


def test_non_hermitian_file_rejected(tmp_path):
    path = tmp_path / "obs.json"
    payload = {"dim": 2, "matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="Hermitian"):
        load_observable(path)


# --- config ---

def test_config_round_trip():
    config = ExperimentConfig(
        dim=2,
        copies=1,
        trials=1000,
        master_seed=7,
        estimator="optimal-mixed-qubit",
        ensemble=RadialLaw.two_point(1.0, 0.6),
        observable_source="pauli-z",
        workers=2,
    )
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again == config
    assert again.ensemble.second_moment() == pytest.approx(0.6)


def test_haar_pure_text_and_object_give_one_config(draws):
    # the string form is stored as the one HAAR_PURE object, so the three
    # configs are equal and the second run finds the first run's kept draw
    configs = [
        ExperimentConfig(trials=50),
        ExperimentConfig(trials=50, ensemble="haar-pure"),
        ExperimentConfig.from_dict({"trials": 50, "ensemble": "haar-pure"}),
    ]
    assert configs[0] == configs[1] == configs[2]
    assert all(config.ensemble is HAAR_PURE for config in configs)
    first = run_experiment(configs[0])
    assert _text(run_experiment(configs[2])) == _text(first)
    assert draws == [True]


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(dim=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(estimator="optimal-mixed-qubit")  # needs a Bloch ensemble
    with pytest.raises(ConfigError):
        ExperimentConfig(
            estimator="optimal-mixed-qubit", ensemble=RadialLaw.pure_surface(), copies=2
        )
    with pytest.raises(ConfigError):
        ExperimentConfig(ensemble=RadialLaw.pure_surface(), dim=3)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"dim": 2, "unknown_field": 1})
    # the outcome draw takes a signed 64-bit count
    assert ExperimentConfig(copies=2**63 - 1).copies == 2**63 - 1
    with pytest.raises(ConfigError, match=r"copies must be an integer in \[1, 2\*\*63\)"):
        ExperimentConfig(copies=2**63)


@pytest.mark.parametrize("d", [2, 8])
def test_largest_copies_runs(d):
    source = f"diag({','.join(str(i) for i in range(d))})"
    config = ExperimentConfig(dim=d, copies=2**63 - 1, trials=3, master_seed=13, observable_source=source)
    row = run_experiment(config)
    assert all(math.isfinite(value) for value in (row.empirical_mse, row.standard_error, row.analytic_mse))
    assert math.isfinite(row.empirical_bias_at_probe)
    # the block's own draw: N + d - 1 slots exceed 2**63 - 1 at d = 8
    p, counts = haar_counts(d, config.copies, config.trials, derive_stream(config.master_seed, 0))
    assert (counts >= 0).all() and (counts.sum(axis=0) == config.copies).all()
    assert np.isfinite(p).all()


def test_load_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "dim": 2,
                "copies": 2,
                "trials": 50,
                "master_seed": 3,
                "estimator": "sample-average",
                "ensemble": {"bloch": {"kind": "uniform-ball"}},
            }
        )
    )
    config = load_config(path)
    assert config.copies == 2
    assert config.ensemble == RadialLaw.uniform_ball()
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.json")


# --- run_experiment ---

def test_identity_observable_gives_null_error():
    config = ExperimentConfig(
        dim=3, copies=2, trials=2000, master_seed=1, observable_source="identity"
    )
    row = run_experiment(config)
    # every estimate is exactly 1; the truth carries only ulp-level rounding
    assert row.empirical_mse < 1e-30
    assert row.analytic_mse == 0.0


def test_analytic_column_uses_the_estimator_formulas():
    config = ExperimentConfig(dim=2, copies=3, trials=50, master_seed=2)
    obs = load_observable("pauli-z")
    row = run_experiment(config)
    assert row.analytic_mse == analytic_delta_opt(obs, 3)
    row_av = run_experiment(
        ExperimentConfig(dim=2, copies=3, trials=50, master_seed=2, estimator="sample-average")
    )
    assert row_av.analytic_mse == analytic_delta_av(obs, 3)


def test_bloch_rows_of_the_pure_estimators_match_their_closed_form():
    # every row has a closed form, on Bloch laws too, at any N
    obs = make_observable([[0.3, 0.2 - 0.7j], [0.2 + 0.7j, -1.1]])
    laws = (RadialLaw.uniform_ball(), RadialLaw.two_point(0.8, 0.5), RadialLaw.fixed_radius(0.6))
    for i, law in enumerate(laws):
        for copies in (1, 3, 8):
            for kind in (EstimatorKind.OPTIMAL_PURE, EstimatorKind.SAMPLE_AVERAGE):
                config = ExperimentConfig(
                    dim=2, copies=copies, trials=200_000, master_seed=2600 + i, estimator=kind, ensemble=law
                )
                row = run_experiment(config, observable=obs)
                z = (row.empirical_mse - row.analytic_mse) / row.standard_error
                assert abs(z) <= 4.0, (law, copies, kind, z)
                cells = list(csv.reader(rows_to_csv([row]).splitlines()))[1]
                assert cells[CSV_COLUMNS.index("analytic_mse")] == repr(row.analytic_mse)


def _mean_and_se(values):
    """The harness's reduce: numpy's sum of the float64 squared errors over M,
    then of their squared deviations."""
    mean = float(values.sum()) / values.size
    spread = float(((values - mean) * (values - mean)).sum()) / (values.size - 1)
    return mean, math.sqrt(spread / values.size)


# N <= d draws the stars of a composition, N > d its bars
@pytest.mark.parametrize("copies", [2, 4])
def test_hot_loop_matches_public_operations_bitwise(copies):
    config = ExperimentConfig(dim=3, copies=copies, trials=64, master_seed=9, observable_source="diag(3,0,-3)")
    assert config.trials <= BLOCK  # one block, keyed by its first trial
    obs = load_observable("diag(3,0,-3)")
    row = run_experiment(config)
    p, counts = haar_counts(config.dim, config.copies, config.trials, derive_stream(config.master_seed, 0))
    # sum_i w_i p_i and sum_i w_i c_i, one outcome row at a time from the first
    w = obs.eigenvalues
    truths, value_sums = w[0] * p[0], w[0] * counts[0]
    for i in range(1, config.dim):
        truths = truths + w[i] * p[i]
        value_sums = value_sums + w[i] * counts[i]
    kernel_truths, kernel_sums = run_trials(config, obs)
    assert np.array_equal(kernel_truths, truths)
    assert np.array_equal(kernel_sums, value_sums)
    # a state with these eigenbasis probabilities has these expectation values
    for column, truth in zip(p.T, truths):
        assert abs(truth - expectation(PureState(obs.eigenvectors @ np.sqrt(column)), obs)) < 1e-14
    estimates = estimate_from_sums(config.estimator, value_sums, config.copies, obs)
    slow = (estimates - truths) ** 2
    mean, se = _mean_and_se(slow)
    assert row.empirical_mse == mean == float(slow.sum()) / config.trials
    assert row.standard_error == se


@pytest.mark.parametrize("d, copies", [(4, 8), (8, 64), (17, 8)])
def test_public_estimates_and_expectation_equal_the_harness_bit_for_bit(monkeypatch, d, copies):
    # one rule forms every eigenvalue sum: given a trial's counts, the public
    # estimators give the harness's estimates, and given its p, expectation
    # gives its truth
    rng = np.random.default_rng(d)
    obs = make_observable(np.diag(rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4, d)))
    config = ExperimentConfig(dim=d, copies=copies, trials=2000, master_seed=30)
    truths, sums = run_trials(config, obs)
    p, counts = haar_counts(d, copies, config.trials, derive_stream(config.master_seed, 0))
    for kind, estimate in (
        (EstimatorKind.OPTIMAL_PURE, estimate_optimal),
        (EstimatorKind.SAMPLE_AVERAGE, estimate_sample_average),
    ):
        assert [estimate(column, obs) for column in counts.T] == estimate_from_sums(kind, sums, copies, obs).tolist()
    # expectation reads a state only through its outcome distribution
    monkeypatch.setattr(hermitian, "outcome_distribution", lambda probabilities, observable: probabilities)
    assert [expectation(column, obs) for column in p.T] == truths.tolist()


@pytest.mark.parametrize("copies", [8, 64])
def test_a_one_trial_block_adds_its_rows_first_to_last(copies):
    # numpy would sum a lone (d, 1) column pairwise, which from d = 8 on
    # is another order than the rows of a wider block
    d = 8
    rng = np.random.default_rng(copies)
    obs = make_observable(np.diag(rng.standard_normal(d) * 10.0 ** rng.integers(-3, 4, d)))
    w = obs.eigenvalues.tolist()
    for seed in range(10):
        config = ExperimentConfig(dim=d, copies=copies, trials=BLOCK + 1, master_seed=seed)
        truths, sums = run_trials(config, obs)
        p, counts = haar_counts(d, copies, 1, derive_stream(seed, BLOCK))
        truth = value_sum = 0.0
        for i in range(d):
            truth += w[i] * float(p[i, 0])
            value_sum += w[i] * float(counts[i, 0])
        assert (truths[-1], sums[-1]) == (truth, value_sum)


@pytest.mark.parametrize(
    "matrix",
    [
        # off-diagonal, so the Bloch vector m of the top eigenvector is no axis
        [[0.3, 0.2 - 0.7j], [0.2 + 0.7j, -1.1]],
        # degenerate: the gap w0 - w1 is exactly 0
        [[2.0, 0.0], [0.0, 2.0]],
        [[-0.4, 0.0], [0.0, 1.5]],
    ],
    ids=["off-diagonal", "degenerate", "diagonal"],
)
def test_hot_loop_matches_public_operations_bloch(matrix):
    law = RadialLaw.uniform_ball()
    config = ExperimentConfig(
        dim=2, copies=1, trials=BLOCK, master_seed=10, estimator="optimal-mixed-qubit", ensemble=law
    )
    obs = make_observable(matrix)
    row = run_experiment(config, observable=obs)
    # block 0's stream: the components s first, then one outcome uniform per
    # trial.  On pauli-z each truth is s itself, bit for bit
    s, outcomes, pauli_z = np.empty(config.trials), np.empty(config.trials), load_observable("pauli-z")
    law.draw(pauli_z, 1, derive_stream(config.master_seed, 0), s, outcomes)
    law.finish(pauli_z, 1, s, outcomes, np.empty(config.trials))
    stream = derive_stream(config.master_seed, 0)
    stream.random(config.trials)
    law.sample_radius(stream, config.trials)
    top = stream.random(config.trials) < 0.5 * (1.0 + s)
    counts = np.stack([top, ~top], axis=1).astype(np.int64)
    truths, sums = run_trials(config, obs)
    assert np.array_equal(sums, counts @ obs.eigenvalues)
    if obs.eigenvalues[0] == obs.eigenvalues[1]:
        assert np.all(truths == 0.5 * obs.trace)
    # the state with Bloch vector s m is rho = (1 - s)/2 1 + s |v0><v0|, v0 the
    # top eigenvector: against it, state by state, the block's truth and top-outcome probability
    v0 = obs.eigenvectors[:, 0]
    for x, truth in zip(s, truths):
        rho = 0.5 * (1.0 - x) * np.eye(2) + x * np.outer(v0, v0.conj())
        assert abs(truth - np.trace(rho @ obs.matrix).real) < 1e-14
        assert abs(0.5 * (1.0 + x) - np.vdot(v0, rho @ v0).real) < 1e-15
    estimates = estimate_from_sums(config.estimator, sums, 1, obs, law.second_moment())
    slow = (estimates - truths) ** 2
    mean, se = _mean_and_se(slow)
    assert row.empirical_mse == mean == float(slow.sum()) / config.trials
    assert row.standard_error == se


def bloch_block_formula(law, obs, copies, stream, size):
    """A Bloch block's truths and sums in one pass over the block, from its own
    stream: all uniforms u, then all radii, then the outcome uniforms or counts."""
    w = obs.eigenvalues
    s = 2.0 * stream.random(size) - 1.0
    s *= law.sample_radius(stream, size)
    truths = 0.5 * (obs.trace + s * (w[0] - w[1]))
    p_top = 0.5 * (1.0 + s)
    if copies == 1:
        top = (stream.random(size) < p_top).view(np.int8)
    else:
        top = stream.binomial(copies, p_top)
    return truths, top * w[0] + (copies - top) * w[1]


BLOCH_LAWS = [
    RadialLaw.pure_surface(),
    RadialLaw.uniform_ball(),
    RadialLaw.fixed_radius(0.6),
    # s is a signed zero: every truth is 0.5 tr Omega
    RadialLaw.fixed_radius(0.0),
    RadialLaw.two_point(1.0, 0.6),
]


@pytest.mark.parametrize("copies", [1, 3, 2**53 + 1])
@pytest.mark.parametrize("law", BLOCH_LAWS, ids=lambda law: law.label())
def test_bloch_blocks_and_run_step_give_the_per_block_formula(law, copies):
    # blocks read the streams, the run step does the arithmetic once over all
    # 2 BLOCK + 3 trials; either way every truth and sum is the formula's, bit
    # for bit, and at N = 2**53 + 1 the counts and N - top stay exact int64
    config = ExperimentConfig(dim=2, copies=copies, trials=2 * BLOCK + 3, master_seed=40, ensemble=law)
    obs = make_observable([[0.3, 0.2 - 0.7j], [0.2 + 0.7j, -1.1]])
    blocks = [
        bloch_block_formula(law, obs, copies, derive_stream(40, k), min(BLOCK, config.trials - k))
        for k in range(0, config.trials, BLOCK)
    ]
    want = [np.concatenate(column).tobytes() for column in zip(*blocks)]
    assert [array.tobytes() for array in run_trials(config, obs)] == want
    assert [array.tobytes() for array in harness._draw(config, obs)] == want


@pytest.mark.parametrize("copies", [1, 5])
@pytest.mark.parametrize("law", [RadialLaw.uniform_ball(), RadialLaw.two_point(0.8, 0.5), RadialLaw.pure_surface()])
def test_bloch_sample_average_mse_law(law, copies):
    # given s, each copy shows the top eigenvalue with probability (1 + s)/2, so
    # the sample average's error is (w0 - w1)^2 (1 - s^2) / (4N), and E[s^2] = <n^2>/3
    obs = make_observable([[0.3, 0.2 - 0.7j], [0.2 + 0.7j, -1.1]])
    config = ExperimentConfig(
        dim=2, copies=copies, trials=400_000, master_seed=31, estimator="sample-average", ensemble=law
    )
    row = run_experiment(config, observable=obs)
    w0, w1 = obs.eigenvalues
    want = (w0 - w1) ** 2 * (1.0 - law.second_moment() / 3.0) / (4.0 * copies)
    assert abs(row.empirical_mse - want) < 4.0 * row.standard_error


def test_probe_bias_is_deterministic_at_top_eigenvector():
    config = ExperimentConfig(dim=3, copies=2, trials=500, master_seed=11, observable_source="diag(3,0,-3)")
    row = run_experiment(config)
    # probe outcomes always hit the top eigenvalue: mean is (tr + N w_0)/(N + d)
    assert abs(row.empirical_bias_at_probe - row.analytic_bias_at_probe) < 1e-12
    row_av = run_experiment(
        ExperimentConfig(
            dim=3,
            copies=2,
            trials=500,
            master_seed=11,
            estimator="sample-average",
            observable_source="diag(3,0,-3)",
        )
    )
    assert abs(row_av.empirical_bias_at_probe) < 1e-12
    assert row_av.analytic_bias_at_probe == 0.0


# odd trial counts off the block grid; at 25, 109 and 227 the mean of M equal
# estimates rounds away from the estimate itself for some of the cases
@pytest.mark.parametrize("trials", [1, 25, 109, 227, 3 * BLOCK + 1])
@pytest.mark.parametrize(
    "estimator, source, copies",
    [
        ("optimal-pure", "diag(3,0,-3)", 2),
        ("optimal-pure", "diag(0,-1)", 5),
        ("sample-average", "diag(1,0.5,-2,3)", 3),
        ("sample-average", "diag(0,-1)", 1),
        ("optimal-mixed-qubit", "pauli-z", 1),
        ("optimal-mixed-qubit", "diag(0,-1)", 1),
    ],
)
def test_probe_bias_is_the_exact_mean_of_m_equal_estimates(estimator, source, copies, trials):
    # at the top eigenvector all N outcomes are the top eigenvalue, so every
    # probe trial gives the estimate e of the count vector [N, 0, ..., 0]
    obs = load_observable(source)
    law = RadialLaw.uniform_ball() if estimator == "optimal-mixed-qubit" else "haar-pure"
    config = ExperimentConfig(
        dim=obs.dim,
        copies=copies,
        trials=trials,
        master_seed=trials,
        estimator=estimator,
        ensemble=law,
        observable_source=source,
    )
    counts = [copies] + [0] * (obs.dim - 1)
    e = {
        "optimal-pure": lambda: estimate_optimal(counts, obs),
        "sample-average": lambda: estimate_sample_average(counts, obs),
        "optimal-mixed-qubit": lambda: estimate_optimal_mixed_qubit(counts, obs, law.second_moment()),
    }[estimator]()
    # the probe's truth is its eigenvalue; for these diagonal observables the
    # expectation value <phi|Omega|phi> is that number exactly
    truth = float(expectation(PureState(obs.eigenvectors[:, 0]), obs))
    assert truth == obs.eigenvalues[0]
    want = math.fsum([e] * trials) / trials - truth
    got = run_experiment(config).empirical_bias_at_probe
    assert got == want
    assert repr(got) == repr(want)  # signed zeros too


def test_serial_run_keys_only_the_ensemble_blocks(monkeypatch):
    keys = []
    real = sampling._start_state
    monkeypatch.setattr(sampling, "_start_state", lambda seed, k: keys.append(k) or real(seed, k))
    trials = 3 * BLOCK + 5
    run_experiment(ExperimentConfig(dim=2, copies=3, trials=trials, master_seed=30))
    assert keys == [0, BLOCK, 2 * BLOCK, 3 * BLOCK]


def test_mse_statistically_consistent():
    config = ExperimentConfig(dim=2, copies=1, trials=200_000, master_seed=12)
    row = run_experiment(config)
    assert abs(row.empirical_mse - row.analytic_mse) < 4 * row.standard_error


def test_runs_are_reproducible():
    config = ExperimentConfig(dim=2, copies=2, trials=3000, master_seed=13)
    a = fresh(config)
    b = fresh(config)
    assert a.empirical_mse == b.empirical_mse
    assert a.standard_error == b.standard_error
    assert a.empirical_bias_at_probe == b.empirical_bias_at_probe


def test_worker_count_does_not_change_results():
    base = ExperimentConfig(dim=2, copies=2, trials=4000, master_seed=14)
    serial = run_experiment(base)
    parallel = run_experiment(replace(base, workers=2))
    assert serial.empirical_mse == parallel.empirical_mse
    assert serial.standard_error == parallel.standard_error
    assert serial.empirical_bias_at_probe == parallel.empirical_bias_at_probe


@pytest.mark.parametrize("trials", [101, 3 * BLOCK + 1])
def test_worker_chunking_matches_serial(trials):
    config = ExperimentConfig(dim=2, copies=1, trials=trials, master_seed=15)
    serial = rows_to_csv([run_experiment(config)])
    assert rows_to_csv([run_experiment(replace(config, workers=3))]) == serial


def test_many_block_reduce_is_the_rule_at_every_worker_count():
    # 3 BLOCK + 5 squared errors reach past numpy's 8192-value buffer; one
    # thread sums the whole array, so the worker split never reaches the row
    obs = load_observable("diag(1,-2)")
    config = ExperimentConfig(dim=2, copies=3, trials=3 * BLOCK + 5, master_seed=47, observable_source="diag(1,-2)")
    texts = []
    for workers in (1, 2, 3):
        run = replace(config, workers=workers)
        row = fresh(run, obs)
        truths, sums = harness._draw(run, obs)
        errors = (estimate_from_sums(config.estimator, sums, config.copies, obs) - truths) ** 2
        assert (row.empirical_mse, row.standard_error) == _mean_and_se(errors)
        texts.append(_text(row))
    assert texts == texts[:1] * 3


@pytest.mark.parametrize("n", [5, 129, 4097, 20_000, 1, 8, 128, 8193, 65_537])
def test_numpy_sum_does_not_depend_on_the_arrays_alignment(n):
    # the premise of one fixed reduce order: numpy's sum takes no alignment
    # peel, so where the errors array sits in memory changes no bit
    rng = np.random.default_rng(n)
    values = np.ldexp(rng.random(n), rng.integers(-40, 40, n))
    raw = np.empty(8 * n + 128, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    sums = set()
    for offset in range(0, 64, 8):
        view = raw[start + offset : start + offset + 8 * n].view(np.float64)
        assert view.ctypes.data % 64 == offset
        view[...] = values
        sums.add(float(np.add.reduce(view)).hex())
    assert len(sums) == 1


# --- worker threads ---

@pytest.mark.parametrize("ensemble", ["haar-pure", RadialLaw.uniform_ball()])
def test_many_workers_start_no_process_and_give_the_serial_row(monkeypatch, ensemble):
    # 64 workers over 3 blocks take min(64, 3, CPUs) = 2 threads; a Bloch run
    # draws in the calling thread.  The output is that of one worker
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    made = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda n: made.append(n) or ThreadPoolExecutor(n))
    config = ExperimentConfig(dim=2, copies=1, trials=3 * BLOCK, master_seed=21, workers=64, ensemble=ensemble)
    text = rows_to_csv([run_experiment(config)])
    assert made == ([2] if config.ensemble.threaded else [])
    assert multiprocessing.active_children() == []
    assert text == rows_to_csv([run_experiment(replace(config, workers=1))])


@pytest.mark.parametrize("cpus, blocks", [(2, 1), (1, 3)])
def test_one_block_or_one_cpu_draws_in_the_calling_thread(monkeypatch, cpus, blocks):
    # a run takes min(workers, blocks, CPUs) threads, so one block or one CPU
    # makes no thread pool, however many workers are asked for
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    made = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", lambda n: made.append(n) or ThreadPoolExecutor(n))
    config = ExperimentConfig(dim=2, copies=1, trials=(blocks - 1) * BLOCK + 10, master_seed=23, workers=10**6)
    text = rows_to_csv([run_experiment(config)])
    assert made == []
    assert text == rows_to_csv([run_experiment(replace(config, workers=1))])


def test_threads_sharing_runs_get_serial_output(monkeypatch):
    # a pretend third CPU lets the runs' 2- and 3-worker draws run on
    # executors of two sizes at once; every run's thread pool is its own.
    # Each run has its own seed, so each draws afresh rather than finding
    # another's draw in the memo
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    laws = ("haar-pure", RadialLaw.uniform_ball())
    configs = [
        ExperimentConfig(
            dim=2, copies=1, trials=2 * BLOCK + 1, master_seed=22 + k, workers=2 + k % 2, ensemble=laws[k // 3 % 2]
        )
        for k in range(6)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(configs)) as threads:
            futures = [threads.submit(run_experiment, config) for config in configs]
            rows = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert multiprocessing.active_children() == []
    for config, row in zip(configs, rows):
        assert rows_to_csv([row]) == rows_to_csv([run_experiment(replace(config, workers=1))])


def _alone(config):
    """The CSV row of ``config`` drawn in a fresh thread, whose kept scratch
    buffers start empty, with the draw memo emptied first."""
    with ThreadPoolExecutor(1) as thread:
        return thread.submit(lambda: rows_to_csv([fresh(config)])).result(timeout=120)


@pytest.mark.parametrize("workers", [1, 2])
def test_interleaved_runs_give_the_rows_of_each_run_alone(workers):
    # each drawing thread keeps its scratch buffers from run to run, sized by
    # the largest draw so far: runs at other (d, N) in between, the stars
    # side at (8, 8) and (4, 1) and the bars side at (8, 64), leave no trace
    # in a row; 10 000 trials are two full blocks and a short one
    eight, four = "diag(4,3,2,1,0,-1,-2,-3)", "diag(3,1,0,-2)"
    configs = [
        ExperimentConfig(dim=d, copies=n, trials=10_000, master_seed=31, observable_source=source, workers=workers)
        for d, n, source in ((8, 8, eight), (8, 64, eight), (4, 1, four))
    ]
    want = {config: _alone(config) for config in configs}
    for config in configs + configs[::-1] + configs:
        harness._last_draw = None
        assert rows_to_csv([run_experiment(config)]) == want[config]


def test_observable_dimension_mismatch_rejected():
    config = ExperimentConfig(dim=3, copies=1, trials=10, master_seed=0)  # pauli-z is d=2
    with pytest.raises(ConfigError, match="dim"):
        run_experiment(config)


# --- stream cache ---

def fresh_stream_draw(config, obs):
    """``config``'s truths and sums with a stream freshly derived for every block."""
    truths, sums = np.empty(config.trials), np.empty(config.trials)
    for k in range(0, config.trials, BLOCK):
        block = slice(k, k + BLOCK)
        config.ensemble.draw(obs, config.copies, derive_stream(config.master_seed, k), truths[block], sums[block])
    config.ensemble.finish(obs, config.copies, truths, sums, np.empty(config.trials))
    return truths, sums


@pytest.mark.parametrize("blocks", [3, sampling.STREAM_STATES + 3], ids=["within-bound", "past-bound"])
@pytest.mark.parametrize(
    "ensemble, workers",
    [(HAAR_PURE, 1), (HAAR_PURE, 2), (RadialLaw.fixed_radius(0.6), 1)],
    ids=["haar-1-worker", "haar-2-workers", "bloch"],
)
def test_cached_start_states_draw_what_fresh_streams_draw(ensemble, workers, blocks):
    # a cold cache derives every block's start state, a warm one restores them
    # all; past the bound each least recently used state is evicted before its
    # key comes round again, so the second run derives every one anew
    config = ExperimentConfig(
        dim=2, copies=1, trials=(blocks - 1) * BLOCK + 5, master_seed=41, ensemble=ensemble, workers=workers
    )
    obs = load_observable("diag(1,0.5)")
    want = [array.tobytes() for array in fresh_stream_draw(config, obs)]
    cache = sampling._start_state
    cache.cache_clear()
    for derived in (blocks, 0 if blocks <= sampling.STREAM_STATES else blocks):
        harness._last_draw = None
        before = cache.cache_info()
        assert [array.tobytes() for array in harness._draw(config, obs)] == want
        after = cache.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (derived, blocks - derived)
    assert cache.cache_info().currsize == min(blocks, sampling.STREAM_STATES)


def test_a_draw_leaves_the_cached_start_states_as_they_were():
    keys = [(42, k) for k in range(0, 3 * BLOCK, BLOCK)]
    states = [sampling._start_state(*key) for key in keys]
    before = [repr(state) for state in states]
    assert not any(state["state"]["state"].flags.writeable for state in states)
    for ensemble in (HAAR_PURE, RadialLaw.uniform_ball(), RadialLaw.two_point(1.0, 0.6)):
        fresh(ExperimentConfig(dim=2, copies=3, trials=3 * BLOCK, master_seed=42, ensemble=ensemble))
    assert [repr(sampling._start_state(*key)) for key in keys] == before
    assert all(sampling._start_state(*key) is state for key, state in zip(keys, states))


def test_a_kept_stream_restarts_where_its_key_starts():
    # the thread's one generator, part-way through another key's stream
    stream = sampling.keyed_stream(43, 0)
    stream.random(5)
    # an odd number of 32-bit draws leaves half an output buffered
    stream.integers(0, 2**32, size=3, dtype=np.uint32)
    assert sampling.keyed_stream(43 + 2**64, -1) is stream
    assert np.array_equal(stream.random(9), derive_stream(43, 2**64 - 1).random(9))


# --- sweep ---

def test_sweep_grid_and_ratio():
    base = ExperimentConfig(dim=2, copies=1, trials=50_000, master_seed=16)
    rows = run_sweep(base, copies_values=[1, 2, 4, 8])
    assert len(rows) == 8
    by_cell = {}
    for row in rows:
        by_cell.setdefault(row.config.copies, {})[row.config.estimator] = row
    for n, cell in by_cell.items():
        opt = cell[EstimatorKind.OPTIMAL_PURE]
        av = cell[EstimatorKind.SAMPLE_AVERAGE]
        ratio = av.empirical_mse / opt.empirical_mse
        want = (n + 2) / n
        sigma = ratio * math.sqrt(
            (av.standard_error / av.empirical_mse) ** 2
            + (opt.standard_error / opt.empirical_mse) ** 2
        )
        assert abs(ratio - want) < 3 * sigma + 1e-12


@pytest.mark.parametrize("estimator", ["optimal-pure", "optimal-mixed-qubit"])
def test_sweep_rejects_a_bloch_base(estimator):
    # a sweep runs the two Haar pure-state estimators; it must not quietly
    # replace the base's Bloch ensemble by the Haar one
    base = ExperimentConfig(trials=10, estimator=estimator, ensemble=RadialLaw.uniform_ball())
    with pytest.raises(ConfigError, match="names a Bloch ensemble"):
        run_sweep(base, copies_values=[1])


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rows_equal_separate_runs(workers):
    # a sweep draws each cell once for both estimators; the rows must be those
    # of one run per estimator on a fresh draw, apart from the wall time
    base = ExperimentConfig(
        dim=3, trials=2 * BLOCK + 7, master_seed=31, observable_source="diag(1,0.5,-2)", workers=workers
    )
    rows = run_sweep(base, copies_values=[4, 1])
    separate = [
        fresh(replace(base, copies=n, estimator=kind))
        for n in (1, 4)
        for kind in (EstimatorKind.OPTIMAL_PURE, EstimatorKind.SAMPLE_AVERAGE)
    ]
    assert len(rows) == len(separate) == 4
    for row, other in zip(rows, separate):
        assert row.wall_time > 0.0
        assert replace(row, wall_time=0.0) == replace(other, wall_time=0.0)


def test_sweep_analytic_ratio_corners():
    base = ExperimentConfig(dim=4, copies=4, trials=50, master_seed=18, observable_source="diag(1,2,3,4)")
    (opt_row, av_row) = run_sweep(base, copies_values=[4])
    assert opt_row.analytic_mse / av_row.analytic_mse == pytest.approx(0.5, rel=1e-14)
    base8 = ExperimentConfig(
        dim=8, copies=1, trials=50, master_seed=18, observable_source="diag(1,2,3,4,5,6,7,8)"
    )
    (opt_row, av_row) = run_sweep(base8, copies_values=[1])
    assert opt_row.analytic_mse / av_row.analytic_mse == pytest.approx(1 / 9, rel=1e-14)


@pytest.mark.parametrize("copies", [[1.9], [True], [1, True], [np.float64(2.0)]])
def test_sweep_rejects_non_integer_copies(copies):
    base = ExperimentConfig(trials=10, master_seed=19)
    with pytest.raises(ConfigError, match="must be an integer"):
        run_sweep(base, copies_values=copies)


# a sweep's d is its base config's, so the config is what rejects a bad one
@pytest.mark.parametrize("dim", [2.7, True, np.True_, "3"])
def test_sweep_base_rejects_a_non_integer_dim(dim):
    with pytest.raises(ConfigError, match="dim must be an integer"):
        ExperimentConfig(trials=10, master_seed=19, dim=dim)


def test_sweep_takes_numpy_integers():
    base = ExperimentConfig(dim=3, trials=10, master_seed=19, observable_source="diag(1,0.5,-2)")
    rows = run_sweep(base, copies_values=[np.int64(4), 1])
    assert [(row.config.dim, row.config.copies) for row in rows] == [(3, 1), (3, 1), (3, 4), (3, 4)]
    assert all(type(row.config.copies) is int for row in rows)
    assert rows_to_csv(rows) == rows_to_csv(run_sweep(base, copies_values=[4, 1]))


@pytest.mark.parametrize("source, d, dim", [("pauli-z", 2, 3), ("diag(1,0.5,-2)", 3, 2)])
def test_sweep_rejects_an_observable_of_another_d_before_any_block(monkeypatch, capsys, source, d, dim):
    def no_block(config, obs, truths, sums, k):
        raise AssertionError(f"a block was drawn at d={config.dim}")

    monkeypatch.setattr(harness, "_draw_block", no_block)
    message = f"observable has d={d} but config says dim={dim}"
    with pytest.raises(ConfigError, match=message):
        run_sweep(ExperimentConfig(dim=dim, trials=10, observable_source=source), copies_values=[1, 8])
    argv = ["sweep", "--observable", source, "--dim", str(dim), "--copies", "1,8", "--trials", "10"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"optev: error: {message}\n"


# --- draw memo ---

@pytest.fixture
def draws(monkeypatch):
    """One entry per run that drew, which only a memo miss makes: whether the
    memo was empty during every ``_draw_block`` call of that draw.  A draw's
    blocks, on whatever threads, share its truths array."""
    calls, arrays = [], []
    lock = threading.Lock()
    real = harness._draw_block

    def spy(config, obs, truths, sums, k):
        empty = harness._last_draw is None
        with lock:
            i = next((i for i, array in enumerate(arrays) if array is truths), len(arrays))
            if i == len(arrays):
                arrays.append(truths)
                calls.append(True)
            calls[i] = calls[i] and empty
        real(config, obs, truths, sums, k)

    monkeypatch.setattr(harness, "_draw_block", spy)
    return calls


def _text(row):
    return rows_to_csv([row])


def test_second_estimator_on_the_same_draw_inputs_draws_once(draws):
    config = ExperimentConfig(dim=3, copies=4, trials=BLOCK + 5, master_seed=40, observable_source="diag(1,0.5,-2)")
    average = replace(config, estimator="sample-average")
    rows = [run_experiment(config), run_experiment(average)]
    # the miss drops the old entry before it draws, so memory never holds two draws
    assert draws == [True]
    assert [_text(row) for row in rows] == [_text(fresh(config)), _text(fresh(average))]


def test_sweep_draws_each_cell_once(draws):
    base = ExperimentConfig(dim=3, trials=10, master_seed=19, observable_source="diag(1,0.5,-2)")
    rows = run_sweep(base, copies_values=[1, 2, 4])
    assert len(rows) == 6 and len(draws) == 3


HAAR = ExperimentConfig(dim=2, copies=2, trials=50, master_seed=41)
BLOCH = replace(HAAR, ensemble=RadialLaw.uniform_ball())


# each change touches one key field
@pytest.mark.parametrize(
    "base, change",
    [
        (HAAR, {"master_seed": 42}),
        (HAAR, {"copies": 3}),
        (HAAR, {"trials": 51}),
        (HAAR, {"observable_source": "diag(1,-2)"}),
        (HAAR, {"dim": 3, "observable_source": "diag(1,0,-1)"}),
        (HAAR, {"ensemble": RadialLaw.uniform_ball()}),
        (BLOCH, {"ensemble": RadialLaw.pure_surface()}),
        (BLOCH, {"master_seed": 42}),
        (BLOCH, {"copies": 3}),
        (BLOCH, {"trials": 51}),
    ],
)
def test_a_changed_draw_input_draws_again(draws, base, change):
    changed = replace(base, **change)
    run_experiment(base)
    row = run_experiment(changed)
    assert draws == [True, True]
    assert _text(row) == _text(fresh(changed))


def test_bloch_key_tells_apart_rotations_with_equal_eigenvalues(draws):
    # the two observables' eigenvalues, so their gap w0 - w1, are equal bit
    # for bit, and tr Omega, as the draw computes it, differs in its last bit
    a = make_observable([[0.0, 0.6 + 0.1j], [0.6 - 0.1j, -0.2]])
    b = make_observable([[0.1, 0.5 + 0.3j], [0.5 - 0.3j, -0.3]])
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.trace != b.trace and math.nextafter(a.trace, b.trace) == b.trace
    config = replace(BLOCH, copies=1, trials=BLOCK + 3, estimator="optimal-mixed-qubit")
    run_experiment(config, observable=a)
    a_truths = harness._last_draw[1][0]
    row = run_experiment(config, observable=b)
    assert draws == [True, True]
    truths, sums = harness._last_draw[1]
    fresh_truths, fresh_sums = run_trials(config, b)
    assert truths.tobytes() == fresh_truths.tobytes() and sums.tobytes() == fresh_sums.tobytes()
    # each truth 0.5 (tr Omega + s (w0 - w1)) reads the trace, so a's draw is not b's
    assert truths.tobytes() != a_truths.tobytes()
    assert _text(row) == _text(fresh(config, b))


def test_rotations_with_equal_eigenvalues_and_trace_share_a_draw(draws):
    # a Bloch draw reads the observable only through its eigenvalues and
    # tr Omega, equal bit for bit here, so the rotated observable reuses it
    a = make_observable([[0.1, 0.0], [0.0, -0.1]])
    b = make_observable([[0.0, 0.1], [0.1, 0.0]])
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.trace.hex() == b.trace.hex()
    config = replace(BLOCH, copies=1, trials=BLOCK + 3, estimator="optimal-mixed-qubit")
    run_experiment(config, observable=a)
    truths, sums = harness._last_draw[1]
    row = run_experiment(config, observable=b)
    assert draws == [True]
    assert all(now is then for now, then in zip(harness._last_draw[1], (truths, sums)))
    fresh_truths, fresh_sums = run_trials(config, b)
    assert truths.tobytes() == fresh_truths.tobytes() and sums.tobytes() == fresh_sums.tobytes()
    assert _text(row) == _text(fresh(config, b))


@pytest.mark.parametrize("ensemble", ["haar-pure", RadialLaw.uniform_ball()])
def test_worker_count_is_in_the_key(draws, ensemble):
    # so a run on other workers is a fresh draw, and comparing the two rows
    # compares two draws
    config = ExperimentConfig(
        dim=2, copies=2, trials=3 * BLOCK, master_seed=44, observable_source="diag(1,-2)", ensemble=ensemble
    )
    serial = run_experiment(config)
    threaded = run_experiment(replace(config, workers=2))
    assert draws == [True, True]
    assert _text(threaded) == _text(serial)


@pytest.mark.parametrize("ensemble", ["haar-pure", RadialLaw.uniform_ball()])
def test_reductions_leave_the_kept_draw_unchanged(draws, ensemble):
    # each run reduces its errors in place; none may write through to the
    # kept truths and sums that the next run on the key reads
    config = ExperimentConfig(
        dim=2, copies=3, trials=BLOCK + 9, master_seed=46, observable_source="diag(1,-2)", ensemble=ensemble
    )
    average = replace(config, estimator="sample-average")
    first = run_experiment(config)
    truths, sums = harness._last_draw[1]
    kept = truths.tobytes(), sums.tobytes()
    rows = [first, run_experiment(average), run_experiment(config)]
    assert draws == [True]
    assert all(now is then for now, then in zip(harness._last_draw[1], (truths, sums)))
    assert (truths.tobytes(), sums.tobytes()) == kept
    fresh_truths, fresh_sums = run_trials(config, load_observable("diag(1,-2)"))
    assert (fresh_truths.tobytes(), fresh_sums.tobytes()) == kept
    assert [_text(row) for row in rows] == [_text(fresh(config)), _text(fresh(average)), _text(fresh(config))]


def test_memo_arrays_are_read_only():
    config = ExperimentConfig(trials=20, master_seed=45)
    truths, sums = harness._draw(config, load_observable("pauli-z"))
    assert all(kept is drawn for kept, drawn in zip(harness._last_draw[1], (truths, sums)))
    for array in (truths, sums):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


# --- CSV ---

def test_csv_columns_and_blank_fields():
    config = ExperimentConfig(dim=2, copies=1, trials=200, master_seed=17)
    row = run_experiment(config)
    text = rows_to_csv([row])
    header, line = text.splitlines()
    assert header == ",".join(CSV_COLUMNS)
    cells = line.split(",")
    assert cells[CSV_COLUMNS.index("n2")] == ""  # haar-pure has no n2
    assert cells[CSV_COLUMNS.index("wall_time_s")] == ""  # deterministic by default
    assert float(cells[CSV_COLUMNS.index("empirical_mse")]) == row.empirical_mse
    timed = rows_to_csv([row], include_timing=True).splitlines()[1].split(",")
    assert float(timed[CSV_COLUMNS.index("wall_time_s")]) > 0.0


# --- CLI ---

def test_cli_analytic_headline_numbers(capsys):
    code = main(["analytic", "--observable", "pauli-z", "--dim", "2", "--copies", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["omega_opt_by_outcome"][0] == 1 / 3
    assert report["delta_opt"] == 2 / 9
    assert report["delta_av"] == 2 / 3


def test_cli_analytic_mixed_section(capsys):
    code = main(["analytic", "--observable", "pauli-z", "--n2", "0.6", "--copies", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["delta_mixed"] == pytest.approx(0.16, abs=1e-12)
    assert report["omega_mixed_by_outcome"][0] == pytest.approx(0.2, abs=1e-12)


def test_cli_analytic_reports_the_configs_ensemble(capsys):
    # a Bloch law's errors and second moment, not Haar's; (N + d)/N is Haar's alone
    code = main(["analytic", "--observable", "pauli-z", "--n2", "0.6", "--copies", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    obs, law = load_observable("pauli-z"), RadialLaw.fixed_radius(math.sqrt(0.6))
    row = fresh(ExperimentConfig(copies=3, trials=20, ensemble=law))
    assert report["ensemble"] == law.label() == "bloch(fixed-radius(r=0.7745966692414834))"
    assert report["delta_opt"] == row.analytic_mse == pytest.approx(0.128, rel=1e-14)
    assert report["delta_av"] == analytic_mse(EstimatorKind.SAMPLE_AVERAGE, obs, 3, law.second_moment())
    assert report["second_moment"] == pytest.approx(0.2, rel=1e-14)
    assert "ratio_av_over_opt" not in report
    assert main(["analytic", "--observable", "pauli-z", "--copies", "3"]) == 0
    haar = json.loads(capsys.readouterr().out)
    assert haar["ensemble"] == "haar-pure" and haar["ratio_av_over_opt"] == 5 / 3
    assert haar["delta_opt"] == analytic_delta_opt(obs, 3) and haar["second_moment"] == 1 / 3


@pytest.mark.parametrize("copies", [1, 3])
def test_cli_analytic_reports_the_mixed_estimator_only_at_one_copy(capsys, copies):
    # the mixed-qubit estimator is defined at N = 1 only
    code = main(["analytic", "--observable", "pauli-z", "--n2", "0.5", "--copies", str(copies)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n2"] == pytest.approx(0.5, abs=1e-15)
    mixed = {"delta_mixed", "omega_mixed_by_outcome"}
    assert mixed <= report.keys() if copies == 1 else not mixed & report.keys()


def test_cli_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = main(
        [
            "simulate",
            "--observable",
            "pauli-z",
            "--trials",
            "500",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2


def test_cli_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--observable",
            "pauli-z",
            "--dim",
            "2",
            "--copies",
            "1,2",
            "--trials",
            "300",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 4


def test_cli_verify_fast(tmp_path):
    out = tmp_path / "verify.jsonl"
    code = main(["verify", "--level", "fast", "--seed", "0", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) >= 8
    assert all(json.loads(line)["pass"] for line in lines)


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    from optev import cli
    from optev.verify import CheckReport

    failing = CheckReport(
        check="idempotence", params={"d": 2, "n": 2}, max_deviation=1.0, tolerance=1e-12, passed=False
    )
    monkeypatch.setattr(cli, "run_verify", lambda level, seed: [failing])
    assert main(["verify", "--level", "fast"]) == 2


def test_cli_config_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing)]) == 1
    assert main(["analytic", "--observable", "pauli-q"]) == 1


# argv starts with the subcommand
@pytest.mark.parametrize(
    "argv, config",
    [
        (["simulate", "--observable", "diag(nan,1)"], None),
        (["simulate", "--observable", "diag(inf,1)"], None),
        (["simulate", "--observable", "diag(1)"], None),
        (["simulate", "--seed", "-1"], None),
        (["simulate", "--seed", str(2**64)], None),
        (["simulate"], {"master_seed": 1.5}),
        (["simulate"], {"master_seed": True}),
        (["verify", "--seed", "-1"], None),
        (["verify", "--seed", str(2**64)], None),
        (["simulate"], {"trials": 1000.0}),
        (["simulate"], {"dim": 2.0}),
        (["simulate"], {"workers": 2.0}),
        (["simulate"], {"copies": 2.5}),
        (["analytic", "--observable", "diag(1e200,1e200)"], None),
        (["simulate", "--observable", "diag(1e200,1e200)"], None),
        (["simulate", "--observable", "diag(1e170,-1e170)"], None),
        (["sweep"], {"estimator": "optimal-mixed-qubit", "ensemble": {"bloch": {"kind": "uniform-ball"}}}),
        (["simulate"], b"\x80\x81\xff"),
        (["verify"], b"\x80\x81\xff"),
        (["simulate"], {"ensemble": {"bloch": {"kind": "fixed-radius", "radius": None}}}),
        (["simulate"], {"ensemble": {"bloch": {"kind": "two-point", "radius": 0.5, "weight": [1]}}}),
        (["simulate"], {"ensemble": {"bloch": {"kind": "pure-surface", "radius": 0.5}}}),
        (["simulate"], {"ensemble": {"bloch": {"kind": "fixed-radius", "radius": 0.5, "weight": 0.5}}}),
        (["simulate", "--copies", str(2**63)], None),
        (["sweep", "--dim", ""], None),
        # a sweep runs at one d
        (["sweep", "--dim", "2,3"], None),
        (["sweep", "--dim", "2.7"], None),
        (["simulate", "--copies", "2.5"], None),
        (["sweep", "--copies", ""], None),
        # d = 10^8 asks for a 71 PiB matrix, far past the 128 TiB of address space
        # 64-bit Linux maps for a process by default, so the allocation fails at
        # once even under overcommit; a smaller d could really allocate
        (["analytic", "--observable", "identity", "--dim", str(10**8)], None),
    ],
)
def test_cli_bad_input_is_one_line_error(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
        argv = argv + ["--config", str(path)]
    if argv[0] in ("simulate", "sweep"):
        argv = argv + ["--trials", "10"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("optev: error: ")
    assert captured.err.count("\n") == 1
    if argv[1:3] in (["--dim", "2.7"], ["--copies", "2.5"]):
        assert captured.err == f"optev: error: {argv[1]} expects a single integer, got '{argv[2]}'\n"


def _run_script(args, script, **options):
    """Run a Python script in a fresh interpreter that imports this optev."""
    src = str(Path(optev.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], input=script, capture_output=True, text=True, timeout=120, env=env, **options
    )


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))


@pytest.mark.parametrize(
    "trials, flags",
    [
        (10**11, []),
        (10**11, ["--n2", "0.6", "--estimator", "optimal-mixed-qubit"]),
        # past numpy's largest array (2**63 bytes), which numpy itself would refuse with ValueError
        (2**60, []),
        (2**64 - 1, []),
    ],
    ids=["haar", "bloch", "past-numpy-size", "past-numpy-index"],
)
def test_cli_trial_count_past_memory_fails_at_once(trials, flags):
    # 10^11 trials need 1.6 TB of truths and sums, allocated before the first
    # block, so under a 2 GiB address space the run fails before it draws
    started = time.monotonic()
    done = _run_script(
        ["-m", "optev.cli", "simulate", "--trials", str(trials), *flags], None, preexec_fn=_limit_address_space
    )
    assert time.monotonic() - started < 10
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("optev: error: out of memory"), done.stderr


def test_unguarded_worker_script_runs():
    # no worker re-imports the calling script, so a script read from stdin,
    # with no if __name__ == "__main__" guard, runs at any worker count
    script = textwrap.dedent(
        """
        import sys
        from optev.cli import main
        sys.exit(main(["simulate", "--trials", "10", "--workers", "2"]))
        """
    )
    done = _run_script(["-"], script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(done.stdout.splitlines()) == 2


def test_cli_usage_error_exit_code(capsys):
    # each command takes only the flags it reads; any other is a usage error
    ignored = [
        "analytic --trials 5 --workers 3 --timing --estimator sample-average --seed 4".split(),
        "sweep --dim 2 --copies 1 --trials 10 --estimator sample-average --n2 0.3".split(),
    ]
    ignored += [["analytic", *flag] for flag in (["--trials", "5"], ["--workers", "3"], ["--timing"])]
    ignored += [["analytic", "--estimator", "sample-average"], ["analytic", "--seed", "4"]]
    ignored += [["sweep", "--estimator", "sample-average"], ["sweep", "--n2", "0.3"]]
    for argv in [["simulate", "--estimator", "bogus"], ["verify", "--trials", "5"], *ignored]:
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert ": error: " in capsys.readouterr().err.splitlines()[-1]


def test_cli_config_file_with_overrides(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"dim": 2, "copies": 1, "trials": 100, "master_seed": 5})
    )
    code = main(["analytic", "--config", str(config_path), "--copies", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["copies"] == 2
