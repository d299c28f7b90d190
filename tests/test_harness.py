"""Tests for harness.py and cli.py: configs, runner, CSV, determinism."""

import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from multiprocessing.connection import wait
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
    mixed_qubit_expectation,
    mixed_qubit_outcome_distribution,
    observable_to_json,
    rows_to_csv,
    run_experiment,
)
from optev import harness
from optev.cli import main
from optev.estimators import draw_counts, estimate_from_sums
from optev.harness import BLOCK, CSV_COLUMNS, _run_trials, load_config, run_sweep
from optev.sampling import sample_bloch_components, sample_haar_counts


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
    assert again.n2 == pytest.approx(0.6)


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
    p, counts = sample_haar_counts(d, config.copies, config.trials, derive_stream(config.master_seed, 0))
    assert (counts >= 0).all() and (counts.sum(axis=1) == config.copies).all()
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


def test_no_closed_form_leaves_analytic_empty():
    config = ExperimentConfig(
        dim=2,
        copies=1,
        trials=50,
        master_seed=2,
        estimator="sample-average",
        ensemble=RadialLaw.uniform_ball(),
    )
    row = run_experiment(config)
    assert row.analytic_mse is None
    line = rows_to_csv([row]).splitlines()[1]
    assert line.split(",")[CSV_COLUMNS.index("analytic_mse")] == ""


def _mean_and_se(values):
    mean = math.fsum(values) / len(values)
    spread = math.fsum([(v - mean) * (v - mean) for v in values]) / (len(values) - 1)
    return mean, math.sqrt(spread / len(values))


# N <= d draws the stars of a composition, N > d its bars
@pytest.mark.parametrize("copies", [2, 4])
def test_hot_loop_matches_public_operations_bitwise(copies):
    config = ExperimentConfig(dim=3, copies=copies, trials=64, master_seed=9, observable_source="diag(3,0,-3)")
    assert config.trials <= BLOCK  # one block, keyed by its first trial
    obs = load_observable("diag(3,0,-3)")
    row = run_experiment(config)
    p, counts = sample_haar_counts(config.dim, config.copies, config.trials, derive_stream(config.master_seed, 0))
    truths = p @ obs.eigenvalues
    kernel_truths, kernel_sums = _run_trials(config, obs, 0, config.trials)
    assert np.array_equal(kernel_truths, truths)
    assert np.array_equal(kernel_sums, counts @ obs.eigenvalues)
    # a state with these eigenbasis probabilities has these expectation values
    for row_p, truth in zip(p, truths):
        assert abs(truth - expectation(PureState(obs.eigenvectors @ np.sqrt(row_p)), obs)) < 1e-14
    estimates = estimate_from_sums(config.estimator, counts @ obs.eigenvalues, config.copies, obs)
    slow = list((estimates - truths) ** 2)
    mean, se = _mean_and_se(slow)
    assert row.empirical_mse == mean == math.fsum(slow) / config.trials
    assert row.standard_error == se


def test_hot_loop_matches_public_operations_bloch():
    law = RadialLaw.uniform_ball()
    config = ExperimentConfig(
        dim=2, copies=1, trials=BLOCK, master_seed=10, estimator="optimal-mixed-qubit", ensemble=law
    )
    # off-diagonal, so the Bloch vector m of the top eigenvector is no axis
    obs = make_observable([[0.3, 0.2 - 0.7j], [0.2 + 0.7j, -1.1]])
    row = run_experiment(config, observable=obs)
    stream = derive_stream(config.master_seed, 0)
    bloch = sample_bloch_components(law, config.trials, stream)[:, None] * obs.top_bloch_vector
    truths = mixed_qubit_expectation(bloch, obs)
    kernel_truths, _ = _run_trials(config, obs, 0, config.trials)
    assert np.array_equal(kernel_truths, truths)
    # against the density-matrix oracle rho = (1 + n.sigma)/2, state by state
    pauli = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.array([[1, 0], [0, -1]]))
    for n, truth in zip(bloch, truths):
        rho = (np.eye(2) + sum(x * sigma for x, sigma in zip(n, pauli))) / 2
        assert abs(truth - np.trace(rho @ obs.matrix).real) < 1e-14
    counts = draw_counts(mixed_qubit_outcome_distribution(bloch, obs), 1, stream)
    estimates = estimate_from_sums(config.estimator, counts @ obs.eigenvalues, 1, obs, law.second_moment())
    slow = list((estimates - truths) ** 2)
    mean, se = _mean_and_se(slow)
    assert row.empirical_mse == mean == math.fsum(slow) / config.trials
    assert row.standard_error == se


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
    want = math.fsum([e] * trials) / trials - expectation(PureState(obs.eigenvectors[:, 0]), obs)
    got = run_experiment(config).empirical_bias_at_probe
    assert got == want
    assert repr(got) == repr(want)  # signed zeros too


def test_serial_run_keys_only_the_ensemble_blocks(monkeypatch):
    keys = []
    real = harness.derive_stream
    monkeypatch.setattr(harness, "derive_stream", lambda seed, k: keys.append(k) or real(seed, k))
    trials = 3 * BLOCK + 5
    run_experiment(ExperimentConfig(dim=2, copies=3, trials=trials, master_seed=30))
    assert keys == [0, BLOCK, 2 * BLOCK, 3 * BLOCK]


def test_mse_statistically_consistent():
    config = ExperimentConfig(dim=2, copies=1, trials=200_000, master_seed=12)
    row = run_experiment(config)
    assert abs(row.empirical_mse - row.analytic_mse) < 4 * row.standard_error


def test_runs_are_reproducible():
    config = ExperimentConfig(dim=2, copies=2, trials=3000, master_seed=13)
    a = run_experiment(config)
    b = run_experiment(config)
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


# --- worker pool ---

def test_pool_is_reused_across_runs():
    config = ExperimentConfig(dim=2, copies=1, trials=2 * BLOCK, master_seed=19, workers=2)
    run_experiment(config)
    first = {child.pid for child in multiprocessing.active_children()}
    run_experiment(config)
    assert first
    assert {child.pid for child in multiprocessing.active_children()} == first


def test_pool_processes_capped_at_cpu_count():
    # 64 workers over 3 blocks is 3 jobs; the pool still starts at most one
    # process per CPU, and the output is that of one worker
    config = ExperimentConfig(dim=2, copies=1, trials=3 * BLOCK, master_seed=21, workers=64)
    text = rows_to_csv([run_experiment(config)])
    assert 0 < len(multiprocessing.active_children()) <= (os.cpu_count() or 1)
    assert text == rows_to_csv([run_experiment(replace(config, workers=1))])


def test_more_workers_than_blocks_gives_the_serial_row(monkeypatch):
    # the blocks are split into min(workers, blocks) jobs, so a huge worker
    # count builds one job; the pretend CPU count caps the pool at 2
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    config = ExperimentConfig(dim=2, copies=1, trials=10, master_seed=23, workers=10**6)
    assert rows_to_csv([run_experiment(config)]) == rows_to_csv([run_experiment(replace(config, workers=1))])


def test_killed_worker_breaks_one_run_then_pool_restarts():
    config = ExperimentConfig(dim=2, copies=2, trials=2 * BLOCK + 3, master_seed=20, workers=2)
    serial = rows_to_csv([run_experiment(replace(config, workers=1))])
    run_experiment(config)
    victim = multiprocessing.active_children()[0]
    os.kill(victim.pid, signal.SIGKILL)
    assert wait([victim.sentinel], timeout=30)
    time.sleep(0.5)  # lets the pool's manager thread see the death
    with pytest.raises(BrokenProcessPool):
        run_experiment(config)
    assert rows_to_csv([run_experiment(config)]) == serial


def test_threads_sharing_the_pool_get_serial_output(monkeypatch):
    # a pretend third CPU lets the threads' 2- and 3-worker runs need pools
    # of two sizes, so each may replace the pool while another uses it
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    configs = [
        ExperimentConfig(dim=2, copies=1, trials=2 * BLOCK + 1, master_seed=22 + k % 2, workers=2 + k % 2)
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
    assert len(multiprocessing.active_children()) <= 3  # no pool was left behind
    for config, row in zip(configs, rows):
        assert rows_to_csv([row]) == rows_to_csv([run_experiment(replace(config, workers=1))])


def test_observable_dimension_mismatch_rejected():
    config = ExperimentConfig(dim=3, copies=1, trials=10, master_seed=0)  # pauli-z is d=2
    with pytest.raises(ConfigError, match="dim"):
        run_experiment(config)


# --- sweep ---

def test_sweep_grid_and_ratio():
    base = ExperimentConfig(dim=2, copies=1, trials=50_000, master_seed=16)
    rows = run_sweep(base, copies_values=[1, 2, 4, 8], dim_values=[2])
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


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rows_equal_separate_runs(workers):
    # a sweep draws each cell once for both estimators; the rows must be those
    # of one run per estimator, apart from the wall time
    base = ExperimentConfig(
        trials=2 * BLOCK + 7, master_seed=31, observable_source="diag(1,0.5,-2)", workers=workers
    )
    rows = run_sweep(base, copies_values=[4, 1], dim_values=[3])
    separate = [
        run_experiment(replace(base, dim=3, copies=n, estimator=kind))
        for n in (1, 4)
        for kind in (EstimatorKind.OPTIMAL_PURE, EstimatorKind.SAMPLE_AVERAGE)
    ]
    assert len(rows) == len(separate) == 4
    for row, other in zip(rows, separate):
        assert row.wall_time > 0.0
        assert replace(row, wall_time=0.0) == replace(other, wall_time=0.0)


def test_sweep_analytic_ratio_corners():
    base = ExperimentConfig(dim=4, copies=4, trials=50, master_seed=18, observable_source="diag(1,2,3,4)")
    (opt_row, av_row) = run_sweep(base, copies_values=[4], dim_values=[4])
    assert opt_row.analytic_mse / av_row.analytic_mse == pytest.approx(0.5, rel=1e-14)
    base8 = ExperimentConfig(
        dim=8, copies=1, trials=50, master_seed=18, observable_source="diag(1,2,3,4,5,6,7,8)"
    )
    (opt_row, av_row) = run_sweep(base8, copies_values=[1], dim_values=[8])
    assert opt_row.analytic_mse / av_row.analytic_mse == pytest.approx(1 / 9, rel=1e-14)


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
        (["simulate", "--copies", str(2**63)], None),
        (["sweep", "--dim", ""], None),
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


def _run_script(args, script):
    """Run a Python script in a fresh interpreter that imports this optev."""
    src = str(Path(optev.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args], input=script, capture_output=True, text=True, timeout=120, env=env
    )


def test_unguarded_worker_script_fails_instead_of_hanging():
    # spawned workers cannot re-import a __main__ read from stdin, just as
    # they fail on a script that lacks an if __name__ == "__main__" guard
    script = textwrap.dedent(
        """
        import sys
        from optev.cli import main
        sys.exit(main(["simulate", "--trials", "10", "--workers", "2"]))
        """
    )
    done = _run_script(["-"], script)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.splitlines()[-1].startswith("optev: error: ")


def test_guarded_script_exits_with_its_pool_alive(tmp_path):
    # the script never shuts the pool down; interpreter exit must join it
    path = tmp_path / "guarded.py"
    path.write_text(
        textwrap.dedent(
            """
            from optev import ExperimentConfig, run_experiment

            if __name__ == "__main__":
                row = run_experiment(ExperimentConfig(trials=10, workers=2))
                print(row.empirical_mse)
            """
        )
    )
    done = _run_script([str(path)], None)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) >= 0.0


def test_exit_hook_joins_the_pool_and_a_later_run_restarts_it():
    # registered with atexit: left to module teardown, the executor could be
    # collected after the modules its callbacks use and print an ignored error
    config = ExperimentConfig(dim=2, copies=1, trials=2 * BLOCK, master_seed=19, workers=2)
    text = rows_to_csv([run_experiment(config)])
    assert multiprocessing.active_children()
    harness._close_pool()
    assert harness._pool is None
    assert multiprocessing.active_children() == []
    assert rows_to_csv([run_experiment(config)]) == text


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
