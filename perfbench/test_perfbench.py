"""Tiny-size tests of the benchmark itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cells
import oracle
import run
import workload  # puts the repository's src/ on sys.path

import optev  # noqa: E402

HERE = Path(__file__).resolve().parent
TINY = cells.Sizes(pure_trials=8, mixed_trials=8, verify_level="fast", probe_reps=1, probe_calls=2, build_reps=1)
SEED = 3


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def setup_line(sizes: cells.Sizes) -> dict:
    return {"setup_at": 0.0, "certify_grids": workload.certify_grids(sizes.verify_level)}


@pytest.mark.parametrize("name", cells.WORKLOADS)
def test_untraced_output_names_every_end_to_end_metric(name):
    runs = workload.build(name, SEED, TINY)
    lines = [setup_line(TINY), *workload.timed_passes(name, runs, SEED, TINY, 0.0)]
    lines.append({"peak_rss_mb": workload.peak_rss_mb()})
    result, _ = run.summarize(name, SEED, 0, lines, [0.5], killed=False, sizes=TINY)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert result["attempted"] >= 1 and result["failed"] == 0


def test_traced_output_names_every_per_layer_metric(tmp_path):
    lines = [setup_line(TINY)]
    trace_file = tmp_path / "trace.json"
    workload.traced_run("certify", SEED, TINY, lines.append, trace_file)
    result, _ = run.summarize("certify", SEED, 1, lines, [0.5], killed=False, sizes=TINY)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    spans = json.loads(trace_file.read_text())["spans"]
    assert {s["name"] for s in spans} >= {"pass.pure-grid", "pass.mixed-pooled", "pass.certify"}


def _one_row(cell_name: str, trials: int):
    """The cell, and the program's row for it at ``trials`` trials in one process."""
    sizes = replace(cells.FULL, pure_trials=trials, mixed_trials=trials)
    cell, config, obs = next(r for r in workload.build(cell_name.split(".")[0], SEED, sizes) if r[0].name == cell_name)
    row = optev.run_experiment(replace(config, workers=1), observable=obs)
    return cell, (row.empirical_mse, row.standard_error, row.empirical_bias_at_probe)


@pytest.mark.parametrize("cell_name", ["pure-grid.d4n8.opt", "pure-grid.d2n1.avg", "mixed-pooled.uniform-ball"])
def test_cell_check_fails_on_perturbed_closed_forms(cell_name):
    cell, (mse, se, bias) = _one_row(cell_name, 2000)
    trace, trace_square, top = oracle.spectrum_facts(cells.observable_matrix(SEED, cell.dim))
    closed = oracle.closed_form_mse(cell, trace, trace_square)
    exact = oracle.exact_probe_bias(cell, trace, top)
    assert oracle.cell_failures(cell, mse, se, bias, closed, exact) == []
    assert oracle.cell_failures(cell, mse, se, bias, closed + 9 * se, exact)
    assert oracle.cell_failures(cell, mse, se, bias, closed, exact + 1e-9)


def test_zero_mse_check_fails_on_perturbed_closed_form():
    cell, (mse, se, bias) = _one_row("mixed-pooled.r0", 100)
    trace, trace_square, top = oracle.spectrum_facts(cells.observable_matrix(SEED, 2))
    assert mse == 0.0 and oracle.closed_form_mse(cell, trace, trace_square) == 0.0
    exact = oracle.exact_probe_bias(cell, trace, top)
    assert oracle.cell_failures(cell, mse, se, bias, 0.0, exact) == []
    assert oracle.cell_failures(cell, mse, se, bias, 1e-3, exact)
    assert oracle.cell_failures(cell, 1e-300, se, bias, 0.0, exact)


def test_certify_check_fails_on_perturbed_counts_and_reports():
    reports = [[r.check, r.params, r.max_deviation, r.tolerance, r.passed] for r in optev.run_verify("fast", seed=SEED)]
    counts = oracle.expected_certify_counts(*workload.certify_grids("fast"))
    assert oracle.certify_failures(reports, counts) == []
    assert oracle.certify_failures(reports, {**counts, "idempotence": counts["idempotence"] + 1})
    broken = [list(r) for r in reports]
    broken[0][2] = broken[0][3] * 10 + 1e-9
    assert oracle.certify_failures(broken, counts)


@pytest.mark.parametrize("construct", [optev.build_projector_permutation, optev.build_projector_occupation])
def test_projector_check_fails_on_perturbed_closed_form(construct):
    matrix = construct(3, 3).matrix
    assert oracle.projector_failures(matrix, 3, 3, np.random.default_rng(0)) == []
    assert oracle.projector_failures(matrix, 3, 3, np.random.default_rng(0), dimension=11)
    assert oracle.projector_failures(matrix * 1.001, 3, 3, np.random.default_rng(0))
    assert oracle.projector_failures(np.eye(27), 3, 3, np.random.default_rng(0), dimension=27)


def test_mixed_pooled_rows_do_not_depend_on_worker_count():
    runs = workload.build("mixed-pooled", SEED, replace(cells.FULL, mixed_trials=64))
    assert all(config.workers == 2 for _, config, _ in runs)
    pooled = [optev.run_experiment(config, observable=obs) for _, config, obs in runs]
    single = [optev.run_experiment(replace(config, workers=1), observable=obs) for _, config, obs in runs]
    assert optev.rows_to_csv(pooled) == optev.rows_to_csv(single)


def test_overrunning_child_is_killed_and_counted_failed():
    script = "import json, time; print(json.dumps({'setup_at': 0.0, 'certify_grids': [1, 1, 1]}), flush=True); time.sleep(60)"
    started = time.monotonic()
    code, lines = run.run_child([sys.executable, "-c", script], time.monotonic() + 1.0)
    assert code is None and time.monotonic() - started < 10.0
    result, _ = run.summarize("pure-grid", SEED, 0, lines, [0.5], killed=True)
    assert result["attempted"] == result["failed"] == len(cells.cells("pure-grid"))
