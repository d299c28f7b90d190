"""Golden output: CSV rows at fixed seeds, byte for byte.

``golden.csv`` next to this file holds the text these calls produced with
the per-pass chunk loops that preceded the single keyed per-trial loop.
Every estimator x ensemble pair runs at tiny, mostly odd trial counts, at
one and two workers; any rewrite of the Monte Carlo core must reproduce the
file exactly.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from optev import ExperimentConfig, RadialLaw, make_observable, rows_to_csv, run_experiment, run_sweep

GOLDEN = Path(__file__).with_name("golden.csv")

QUBIT = make_observable([[0.3, 0.2 - 0.7j], [0.2 + 0.7j, -1.1]])
QUTRIT = make_observable([[1.0, 0.5 + 0.25j, -0.3j], [0.5 - 0.25j, 0.0, 0.75], [0.3j, 0.75, -2.0]])

LAWS = (
    RadialLaw.pure_surface(),
    RadialLaw.uniform_ball(),
    RadialLaw.fixed_radius(0.6),
    RadialLaw.fixed_radius(0.0),
    RadialLaw.two_point(1.0, 0.6),
)

CASES = (
    [
        (ExperimentConfig(dim=2, copies=1, trials=7, master_seed=101, estimator=kind), QUBIT)
        for kind in ("optimal-pure", "sample-average")
    ]
    + [
        (ExperimentConfig(dim=3, copies=5, trials=11, master_seed=102, estimator=kind), QUTRIT)
        for kind in ("optimal-pure", "sample-average")
    ]
    # at this seed, squaring the errors as x*x instead of with Python's float
    # power moves the last digit of both the MSE and its standard error
    + [(ExperimentConfig(dim=2, copies=3, trials=9, master_seed=873, estimator="sample-average"), QUBIT)]
    + [
        (
            ExperimentConfig(
                dim=2, copies=1, trials=9, master_seed=103 + i, estimator="optimal-mixed-qubit", ensemble=law
            ),
            QUBIT,
        )
        for i, law in enumerate(LAWS)
    ]
    + [
        (ExperimentConfig(dim=2, copies=3, trials=8, master_seed=110, estimator=kind, ensemble=law), QUBIT)
        for kind in ("optimal-pure", "sample-average")
        for law in (RadialLaw.uniform_ball(), RadialLaw.two_point(0.8, 0.5))
    ]
)


def golden_text(workers: int) -> str:
    rows = [run_experiment(replace(config, workers=workers), observable=obs) for config, obs in CASES]
    base = ExperimentConfig(trials=5, master_seed=120, observable_source="diag(2,-0.5,1)")
    rows += run_sweep(base, copies_values=[1, 4], dim_values=[3])
    return rows_to_csv(rows)


@pytest.mark.parametrize("workers", [1, 2])
def test_csv_matches_golden_file(workers):
    assert golden_text(workers) == GOLDEN.read_text()
