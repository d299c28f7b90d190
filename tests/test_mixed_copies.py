"""The mixed-qubit estimator past one copy, in the acceptance suite's style.

On a Bloch law of second moment n2 the ``optimal-mixed-qubit`` row is the
linear-Bayes estimate at every N: the mean of the N observed values and
(3 - n2)/n2 pseudo-values tr Omega/2.  Each cell runs 10^6 seeded trials and
must meet its closed form within 4 standard errors, the acceptance suite's
tolerance; the seeds are fixed per cell.
"""

import pytest

from optev import EstimatorKind, ExperimentConfig, RadialLaw, make_observable, run_experiment
from optev.estimators import analytic_mse

TRIALS = 1_000_000
COPIES = (3, 8, 32)
OBS = make_observable([[0.3, 0.2 - 0.7j], [0.2 + 0.7j, -1.1]])
LAWS = {
    "uniform-ball": RadialLaw.uniform_ball(),
    "fixed-0.6": RadialLaw.fixed_radius(0.6),
    "two-point": RadialLaw.two_point(0.8, 0.5),
    "pure-surface": RadialLaw.pure_surface(),
}


@pytest.mark.parametrize("copies", COPIES)
@pytest.mark.parametrize("index, name", list(enumerate(LAWS)))
def test_mixed_estimator_meets_its_closed_form_at_several_copies(index, name, copies):
    law = LAWS[name]
    config = ExperimentConfig(
        dim=2,
        copies=copies,
        trials=TRIALS,
        master_seed=8800 + 100 * index + copies,
        estimator=EstimatorKind.OPTIMAL_MIXED_QUBIT,
        ensemble=law,
    )
    row = run_experiment(config, observable=OBS)
    assert row.analytic_mse == analytic_mse(EstimatorKind.OPTIMAL_MIXED_QUBIT, OBS, copies, law.second_moment())
    assert abs(row.empirical_mse - row.analytic_mse) <= 4 * row.standard_error, (row.empirical_mse, row.analytic_mse)


@pytest.mark.parametrize("copies", COPIES)
@pytest.mark.parametrize("name", list(LAWS))
def test_mixed_estimator_beats_the_pure_state_row_below_full_purity(name, copies):
    n2 = LAWS[name].second_moment()
    mixed = analytic_mse(EstimatorKind.OPTIMAL_MIXED_QUBIT, OBS, copies, n2)
    pure = analytic_mse(EstimatorKind.OPTIMAL_PURE, OBS, copies, n2)
    if n2 < 1.0:
        assert mixed < pure
    else:
        # at n2 = 1 both read Haar's qubit row, (1, 1, N + 2)
        assert mixed == pure
