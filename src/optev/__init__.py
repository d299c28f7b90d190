"""Optimal estimation of an observable's expectation value from N state copies.

Simulates projective measurements on ensembles of pure (or mixed qubit)
states, implements the sample-average and shrinkage estimators with their
closed-form mean squared errors, and certifies the symmetric-subspace
identities behind the error formulas at machine precision.
"""

from .estimators import (
    EstimatorKind,
    analytic_bias_mean,
    analytic_delta_av,
    analytic_delta_av_conditional,
    analytic_delta_mixed_qubit,
    analytic_delta_opt,
    analytic_second_moment,
    estimate_optimal,
    estimate_optimal_mixed_qubit,
    estimate_sample_average,
    simulate_measurements,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    load_config,
    load_observable,
    rows_to_csv,
    run_experiment,
    run_sweep,
)
from .hermitian import (
    MixedQubitState,
    Observable,
    PureState,
    expectation,
    make_observable,
    mixed_qubit_expectation,
    mixed_qubit_outcome_distribution,
    observable_from_json,
    observable_to_json,
    outcome_distribution,
)
from .sampling import (
    RadialLaw,
    derive_stream,
    sample_bloch_mixed,
    sample_haar_amplitudes,
    sample_haar_pure,
)
from .symmetric import (
    LemmaReport,
    SymmetricProjector,
    build_projector_occupation,
    build_projector_permutation,
    check_unbiased_lemma,
    embed_one_body,
    enumerate_occupations,
    haar_average_tensor_power,
    occupation_basis_vector,
    omega_hat,
    omega_hat_av,
    partial_trace_last,
    symmetric_dimension,
)
from .verify import CheckReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "ConfigError",
    "EstimatorKind",
    "ExperimentConfig",
    "LemmaReport",
    "MixedQubitState",
    "Observable",
    "PureState",
    "RadialLaw",
    "ResultRow",
    "SymmetricProjector",
    "analytic_bias_mean",
    "analytic_delta_av",
    "analytic_delta_av_conditional",
    "analytic_delta_mixed_qubit",
    "analytic_delta_opt",
    "analytic_second_moment",
    "build_projector_occupation",
    "build_projector_permutation",
    "check_unbiased_lemma",
    "derive_stream",
    "embed_one_body",
    "enumerate_occupations",
    "estimate_optimal",
    "estimate_optimal_mixed_qubit",
    "estimate_sample_average",
    "expectation",
    "haar_average_tensor_power",
    "load_config",
    "load_observable",
    "make_observable",
    "mixed_qubit_expectation",
    "mixed_qubit_outcome_distribution",
    "observable_from_json",
    "observable_to_json",
    "occupation_basis_vector",
    "omega_hat",
    "omega_hat_av",
    "outcome_distribution",
    "partial_trace_last",
    "rows_to_csv",
    "run_experiment",
    "run_sweep",
    "run_verify",
    "sample_bloch_mixed",
    "sample_haar_amplitudes",
    "sample_haar_pure",
    "simulate_measurements",
    "symmetric_dimension",
    "__version__",
]
