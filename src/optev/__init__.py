"""Optimal estimation of an observable's expectation value from N state copies.

Simulates projective measurements on ensembles of pure (or mixed qubit)
states, implements the sample-average and shrinkage estimators with their
closed-form mean squared errors, and certifies the symmetric-subspace
identities behind the error formulas at machine precision.
"""

from .estimators import (
    EstimatorKind,
    analytic_delta_av,
    analytic_delta_mixed_qubit,
    analytic_delta_opt,
    estimate_optimal,
    estimate_optimal_mixed_qubit,
    estimate_sample_average,
    simulate_measurements,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    load_observable,
    rows_to_csv,
    run_experiment,
)
from .hermitian import (
    Observable,
    PureState,
    expectation,
    make_observable,
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
    build_projector_occupation,
    build_projector_permutation,
    check_unbiased_lemma,
    enumerate_occupations,
    haar_average_tensor_power,
    occupation_basis_vector,
    symmetric_dimension,
)
from .verify import run_verify

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "EstimatorKind",
    "ExperimentConfig",
    "Observable",
    "PureState",
    "RadialLaw",
    "analytic_delta_av",
    "analytic_delta_mixed_qubit",
    "analytic_delta_opt",
    "build_projector_occupation",
    "build_projector_permutation",
    "check_unbiased_lemma",
    "derive_stream",
    "enumerate_occupations",
    "estimate_optimal",
    "estimate_optimal_mixed_qubit",
    "estimate_sample_average",
    "expectation",
    "haar_average_tensor_power",
    "load_observable",
    "make_observable",
    "observable_to_json",
    "occupation_basis_vector",
    "outcome_distribution",
    "rows_to_csv",
    "run_experiment",
    "run_verify",
    "sample_bloch_mixed",
    "sample_haar_amplitudes",
    "sample_haar_pure",
    "simulate_measurements",
    "symmetric_dimension",
    "__version__",
]
