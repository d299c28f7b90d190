"""Closed forms and correctness checks, computed apart from optev.

Every check returns a list of failure messages; an empty list means the
output is correct.  The closed forms come from the paper's error laws,
evaluated on the benchmark's own matrices with numpy, so a fault in
optev's formulas cannot hide a fault in its Monte Carlo or vice versa.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from cells import Cell

MSE_STANDARD_ERRORS = 4.0
BIAS_TOLERANCE = 1e-12
PROJECTOR_TOLERANCE = 1e-12

PROJECTOR_CHECKS = (
    "construction-equivalence",
    "idempotence",
    "self-adjointness",
    "trace-dimension",
    "transposition-commute",
)
OPERATOR_CHECKS = (
    "partial-trace-identity",
    "trace-formula-one-body",
    "trace-formula-two-body-equal",
    "trace-formula-two-body-distinct",
    "shrinkage-trace-square",
    "second-moment-identity",
    "completed-square",
    "lower-bound-attainment",
    "sample-average-square-term",
    "positivity-sweep",
    "sample-average-term-strictly-positive",
    "shrinkage-eigenvalue-is-optimal-estimate",
    "average-eigenvalue-is-sample-average",
    "one-body-average-reproduces-expectation",
)
LEMMA_CHECKS = ("lemma-forward", "lemma-converse")
# the one check that passes when its deviation lies above the tolerance
LOWER_BOUND_CHECKS = ("sample-average-term-strictly-positive",)


def second_moment(law: dict) -> float:
    """<n^2> of an isotropic Bloch-ball radial law."""
    kind = law["kind"]
    if kind == "pure-surface":
        return 1.0
    if kind == "uniform-ball":
        return 3.0 / 5.0
    if kind == "fixed-radius":
        return law["radius"] ** 2
    if kind == "two-point":
        return law["weight"] * law["radius"] ** 2
    raise ValueError(f"unknown radial law {kind!r}")


def spectrum_facts(matrix: np.ndarray) -> tuple[float, float, float]:
    """(tr Omega, tr Omega^2, top eigenvalue) of a Hermitian matrix."""
    trace = float(np.trace(matrix).real)
    trace_square = float(np.sum(np.abs(matrix) ** 2))
    top = float(np.linalg.eigvalsh(matrix)[-1])
    return trace, trace_square, top


def closed_form_mse(cell: Cell, trace: float, trace_square: float) -> float:
    d, n = cell.dim, cell.copies
    if cell.estimator == "optimal-pure":
        return (d * trace_square - trace**2) / (d * (d + 1) * (n + d))
    if cell.estimator == "sample-average":
        return (d * trace_square - trace**2) / (d * (d + 1) * n)
    n2 = second_moment(cell.law)
    return n2 * (3.0 - n2) * (2.0 * trace_square - trace**2) / 36.0


def exact_probe_bias(cell: Cell, trace: float, top: float) -> float:
    """Bias at the top eigenvector, where every outcome is the top eigenvalue."""
    d, n = cell.dim, cell.copies
    if cell.estimator == "optimal-pure":
        return (trace - d * top) / (n + d)
    if cell.estimator == "sample-average":
        return 0.0
    n2 = second_moment(cell.law)
    return (3.0 - n2) * (trace - 2.0 * top) / 6.0


def cell_failures(
    cell: Cell, mse: float, standard_error: float, bias: float, closed_mse: float, exact_bias: float
) -> list[str]:
    """Empirical MSE within 4 standard errors (exactly 0 when the law is) and
    probe bias equal to the exact value to 1e-12."""
    failures = []
    if closed_mse == 0.0:
        if mse != 0.0:
            failures.append(f"{cell.name}: empirical MSE {mse!r} is not exactly 0")
    elif not abs(mse - closed_mse) <= MSE_STANDARD_ERRORS * standard_error:
        failures.append(
            f"{cell.name}: empirical MSE {mse!r} lies more than {MSE_STANDARD_ERRORS:g} "
            f"standard errors ({standard_error!r}) from the closed form {closed_mse!r}"
        )
    if not abs(bias - exact_bias) <= BIAS_TOLERANCE:
        failures.append(f"{cell.name}: probe bias {bias!r} differs from the exact {exact_bias!r}")
    return failures


def expected_certify_counts(projector_pairs: int, operator_pairs: int, lemma_pairs: int) -> dict[str, int]:
    """Report count of each check, given the sizes of the verify grids."""
    counts = dict.fromkeys(PROJECTOR_CHECKS, projector_pairs)
    counts.update(dict.fromkeys(OPERATOR_CHECKS, operator_pairs))
    counts.update(dict.fromkeys(LEMMA_CHECKS, lemma_pairs))
    return counts


def certify_failures(reports: list, expected_counts: dict[str, int]) -> list[str]:
    """Each report passes within its tolerance, and the reports are exactly
    the ones the grids imply.  A report is ``[check, params, deviation,
    tolerance, passed]``."""
    failures = []
    counts: dict[str, int] = {}
    for check, params, deviation, tolerance, passed in reports:
        counts[check] = counts.get(check, 0) + 1
        if check in LOWER_BOUND_CHECKS:
            within = deviation > tolerance
        else:
            within = deviation <= tolerance
        if not (passed and within):
            failures.append(f"{check} {params}: deviation {deviation!r} against tolerance {tolerance!r}")
    if counts != expected_counts:
        failures.append(f"report counts {counts} differ from the counts the grids imply {expected_counts}")
    return failures


def _unit(vector: np.ndarray) -> np.ndarray:
    return vector / np.linalg.norm(vector)


def projector_failures(
    matrix: np.ndarray, d: int, n: int, rng: np.random.Generator, dimension: int | None = None
) -> list[str]:
    """tr S = C(n+d-1, d-1), S psi^(x n) = psi^(x n) for a random psi, and
    S v = 0 for a v antisymmetric in the first two slots."""
    if dimension is None:
        dimension = math.comb(n + d - 1, d - 1)
    label = f"S(d={d}, n={n})"
    failures = []
    trace = float(np.trace(matrix))
    if not abs(trace - dimension) <= 1e-9 * dimension:
        failures.append(f"{label}: trace {trace!r} differs from the dimension {dimension}")

    def random_vector() -> np.ndarray:
        return _unit(rng.standard_normal(d) + 1j * rng.standard_normal(d))

    psi = random_vector()
    power = reduce(np.kron, [psi] * n)
    deviation = float(np.abs(matrix @ power - power).max() / np.abs(power).max())
    if not deviation <= PROJECTOR_TOLERANCE:
        failures.append(f"{label}: S moves psi^(x n) by {deviation!r}")

    x, y = random_vector(), random_vector()
    rest = reduce(np.kron, [random_vector() for _ in range(n - 2)], np.ones(1))
    antisymmetric = _unit(np.kron(np.kron(x, y) - np.kron(y, x), rest))
    residue = float(np.abs(matrix @ antisymmetric).max())
    if not residue <= PROJECTOR_TOLERANCE:
        failures.append(f"{label}: S leaves {residue!r} of a vector antisymmetric in two slots")
    return failures
