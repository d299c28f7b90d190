"""Hermitian observables, pure states, and the one rule for eigenvalue sums.

Everything here is small and dense: matrices are validated eagerly,
eigendecomposed once, and kept immutable so instances can be shared
across threads without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITICITY_TOL = 1e-10
NORM_TOL = 1e-12
# largest entry magnitude of an observable: every eigenvalue, trace, truth and
# estimate is then at most d 1e50, so a squared error is at most 4 d^2 1e100;
# M squared errors, and their squares in the standard error, sum below the
# float maximum 1.8e308 whenever M d^4 < 1e107
MAX_ENTRY = 1e50

def frozen(array: np.ndarray) -> np.ndarray:
    """Mark ``array`` read-only in place and return it, with no copy; pass only arrays you own."""
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class Observable:
    """A Hermitian operator together with its spectral decomposition.

    ``eigenvalues`` are sorted in descending order; ``eigenvectors[:, i]`` is
    the unit eigenvector belonging to ``eigenvalues[i]``.  Outcome index ``i``
    everywhere in this package refers to this fixed ordering.  Within a
    degenerate eigenspace the basis is whatever the eigensolver produced; all
    derived quantities depend only on eigenvalues and outcome probabilities,
    which are basis independent inside such a block.
    """

    dim: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @cached_property
    def trace(self) -> float:
        return float(self.matrix.trace().real)

    @cached_property
    def exact_sums(self) -> tuple[int, int, int]:
        """(D, T, S): tr Omega = T/D and sum_ij |Omega_ij|^2 = S/D^2 exactly, for D the largest
        power-of-two denominator of the stored floats, so a closed form rounds once, in an int / int."""
        ratios = [x.as_integer_ratio() for x in self.matrix.view(np.float64).ravel().tolist()]
        denominator = max(q for _, q in ratios)
        parts = [p * (denominator // q) for p, q in ratios]
        # the real parts of the diagonal, every 2 (d + 1)th float of the row-major matrix
        return denominator, sum(parts[:: 2 * (self.dim + 1)]), sum(p * p for p in parts)

    @cached_property
    def trace_square(self) -> float:
        """tr Omega^2, the sum of |Omega_ij|^2 over the stored entries, correctly rounded."""
        denominator, _, square_sum = self.exact_sums
        return square_sum / (denominator * denominator)

    @cached_property
    def top_is_eigenstate(self) -> bool:
        """Whether the top eigenvector gives outcome 0 with probability 1, to 1e-12."""
        return abs(outcome_distribution(PureState(self.eigenvectors[:, 0]), self)[0] - 1.0) <= 1e-12


def make_observable(entries) -> Observable:
    """Validate a Hermitian matrix and attach its eigendecomposition.

    Hermiticity is enforced (max entry deviation <= 1e-10), never silently
    symmetrized: a violation signals bad user data.
    """
    m = np.array(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"observable must be a square matrix, got shape {m.shape}")
    d = m.shape[0]
    if d < 2:
        raise ValueError(f"observable dimension must be at least 2, got {d}")
    # also rejects NaN, whose deviation would pass the Hermiticity test below
    largest = np.abs(m).max()
    if not largest <= MAX_ENTRY:
        raise ValueError(
            f"observable entries must be finite and at most {MAX_ENTRY:g} in magnitude, got {largest:g}"
        )
    deviation = np.abs(m - m.conj().T).max()
    if deviation > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dagger| = {deviation:.3e} "
            f"exceeds {HERMITICITY_TOL:g}"
        )
    w, v = np.linalg.eigh(m)
    # descending; stable sort keeps the eigensolver's basis order inside ties
    order = np.argsort(-w, kind="stable")
    return Observable(
        dim=d,
        matrix=frozen(m),
        eigenvalues=frozen(w[order]),
        eigenvectors=frozen(v[:, order]),
    )


@dataclass(frozen=True)
class PureState:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError(f"amplitudes must be a nonempty vector, got shape {amp.shape}")
        norm_sq = float(np.vdot(amp, amp).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"state is not normalized: sum |c_i|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", frozen(amp))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def outcome_distribution(state: "PureState | np.ndarray", obs: Observable) -> np.ndarray:
    """Probabilities p_i = |<i|phi>|^2 of the projective eigenbasis outcomes.

    Takes a state or amplitude rows of shape (..., d); returns rows (..., d).
    """
    amplitudes = state.amplitudes if isinstance(state, PureState) else np.asarray(state)
    if amplitudes.shape[-1] != obs.dim:
        raise ValueError(f"dimension mismatch: state has shape {amplitudes.shape}, observable has d={obs.dim}")
    # the products added over i first to last, as eigenvalue_sum adds rows, so
    # a batch and one state take the same order, where BLAS takes two
    overlaps = (amplitudes[..., :, None] * obs.eigenvectors.conj()).sum(axis=-2)
    return overlaps.real**2 + overlaps.imag**2


def eigenvalue_sum(x, w=None, out=None, products=None):
    """sum_i w_i x_i over axis 0 of a (d, ...) array, or sum_i x_i with no ``w``.

    The one rule for every truth sum_i w_i p_i and value sum sum_i w_i c_i:
    each product is rounded once, into ``products`` if given (it may be ``x``
    itself), and the d rows are added first to last from +0.0, so no BLAS
    call and no pairwise reduction sets a bit, and a zero total is +0.0.
    numpy adds the rows of a C-ordered array one at a time, in order, when
    each holds more than one value; a lone column, a 1-D ``x`` or another
    layout it would reduce pairwise, so those rows are added here one by one.
    Returns a float64 scalar for a 1-D ``x``, else ``out`` if given or a new array.
    """
    if w is None:
        x = np.asarray(x, dtype=float)
    else:
        x = np.multiply(x, np.reshape(w, (-1,) + (1,) * (np.ndim(x) - 1)), out=products)
    if x.ndim == 1:
        # Python floats add as float64 does, without numpy's cost per call
        total = 0.0
        for value in x.tolist():
            total += value
        return np.float64(total)
    if x.size > len(x) and x.flags.c_contiguous:
        return x.sum(axis=0, out=out)
    if out is None:
        out = np.zeros(x.shape[1:])
    else:
        out.fill(0.0)
    for row in x:
        out += row
    return out


def expectation(state: "PureState | np.ndarray", obs: Observable):
    """<phi|Omega|phi> evaluated as sum_i Omega_i |<i|phi>|^2 by :func:`eigenvalue_sum`, per amplitude row."""
    return eigenvalue_sum(np.moveaxis(outcome_distribution(state, obs), -1, 0), obs.eigenvalues)


def _matrix_entry(entry) -> complex:
    """One [re, im] entry of the JSON matrix: a list of exactly two numbers (bools excluded)."""
    if not (isinstance(entry, list) and len(entry) == 2 and all(type(x) in (int, float) for x in entry)):
        raise TypeError(f"got {entry!r}")
    return complex(*entry)


def observable_from_json(payload: dict) -> Observable:
    """Parse the on-disk observable format.

    Expected shape: ``{"dim": d, "matrix": [[[re, im], ...], ...]}`` with a
    row-major d x d matrix whose entries are two-element [real, imag] arrays.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"observable JSON must be an object, got {type(payload).__name__}")
    missing = {"dim", "matrix"} - payload.keys()
    if missing:
        raise ValueError(f"observable JSON is missing keys: {sorted(missing)}")
    d = payload["dim"]
    rows = payload["matrix"]
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"observable JSON 'dim' must be an integer >= 2, got {d!r}")
    try:
        m = np.array([[_matrix_entry(entry) for entry in row] for row in rows], dtype=complex)
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"observable JSON 'matrix' entries must be [re, im] pairs of numbers: {exc}") from exc
    if m.shape != (d, d):
        raise ValueError(f"observable JSON 'matrix' has shape {m.shape}, expected ({d}, {d})")
    return make_observable(m)


def observable_to_json(obs: Observable) -> dict:
    """Inverse of :func:`observable_from_json`, with plain Python numbers as JSON has."""
    return {
        "dim": obs.dim,
        "matrix": [[[float(entry.real), float(entry.imag)] for entry in row] for row in obs.matrix],
    }
