"""Hermitian observables and quantum state containers.

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
    def trace_square(self) -> float:
        # tr(M @ M) == Frobenius norm squared for Hermitian M, from numpy's own
        # elementwise squares and sum, so no BLAS kernel changes its bits
        m = self.matrix
        return float((m.real * m.real + m.imag * m.imag).sum())

    @cached_property
    def pauli_vector(self) -> np.ndarray:
        """tau with Omega = (tr Omega + tau.sigma) / 2; qubit observables only."""
        if self.dim != 2:
            raise ValueError(f"Pauli coefficients require d=2, got d={self.dim}")
        a = self.matrix
        return frozen(np.array([2.0 * a[0, 1].real, -2.0 * a[0, 1].imag, (a[0, 0] - a[1, 1]).real]))

    @cached_property
    def top_bloch_vector(self) -> np.ndarray:
        """Bloch vector of the top eigenvector; the bottom one's is its negative."""
        return frozen(PureState(self.eigenvectors[:, 0]).bloch_vector())


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

    def bloch_vector(self) -> np.ndarray:
        """(x, y, z) Bloch coordinates; qubit states only."""
        if self.dim != 2:
            raise ValueError(f"Bloch vector requires d=2, got d={self.dim}")
        a, b = self.amplitudes
        return np.array(
            [
                2.0 * (a.conjugate() * b).real,
                2.0 * (a.conjugate() * b).imag,
                abs(a) ** 2 - abs(b) ** 2,
            ]
        )


@dataclass(frozen=True)
class MixedQubitState:
    """Qubit density matrix (1 + n.sigma)/2 parameterized by its Bloch vector."""

    bloch: np.ndarray

    def __post_init__(self):
        n = np.array(self.bloch, dtype=float)
        if n.shape != (3,):
            raise ValueError(f"Bloch vector must have shape (3,), got {n.shape}")
        length = float(np.hypot.reduce(n))  # no overflow warning for huge entries
        if not length <= 1.0 + NORM_TOL:
            raise ValueError(f"Bloch vector lies outside the unit ball: |n| = {length!r}")
        object.__setattr__(self, "bloch", frozen(n))


def outcome_distribution(state: "PureState | np.ndarray", obs: Observable) -> np.ndarray:
    """Probabilities p_i = |<i|phi>|^2 of the projective eigenbasis outcomes.

    Takes a state or amplitude rows of shape (..., d); returns rows (..., d).
    """
    amplitudes = state.amplitudes if isinstance(state, PureState) else np.asarray(state)
    if amplitudes.shape[-1] != obs.dim:
        raise ValueError(f"dimension mismatch: state has shape {amplitudes.shape}, observable has d={obs.dim}")
    overlaps = amplitudes @ obs.eigenvectors.conj()
    return overlaps.real**2 + overlaps.imag**2


def expectation(state: "PureState | np.ndarray", obs: Observable):
    """<phi|Omega|phi> evaluated as sum_i Omega_i |<i|phi>|^2, per amplitude row."""
    return outcome_distribution(state, obs) @ obs.eigenvalues


def mixed_qubit_expectation(state: "MixedQubitState | np.ndarray", obs: Observable):
    """tr[rho Omega] = (tr Omega + n.tau)/2 for a state or Bloch rows (..., 3)."""
    bloch = state.bloch if isinstance(state, MixedQubitState) else state
    return 0.5 * (obs.trace + bloch @ obs.pauli_vector)


def mixed_qubit_outcome_distribution(state: "MixedQubitState | np.ndarray", obs: Observable) -> np.ndarray:
    """Probabilities p_i = <i|rho|i> of eigenbasis outcomes, rows (..., 2).

    The top outcome has (1 + n.m)/2 with m the top eigenvector's Bloch
    vector, clipped to [0, 1] against rounding at |n| = 1.
    """
    bloch = state.bloch if isinstance(state, MixedQubitState) else state
    p_top = np.clip(0.5 * (1.0 + bloch @ obs.top_bloch_vector), 0.0, 1.0)
    return np.stack([p_top, 1.0 - p_top], axis=-1)


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
