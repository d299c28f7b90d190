"""Hermitian observables and quantum state containers.

Everything here is small and dense: matrices are validated eagerly,
eigendecomposed once, and kept immutable so instances can be shared
across worker processes without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITICITY_TOL = 1e-10
NORM_TOL = 1e-12

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)


def frozen(array: np.ndarray) -> np.ndarray:
    """Read-only copy of ``array``."""
    out = np.array(array)
    out.setflags(write=False)
    return out


def _check_same_dim(state_dim: int, obs_dim: int) -> None:
    if state_dim != obs_dim:
        raise ValueError(f"dimension mismatch: state has d={state_dim}, observable has d={obs_dim}")


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

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)

    @property
    def trace_square(self) -> float:
        # tr(M @ M) == Frobenius norm squared for Hermitian M
        return float(np.vdot(self.matrix, self.matrix).real)


def make_observable(entries) -> Observable:
    """Validate a Hermitian matrix and attach its eigendecomposition.

    Hermiticity is enforced (max entry deviation <= 1e-10), never silently
    symmetrized: a violation signals bad user data.
    """
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"observable must be a square matrix, got shape {m.shape}")
    d = m.shape[0]
    if d < 2:
        raise ValueError(f"observable dimension must be at least 2, got {d}")
    # a NaN deviation would pass the Hermiticity test below
    if not np.isfinite(m).all():
        raise ValueError("observable entries must be finite")
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
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError(f"amplitudes must be a nonempty vector, got shape {amp.shape}")
        norm_sq = float(np.vdot(amp, amp).real)
        if abs(norm_sq - 1.0) > NORM_TOL:
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
        n = np.asarray(self.bloch, dtype=float)
        if n.shape != (3,):
            raise ValueError(f"Bloch vector must have shape (3,), got {n.shape}")
        length = float(np.linalg.norm(n))
        if length > 1.0 + NORM_TOL:
            raise ValueError(f"Bloch vector lies outside the unit ball: |n| = {length!r}")
        object.__setattr__(self, "bloch", frozen(n))

    def density_matrix(self) -> np.ndarray:
        n = self.bloch
        rho = np.eye(2, dtype=complex)
        for k in range(3):
            rho = rho + n[k] * PAULI[k]
        return rho / 2.0


def outcome_distribution(state: PureState, obs: Observable) -> np.ndarray:
    """Probabilities p_i = |<i|phi>|^2 of the projective eigenbasis outcomes."""
    _check_same_dim(state.dim, obs.dim)
    overlaps = obs.eigenvectors.conj().T @ state.amplitudes
    return overlaps.real**2 + overlaps.imag**2


def expectation(state: PureState, obs: Observable) -> float:
    """<phi|Omega|phi> evaluated as sum_i Omega_i |<i|phi>|^2."""
    return float(outcome_distribution(state, obs) @ obs.eigenvalues)


def mixed_qubit_expectation(state: MixedQubitState, obs: Observable) -> float:
    """tr[rho Omega] for a Bloch-parameterized qubit density matrix."""
    if obs.dim != 2:
        raise ValueError(f"mixed qubit expectation requires d=2, got d={obs.dim}")
    rho = state.density_matrix()
    return float(np.trace(rho @ obs.matrix).real)


def mixed_qubit_outcome_distribution(state: MixedQubitState, obs: Observable) -> np.ndarray:
    """Probabilities p_i = <i|rho|i> of eigenbasis outcomes on a mixed qubit."""
    if obs.dim != 2:
        raise ValueError(f"mixed qubit outcomes require d=2, got d={obs.dim}")
    rho = state.density_matrix()
    v = obs.eigenvectors
    return np.einsum("ji,jk,ki->i", v.conj(), rho, v).real


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
        m = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows],
            dtype=complex,
        )
    except (TypeError, IndexError) as exc:
        raise ValueError(f"observable JSON 'matrix' entries must be [re, im] pairs: {exc}") from exc
    if m.shape != (d, d):
        raise ValueError(f"observable JSON 'matrix' has shape {m.shape}, expected ({d}, {d})")
    return make_observable(m)


def observable_to_json(obs: Observable) -> dict:
    """Inverse of :func:`observable_from_json`."""
    return {
        "dim": obs.dim,
        "matrix": [[[entry.real, entry.imag] for entry in row] for row in obs.matrix],
    }
