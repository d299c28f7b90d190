"""Deterministic keyed random streams and state-ensemble samplers.

A stream is a plain ``numpy.random.Generator`` over a counter-based Philox
bit generator keyed by the pair (master_seed, trial_index).  Its draws are a
pure function of that pair, so results never depend on worker count or
scheduling order.  The harness keys one stream per block of trials, by the
index of the block's first trial.

Pure states are drawn two ways.  :func:`sample_haar_amplitudes` draws the
amplitudes themselves; :func:`sample_haar_probabilities` draws only the
outcome probabilities in an observable's eigenbasis, which is all the
harness's pure-state kernel needs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .hermitian import MixedQubitState, PureState

_MASK64 = (1 << 64) - 1


def derive_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible stream keyed by (master_seed, trial_index).

    Two streams derived from equal pairs produce identical sequences;
    distinct indices select statistically independent Philox keys.  Both
    arguments must be integers; they are reduced modulo 2**64.
    """
    key = [operator.index(master_seed) & _MASK64, operator.index(trial_index) & _MASK64]
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


@dataclass(frozen=True)
class RadialLaw:
    """Radial distribution of an isotropic Bloch-ball ensemble.

    Kinds and their second moments <n^2>:
      pure-surface  -> 1
      uniform-ball  -> 3/5
      fixed-radius  -> radius^2
      two-point     -> weight * radius^2   (radius with prob. weight, else 0)
    """

    kind: str
    radius: float = 1.0
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in ("pure-surface", "uniform-ball", "fixed-radius", "two-point"):
            raise ValueError(f"unknown radial law kind: {self.kind!r}")
        if not 0.0 <= self.radius <= 1.0:
            raise ValueError(f"radial law implies |n| outside [0, 1]: radius={self.radius!r}")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"two-point weight must lie in [0, 1], got {self.weight!r}")

    @classmethod
    def pure_surface(cls) -> "RadialLaw":
        return cls(kind="pure-surface")

    @classmethod
    def uniform_ball(cls) -> "RadialLaw":
        return cls(kind="uniform-ball")

    @classmethod
    def fixed_radius(cls, radius: float) -> "RadialLaw":
        return cls(kind="fixed-radius", radius=float(radius))

    @classmethod
    def two_point(cls, radius: float, weight: float) -> "RadialLaw":
        return cls(kind="two-point", radius=float(radius), weight=float(weight))

    def second_moment(self) -> float:
        if self.kind == "pure-surface":
            return 1.0
        if self.kind == "uniform-ball":
            # integral of r^2 * 3 r^2 dr over [0, 1]
            return 0.6
        if self.kind == "fixed-radius":
            return self.radius**2
        return self.weight * self.radius**2

    def sample_radius(self, generator: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` radii; deterministic laws consume no randomness."""
        if self.kind == "pure-surface":
            return np.ones(size)
        if self.kind == "fixed-radius":
            return np.full(size, self.radius)
        if self.kind == "uniform-ball":
            return generator.random(size) ** (1.0 / 3.0)
        return np.where(generator.random(size) < self.weight, self.radius, 0.0)

    def label(self) -> str:
        """Canonical text form used in CSV output."""
        if self.kind == "fixed-radius":
            return f"fixed-radius(r={self.radius!r})"
        if self.kind == "two-point":
            return f"two-point(r={self.radius!r},w={self.weight!r})"
        return self.kind

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "fixed-radius":
            out["radius"] = self.radius
        elif self.kind == "two-point":
            out["radius"] = self.radius
            out["weight"] = self.weight
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "RadialLaw":
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ValueError(f"radial law must be an object with a 'kind', got {payload!r}")
        known = {"kind", "radius", "weight"}
        unknown = payload.keys() - known
        if unknown:
            raise ValueError(f"radial law has unknown keys: {sorted(unknown)}")
        numbers = {}
        for name in ("radius", "weight"):
            value = payload.get(name, 1.0)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"radial law {name} must be a number, got {value!r}")
            # a value outside [0, 1] reaches the range check as given, so an
            # int too large for a float is rejected instead of overflowing
            numbers[name] = float(value) if 0.0 <= value <= 1.0 else value
        return cls(kind=payload["kind"], **numbers)


def sample_haar_pure(d: int, stream: np.random.Generator) -> PureState:
    """One pure state whose amplitudes are uniform on the unit hypersphere."""
    return PureState(sample_haar_amplitudes(d, 1, stream)[0])


def sample_haar_amplitudes(d: int, count: int, stream: np.random.Generator) -> np.ndarray:
    """Batch of Haar-uniform amplitude rows, shape (count, d).

    Drawing a batch consumes the stream exactly like ``count`` successive
    :func:`sample_haar_pure` calls, so batched and per-call sampling are
    interchangeable bit for bit.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    # 2d standard normals per row, viewed as d complex amplitudes, normalized
    amp = stream.standard_normal((count, 2 * d)).view(np.complex128)
    amp /= np.linalg.norm(amp, axis=1, keepdims=True)
    return amp


def sample_haar_probabilities(d: int, count: int, stream: np.random.Generator) -> np.ndarray:
    """Batch of Haar pure states' outcome probabilities in a fixed basis, shape (count, d).

    A Haar state's amplitudes are d i.i.d. standard complex Gaussians,
    normalized; |z_i|^2 of each Gaussian is an exponential variable, so the
    probabilities |<e_i|psi>|^2 are normalized exponentials: Dirichlet(1, ..., 1),
    uniform on the simplex.  Unitary invariance makes this the law in every
    basis, in particular an observable's eigenbasis (the induced measure of
    Zyczkowski and Sommers, J. Phys. A 34, 7111 (2001)).  Each row is
    ``e / e.sum()`` with ``e = stream.standard_exponential(d)``.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    p = stream.standard_exponential((count, d))
    p /= p.sum(axis=1, keepdims=True)
    return p


def sample_bloch_mixed(law: RadialLaw, stream: np.random.Generator) -> MixedQubitState:
    """One isotropic Bloch-ball state: uniform direction, radius from the law."""
    return MixedQubitState(sample_bloch_vectors(law, 1, stream)[0])


def sample_bloch_vectors(law: RadialLaw, count: int, stream: np.random.Generator) -> np.ndarray:
    """Batch of isotropic Bloch vectors, shape (count, 3).

    All ``count`` directions are drawn first, then all radii, so a batch is
    not ``count`` successive :func:`sample_bloch_mixed` calls.
    """
    u = stream.standard_normal((count, 3))
    return (law.sample_radius(stream, count) / np.linalg.norm(u, axis=1))[:, None] * u
