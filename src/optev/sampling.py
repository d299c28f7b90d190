"""Deterministic per-trial random streams and state-ensemble samplers.

Streams are counter-based: a Philox generator keyed by the pair
(master_seed, trial_index).  Trial k's draws are a pure function of that
pair, so results never depend on worker count or scheduling order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import MixedQubitState, PureState

_MASK64 = (1 << 64) - 1
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.setflags(write=False)


def _philox_state(master_seed: int, trial_index: int) -> dict:
    key = np.array([master_seed, trial_index], dtype=np.uint64)
    return {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_COUNTER.copy(), "key": key},
        "buffer": _ZERO_COUNTER.copy(),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


class RngStream:
    """Reproducible random stream, a pure function of (master_seed, trial_index).

    Two streams constructed from equal pairs produce identical sequences;
    distinct trial indices select statistically independent Philox keys.
    """

    __slots__ = ("master_seed", "trial_index", "generator")

    def __init__(self, master_seed: int, trial_index: int):
        self.master_seed = int(master_seed) & _MASK64
        self.trial_index = int(trial_index) & _MASK64
        bitgen = np.random.Philox(key=0)
        bitgen.state = _philox_state(self.master_seed, self.trial_index)
        self.generator = np.random.Generator(bitgen)

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, trial_index={self.trial_index})"


def derive_stream(master_seed: int, trial_index: int) -> RngStream:
    """Independent, reproducible stream for one trial of one experiment."""
    return RngStream(master_seed, trial_index)


class StreamPool:
    """Re-keys a single Philox generator to serve many trials cheaply.

    ``pool.generator(k)`` yields draws bit-identical to
    ``derive_stream(master_seed, k).generator`` without paying the
    per-trial generator construction cost.  Not thread-safe: one pool
    per worker.
    """

    __slots__ = ("master_seed", "_bitgen", "_generator")

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed) & _MASK64
        self._bitgen = np.random.Philox(key=0)
        self._generator = np.random.Generator(self._bitgen)

    def generator(self, trial_index: int) -> np.random.Generator:
        self._bitgen.state = _philox_state(self.master_seed, int(trial_index) & _MASK64)
        return self._generator


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

    def sample_radius(self, generator: np.random.Generator, size: int | None = None):
        """Draw radii; deterministic laws consume no randomness."""
        if self.kind == "pure-surface":
            return 1.0 if size is None else np.ones(size)
        if self.kind == "fixed-radius":
            return self.radius if size is None else np.full(size, self.radius)
        if self.kind == "uniform-ball":
            return generator.random(size) ** (1.0 / 3.0)
        if size is None:
            return self.radius if generator.random() < self.weight else 0.0
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
        return cls(
            kind=payload["kind"],
            radius=float(payload.get("radius", 1.0)),
            weight=float(payload.get("weight", 1.0)),
        )


def draw_haar_rows(d: int, count: int, generator: np.random.Generator) -> np.ndarray:
    """Haar-uniform amplitude rows, shape (count, d), drawn from ``generator``."""
    # 2d standard normals per row, viewed as d complex amplitudes, normalized
    z = generator.standard_normal((count, 2 * d))
    amp = z.view(np.complex128)
    amp /= np.linalg.norm(amp, axis=1, keepdims=True)
    return amp


def sample_haar_pure(d: int, stream: RngStream) -> PureState:
    """One pure state whose amplitudes are uniform on the unit hypersphere."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    return PureState(draw_haar_rows(d, 1, stream.generator)[0])


def sample_haar_amplitudes(d: int, count: int, stream: RngStream) -> np.ndarray:
    """Batch of Haar-uniform amplitude rows, shape (count, d).

    Drawing a batch consumes the stream exactly like ``count`` successive
    :func:`sample_haar_pure` calls, so batched and per-call sampling are
    interchangeable bit for bit.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    return draw_haar_rows(d, count, stream.generator)


def draw_bloch_vector(law: RadialLaw, generator: np.random.Generator) -> np.ndarray:
    """Isotropic Bloch vector drawn from ``generator``: uniform direction, radius from the law."""
    u = generator.standard_normal(3)
    u /= np.linalg.norm(u)
    return law.sample_radius(generator) * u


def sample_bloch_mixed(law: RadialLaw, stream: RngStream) -> MixedQubitState:
    """Isotropic Bloch vector: uniform direction, radius from the law."""
    return MixedQubitState(draw_bloch_vector(law, stream.generator))
