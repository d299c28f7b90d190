"""Deterministic keyed random streams and state-ensemble samplers.

A stream is a plain ``numpy.random.Generator`` over SFC64, seeded by the
trial_index-th spawned child of ``SeedSequence(master_seed)``, both reduced
modulo 2**64 (:func:`derive_stream`).  Its draws are a pure function of
that pair, so results never depend on worker count or scheduling order.
The harness keys one stream per block of trials, by the index of the
block's first trial.

Pure states are drawn two ways.  :func:`sample_haar_amplitudes` draws the
amplitudes themselves; :func:`sample_haar_counts` draws only the outcome
probabilities in an observable's eigenbasis together with the outcome counts
of N measurements, counts first, which is all the harness's pure-state
kernel needs.  It works in (d, count) layout, one contiguous row per
outcome: a composition's chosen slots are sorted by a compare-exchange
network of ``np.minimum`` and ``np.maximum`` over whole rows, and sums over
outcomes add rows first to last.  Isotropic Bloch-ball states are drawn
the same two ways: :func:`sample_bloch_vectors` draws whole Bloch vectors,
:func:`sample_bloch_components` only their components along one axis, which
is all a qubit observable sees of them.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .estimators import check_copies
from .hermitian import MixedQubitState, PureState

_MASK64 = (1 << 64) - 1


def derive_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """Independent, reproducible stream keyed by (master_seed, trial_index).

    The stream is ``Generator(SFC64(SeedSequence(s, spawn_key=(k,))))`` for
    s = master_seed and k = trial_index, integers reduced modulo 2**64.  That
    seed sequence is exactly ``SeedSequence(s).spawn(k + 1)[k]``, numpy's
    k-th child of the master seed, whose mixing hashes distinct pairs to
    unrelated 192-bit states.  SFC64's 64-bit counter starts at one value in
    every seeded stream and steps once per output, and its step is a
    bijection, so two streams could only meet at equal output counts, and
    would then have been equal from the start: no two overlap within their
    first 2**64 outputs.  No OS entropy is read.
    """
    s, k = operator.index(master_seed) & _MASK64, operator.index(trial_index) & _MASK64
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(s, spawn_key=(k,))))


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


def sample_haar_counts(
    d: int, copies: int, count: int, stream: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Haar pure states' eigenbasis probabilities and the outcome counts of ``copies``
    measurements of each, both of shape (d, count), drawn counts first: row i
    holds outcome i of every state, so a sum over outcomes adds whole rows.

    A Haar state's amplitudes are d i.i.d. standard complex Gaussians,
    normalized, so its probabilities p in any fixed basis are normalized
    exponentials: Dirichlet(1, ..., 1), uniform on the simplex (the induced
    measure of Zyczkowski and Sommers, J. Phys. A 34, 7111 (2001)).  With
    counts c | p multinomial(N, p), Dirichlet-multinomial conjugacy gives the
    same joint law the other way round: c uniform over the C(N+d-1, d-1)
    compositions of N into d parts, then p | c Dirichlet(1 + c).  A
    composition is a uniform choice of the N "stars" among N + d - 1 stars
    and bars slots (:func:`_uniform_subsets`).  For N <= d the stars are
    drawn; the star in slot s with r stars before it lies in part s - r, and
    each part's probability is one ``standard_exponential`` default datum
    plus one more exponential per copy observed in it.  For N > d the d - 1
    bars are drawn, and p is ``standard_gamma(c + 1.0)``.  Either way p is
    divided by the sum of its d rows, added first to last.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if count < 1:
        raise ValueError(f"need count >= 1, got {count}")
    check_copies(copies)
    slots = copies + d - 1
    if copies <= d:
        # stars up to N = d, one more than the d - 1 bars: an exponential
        # costs about a quarter of a gamma
        part = _uniform_subsets(slots, copies, count, stream).view(np.int64)
        part -= np.arange(copies)[:, None]
        # flat indices into the (d, count) rows
        part *= count
        part += np.arange(count)
        p = stream.standard_exponential((d, count))
        flat = p.reshape(-1)
        # one star of every state at a time, so no index repeats within a step
        for star in part:
            flat[star] += stream.standard_exponential(count)
        counts = np.bincount(part.reshape(-1), minlength=p.size).reshape(d, count)
    else:
        bars = _uniform_subsets(slots, d - 1, count, stream)
        # part i holds the stars between bar i - 1 and bar i, where bar -1
        # is at slot -1 and bar d - 1 at slot N + d - 1
        counts = np.empty((d, count), dtype=np.uint64)
        counts[:-1] = bars
        counts[-1] = slots
        counts[1:] -= bars
        del bars
        counts[1:] -= np.uint64(1)
        counts = counts.view(np.int64)
        p = counts + 1.0
        stream.standard_gamma(p, out=p)
    # numpy adds the rows of a C-ordered array's outer axis one at a time, in order
    p /= p.sum(axis=0)
    return p, counts


def _uniform_subsets(slots: int, k: int, count: int, stream: np.random.Generator) -> np.ndarray:
    """``count`` uniform k-subsets of range(slots), one uint64 column each,
    sorted down the column: shape (k, count).

    Floyd's algorithm: for j = slots - k, ..., slots - 1 in turn, draw t
    uniform in [0, j] and take t, or j if t is already taken; one integer
    per column and step.  Slots are uint64, which holds N + d - 1 for every
    N below 2**63 at any d below 2**63.  The columns are sorted by
    :func:`_sort_network` on whole rows.
    """
    # one spare row for the network
    chosen = np.empty((k + 1, count), dtype=np.uint64)
    for i, j in enumerate(range(slots - k, slots)):
        chosen[i] = stream.integers(0, j + 1, size=count, dtype=np.uint64)
        if i:
            np.copyto(chosen[i], np.uint64(j), where=(chosen[:i] == chosen[i]).any(axis=0))
    return _sort_network(chosen)


def _sort_network(rows: np.ndarray) -> np.ndarray:
    """The first k of k + 1 rows, each column sorted ascending, as a (k, columns) array.

    Batcher's odd-even merge sort (Knuth, TAOCP vol. 3, 5.3.4) as
    compare-exchanges of whole rows: ``np.minimum`` into the spare row and
    ``np.maximum`` in place, after which the spare holds the lower item and
    the old lower row is the spare, so no row is copied until the one
    gather at the end.  The contents of ``rows`` are overwritten.
    """
    steps, order = _network_schedule(rows.shape[0] - 1)
    views = list(rows)
    for low, high, spare in steps:
        np.minimum(views[low], views[high], out=views[spare])
        np.maximum(views[low], views[high], out=views[high])
    return rows[: len(order)] if order == tuple(range(len(order))) else rows[list(order)]


@functools.cache
def _network_schedule(k: int) -> tuple[tuple[tuple[int, int, int], ...], tuple[int, ...]]:
    """The rows (low, high, spare) of each compare-exchange of :func:`_sort_network`
    on k + 1 rows, and the rows that hold sorted positions 0, ..., k - 1 at the end.

    The pairs are Batcher's for the next power of two above k, without those
    that reach past k (items there would be +infinity and never move).
    """
    steps = []
    # order[i] is the row that holds position i, order[k] the spare
    order = list(range(k + 1))
    p = 1
    while p < k:
        step = p
        while step:
            for j in range(step % p, k - step, 2 * step):
                for i in range(j, j + min(step, k - j - step)):
                    # both items in the same merge of two sorted runs of p
                    if i // (2 * p) == (i + step) // (2 * p):
                        steps.append((order[i], order[i + step], order[k]))
                        order[i], order[k] = order[k], order[i]
            step //= 2
        p *= 2
    return tuple(steps), tuple(order[:k])


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


def sample_bloch_components(law: RadialLaw, count: int, stream: np.random.Generator) -> np.ndarray:
    """Batch of isotropic Bloch vectors' components along one fixed axis, shape (count,).

    A uniform direction's component along any fixed unit axis is uniform on
    [-1, 1] (Archimedes' hat-box theorem), and the radius is independent of
    the direction, so each value is ``radius * (2u - 1)``.  All ``count``
    uniforms are drawn first, then all radii, as in
    :func:`sample_bloch_vectors`.
    """
    s = 2.0 * stream.random(count) - 1.0
    s *= law.sample_radius(stream, count)
    return s
