"""Deterministic keyed random streams and the state ensembles.

A stream is a plain ``numpy.random.Generator`` over SFC64, seeded by the
trial_index-th spawned child of ``SeedSequence(master_seed)``, both reduced
modulo 2**64 (:func:`derive_stream`).  Its draws are a pure function of
that pair, so results never depend on worker count or scheduling order.
The harness keys one stream per block of trials, by the index of the
block's first trial, and draws it with :func:`keyed_stream`: the drawing
thread's one kept generator, set to the stream's start state, which a cache
keeps for the ``STREAM_STATES`` = 256 most recently used keys (about 160 KiB
when full), so a block whose key recurs derives no seed sequence.

Each ensemble is one frozen object, :data:`HAAR_PURE` or a :class:`RadialLaw`
(a qubit Bloch-ball law), owning its CSV label, config-JSON form, Bloch
second moment (None for Haar), its per-block ``draw`` and its per-run
``finish``, which turns a run's drawn blocks into truths and value sums.

Pure states are drawn two ways.  :func:`sample_haar_amplitudes` draws the
amplitudes themselves; :meth:`HaarPure.draw` only the outcome probabilities
in an observable's eigenbasis together with the outcome counts of N
measurements (:func:`_draw_haar_counts`), in one of three ways by N: one
outcome and then the state at N = 1; the state and then its N outcomes by
inverse CDF up to N = :func:`_state_first_bound` (d), about 10 sqrt(d) and
never below d; above it the counts, as the bars of a uniform composition
sorted by a compare-exchange network of ``np.minimum`` and ``np.maximum``
over whole rows, and then the state.  Each works in (d, count) layout, one
contiguous row per outcome, and sums over outcomes add rows first to last
(:func:`optev.hermitian.eigenvalue_sum`).  A Haar block's probabilities,
counts and temporaries live in :func:`scratch` buffers that the drawing
thread keeps, so a block allocates no (d, count) array.  Isotropic
Bloch-ball states are drawn the same two ways: :func:`sample_bloch_vectors`
draws whole Bloch vectors, :meth:`RadialLaw.draw` only their components
along one axis, which is all a qubit observable sees of them.  A Bloch block
only reads its stream; :meth:`RadialLaw.finish` does the arithmetic once per
run.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from dataclasses import dataclass

import numpy as np

from .hermitian import Observable, PureState, eigenvalue_sum, frozen

_MASK64 = (1 << 64) - 1

# each thread's scratch buffers, by name; see scratch
_kept = threading.local()


def scratch(name: str, *shape: int, dtype=np.float64) -> np.ndarray:
    """This thread's kept buffer ``name`` as a C-ordered ``shape`` array of ``dtype``,
    contents undefined.

    A buffer only grows, to the largest request its thread has made, and lives
    as long as the thread, so the hot path's temporaries cost no malloc and no
    page fault once warm.  The array stays valid until the same thread asks
    for ``name`` at a larger size, and its contents until a caller of ``name``
    writes them, so a caller never hands one on; the harness keeps a thread's
    last draw in that thread's ``"run"`` rows on this rule.  A request of
    2**63 bytes or more, which numpy refuses, raises ``MemoryError``.
    """
    try:
        return np.ndarray(shape, dtype, getattr(_kept, name))
    except (AttributeError, TypeError, ValueError):
        # no buffer of that name yet in this thread, or one too small for shape
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if size >= 2**63:
            raise MemoryError(f"buffer {name!r} of shape {shape} needs {size} bytes") from None
        buffer = np.empty(size, dtype=np.uint8)
        setattr(_kept, name, buffer)
        return np.ndarray(shape, dtype, buffer)


def _key(master_seed: int, trial_index: int) -> tuple[int, int]:
    """A stream's key, both integers reduced modulo 2**64."""
    return operator.index(master_seed) & _MASK64, operator.index(trial_index) & _MASK64


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
    s, k = _key(master_seed, trial_index)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(s, spawn_key=(k,))))


# how many start states _start_state keeps: enough for the 245 blocks of 4096
# trials in a 10**6-trial run
STREAM_STATES = 256


@functools.lru_cache(maxsize=STREAM_STATES)
def _start_state(s: int, k: int) -> dict:
    """The SFC64 state that :func:`derive_stream` (s, k) starts from, its array read-only."""
    state = derive_stream(s, k).bit_generator.state
    frozen(state["state"]["state"])
    return state


def keyed_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """This thread's kept generator, set to where ``derive_stream(master_seed, trial_index)``
    starts, so it draws what a fresh one would, bit for bit.

    Restoring a state costs under a microsecond, deriving one through the seed
    sequence 11-18 us; :func:`_start_state` keeps the ``STREAM_STATES`` most
    recently used, about 0.6 KB each, for every thread (its lookups take a lock,
    and two threads that miss on one key store equal states).  The generator
    is valid until its thread asks again.
    """
    try:
        generator = _kept.generator
    except AttributeError:
        # a fixed seed, so no OS entropy is read; the state is set below
        generator = _kept.generator = np.random.Generator(np.random.SFC64(0))
    generator.bit_generator.state = _start_state(*_key(master_seed, trial_index))
    return generator


@dataclass(frozen=True)
class HaarPure:
    """The unitary-invariant pure-state ensemble, the paper's prior; use :data:`HAAR_PURE`."""

    qubit_only = False
    threaded = True  # a block's numpy calls release the GIL

    def label(self) -> str:
        return "haar-pure"

    def to_json(self) -> str:
        return "haar-pure"

    def second_moment(self) -> None:
        return None

    def draw(self, obs: Observable, copies: int, generator: np.random.Generator, truths, sums) -> None:
        """Write ``truths.size`` trials' truths sum_i w_i p_i and value sums sum_i w_i c_i
        into ``truths`` and ``sums`` by :func:`optev.hermitian.eigenvalue_sum`.  The
        products are formed in p's kept buffer, the sums' after the truths'."""
        p, counts = scratch("p", obs.dim, truths.size), scratch("counts", obs.dim, truths.size, dtype=np.int64)
        _draw_haar_counts(copies, generator, p, counts)
        eigenvalue_sum(p, obs.eigenvalues, out=truths, products=p)
        eigenvalue_sum(counts, obs.eigenvalues, out=sums, products=p)

    def finish(self, obs: Observable, copies: int, truths, sums, work) -> None:
        """Nothing: each Haar block writes its truths and sums whole."""


HAAR_PURE = HaarPure()

# the parameters each radial-law kind reads, in the order its CSV label names them
_LAW_PARAMETERS = {
    "pure-surface": (), "uniform-ball": (), "fixed-radius": ("radius",), "two-point": ("radius", "weight")
}


@dataclass(frozen=True)
class RadialLaw:
    """Isotropic Bloch-ball ensemble on a qubit, given by the law of the Bloch length.

    Kinds and their second moments <n^2>:
      pure-surface  -> 1
      uniform-ball  -> 3/5
      fixed-radius  -> radius^2
      two-point     -> weight * radius^2   (radius with prob. weight, else 0)
    """

    qubit_only = True
    threaded = False  # a block is a few short numpy calls, which threads would only slow

    kind: str
    radius: float = 1.0
    weight: float = 1.0

    def __post_init__(self):
        if self.kind not in _LAW_PARAMETERS:
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

    def _constant_radius(self) -> float | None:
        """The radius of every state, or None for a law that draws it."""
        return {"pure-surface": 1.0, "fixed-radius": self.radius}.get(self.kind)

    def sample_radius(self, generator: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` radii; deterministic laws consume no randomness."""
        radius = self._constant_radius()
        if radius is not None:
            return np.full(size, radius)
        if self.kind == "uniform-ball":
            return generator.random(size) ** (1.0 / 3.0)
        return np.where(generator.random(size) < self.weight, self.radius, 0.0)

    def draw(self, obs: Observable, copies: int, generator: np.random.Generator, truths, sums) -> None:
        """A block's stream reads, of each state's Bloch component s along the top
        eigenvector's Bloch vector m, on which truth and outcome law depend alone;
        :meth:`finish` then turns a run's blocks into truths and sums, once.

        A uniform direction's component along a fixed axis is uniform on [-1, 1]
        (Archimedes' hat-box theorem), so s = radius * (2u - 1), all uniforms u first,
        then all radii.  The top eigenvalue is seen with probability (1 + s)/2: one
        uniform per trial for one copy, one binomial draw for more.  A block leaves
        u in ``truths``, or s where it draws the radii or the binomial reads s, and
        the outcome uniforms in ``sums``, or the top counts as int64 in its bytes.
        """
        generator.random(out=truths)
        if self._block_forms_component(copies):
            _to_component(truths, self.sample_radius(generator, truths.size))
        if copies == 1:
            generator.random(out=sums)
        else:
            # an int64 count is exact for every N below 2**63
            sums.view(np.int64)[...] = generator.binomial(copies, 0.5 * (1.0 + truths))

    def finish(self, obs: Observable, copies: int, truths, sums, work) -> None:
        """Turn the stream reads that :meth:`draw` left in ``truths`` and ``sums``, over
        any run of its blocks, into the truths and value sums, in place, with one
        numpy call per step over the whole run: s, then the outcomes, then the truths.
        ``work`` is a float64 array of their size whose contents it overwrites."""
        w = obs.eigenvalues
        if not self._block_forms_component(copies):
            _to_component(truths, self._constant_radius())
        # the count vector [top, N - top] dotted with the two eigenvalues
        if copies == 1:
            # in [0, 1] exactly, since |s| <= 1
            p_top = np.add(truths, 1.0, out=work)
            p_top *= 0.5
            top = np.less(sums, p_top, out=sums)  # exact 0.0 and 1.0
            rest = np.subtract(1.0, top, out=work)
        else:
            top = sums.view(np.int64)
            rest = np.subtract(copies, top, out=work.view(np.int64))  # exact
        rest = np.multiply(rest, w[1], out=work)
        np.multiply(top, w[0], out=sums)
        sums += rest
        # tr[rho Omega] = (tr Omega + r.tau)/2, tau is parallel to m and |tau| = w0 - w1
        truths *= w[0] - w[1]
        truths += obs.trace
        truths *= 0.5

    def _block_forms_component(self, copies: int) -> bool:
        """Whether :meth:`draw` forms s: the binomial reads it, and drawn radii have no slot to wait in."""
        return copies > 1 or self._constant_radius() is None

    def label(self) -> str:
        """``bloch(kind)``, or ``bloch(kind(r=...,w=...))`` naming the kind's parameters."""
        law = self.to_dict()
        kind = law.pop("kind")
        params = ",".join(f"{name[0]}={value!r}" for name, value in law.items())
        return f"bloch({kind}({params}))" if params else f"bloch({kind})"

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{name: getattr(self, name) for name in _LAW_PARAMETERS[self.kind]}}

    def to_json(self) -> dict:
        return {"bloch": self.to_dict()}

    @classmethod
    def from_dict(cls, payload: dict) -> "RadialLaw":
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ValueError(f"radial law must be an object with a 'kind', got {payload!r}")
        kind = payload["kind"]
        if not isinstance(kind, str) or kind not in _LAW_PARAMETERS:
            raise ValueError(f"unknown radial law kind: {kind!r}")
        # a key the kind does not read would be dropped by to_dict
        unknown = payload.keys() - {"kind", *_LAW_PARAMETERS[kind]}
        if unknown:
            raise ValueError(f"radial law {kind} has unknown keys: {sorted(unknown)}")
        numbers = {}
        for name in _LAW_PARAMETERS[kind]:
            value = payload.get(name, 1.0)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"radial law {name} must be a number, got {value!r}")
            # a value outside [0, 1] reaches the range check as given, so an
            # int too large for a float is rejected instead of overflowing
            numbers[name] = float(value) if 0.0 <= value <= 1.0 else value
        return cls(kind=kind, **numbers)


def _to_component(values: np.ndarray, radius) -> None:
    """Uniforms u to Bloch components radius * (2u - 1), in place."""
    values *= 2.0
    values -= 1.0
    values *= radius


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


def _state_first_bound(d: int) -> int:
    """The largest N drawn state first at dimension d: floor(10 sqrt(d)), or d from
    d = 101 on, at or below the N where state first and counts first cost the same
    at every d measured, 2 to 128.  Counts first pays Floyd's O(d^2) choice of
    the d - 1 bars, state first O(d N) comparisons, so the bars only draw N > d."""
    return max(d, math.isqrt(100 * d))


def _draw_haar_counts(copies: int, stream: np.random.Generator, p: np.ndarray, counts: np.ndarray) -> None:
    """Haar pure states' eigenbasis probabilities and the outcome counts of ``copies``
    measurements of each, drawn into ``p`` and ``counts``, (d, count) float64 and
    int64, with every other array this thread's :func:`scratch`: row i holds
    outcome i of every state, so a sum over outcomes adds whole rows.

    A Haar state's amplitudes are d i.i.d. standard complex Gaussians,
    normalized, so its probabilities p in any fixed basis are normalized
    exponentials: Dirichlet(1, ..., 1), uniform on the simplex (the induced
    measure of Zyczkowski and Sommers, J. Phys. A 34, 7111 (2001)).  The
    counts c | p are multinomial(N, p); Dirichlet-multinomial conjugacy gives
    the same joint law the other way round, c uniform over the C(N+d-1, d-1)
    compositions of N into d parts and then p | c Dirichlet(1 + c).  Three
    ranges of N draw three ways:

    - N = 1: one outcome uniform in range(d), then p is one
      ``standard_exponential`` per part plus one more in the observed part.
    - 2 <= N <= :func:`_state_first_bound` (d): state first.  p is d
      exponentials with total T, and each copy's outcome is the i with
      p_0 + ... + p_{i-1} <= u T < p_0 + ... + p_i for a uniform u, found
      by :func:`_inverse_cdf_counts` with no per-copy index.
    - larger N: counts first, the d - 1 bars of a uniform choice among the
      N + d - 1 stars and bars slots (:func:`_uniform_subsets`), and p is
      ``standard_gamma(c + 1.0)``, whose cost hardly grows with N, while the
      state-first draw pays N comparisons per outcome.

    Each way p is divided by the sum of its d rows, added first to last.
    """
    d, count = p.shape
    if copies == 1:
        # the flat index into the (d, count) rows of each state's one outcome
        outcome = stream.integers(0, d, size=count, dtype=np.uint64).view(np.int64)
        outcome *= count
        outcome += np.arange(count)
        stream.standard_exponential(out=p)
        p.reshape(-1)[outcome] += stream.standard_exponential(out=scratch("extra", count))
        counts.fill(0)
        counts.reshape(-1)[outcome] = 1
    elif copies <= _state_first_bound(d):
        stream.standard_exponential(out=p)
        total = eigenvalue_sum(p, out=scratch("total", count))
        _inverse_cdf_counts(copies, stream, p, total, counts)
        p /= total
        return
    else:
        # part i holds the stars between bar i - 1 and bar i, where bar -1
        # is at slot -1 and bar d - 1 at slot N + d - 1: the bars go to the
        # first d - 1 rows, then each row from the last loses the one above
        slots = copies + d - 1
        bars = counts.view(np.uint64)
        _uniform_subsets(slots, stream, bars[:-1])
        bars[-1] = slots
        for i in range(d - 1, 0, -1):
            bars[i] -= bars[i - 1]
        bars[1:] -= np.uint64(1)
        np.add(counts, 1.0, out=p)
        stream.standard_gamma(p, out=p)
    p /= eigenvalue_sum(p, out=scratch("total", count))


def _inverse_cdf_counts(
    copies: int, stream: np.random.Generator, p: np.ndarray, total: np.ndarray, counts: np.ndarray
) -> None:
    """``counts``, (d, count) int64, filled with the outcomes of ``copies`` draws
    from each column of ``p``, whose sums are ``total``: copy n of a state lands
    on outcome i when p_0 + ... + p_{i-1} <= u_n T < p_0 + ... + p_i, for N
    uniforms u_n and the running sums added first to last from +0.0.

    Outcome i's count is how many u_n T lie below the running sum to i, less
    how many lie below the one to i - 1, counted down each column in the
    narrowest unsigned type that holds N; the rest, u_n T rounded up to T
    included, is outcome d - 1.  The temporaries are N rows of uniforms and of
    comparisons and three more rows, so no (d - 1, N, count) array is formed.
    """
    d, count = p.shape
    # the buffer of Floyd's slots on the bars side: a thread keeps the larger, not both
    scaled = stream.random(out=scratch("draws", copies, count))
    scaled *= total
    below = scratch("below", copies, count, dtype=np.bool_)
    running = scratch("running", count)
    running.fill(0.0)
    previous, current = scratch("hits", 2, count, dtype=np.min_scalar_type(copies))
    previous.fill(0)
    for i in range(d - 1):
        running += p[i]
        np.less(scaled, running, out=below)
        np.add.reduce(below.view(np.uint8), axis=0, dtype=current.dtype, out=current)
        # exact: the running sums never decrease, so neither do the hits
        np.subtract(current, previous, out=counts[i])
        previous, current = current, previous
    np.subtract(copies, previous, out=counts[-1])


def _uniform_subsets(slots: int, stream: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """``out``, of shape (k, count), filled with ``count`` uniform k-subsets of
    range(slots), one uint64 column each, sorted down the column.

    Floyd's algorithm: for j = slots - k, ..., slots - 1 in turn, draw t
    uniform in [0, j] and take t, or j if t is already taken; one integer
    per column and step.  Slots are uint64, which holds N + d - 1 for every
    N below 2**63 at any d below 2**63.  The columns are sorted by
    :func:`_sort_network` on whole rows.
    """
    k, count = out.shape
    # one spare row for the network
    chosen = scratch("draws", k + 1, count, dtype=np.uint64)
    for i, j in enumerate(range(slots - k, slots)):
        chosen[i] = stream.integers(0, j + 1, size=count, dtype=np.uint64)
        if i:
            np.copyto(chosen[i], np.uint64(j), where=(chosen[:i] == chosen[i]).any(axis=0))
    return _sort_network(chosen, out)


def _sort_network(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out``, of shape (k, columns), filled with the first k of k + 1 rows, each
    column sorted ascending.

    Batcher's odd-even merge sort (Knuth, TAOCP vol. 3, 5.3.4) as
    compare-exchanges of whole rows: ``np.minimum`` into the spare row and
    ``np.maximum`` in place, after which the spare holds the lower item and
    the old lower row is the spare, so no row is copied until the one
    gather into ``out`` at the end.  The contents of ``rows`` are overwritten.
    """
    steps, order = _network_schedule(rows.shape[0] - 1)
    views = list(rows)
    for low, high, spare in steps:
        np.minimum(views[low], views[high], out=views[spare])
        np.maximum(views[low], views[high], out=views[high])
    # mode="clip" checks no index, so take writes out directly, unbuffered
    return np.take(rows, order, axis=0, out=out, mode="clip")


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


def sample_bloch_mixed(law: RadialLaw, stream: np.random.Generator) -> np.ndarray:
    """One isotropic Bloch-ball state's read-only (3,) Bloch vector: uniform direction, radius from the law."""
    return frozen(sample_bloch_vectors(law, 1, stream)[0])


def sample_bloch_vectors(law: RadialLaw, count: int, stream: np.random.Generator) -> np.ndarray:
    """Batch of isotropic Bloch vectors, shape (count, 3).

    All ``count`` directions are drawn first, then all radii, so a batch is
    not ``count`` successive :func:`sample_bloch_mixed` calls.
    """
    u = stream.standard_normal((count, 3))
    return (law.sample_radius(stream, count) / np.linalg.norm(u, axis=1))[:, None] * u
