"""Exact totally-symmetric-subspace machinery on small tensor powers.

Dense constructions of the symmetrizer S_n on (C^d)^(x n), one-body
embeddings, the shrinkage operator built from them, partial traces, and
ensemble averages of tensor powers.  Instances are capped at d**n <= 4096
so every identity can be certified at machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import combinations

import numpy as np

from .estimators import EstimatorKind, affine_form, estimate_from_sums
from .hermitian import Observable, eigenvalue_sum, frozen, make_observable
from .sampling import sample_haar_amplitudes

DIMENSION_GUARD = 4096
# states per batch in haar_average_tensor_power; the batching fixes the
# summation order of the average, so changing it changes its last bits
HAAR_CHUNK = 65536
_INT64_MAX = 2**63 - 1


def symmetric_dimension(d: int, n: int) -> int:
    """Dimension of the totally symmetric subspace: C(n+d-1, d-1), exact."""
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    value = math.comb(n + d - 1, d - 1)
    if value > _INT64_MAX:
        raise OverflowError(f"symmetric dimension C({n + d - 1},{d - 1}) exceeds 64-bit range")
    return value


def _check_dense(d: int, n: int) -> None:
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if d**n > DIMENSION_GUARD:
        raise ValueError(f"d**n = {d**n} exceeds the dense-construction guard {DIMENSION_GUARD}")


def _occupation_table(d: int, n: int) -> np.ndarray:
    """Row x holds how many of the n base-d digits of basis index x equal each level 0..d-1."""
    digits = np.arange(d**n)[:, None] // d ** np.arange(n) % d
    return np.stack([(digits == v).sum(axis=1) for v in range(d)], axis=1)


def random_observable(d: int, generator: np.random.Generator) -> Observable:
    """The Hermitian part (B + B^dagger)/2 of a complex Gaussian d x d matrix B."""
    raw = generator.standard_normal((d, d)) + 1j * generator.standard_normal((d, d))
    return make_observable((raw + raw.conj().T) / 2.0)


def product_eigenbasis(obs: Observable, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Kronecker eigenvector columns of the n-fold power and, as a (d, d**n) array,
    each column's occupation counts: how many of its n slots hold each eigenvector."""
    vectors = reduce(np.kron, [obs.eigenvectors] * n)
    return vectors, _occupation_table(obs.dim, n).T


@dataclass(frozen=True)
class SymmetricProjector:
    """Projector S_n onto the symmetric subspace of the n-fold tensor power."""

    matrix: np.ndarray
    dimension: int


def build_projector_permutation(d: int, n: int) -> SymmetricProjector:
    """S_n as the sum of all n! tensor-factor permutations divided by n!.

    The n!-scaled sum is accumulated exactly in int64 through the coset
    recursion  k! S_k = (sum over j of the (j,k) transposition) (k-1)! S_{k-1} x 1,
    which reproduces the full permutation sum entry for entry, independent
    of enumeration order, then divides once.
    """
    _check_dense(d, n)
    scaled = np.eye(d, dtype=np.int64)
    for k in range(2, n + 1):
        # axes 0..k-1 are the row's tensor slots, so swapping two permutes rows
        grown = np.kron(scaled, np.eye(d, dtype=np.int64)).reshape([d] * k + [d**k])
        acc = grown.copy()  # the j = k (identity) coset
        for j in range(k - 1):
            acc += np.swapaxes(grown, j, k - 1)
        scaled = acc.reshape(d**k, d**k)
    matrix = scaled / math.factorial(n)
    return SymmetricProjector(matrix=frozen(matrix), dimension=symmetric_dimension(d, n))


def enumerate_occupations(d: int, n: int) -> list[tuple[int, ...]]:
    """All d-tuples of nonnegative counts summing to n, lexicographic order."""
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    # stars and bars: d - 1 bars among n + d - 1 slots, each part the gap
    # between consecutive bars; bars in lexicographic order give parts in it
    return [
        tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (n + d - 1,)))
        for bars in combinations(range(n + d - 1), d - 1)
    ]


def occupation_basis_vector(d: int, n: int, counts) -> np.ndarray:
    """Normalized symmetric basis vector with the given occupation counts.

    The equal-amplitude sum over the multinomial(n; counts) distinct product
    states, scaled by the reciprocal square root of that multiplicity.
    """
    _check_dense(d, n)
    counts = tuple(int(c) for c in counts)
    if len(counts) != d or any(c < 0 for c in counts) or sum(counts) != n:
        raise ValueError(f"occupation counts must be {d} nonnegative integers summing to {n}, got {counts}")
    ids = np.flatnonzero((_occupation_table(d, n) == np.array(counts)).all(axis=1))
    vec = np.zeros(d**n)
    vec[ids] = 1.0 / math.sqrt(ids.size)
    return vec


def build_projector_occupation(d: int, n: int) -> SymmetricProjector:
    """S_n as the sum of occupation-number basis projectors.

    Independent of the permutation-sum route: within each occupation class of
    multiplicity m the projector block is the constant matrix 1/m, and
    distinct classes do not mix.
    """
    _check_dense(d, n)
    occ = _occupation_table(d, n)
    matrix = np.zeros((d**n, d**n))
    classes = enumerate_occupations(d, n)
    for counts in classes:
        ids = np.flatnonzero((occ == np.array(counts)).all(axis=1))
        matrix[np.ix_(ids, ids)] = 1.0 / ids.size
    return SymmetricProjector(matrix=frozen(matrix), dimension=len(classes))


def embed_one_body(obs: Observable, position: int, copies: int) -> np.ndarray:
    """The observable acting on one tensor slot: 1 x ... x Omega x ... x 1.

    ``position`` is 1-based; position 1 is the leftmost Kronecker factor.
    """
    if not 1 <= position <= copies:
        raise ValueError(f"position must lie in [1, {copies}], got {position}")
    d = obs.dim
    _check_dense(d, copies)
    left = np.eye(d ** (position - 1))
    right = np.eye(d ** (copies - position))
    return np.kron(np.kron(left, obs.matrix), right)


def estimator_operator(kind: EstimatorKind | str, obs: Observable, copies: int, n2: float | None = None) -> np.ndarray:
    """An estimator as an operator on the N-fold power: (alpha tr Omega 1 + beta sum_n Omega(n)) / gamma.

    (alpha, beta, gamma) is :func:`optev.estimators.affine_form`'s row, domain
    included.  The operator is diagonal in the product eigenbasis, where its
    eigenvalue on |i_1 ... i_N> is the estimate for those outcomes: the
    shrinkage operator (tr Omega + sum_n Omega(n)) / (N + d) for the optimal
    estimate, and for the sample average the one-body average
    (1/N) sum_n Omega(n), with tr[rho^(x N) .] = tr[rho Omega].
    """
    alpha, beta, gamma = affine_form(kind, copies, obs.dim, n2)
    _check_dense(obs.dim, copies)
    if EstimatorKind(kind) is EstimatorKind.OPTIMAL_MIXED_QUBIT:
        # n2's denominator, in alpha and gamma, passes the float range at a
        # subnormal n2: each ratio of ints is the correctly rounded quotient
        alpha, beta, gamma = alpha / gamma, beta / gamma, 1
    total = alpha * obs.trace * np.eye(obs.dim**copies, dtype=complex)
    for position in range(1, copies + 1):
        total += beta * embed_one_body(obs, position, copies)
    return total / gamma


def partial_trace_last(matrix: np.ndarray, d: int, copies: int) -> np.ndarray:
    """Contract the last tensor factor of a d**copies-dimensional operator."""
    if copies < 1 or d < 1:
        raise ValueError(f"need d >= 1 and copies >= 1, got d={d}, copies={copies}")
    full = d**copies
    m = np.asarray(matrix)
    if m.shape != (full, full):
        raise ValueError(f"matrix shape {m.shape} does not match (d**copies, d**copies) = ({full}, {full})")
    rest = d ** (copies - 1)
    return np.einsum("ikjk->ij", m.reshape(rest, d, rest, d))


def tensor_power_rows(amplitudes: np.ndarray, n: int) -> np.ndarray:
    """Row-wise n-fold Kronecker power: (m, d) -> (m, d**n)."""
    rows = amplitudes
    for _ in range(n - 1):
        rows = (rows[:, :, None] * amplitudes[:, None, :]).reshape(amplitudes.shape[0], -1)
    return rows


def haar_average_tensor_power(d: int, n: int, trials: int, stream: np.random.Generator) -> np.ndarray:
    """Empirical mean of rho^(x n) over Haar-uniform pure states.

    Converges to S_n / d_n; the sampler consumes the stream identically to
    ``trials`` successive single-state draws.
    """
    _check_dense(d, n)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    size = d**n
    acc = np.zeros((size, size), dtype=complex)
    remaining = trials
    while remaining > 0:
        m = min(HAAR_CHUNK, remaining)
        amps = sample_haar_amplitudes(d, m, stream)
        rows = tensor_power_rows(amps, n)
        acc += rows.T @ rows.conj()
        remaining -= m
    return acc / trials


@dataclass(frozen=True)
class LemmaReport:
    """Deviations from both directions of the symmetric-support lemma."""

    forward_max_deviation: float
    forward_tolerance: float
    converse_max_deviation: float
    converse_tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.forward_max_deviation <= self.forward_tolerance
            and self.converse_max_deviation <= self.converse_tolerance
        )


def check_unbiased_lemma(d: int, copies: int, trials: int, stream: np.random.Generator) -> LemmaReport:
    """Numerical check of: tr[A rho^(x N)] = 0 for all pure rho iff S A S = 0.

    Forward: for a random Hermitian B, A = B - S B S satisfies S A S = 0, so
    tr[A rho^(x N)] must vanish on every sampled pure state.  Converse
    instance: the product-eigenprojector POVM weighted by sample averages
    reproduces the one-body average operator inside the symmetric subspace.
    """
    _check_dense(d, copies)
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    size = d**copies
    s = build_projector_permutation(d, copies).matrix

    raw = stream.standard_normal((size, size)) + 1j * stream.standard_normal((size, size))
    b = (raw + raw.conj().T) / 2.0
    a = b - s @ b @ s
    amps = sample_haar_amplitudes(d, trials, stream)
    rows = tensor_power_rows(amps, copies)
    values = np.einsum("bi,ij,bj->b", rows.conj(), a, rows)
    forward = float(np.abs(values).max())

    # sample-average POVM: sum_a omega_a E_a with E_a the product
    # eigenprojectors of a random observable and omega_a the sample averages
    obs = random_observable(d, stream)
    vkron, occupations = product_eigenbasis(obs, copies)
    averaged = estimate_from_sums("sample-average", eigenvalue_sum(occupations, obs.eigenvalues), copies, obs)
    weighted = (vkron * averaged) @ vkron.conj().T
    deviation_op = s @ (weighted - estimator_operator("sample-average", obs, copies)) @ s
    converse = float(np.abs(deviation_op).max())

    return LemmaReport(
        forward_max_deviation=forward,
        forward_tolerance=1e-10,
        converse_max_deviation=converse,
        converse_tolerance=1e-12,
    )
