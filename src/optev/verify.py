"""Machine-precision certification of every symmetric-subspace identity.

Each check constructs the relevant operators densely, evaluates both sides
of an identity, and reports the worst deviation against a fixed tolerance.
The ``fast`` level covers qubits up to three copies; ``full`` sweeps the
whole d**n <= 4096 construction range plus the operator-identity grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimators import analytic_delta_av, analytic_delta_opt, ensemble_moments, estimate_from_sums
from .hermitian import Observable, eigenvalue_sum
from .sampling import derive_stream, sample_haar_amplitudes
from .symmetric import (
    build_projector_occupation,
    build_projector_permutation,
    check_unbiased_lemma,
    embed_one_body,
    estimator_operator,
    partial_trace_last,
    product_eigenbasis,
    random_observable,
    symmetric_dimension,
    tensor_power_rows,
)

# (d, n) cells for the projector-construction checks
FAST_PROJECTOR_PAIRS = ((2, 2), (2, 3))
FULL_PROJECTOR_PAIRS = tuple(
    (d, n)
    for d, n_max in ((2, 10), (3, 7), (4, 6), (5, 5), (6, 4), (7, 4), (8, 4))
    for n in range(2, n_max + 1)
) + ((2, 12),)

# (d, N) cells for the operator-identity checks; these build S_{N+1}, so the
# fast level stops at N = 2 to stay within d <= 2, n <= 3
FAST_OPERATOR_PAIRS = ((2, 2),)
FULL_OPERATOR_PAIRS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4))
FAST_LEMMA_PAIRS = ((2, 2), (2, 3))
FULL_LEMMA_PAIRS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))


@dataclass(frozen=True)
class CheckReport:
    check: str
    params: dict
    max_deviation: float
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "params": self.params,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _report(check: str, params: dict, deviation: float, tolerance: float) -> CheckReport:
    deviation = float(deviation)
    return CheckReport(
        check=check,
        params=params,
        max_deviation=deviation,
        tolerance=tolerance,
        passed=bool(deviation <= tolerance),
    )


def _projector_checks(d: int, n: int) -> list[CheckReport]:
    params = {"d": d, "n": n}
    s = build_projector_permutation(d, n).matrix
    # the occupation projector lives only inside this expression, so it is
    # freed before the temporaries below: at most three projector-sized arrays
    equivalence = np.linalg.norm(s - build_projector_occupation(d, n).matrix)
    d_n = symmetric_dimension(d, n)

    reports = [
        _report("construction-equivalence", params, equivalence, 1e-12),
        _report("idempotence", params, np.abs(s @ s - s).max(), 1e-12),
        _report("self-adjointness", params, np.abs(s - s.T).max(), 0.0),
        _report("trace-dimension", params, abs(float(s.trace()) - d_n), 1e-9),
    ]
    # axes 0..n-1 are the row slots and n..2n-1 the column slots
    slots = s.reshape([d] * (2 * n))
    commute = 0.0
    for slot in range(n - 1):
        rows_swapped = np.swapaxes(slots, slot, slot + 1)
        columns_swapped = np.swapaxes(slots, n + slot, n + slot + 1)
        commute = max(commute, float(np.abs(rows_swapped - columns_swapped).max()))
    reports.append(_report("transposition-commute", params, commute, 1e-12))
    return reports


def _operator_checks(d: int, n: int, observables: list[Observable]) -> list[CheckReport]:
    params = {"d": d, "N": n}
    s_n = build_projector_permutation(d, n).matrix
    s_next = build_projector_permutation(d, n + 1).matrix
    s_2 = build_projector_permutation(d, 2).matrix
    d_n = symmetric_dimension(d, n)
    d_next = symmetric_dimension(d, n + 1)
    d_2 = symmetric_dimension(d, 2)

    dev_pt = dev_tr1 = dev_tr2_eq = dev_tr2_ne = dev_hat2 = 0.0
    dev_square = dev_second = dev_attain = dev_av_term = 0.0
    min_positive_gap = np.inf
    dev_positivity = 0.0

    for obs in observables:
        tr = obs.trace
        tr2 = obs.trace_square
        embeds = [embed_one_body(obs, pos, n) for pos in range(1, n + 1)]

        # trace over the last factor of S_{N+1} Omega(N+1)
        lhs = partial_trace_last(s_next @ embed_one_body(obs, n + 1, n + 1), d, n + 1)
        rhs = s_n @ (tr * np.eye(d**n) + sum(embeds)) / (n + 1)
        dev_pt = max(dev_pt, float(np.abs(lhs - rhs).max()))

        # one- and two-body traces against the symmetrizer
        for pos in range(n):
            got = float(np.trace(s_n @ embeds[pos]).real)
            want = d_n / d * tr
            dev_tr1 = max(dev_tr1, abs(got - want) / max(1.0, abs(want)))
        for pos_a in range(n):
            for pos_b in range(n):
                got = float(np.trace(s_n @ embeds[pos_a] @ embeds[pos_b]).real)
                if pos_a == pos_b:
                    want = d_n / d * tr2
                    dev_tr2_eq = max(dev_tr2_eq, abs(got - want) / max(1.0, abs(want)))
                else:
                    want = d_n / (d * (d + 1)) * (tr2 + tr**2)
                    dev_tr2_ne = max(dev_tr2_ne, abs(got - want) / max(1.0, abs(want)))

        hat = estimator_operator("optimal-pure", obs, n)
        got = float(np.trace(s_n @ hat @ hat).real)
        want = d_n * (n * tr2 + (n + d + 1) * tr**2) / (d * (d + 1) * (n + d))
        dev_hat2 = max(dev_hat2, abs(got - want) / max(1.0, abs(want)))

        # expanded-versus-completed-square bookkeeping for the
        # product-eigenprojector strategy with the shrinkage estimates
        vkron, occupations = product_eigenbasis(obs, n)
        sums = eigenvalue_sum(occupations, obs.eigenvalues)
        omega_opt_by_index = estimate_from_sums("optimal-pure", sums, n, obs)
        omega_av_by_index = estimate_from_sums("sample-average", sums, n, obs)

        q_s = np.einsum("ia,ij,ja->a", vkron.conj(), s_n, vkron).real
        s_hat = s_n @ hat
        q_sh = np.einsum("ia,ij,ja->a", vkron.conj(), s_hat, vkron).real
        q_sh2 = np.einsum("ia,ij,ja->a", vkron.conj(), s_hat @ hat, vkron).real
        q_traced = np.einsum("ia,ij,ja->a", vkron.conj(), lhs, vkron).real

        second_direct = float(
            np.trace(s_2 @ embed_one_body(obs, 1, 2) @ embed_one_body(obs, 2, 2)).real
        ) / d_2
        mu, v_t, _ = ensemble_moments(obs)
        dev_second = max(dev_second, abs(second_direct - (mu * mu + v_t)))

        def expanded_total(omega: np.ndarray) -> float:
            term1 = float(omega**2 @ q_s) / d_n
            term2 = -2.0 * float(omega @ q_traced) / d_next
            return term1 + term2 + second_direct

        def square_first_term(omega: np.ndarray) -> float:
            return float(omega**2 @ q_s - 2.0 * omega @ q_sh + q_sh2.sum()) / d_n

        square_tail = analytic_delta_opt(obs, n)
        for omega in (omega_opt_by_index, omega_av_by_index):
            dev_square = max(
                dev_square,
                abs(expanded_total(omega) - (square_first_term(omega) + square_tail)),
            )

        attained = square_first_term(omega_opt_by_index)
        dev_attain = max(dev_attain, abs(attained))
        gap = square_first_term(omega_av_by_index)
        min_positive_gap = min(min_positive_gap, gap)
        dev_av_term = max(
            dev_av_term, abs(gap - (analytic_delta_av(obs, n) - analytic_delta_opt(obs, n)))
        )

        # S (omega - hat)^2 S stays positive for scalar omega
        w = obs.eigenvalues
        for omega_scalar in np.linspace(w.min() - 1.0, w.max() + 1.0, 5):
            shifted = omega_scalar * np.eye(d**n) - hat
            block = s_n @ shifted @ shifted @ s_n
            lowest = float(np.linalg.eigvalsh(block).min())
            dev_positivity = max(dev_positivity, max(0.0, -lowest))

    reports = [
        _report("partial-trace-identity", params, dev_pt, 1e-10),
        _report("trace-formula-one-body", params, dev_tr1, 1e-10),
        _report("trace-formula-two-body-equal", params, dev_tr2_eq, 1e-10),
        _report("trace-formula-two-body-distinct", params, dev_tr2_ne, 1e-10),
        _report("shrinkage-trace-square", params, dev_hat2, 1e-10),
        _report("second-moment-identity", params, dev_second, 1e-10),
        _report("completed-square", params, dev_square, 1e-10),
        _report("lower-bound-attainment", params, dev_attain, 1e-12),
        _report("sample-average-square-term", params, dev_av_term, 1e-10),
        _report("positivity-sweep", params, dev_positivity, 1e-12),
    ]
    # strict positivity of the sample-average first term (observable not ~ identity)
    reports.append(
        CheckReport(
            check="sample-average-term-strictly-positive",
            params=params,
            max_deviation=float(min_positive_gap),
            tolerance=1e-8,
            passed=bool(min_positive_gap > 1e-8),
        )
    )
    return reports


def _consistency_checks(d: int, copies: int, seed: int) -> list[CheckReport]:
    params = {"d": d, "N": copies}
    generator = derive_stream(seed, 902_000 + 17 * d + copies)
    obs = random_observable(d, generator)
    vkron, occupations = product_eigenbasis(obs, copies)

    sums = eigenvalue_sum(occupations, obs.eigenvalues)
    deviations = []
    for kind in ("optimal-pure", "sample-average"):
        operator = estimator_operator(kind, obs, copies)
        want = estimate_from_sums(kind, sums, copies, obs)
        columns = ((vkron[:, a], want[a]) for a in range(0, d**copies, max(1, d**copies // 16)))
        deviations.append(max(abs(float((v.conj() @ operator @ v).real) - w) for v, w in columns))
    dev_opt, dev_av = deviations

    stream = derive_stream(seed, 903_000 + 17 * d + copies)
    amps = sample_haar_amplitudes(d, 100, stream)
    rows = tensor_power_rows(amps, copies)
    # the last operator is the sample average's, the one-body average
    lhs = np.einsum("bi,ij,bj->b", rows.conj(), operator, rows).real
    rhs = np.einsum("bi,ij,bj->b", amps.conj(), obs.matrix, amps).real
    dev_unbiased = float(np.abs(lhs - rhs).max())

    return [
        _report("shrinkage-eigenvalue-is-optimal-estimate", params, dev_opt, 1e-10),
        _report("average-eigenvalue-is-sample-average", params, dev_av, 1e-10),
        _report("one-body-average-reproduces-expectation", params, dev_unbiased, 1e-12),
    ]


def run_verify(level: str = "fast", seed: int = 0) -> list[CheckReport]:
    """Run the identity suite; returns one report per (check, instance)."""
    if level not in ("fast", "full"):
        raise ValueError(f"level must be 'fast' or 'full', got {level!r}")
    full = level == "full"
    projector_pairs = FULL_PROJECTOR_PAIRS if full else FAST_PROJECTOR_PAIRS
    operator_pairs = FULL_OPERATOR_PAIRS if full else FAST_OPERATOR_PAIRS
    lemma_pairs = FULL_LEMMA_PAIRS if full else FAST_LEMMA_PAIRS
    observables_per_cell = 20 if full else 3
    lemma_trials = 1000 if full else 200

    reports: list[CheckReport] = []
    for d, n in projector_pairs:
        reports.extend(_projector_checks(d, n))

    for index, (d, copies) in enumerate(operator_pairs):
        generator = derive_stream(seed, 901_000 + index)
        observables = [random_observable(d, generator) for _ in range(observables_per_cell)]
        reports.extend(_operator_checks(d, copies, observables))
        reports.extend(_consistency_checks(d, copies, seed))

    for index, (d, copies) in enumerate(lemma_pairs):
        lemma = check_unbiased_lemma(d, copies, lemma_trials, derive_stream(seed, 904_000 + index))
        params = {"d": d, "N": copies, "trials": lemma_trials}
        reports.append(
            _report("lemma-forward", params, lemma.forward_max_deviation, lemma.forward_tolerance)
        )
        reports.append(
            _report("lemma-converse", params, lemma.converse_max_deviation, lemma.converse_tolerance)
        )
    return reports
