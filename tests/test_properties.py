"""Hypothesis property tests: config and observable round trips, the
Bloch block's truth and outcome law against the density matrix, the
optimal estimate as a posterior mean, the estimators' shift-and-scale
covariance, correctly rounded closed-form errors and probe bias, and a
CLI that fails only with a one-line error or a usage message, whatever
flags it is given."""

import contextlib
import io
import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from optev import EstimatorKind, ExperimentConfig, RadialLaw, estimate_optimal, make_observable
from optev.cli import main
from optev.estimators import analytic_bias, analytic_mse, ensemble_moments, estimate_from_sums
from optev.hermitian import observable_from_json, observable_to_json

unit = st.floats(0.0, 1.0)

laws = st.one_of(
    st.just(RadialLaw.pure_surface()),
    st.just(RadialLaw.uniform_ball()),
    st.builds(RadialLaw.fixed_radius, unit),
    st.builds(RadialLaw.two_point, unit, unit),
)


@st.composite
def configs(draw):
    common = dict(
        trials=draw(st.integers(1, 2**64 - 1)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        observable_source=draw(st.text()),
        workers=draw(st.integers(1, 2**64 - 1)),
    )
    if draw(st.booleans()):
        kind = draw(st.sampled_from([EstimatorKind.OPTIMAL_PURE, EstimatorKind.SAMPLE_AVERAGE]))
        return ExperimentConfig(
            dim=draw(st.integers(2, 2**64 - 1)), copies=draw(st.integers(1, 2**63 - 1)), estimator=kind, **common
        )
    kind = draw(st.sampled_from(list(EstimatorKind)))
    copies = 1 if kind is EstimatorKind.OPTIMAL_MIXED_QUBIT else draw(st.integers(1, 2**63 - 1))
    return ExperimentConfig(dim=2, copies=copies, estimator=kind, ensemble=draw(laws), **common)


@given(configs())
def test_config_round_trips_through_json(config):
    payload = config.to_dict()
    assert ExperimentConfig.from_dict(payload) == config
    assert ExperimentConfig.from_dict(json.loads(json.dumps(payload))) == config


entries = st.floats(-1e6, 1e6)


@st.composite
def hermitian_matrices(draw):
    d = draw(st.integers(2, 5))
    m = np.zeros((d, d), dtype=complex)
    for i in range(d):
        m[i, i] = draw(entries)
        for j in range(i + 1, d):
            m[i, j] = complex(draw(entries), draw(entries))
            m[j, i] = m[i, j].conjugate()
    return m


@given(hermitian_matrices())
def test_observable_json_round_trip_is_exact(matrix):
    obs = make_observable(matrix)
    again = observable_from_json(json.loads(json.dumps(observable_to_json(obs))))
    assert again.dim == obs.dim
    assert np.array_equal(again.matrix, obs.matrix)
    assert np.array_equal(again.eigenvalues, obs.eigenvalues)


qubit_entries = st.floats(-10.0, 10.0)


@given(qubit_entries, qubit_entries, qubit_entries, qubit_entries, st.floats(-1.0, 1.0))
def test_bloch_block_truth_and_top_outcome_match_the_density_matrix(a, b, re, im, s):
    # the Monte Carlo Bloch block reads only the Bloch component s along the
    # top eigenvector v0's Bloch vector, i.e. the state rho = (1 - s)/2 1 + s |v0><v0|
    obs = make_observable([[a, complex(re, -im)], [complex(re, im), b]])
    w0, w1 = obs.eigenvalues
    v0 = obs.eigenvectors[:, 0]
    rho = 0.5 * (1.0 - s) * np.eye(2) + s * np.outer(v0, v0.conj())
    truth = np.trace(rho @ obs.matrix).real
    assert abs(truth - 0.5 * (obs.trace + s * (w0 - w1))) <= 1e-14 * max(1.0, abs(w0) + abs(w1))
    assert abs(np.vdot(v0, rho @ v0).real - 0.5 * (1.0 + s)) <= 1e-14


@st.composite
def spectra_and_counts(draw):
    """Eigenvalues of a diagonal observable and a count vector of as many outcomes."""
    eigenvalues = draw(st.lists(entries, min_size=2, max_size=6))
    copies = draw(st.integers(1, 1000))
    cuts = sorted(draw(st.lists(st.integers(0, copies), min_size=len(eigenvalues) - 1, max_size=len(eigenvalues) - 1)))
    return eigenvalues, np.diff([0, *cuts, copies])


# subnormal eigenvalues, where each term's division rounds 0.5 ulp(0) to 0
@example(([5e-324, 5e-324], np.array([1, 1])))
@given(spectra_and_counts())
def test_optimal_estimate_is_the_posterior_mean(case):
    # p | c ~ Dirichlet(1 + c) has mean (1 + c_i) / (N + d), so the posterior
    # mean of w.p is the optimal estimate: the N outcomes and one default
    # datum per eigenvalue
    eigenvalues, c = case
    obs = make_observable(np.diag(eigenvalues))
    d, w, copies = obs.dim, obs.eigenvalues, int(c.sum())
    terms = [(1 + int(ci)) * float(wi) / (copies + d) for ci, wi in zip(c, w)]
    got = estimate_optimal(c, obs)
    # the estimate and each term round once more in a division, which below
    # the normal range errs by up to ulp(0)/2 whatever the relative bound says
    assert abs(got - math.fsum(terms)) <= 1e-12 * math.fsum(map(abs, terms)) + d * math.ulp(0.0)


coefficients = st.floats(-1e3, 1e3)


@st.composite
def estimator_inputs(draw):
    """An estimator with a copy count, a diagonal it accepts and value sums of that many copies."""
    kind = draw(st.sampled_from(list(EstimatorKind)))
    if kind is EstimatorKind.OPTIMAL_MIXED_QUBIT:
        d, copies = 2, 1
    else:
        d, copies = draw(st.integers(2, 5)), draw(st.integers(1, 1000))
    diagonal = draw(st.lists(entries, min_size=d, max_size=d))
    sums = draw(st.lists(st.floats(-1e6 * copies, 1e6 * copies), min_size=1, max_size=8))
    return kind, copies, diagonal, sums


# a sum of ulp(0) over N = 2: est = 0.5 ulp(0) rounds to 0, the moved
# estimate is exact, so they differ by |a| ulp(0) / 2
@example((EstimatorKind.SAMPLE_AVERAGE, 2, [0.0, 0.0], [5e-324]), 2.0, 0.0, 0.0)
@example((EstimatorKind.SAMPLE_AVERAGE, 2, [0.0, 0.0], [5e-324]), 1000.0, 0.0, 0.0)
@given(estimator_inputs(), coefficients, coefficients, unit)
def test_estimates_follow_a_shift_and_scale_of_the_observable(inputs, a, b, n2):
    # Omega -> a Omega + b 1 sends tr -> a tr + b d and sum -> a sum + b N,
    # and every estimator's estimate -> a est + b
    kind, copies, diagonal, sums = inputs
    d, matrix, sums = len(diagonal), np.diag(diagonal), np.array(sums)
    obs = make_observable(matrix)
    moved = make_observable(a * matrix + b * np.eye(d))
    est = estimate_from_sums(kind, sums, copies, obs, n2)
    got = estimate_from_sums(kind, a * sums + b * copies, copies, moved, n2)
    # every term is rounded a few times at the scale of its inputs; below the
    # normal range a product or quotient also errs by up to ulp(0)/2, and a
    # times est carries est's such error |a|-fold
    scale = abs(a) * (np.abs(est) + abs(obs.trace) + np.abs(sums)) + abs(b) * (1 + d + copies)
    assert (np.abs(got - (a * est + b)) <= 1e-12 * scale + (abs(a) + 4) * math.ulp(0.0)).all()


def exact_closed_forms(obs, copies, n2):
    """float() of the exact closed forms: ``ensemble_moments``, and for each
    estimator the law accepts the full
    (beta^2 N V_w + pi^2 V_t + (alpha + pi mu)^2)/gamma^2 and the bias
    (alpha + pi w_0)/gamma at the top eigenvector, in Fractions of the stored
    entries, of w_0 and of n2 (None for Haar)."""
    d, entries = obs.dim, [Fraction(x) for x in obs.matrix.view(np.float64).ravel().tolist()]
    trace = sum(entries[:: 2 * (d + 1)])
    c = d * sum(x * x for x in entries) - trace * trace
    if n2 is None:
        mu, v_t, v_w = trace / d, c / (d * d * (d + 1)), c / (d * (d + 1))
        forms = {EstimatorKind.OPTIMAL_PURE: (trace, 1, copies + d)}
    else:
        n = Fraction(n2)
        mu, v_t, v_w = trace / 2, c * n / 12, c * (3 - n) / 12
        forms = {EstimatorKind.OPTIMAL_PURE: (trace, 1, copies + d), EstimatorKind.OPTIMAL_MIXED_QUBIT: ((3 - n) / 2 * trace, n, 3)}
    forms[EstimatorKind.SAMPLE_AVERAGE] = (0, 1, copies)
    top = Fraction(float(obs.eigenvalues[0]))
    errors, biases = {}, {}
    for kind, (alpha, beta, gamma) in forms.items():
        n = 1 if kind is EstimatorKind.OPTIMAL_MIXED_QUBIT else copies
        pi = beta * n - gamma
        errors[kind] = float((beta * beta * n * v_w + pi * pi * v_t + (alpha + pi * mu) ** 2) / (gamma * gamma))
        biases[kind] = float((alpha + pi * top) / gamma)
    return (float(mu), float(v_t), float(v_w)), errors, biases


@st.composite
def observables_and_laws(draw):
    """A random complex Hermitian d x d matrix, d <= 8, times 2**e from e = -1080
    (most entries underflow) to 100, a copy count N <= 99 and n2, None for Haar
    and in [0, 1] for a Bloch law on a qubit."""
    d = draw(st.integers(2, 8))
    parts = iter(draw(st.lists(st.floats(-4.0, 4.0), min_size=d * d, max_size=d * d)))
    m = np.zeros((d, d), dtype=complex)
    for i in range(d):
        m[i, i] = next(parts)
        for j in range(i + 1, d):
            m[i, j] = complex(next(parts), next(parts))
            m[j, i] = m[i, j].conjugate()
    # exact but where a product falls among the subnormals or below them
    m = np.ldexp(m.view(np.float64), draw(st.integers(-1080, 100))).view(complex)
    n2 = draw(st.none() | unit) if d == 2 else None
    return m, draw(st.integers(1, 99)), n2


# 31/96, whose float the per-entry float sums missed by an ulp
@example((np.diag([1.0, 0.5, -2.0]), 1, None))
# d tr Omega^2 and (tr Omega)^2 agree to about 10 of their 16 digits
@example((np.diag([1000.0, 1000.001, 999.9995]), 2, None))
# squares of every entry lie far below the smallest subnormal
@example((np.array([[0.5, 0.25 - 1j], [0.25 + 1j, -2.0]]) * 2.0**-530, 1, 0.6))
@given(observables_and_laws())
def test_closed_forms_are_correctly_rounded(case):
    matrix, copies, n2 = case
    obs = make_observable(matrix)
    moments, errors, _ = exact_closed_forms(obs, copies, n2)
    assert ensemble_moments(obs, n2) == moments
    for kind, want in errors.items():
        assert analytic_mse(kind, obs, 1 if kind is EstimatorKind.OPTIMAL_MIXED_QUBIT else copies, n2) == want


def test_correctly_rounded_delta_opt_of_a_three_level_diagonal():
    assert analytic_mse(EstimatorKind.OPTIMAL_PURE, make_observable(np.diag([1.0, 0.5, -2.0])), 1) == 0.3229166666666667


# -1/10, which the float estimate minus w_0 missed by two ulps
@example((np.diag([1.0, 0.5]), 3, None))
# -1/6 for the optimal estimate, and every row of a Bloch law
@example((np.diag([1.0, 0.5]), 1, 0.6))
# subnormal entries: the bias rounds to a multiple of 2**-1074
@example((np.diag([1.0, 0.5]) * 2.0**-1070, 3, 0.6))
@given(observables_and_laws())
def test_probe_bias_is_correctly_rounded(case):
    matrix, copies, n2 = case
    obs = make_observable(matrix)
    _, _, biases = exact_closed_forms(obs, copies, n2)
    for kind, want in biases.items():
        assert analytic_bias(kind, obs, 1 if kind is EstimatorKind.OPTIMAL_MIXED_QUBIT else copies, n2) == want
    # the sample average is unbiased at every state: exactly +0.0
    assert repr(analytic_bias(EstimatorKind.SAMPLE_AVERAGE, obs, copies, n2)) == "0.0"


def test_correctly_rounded_probe_bias_of_a_qubit_diagonal():
    obs = make_observable(np.diag([1.0, 0.5]))
    assert analytic_bias(EstimatorKind.OPTIMAL_PURE, obs, 3) == -0.1
    assert analytic_bias(EstimatorKind.OPTIMAL_PURE, obs, 1) == -1 / 6


# --- CLI fuzz ---

# the flags each command reads; any other is a usage error
SHARED = ["--config", "--out", "--dim", "--copies", "--observable"]
RUNS = ["--seed", "--trials", "--workers", "--timing"]
READS = {
    "analytic": SHARED + ["--n2"],
    "simulate": SHARED + RUNS + ["--n2", "--estimator"],
    "sweep": SHARED + RUNS,
    "verify": ["--config", "--out", "--seed", "--level"],
}


@st.composite
def argvs(draw, workdir):
    observable = workdir / "observable.json"
    observable.write_text(json.dumps(observable_to_json(make_observable([[1.0, 0.5j], [-0.5j, -1.0]]))))
    config = workdir / "config.json"
    config.write_text(json.dumps({"dim": 3, "copies": 2, "trials": 500, "observable_source": "diag(1,0,-1)"}))
    bad_config = workdir / "bad.json"
    bad_config.write_text('{"trials": 1e3,')
    values = {
        "--dim": st.sampled_from(["2", "3", "8", "2,3", "0", "1", "-2", "x", "", "2.5"]),
        "--copies": st.sampled_from(["1", "4", "64", "1,64", "0", "-1", "x", "", str(2**63)]),
        "--observable": st.sampled_from(
            ["pauli-z", "identity", "diag(1,-1)", "diag(1,0.5,-2)", "diag(nan,1)", "diag()", "nope",
             str(observable), str(workdir / "missing.json")]
        ),
        "--n2": st.sampled_from(["0", "0.6", "1", "1.5", "-0.1", "nan", "x"]),
        "--estimator": st.sampled_from([kind.value for kind in EstimatorKind] + ["bogus"]),
        "--trials": st.sampled_from(["1", "7", "4097", "10000", "0", "-5", "x"]),
        "--seed": st.sampled_from(["0", "1", "-1", str(2**64), "y"]),
        "--workers": st.sampled_from(["1", "2", "3", "0", "z"]),
        "--config": st.sampled_from([str(config), str(bad_config), str(workdir / "missing.json")]),
        "--out": st.sampled_from([str(workdir / "out.txt"), str(workdir / "no-dir" / "out.txt")]),
        "--level": st.just("fast"),
        "--timing": st.none(),
    }
    command = draw(st.sampled_from(sorted(READS)))
    argv = [command]
    # flags the command reads, so most runs get past the parser, and now
    # and then one it does not read or a stray token
    flags = draw(st.lists(st.sampled_from(READS[command]), max_size=6))
    if draw(st.integers(0, 4)) == 0:
        flags.insert(draw(st.integers(0, len(flags))), draw(st.sampled_from(sorted(values))))
    for flag in flags:
        value = draw(values[flag])
        argv += [flag] if value is None else [flag, value]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "extra", "-", "--"])))
    return argv


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fails_only_with_a_one_line_error_or_a_usage_message(tmp_path, data):
    argv = data.draw(argvs(tmp_path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse: usage line(s), then "optev <command>: error: ..."
            assert exc.code == 1
            assert ": error: " in err.getvalue().splitlines()[-1]
            return
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("optev: error: ")
        assert err.getvalue().count("\n") == 1
    elif code == 0:
        assert err.getvalue() == ""
