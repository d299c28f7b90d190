"""Tests for verify.py: the identity suite and its negative controls."""

import dataclasses
import json
import tracemalloc

from optev import run_verify, verify


def test_fast_level_passes():
    reports = run_verify(level="fast", seed=0)
    assert len(reports) >= 8
    failed = [r for r in reports if not r.passed]
    assert not failed, [r.to_dict() for r in failed]


def test_fast_level_covers_expected_checks():
    names = {r.check for r in run_verify(level="fast", seed=0)}
    assert {
        "construction-equivalence",
        "idempotence",
        "self-adjointness",
        "trace-dimension",
        "transposition-commute",
        "partial-trace-identity",
        "trace-formula-one-body",
        "trace-formula-two-body-equal",
        "trace-formula-two-body-distinct",
        "shrinkage-trace-square",
        "completed-square",
        "lower-bound-attainment",
        "positivity-sweep",
        "lemma-forward",
        "lemma-converse",
    } <= names


def test_tampered_projector_fails_idempotence(monkeypatch):
    # rescaling both constructions keeps them equal and symmetric, so only
    # idempotence can catch it
    def scaled(build):
        def tampered(d, n):
            projector = build(d, n)
            return dataclasses.replace(projector, matrix=1.01 * projector.matrix)

        return tampered

    for name in ("build_projector_permutation", "build_projector_occupation"):
        monkeypatch.setattr(verify, name, scaled(getattr(verify, name)))
    reports = run_verify(level="fast", seed=0)
    idempotence = [r for r in reports if r.check == "idempotence"]
    assert idempotence and all(not r.passed for r in idempotence)


def test_asymmetric_projector_fails_commute_and_self_adjointness(monkeypatch):
    # a uniform rescale keeps S_n symmetric and slot-symmetric, so only an
    # off-diagonal perturbation shows that these two checks bite
    build = verify.build_projector_permutation

    def perturbed(d, n):
        projector = build(d, n)
        matrix = projector.matrix.copy()
        matrix[0, 1] += 1e-3
        return dataclasses.replace(projector, matrix=matrix)

    monkeypatch.setattr(verify, "build_projector_permutation", perturbed)
    reports = run_verify(level="fast", seed=0)
    for check in ("transposition-commute", "self-adjointness"):
        selected = [r for r in reports if r.check == check]
        assert selected and all(not r.passed for r in selected), check


def test_shifted_estimator_fails_the_estimate_checks(monkeypatch):
    # the suite checks the eigenvalues against the estimator the package
    # ships, so an estimator off by 1e-9 must not pass
    estimate = verify.estimate_from_sums

    def shifted(*args, **kwargs):
        return estimate(*args, **kwargs) + 1e-9

    monkeypatch.setattr(verify, "estimate_from_sums", shifted)
    reports = run_verify(level="fast", seed=0)
    for check in ("shrinkage-eigenvalue-is-optimal-estimate", "average-eigenvalue-is-sample-average"):
        selected = [r for r in reports if r.check == check]
        assert selected and all(not r.passed for r in selected), check


def test_projector_checks_hold_at_most_three_projectors():
    # no copy on freezing, and the occupation projector is freed before the
    # check temporaries are made
    tracemalloc.start()
    try:
        verify._projector_checks(2, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.05 * 8 * (2**10) ** 2


def test_reports_serialize_to_json():
    for report in run_verify(level="fast", seed=0):
        payload = json.loads(json.dumps(report.to_dict()))
        assert set(payload) == {"check", "params", "max_deviation", "tolerance", "pass"}
        assert isinstance(payload["pass"], bool)


def test_unknown_level_rejected():
    import pytest

    with pytest.raises(ValueError):
        run_verify(level="exhaustive")


def test_deterministic_given_seed():
    a = [r.to_dict() for r in run_verify(level="fast", seed=3)]
    b = [r.to_dict() for r in run_verify(level="fast", seed=3)]
    assert a == b
