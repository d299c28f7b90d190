"""Seeded Monte Carlo experiment runner with CSV/JSON emission.

An experiment is one run of 2M trials: trials 0..M-1 sample the ensemble,
trials M..2M-1 drive the fixed-probe bias measurement.  Each pass runs in
blocks of ``BLOCK`` trials; the block starting at trial k draws all of its
randomness from the stream keyed by (master_seed, k) and records each
trial's truth and sum of observed eigenvalues.  Blocks never depend on the
worker count and results are reduced in trial order afterwards, so output is
byte-identical for any worker count.

Runs with ``workers > 1`` share one spawn process pool per process.  The
first such run starts it with ``min(workers, os.cpu_count())`` processes;
later runs reuse it, and a run that needs another size replaces it.  A pool
that breaks is dropped, so the next run starts a fresh one, and
``concurrent.futures`` joins the pool at interpreter exit.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import threading
import time
from dataclasses import dataclass, fields, replace
from itertools import repeat
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from .estimators import (
    EstimatorKind,
    analytic_bias_mean,
    analytic_delta_av,
    analytic_delta_mixed_qubit,
    analytic_delta_opt,
    estimate_from_sums,
)
from .hermitian import (
    Observable,
    PureState,
    expectation,
    make_observable,
    observable_from_json,
    outcome_distribution,
)
from .sampling import RadialLaw, derive_stream, sample_haar_amplitudes

HAAR_ENSEMBLE = "haar-pure"

# trials per keyed block; a fixed constant, so output never depends on the workers
BLOCK = 256

CSV_COLUMNS = (
    "d",
    "N",
    "M",
    "seed",
    "estimator",
    "ensemble",
    "n2",
    "empirical_mse",
    "standard_error",
    "analytic_mse",
    "empirical_bias",
    "analytic_bias",
    "wall_time_s",
)


class ConfigError(ValueError):
    """Invalid experiment configuration or unreadable input file."""


def load_observable(source, dim: int | None = None) -> Observable:
    """Resolve a builtin observable name or parse an observable JSON file.

    Builtins: ``pauli-z``, ``identity`` (needs ``dim``), ``diag(a,b,...)``.
    """
    text = str(source)
    try:
        if text == "pauli-z":
            return make_observable([[1.0, 0.0], [0.0, -1.0]])
        if text == "identity":
            if dim is None:
                raise ConfigError("builtin 'identity' needs an explicit dimension")
            return make_observable(np.eye(dim))
        if text.startswith("diag(") and text.endswith(")"):
            return make_observable(np.diag([float(token) for token in text[len("diag(") : -1].split(",")]))
        path = Path(text)
        if not path.exists():
            raise ConfigError(f"unknown builtin observable or missing file: {text!r}")
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{text}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
        return observable_from_json(payload)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{text}: {exc}") from exc


def check_seed(seed) -> None:
    """Reject a master seed that is not an integer in [0, 2**64)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ConfigError(f"master_seed must be an integer in [0, 2**64), got {seed!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one Monte Carlo experiment."""

    dim: int = 2
    copies: int = 1
    trials: int = 100_000
    master_seed: int = 0
    estimator: EstimatorKind = EstimatorKind.OPTIMAL_PURE
    ensemble: "str | RadialLaw" = HAAR_ENSEMBLE
    observable_source: str = "pauli-z"
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "estimator", EstimatorKind(self.estimator))
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if self.copies < 1:
            raise ConfigError(f"copies must be >= 1, got {self.copies}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        check_seed(self.master_seed)
        if self.is_bloch:
            if not isinstance(self.ensemble, RadialLaw):
                raise ConfigError(f"ensemble must be {HAAR_ENSEMBLE!r} or a RadialLaw, got {self.ensemble!r}")
            if self.dim != 2:
                raise ConfigError("the Bloch ensemble is qubit-only (dim must be 2)")
        if self.estimator is EstimatorKind.OPTIMAL_MIXED_QUBIT:
            if not self.is_bloch:
                raise ConfigError("the mixed-qubit estimator needs a Bloch ensemble to define n2")
            if self.dim != 2 or self.copies != 1:
                raise ConfigError("the mixed-qubit estimator requires dim=2 and copies=1")

    @property
    def is_bloch(self) -> bool:
        return not (isinstance(self.ensemble, str) and self.ensemble == HAAR_ENSEMBLE)

    @property
    def law(self) -> RadialLaw | None:
        return self.ensemble if self.is_bloch else None

    @property
    def n2(self) -> float | None:
        return self.ensemble.second_moment() if self.is_bloch else None

    @property
    def ensemble_label(self) -> str:
        return f"bloch({self.ensemble.label()})" if self.is_bloch else HAAR_ENSEMBLE

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "copies": self.copies,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "estimator": self.estimator.value,
            "ensemble": {"bloch": self.ensemble.to_dict()} if self.is_bloch else HAAR_ENSEMBLE,
            "observable_source": self.observable_source,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            raise ConfigError(f"config must be a JSON object, got {type(payload).__name__}")
        unknown = payload.keys() - {field.name for field in fields(cls)}
        if unknown:
            raise ConfigError(f"config has unknown keys: {sorted(unknown)}")
        kwargs = dict(payload)
        ensemble = kwargs.get("ensemble", HAAR_ENSEMBLE)
        if isinstance(ensemble, dict):
            if set(ensemble.keys()) != {"bloch"}:
                raise ConfigError(f"ensemble object must be {{'bloch': law}}, got {ensemble!r}")
            try:
                kwargs["ensemble"] = RadialLaw.from_dict(ensemble["bloch"])
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        elif ensemble != HAAR_ENSEMBLE:
            raise ConfigError(f"ensemble must be {HAAR_ENSEMBLE!r} or a bloch law object, got {ensemble!r}")
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return ExperimentConfig.from_dict(payload)


@dataclass(frozen=True)
class ResultRow:
    """One experiment's empirical results next to their closed forms."""

    config: ExperimentConfig
    empirical_mse: float
    analytic_mse: float | None
    empirical_bias_at_probe: float
    analytic_bias_at_probe: float
    standard_error: float
    wall_time: float


def _run_trials(
    config: ExperimentConfig, obs: Observable, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Truths of the ensemble trials and sums of observed eigenvalues of all
    trials among start..stop of the run.

    ``start`` is a block edge of one pass and ``stop`` a later block edge or
    the end of that pass.  Trials below M draw a state from the ensemble; the
    rest measure the fixed probe, the top eigenvector of the observable, and
    record no truth.
    """
    d, n, m, law = config.dim, config.copies, config.trials, config.law
    w, trace = obs.eigenvalues, obs.trace
    probe = PureState(obs.eigenvectors[:, 0])
    probe_p = outcome_distribution(probe, obs)
    if law is not None:
        # qubit: p_top = (1 + n.m)/2 with m the Bloch vector of the top
        # eigenvector (m_bottom = -m), and t = (tr + n.tau)/2 with tau the
        # Pauli coefficients of the matrix
        m_top = probe.bloch_vector()
        a = obs.matrix
        tau = np.array([2.0 * a[0, 1].real, -2.0 * a[0, 1].imag, (a[0, 0] - a[1, 1]).real])
    truths, sums = [], []
    for k in range(start, stop, BLOCK):
        generator = derive_stream(config.master_seed, k)
        size = min(BLOCK, stop - k)
        if k >= m:
            truth, p = np.empty(0), np.broadcast_to(probe_p, (size, d))
        elif law is None:
            overlaps = sample_haar_amplitudes(d, size, generator) @ obs.eigenvectors.conj()
            p = overlaps.real**2 + overlaps.imag**2
            truth = p @ w
        else:
            u = generator.standard_normal((size, 3))
            bloch = (law.sample_radius(generator, size) / np.linalg.norm(u, axis=1))[:, None] * u
            truth = 0.5 * (trace + bloch @ tau)
            p_top = np.clip(0.5 * (1.0 + bloch @ m_top), 0.0, 1.0)
            p = np.stack([p_top, 1.0 - p_top], axis=1)
        truths.append(truth)
        # renormalized as outcome_cdf does: multinomial rejects rows an ulp above 1
        sums.append(generator.multinomial(n, p / p.sum(axis=1, keepdims=True)) @ w)
    return np.concatenate(truths), np.concatenate(sums)


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    m = values.size
    mean = math.fsum(values) / m
    if m < 2:
        return mean, 0.0
    centered = values - mean
    variance = math.fsum(centered * centered) / (m - 1)
    return mean, math.sqrt(variance / m)


def _analytic_mse(config: ExperimentConfig, obs: Observable) -> float | None:
    if not config.is_bloch:
        if config.estimator is EstimatorKind.OPTIMAL_PURE:
            return analytic_delta_opt(obs, config.copies)
        if config.estimator is EstimatorKind.SAMPLE_AVERAGE:
            return analytic_delta_av(obs, config.copies)
        return None
    if config.estimator is EstimatorKind.OPTIMAL_MIXED_QUBIT:
        return analytic_delta_mixed_qubit(obs, config.n2)
    return None


def _analytic_probe_mean(config: ExperimentConfig, obs: Observable, probe: PureState, truth: float) -> float:
    if config.estimator is EstimatorKind.OPTIMAL_PURE:
        return analytic_bias_mean(probe, obs, config.copies)
    if config.estimator is EstimatorKind.SAMPLE_AVERAGE:
        return truth
    return float(estimate_from_sums(config.estimator, truth, 1, obs, config.n2))


_pool_lock = threading.Lock()
_pool = None  # (size, executor) of this process's spawn pool, once started


def _pool_map(size: int, fn, *iterables) -> list:
    """``list(map(fn, *iterables))`` in this process's spawn pool of ``size``
    processes, started or resized on demand and dropped if it breaks."""
    global _pool
    # imported here: its queues and logging cost serial runs 1.5 MiB
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # held across the map, so no thread replaces the pool another is using
    with _pool_lock:
        if _pool is not None and _pool[0] != size:
            _pool[1].shutdown()
            _pool = None
        if _pool is None:
            _pool = (size, ProcessPoolExecutor(size, mp_context=get_context("spawn")))
        try:
            return list(_pool[1].map(fn, *iterables))
        except BrokenProcessPool:
            _pool = None
            raise


def run_experiment(config: ExperimentConfig, observable: Observable | None = None) -> ResultRow:
    """Run one seeded experiment: ensemble MSE pass plus fixed-probe bias pass."""
    started = time.perf_counter()
    obs = observable if observable is not None else load_observable(config.observable_source, dim=config.dim)
    if obs.dim != config.dim:
        raise ConfigError(f"observable has d={obs.dim} but config says dim={config.dim}")

    # each pass's blocks split evenly over the workers, so none gets only the
    # cheaper probe trials; workers left without a block get no job
    m, workers = config.trials, config.workers
    blocks = -(-m // BLOCK)
    edges = [min(m, BLOCK * (blocks * i // workers)) for i in range(workers + 1)]
    ranges = [(offset + a, offset + b) for offset in (0, m) for a, b in zip(edges, edges[1:]) if a < b]
    starts, stops = zip(*ranges)
    jobs = (repeat(config), repeat(obs), starts, stops)
    if workers == 1:
        results = map(_run_trials, *jobs)
    else:
        # more processes than CPUs would only queue; the jobs stay split by
        # workers, so the cap cannot change the output
        results = _pool_map(min(workers, os.cpu_count() or 1), _run_trials, *jobs)
    truths, sums = map(np.concatenate, zip(*results))

    estimates = estimate_from_sums(config.estimator, sums, config.copies, obs, config.n2)
    empirical_mse, standard_error = _mean_and_se((estimates[:m] - truths) ** 2)
    probe_mean, _ = _mean_and_se(estimates[m:])

    probe = PureState(obs.eigenvectors[:, 0])
    truth = expectation(probe, obs)
    return ResultRow(
        config=config,
        empirical_mse=empirical_mse,
        analytic_mse=_analytic_mse(config, obs),
        empirical_bias_at_probe=probe_mean - truth,
        analytic_bias_at_probe=_analytic_probe_mean(config, obs, probe, truth) - truth,
        standard_error=standard_error,
        wall_time=time.perf_counter() - started,
    )


def run_sweep(
    base: ExperimentConfig, copies_values, dim_values, observable: Observable | None = None
) -> list[ResultRow]:
    """Both pure-ensemble estimators on every (dim, copies) cell.

    Rows come out ordered by dim, then copies, with the optimal estimator
    before the sample average; every cell reuses the base master seed.
    """
    rows = []
    for d in sorted(set(int(v) for v in dim_values)):
        obs = observable if observable is not None else load_observable(base.observable_source, dim=d)
        for n in sorted(set(int(v) for v in copies_values)):
            for kind in (EstimatorKind.OPTIMAL_PURE, EstimatorKind.SAMPLE_AVERAGE):
                config = replace(base, dim=d, copies=n, estimator=kind, ensemble=HAAR_ENSEMBLE)
                rows.append(run_experiment(config, observable=obs))
    return rows


def _format_cell(value) -> str:
    if value is None:
        return ""
    return str(value)


def rows_to_csv(rows: list[ResultRow], include_timing: bool = False) -> str:
    """Fixed-column CSV; wall time is left blank unless explicitly requested
    so equal-seed runs are byte-identical."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        config = row.config
        writer.writerow(
            [
                config.dim,
                config.copies,
                config.trials,
                config.master_seed,
                config.estimator.value,
                config.ensemble_label,
                _format_cell(config.n2),
                _format_cell(row.empirical_mse),
                _format_cell(row.standard_error),
                _format_cell(row.analytic_mse),
                _format_cell(row.empirical_bias_at_probe),
                _format_cell(row.analytic_bias_at_probe),
                _format_cell(row.wall_time if include_timing else None),
            ]
        )
    return buffer.getvalue()
