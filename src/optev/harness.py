"""Seeded Monte Carlo experiment runner with CSV/JSON emission.

An experiment draws M ensemble trials in blocks of ``BLOCK`` trials; the
block starting at trial k draws all of its randomness from the stream keyed
by (master_seed, k) and records each trial's truth and sum of observed
eigenvalues.  A Haar block draws each trial's outcome counts first, uniform
over the compositions of N into d parts, and then the state's outcome
probabilities in the observable's eigenbasis from Dirichlet(1 + counts)
(:func:`optev.sampling.sample_haar_counts`); that is the joint law of
Dirichlet(1, ..., 1) probabilities and multinomial counts, with no
amplitude and no multinomial draw.  A Bloch block draws only each state's
Bloch component s along the top eigenvector's Bloch vector m
(:func:`optev.sampling.sample_bloch_components`) and measures the state
with Bloch vector s m, which has the same expectation value and outcome
law; a one-copy outcome is one uniform per trial, located in the trial's
cumulative outcome distribution.
Blocks never depend on the worker count and results are reduced in trial
order afterwards with an exact sum equal to ``math.fsum``, so output is
byte-identical for any worker count.  The bias at the fixed probe (the top
eigenvector, where every outcome is the top eigenvalue) is exact, not drawn.

Runs with ``workers > 1`` share one spawn process pool per process.  The
first such run starts it with ``min(workers, os.cpu_count())`` processes;
later runs reuse it, and a run that needs another size replaces it.  A pool
that breaks is shut down and dropped, so the next run starts a fresh one.
At interpreter exit ``concurrent.futures`` stops the workers and an
``atexit`` hook then shuts the pool down.
"""

from __future__ import annotations

import atexit
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
    draw_counts,
    estimate_from_sums,
)
from .hermitian import (
    Observable,
    PureState,
    expectation,
    make_observable,
    mixed_qubit_expectation,
    mixed_qubit_outcome_distribution,
    observable_from_json,
    outcome_distribution,
)
from .sampling import RadialLaw, derive_stream, sample_bloch_components, sample_haar_counts

HAAR_ENSEMBLE = "haar-pure"

# trials per keyed block; a fixed constant, so output never depends on the workers
BLOCK = 4096

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


def _read_json(path: Path):
    """Parse a UTF-8 JSON file; undecodable bytes or bad syntax raise ConfigError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: byte {exc.start} cannot be decoded") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc


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
        return observable_from_json(_read_json(path))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{text}: {exc}") from exc


def _check_int(name: str, value, low: int, bits: int = 64) -> None:
    """Reject a value that is not an ``int`` (``bool`` excluded) in [low, 2**bits)."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < 2**bits:
        raise ConfigError(f"{name} must be an integer in [{low}, 2**{bits}), got {value!r}")


def check_seed(seed) -> None:
    """Reject a master seed that is not an integer in [0, 2**64)."""
    _check_int("master_seed", seed, 0)


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
        for name, low in (("dim", 2), ("trials", 1), ("workers", 1), ("master_seed", 0)):
            _check_int(name, getattr(self, name), low)
        # the Bloch outcome draw, Generator.multinomial, takes a signed 64-bit
        # count; the Haar draw's N + d - 1 slots are uint64
        _check_int("copies", self.copies, 1, bits=63)
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
        payload = _read_json(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
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
    """Truths and sums of observed eigenvalues of ensemble trials from block edge start to stop."""
    d, n, law = config.dim, config.copies, config.law
    w = obs.eigenvalues
    truths, sums = [], []
    for k in range(start, stop, BLOCK):
        generator = derive_stream(config.master_seed, k)
        size = min(BLOCK, stop - k)
        if law is None:
            p, counts = sample_haar_counts(d, n, size, generator)
            truths.append(p @ w)
        else:
            # tr[rho Omega] and the outcome law see n only through n.tau, and tau
            # is parallel to m, so n = s m has the same truth and law
            bloch = sample_bloch_components(law, size, generator)[:, None] * obs.top_bloch_vector
            truths.append(mixed_qubit_expectation(bloch, obs))
            counts = draw_counts(mixed_qubit_outcome_distribution(bloch, obs), n, generator)
        sums.append(counts @ w)
    return np.concatenate(truths), np.concatenate(sums)


# values per flush of the exponent buckets into one Python int; each bucket's
# partial sum stays an integer below 2**53 for at most 2**26 values
_FLUSH = 2**26

# fsum's sum of negative zeros: -0.0 on Pythons whose fsum keeps the sign
_NEGATIVE_ZERO_SUM = math.fsum([-0.0])


def _exact_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of a float array: ``math.fsum(values.tolist())``.

    Each value is m * 2**(e - 53) with frexp's exponent e and an integer
    m below 2**53 in magnitude.  m is split into a 27-bit high and a 26-bit
    low part, and each part is summed per exponent by ``np.bincount``; with
    at most ``_FLUSH`` = 2**26 values per flush every partial sum is an
    integer below 2**53, so the float accumulation is exact.  Each flush adds
    the buckets to one Python int, divided once with correct rounding at the
    end.  Values go through in slices of ``BLOCK``, so no temporary is larger
    than a block.  A zero total is fsum's signed zero.  Where fsum raises for
    an overflowing partial sum but the total is finite, this returns the
    total.
    """
    if values.size == 0 or not np.isfinite(values).all():
        return math.fsum(values.tolist())
    total = 0
    for flush in range(0, values.size, _FLUSH):
        # frexp's exponent of a nonzero finite double lies in [-1073, 1024]
        highs, lows = np.zeros(2098), np.zeros(2098)
        end = min(flush + _FLUSH, values.size)
        for start in range(flush, end, BLOCK):
            mantissa, exponent = np.frexp(values[start : min(start + BLOCK, end)])
            exponent += 1073
            mantissa *= 2.0**27
            high = np.floor(mantissa)
            mantissa -= high
            mantissa *= 2.0**26
            highs += np.bincount(exponent, weights=high, minlength=2098)
            lows += np.bincount(exponent, weights=mantissa, minlength=2098)
        buckets = np.flatnonzero((highs != 0.0) | (lows != 0.0))
        for shift, high_sum, low_sum in zip(buckets.tolist(), highs[buckets].tolist(), lows[buckets].tolist()):
            total += ((int(high_sum) << 26) + int(low_sum)) << shift
    if total == 0:
        # only negative zeros can sum to fsum's -0.0: any other value that
        # cancels to 0 includes a positive one
        return _NEGATIVE_ZERO_SUM if np.signbit(values).all() else 0.0
    return total / (1 << (1073 + 53))


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    m = values.size
    mean = _exact_sum(values) / m
    if m < 2:
        return mean, 0.0
    centered = values - mean
    centered *= centered
    return mean, math.sqrt(_exact_sum(centered) / (m - 1) / m)


def _analytic_mse(config: ExperimentConfig, obs: Observable) -> float | None:
    if config.estimator is EstimatorKind.OPTIMAL_MIXED_QUBIT:  # valid on Bloch ensembles only
        return analytic_delta_mixed_qubit(obs, config.n2)
    if config.is_bloch:
        return None
    if config.estimator is EstimatorKind.OPTIMAL_PURE:
        return analytic_delta_opt(obs, config.copies)
    return analytic_delta_av(obs, config.copies)


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
            # joins the workers, so none writes to stderr after the caller
            _pool[1].shutdown(wait=True)
            _pool = None
            raise


@atexit.register
def _close_pool() -> None:
    """Shut the pool down and drop it.  Run at exit, before module teardown:
    an executor collected after the modules its callbacks use prints an
    ignored ``AttributeError``."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool[1].shutdown()
            _pool = None


def _draw(config: ExperimentConfig, obs: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Truths and sums of the ensemble pass's M trials, the only random part."""
    if obs.dim != config.dim:
        raise ConfigError(f"observable has d={obs.dim} but config says dim={config.dim}")
    # the blocks split evenly into min(workers, blocks) jobs, so none is empty
    m, workers = config.trials, config.workers
    blocks = -(-m // BLOCK)
    split = min(workers, blocks)
    edges = [min(m, BLOCK * (blocks * i // split)) for i in range(split + 1)]
    jobs = (repeat(config), repeat(obs), edges[:-1], edges[1:])
    if workers == 1:
        results = map(_run_trials, *jobs)
    else:
        # more processes than CPUs would only queue; blocks are keyed by their
        # first trial, so neither the cap nor the split can change the output
        results = _pool_map(min(workers, os.cpu_count() or 1), _run_trials, *jobs)
    return tuple(map(np.concatenate, zip(*results)))


def _reduce(config: ExperimentConfig, obs: Observable, truths, sums, started: float) -> ResultRow:
    """The row of one estimator over a draw; its wall time runs from ``started``."""
    m, n = config.trials, config.copies
    estimates = estimate_from_sums(config.estimator, sums, n, obs, config.n2)
    empirical_mse, standard_error = _mean_and_se((estimates - truths) ** 2)

    # every outcome at the top eigenvector is the top eigenvalue, so all M
    # probe trials share one sum; counts @ w keeps the drawn path's bits
    probe = PureState(obs.eigenvectors[:, 0])
    truth = expectation(probe, obs)
    if not abs(outcome_distribution(probe, obs)[0] - 1.0) <= 1e-12:
        raise ConfigError("the observable's top eigenvector is not an eigenstate to 1e-12")
    counts = np.array([n] + [0] * (obs.dim - 1), dtype=np.int64)
    e = float(estimate_from_sums(config.estimator, counts @ obs.eigenvalues, n, obs, config.n2))
    # the correctly rounded M*e, as math.fsum([e] * M) is, since M < 2**53
    probe_mean = (m * e) / m
    return ResultRow(
        config=config,
        empirical_mse=empirical_mse,
        analytic_mse=_analytic_mse(config, obs),
        empirical_bias_at_probe=probe_mean - truth,
        analytic_bias_at_probe=_analytic_probe_mean(config, obs, probe, truth) - truth,
        standard_error=standard_error,
        wall_time=time.perf_counter() - started,
    )


def run_experiment(config: ExperimentConfig, observable: Observable | None = None) -> ResultRow:
    """Run one seeded experiment: ensemble MSE pass plus the exact bias at the probe."""
    started = time.perf_counter()
    obs = observable if observable is not None else load_observable(config.observable_source, dim=config.dim)
    return _reduce(config, obs, *_draw(config, obs), started)


def run_sweep(base: ExperimentConfig, copies_values, dim_values) -> list[ResultRow]:
    """Both pure-ensemble estimators on every (dim, copies) cell.

    Rows come out ordered by dim, then copies, with the optimal estimator
    before the sample average; every cell reuses the base master seed.  Each
    cell is drawn once, in the optimal row's wall time, and reduced twice.
    """
    rows = []
    for d in sorted(set(int(v) for v in dim_values)):
        obs = load_observable(base.observable_source, dim=d)
        for n in sorted(set(int(v) for v in copies_values)):
            started = time.perf_counter()
            config = replace(base, dim=d, copies=n, estimator="optimal-pure", ensemble=HAAR_ENSEMBLE)
            drawn = _draw(config, obs)
            rows.append(_reduce(config, obs, *drawn, started))
            average = replace(config, estimator="sample-average")
            rows.append(_reduce(average, obs, *drawn, time.perf_counter()))
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
