"""Seeded Monte Carlo experiment runner with CSV/JSON emission.

An experiment draws M ensemble trials in blocks of ``BLOCK`` trials; the
block starting at trial k draws all of its randomness from the stream keyed
by (master_seed, k) and records each trial's truth and sum of observed
eigenvalues.  A Haar block draws each trial's outcome counts first, uniform
over the compositions of N into d parts, and then the state's outcome
probabilities in the observable's eigenbasis from Dirichlet(1 + counts)
(:func:`optev.sampling.sample_haar_counts`); that is the joint law of
Dirichlet(1, ..., 1) probabilities and multinomial counts, with no
amplitude and no multinomial draw.  Both come as (d, trials) arrays, one
row per outcome, and the truths sum_i w_i p_i and sums sum_i w_i c_i add
those rows first to last, elementwise, with no BLAS call.  A Bloch block draws only each state's
Bloch component s along the top eigenvector's Bloch vector m
(:func:`optev.sampling.sample_bloch_components`); the state's truth,
(tr Omega + s (w0 - w1))/2, and outcome law depend on s alone, so the top
eigenvalue is seen with probability (1 + s)/2, one uniform per trial for
one copy and one binomial draw per trial for more.
Blocks never depend on the worker count and results are reduced afterwards
with an exact sum equal to ``math.fsum``, so output is byte-identical for
any worker count.  No BLAS call lies between the eigendecomposition and the
CSV, so given the eigenvalues, the output is also the same on every CPU and
BLAS kernel.  The bias at the fixed probe (the top eigenvector, where every
outcome is the top eigenvalue, its truth) is exact, not drawn.

A Haar run with ``workers > 1`` maps its blocks, one task each, over
min(workers, blocks, CPUs) threads of a ``ThreadPoolExecutor`` of its own;
its numpy calls release the GIL.  A Bloch block is a few calls on ``BLOCK``
numbers, which threads would only slow, so Bloch runs always draw in the
calling thread.  No run starts a process.

The estimator is in no stream key, so ``_draw`` keeps its last draw,
read-only, keyed by every value the draw reads: master seed, N, M, the
ensemble, the eigenvalues' bytes (which fix d) and tr Omega; and by the
worker count, so a run on other workers draws afresh.  A run on an equal
key, such as the other estimator on a cell, reuses the draw.  A run on
another key drops it before drawing, so memory never holds two.  Its 16
bytes per trial (16 MB at M = 10^6) are allocated before the first block,
so an M that cannot be held fails at once with ``MemoryError``.  One
assignment swaps it, so threads need no lock.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import os
import time
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .estimators import (
    EstimatorKind,
    analytic_delta_av,
    analytic_delta_mixed_qubit,
    analytic_delta_opt,
    estimate_from_sums,
)
from .hermitian import (
    Observable,
    PureState,
    frozen,
    make_observable,
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
        # the Bloch outcome draw, Generator.binomial, takes a signed 64-bit
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


def _draw_block(config: ExperimentConfig, obs: Observable, truths: np.ndarray, sums: np.ndarray, k: int) -> None:
    """Write the truths and sums of observed eigenvalues of the block starting at trial k into their slices."""
    n, w = config.copies, obs.eigenvalues
    generator = derive_stream(config.master_seed, k)
    size = min(BLOCK, config.trials - k)
    block = slice(k, k + size)
    if not config.is_bloch:
        p, counts = sample_haar_counts(config.dim, n, size, generator)
        # sum_i w_i p_i and sum_i w_i c_i: numpy adds the outcome rows first
        # to last, a fixed order, so no BLAS kernel changes the bits
        p *= w[:, None]
        p.sum(axis=0, out=truths[block])
        (counts * w[:, None]).sum(axis=0, out=sums[block])
        return
    s = sample_bloch_components(config.ensemble, size, generator)
    # tr[rho Omega] = (tr Omega + r.tau)/2, tau is parallel to m and |tau| = w0 - w1
    truths[block] = 0.5 * (obs.trace + s * (w[0] - w[1]))
    # in [0, 1] exactly, since |s| <= 1
    p_top = 0.5 * (1.0 + s)
    if n == 1:
        top = (generator.random(size) < p_top).view(np.int8)
    else:
        top = generator.binomial(n, p_top)
    # the count vector [top, n - top] dotted with the two eigenvalues
    sums[block] = top * w[0] + (n - top) * w[1]


# values per chunk of the exact sum: its 64 KiB buffers stay below malloc's mmap threshold
_CHUNK = 2**13

# fsum's sum of negative zeros: -0.0 on Pythons whose fsum keeps the sign
_NEGATIVE_ZERO_SUM = math.fsum([-0.0])


def _exact_sum(values: np.ndarray) -> float:
    """The correctly rounded sum of a float array: ``math.fsum(values.tolist())``.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 189
    (2008)) over chunks of n <= ``_CHUNK`` values below 2**e in magnitude: for
    sigma = 2**s, s = e + bit_length(n) + 1, q = (x + sigma) - sigma is an exact
    multiple of 2**(s - 53) and the q's total lies below 2**(s - 1), so
    ``q.sum()`` is exact in any order; the exact remainders x - q go round until
    all are zero.  Level sums join one int in units of 2**-1074, divided once.
    s >= -1022 (at -1021, 2**-1074 ties to even and never shrinks); a chunk with
    no sigma (s > 1022) is summed as Python ints.  A zero total is fsum's signed
    zero, non-finite input goes to fsum, and where fsum's partials overflow the total is returned.
    """
    total = 0
    for start in range(0, values.size, _CHUNK):
        rest = values[start : start + _CHUNK]
        top = max(rest.max(), -rest.min())
        if not math.isfinite(top):
            return math.fsum(values.tolist())
        bits = rest.size.bit_length() + 1
        if math.frexp(top)[1] + bits > 1022:
            total += sum((num << 1074) // den for num, den in map(float.as_integer_ratio, rest.tolist()))
            continue
        level, remainder = np.empty(rest.size), np.empty(rest.size)
        while top:
            sigma = 2.0 ** max(math.frexp(top)[1] + bits, -1022)
            np.add(rest, sigma, out=level)
            level -= sigma
            rest = np.subtract(rest, level, out=remainder)
            num, den = float(level.sum()).as_integer_ratio()
            total += (num << 1074) // den
            top = max(rest.max(), -rest.min())
    if total == 0:
        # only negative zeros can sum to fsum's -0.0: any other value that
        # cancels to 0 includes a positive one
        return _NEGATIVE_ZERO_SUM if values.size and np.signbit(values).all() else 0.0
    return total / (1 << 1074)


def _analytic_mse(config: ExperimentConfig, obs: Observable) -> float | None:
    if config.estimator is EstimatorKind.OPTIMAL_MIXED_QUBIT:  # valid on Bloch ensembles only
        return analytic_delta_mixed_qubit(obs, config.n2)
    if config.is_bloch:
        return None
    if config.estimator is EstimatorKind.OPTIMAL_PURE:
        return analytic_delta_opt(obs, config.copies)
    return analytic_delta_av(obs, config.copies)


def _analytic_probe_mean(config: ExperimentConfig, obs: Observable, truth: float) -> float:
    if config.estimator is EstimatorKind.SAMPLE_AVERAGE:
        return truth
    n = config.copies
    return float(estimate_from_sums(config.estimator, n * truth, n, obs, config.n2))


# the last draw as (key, (truths, sums)), read-only, or None; see _draw
_last_draw = None


def _draw(config: ExperimentConfig, obs: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Truths and sums of the ensemble pass's M trials, the only random part;
    the last ones are kept under their key (see the module docstring)."""
    global _last_draw
    if obs.dim != config.dim:
        raise ConfigError(f"observable has d={obs.dim} but config says dim={config.dim}")
    # the eigenvalues' bytes hold d; repr and hex tell -0.0 from 0.0, so a hit
    # is bit for bit the draw it stands for.  The worker count changes no
    # output, but a run on other workers draws afresh, so comparing two runs
    # that differ only in it compares two draws
    key = (
        config.master_seed,
        config.copies,
        config.trials,
        repr(config.ensemble),
        obs.eigenvalues.tobytes(),
        obs.trace.hex(),
        config.workers,
    )
    last = _last_draw
    if last is not None and last[0] == key:
        return last[1]
    # drop the old draw first, so memory never holds two
    _last_draw = None
    m = config.trials
    if m >= 2**60:  # numpy refuses arrays of 2**63 bytes or more
        raise MemoryError(f"{m} trials need {16 * m} bytes")
    truths, sums = np.empty(m), np.empty(m)
    starts = range(0, m, BLOCK)
    block = partial(_draw_block, config, obs, truths, sums)
    threads = 1 if config.is_bloch else min(config.workers, len(starts))
    if threads > 1:
        # more threads than CPUs would only queue
        threads = min(threads, os.cpu_count() or 1)
    if threads == 1:
        for k in starts:
            block(k)
    else:
        # imported here, so serial runs never load concurrent.futures
        from concurrent.futures import ThreadPoolExecutor

        # each block is keyed by its first trial and writes its own slices, so
        # the thread count cannot change the output; list() reads every
        # result, so a block's exception is raised here
        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(block, starts))
    drawn = (frozen(truths), frozen(sums))
    # one assignment of an immutable tuple, so a thread sees the old entry or
    # the new one, never half of one, and needs no lock
    _last_draw = (key, drawn)
    return drawn


def run_experiment(config: ExperimentConfig, observable: Observable | None = None) -> ResultRow:
    """Run one seeded experiment: ensemble MSE pass plus the exact bias at the probe.

    The draw's truths and sums, 16 bytes per trial, stay in memory after this
    returns, until a run with other draw inputs replaces them.
    """
    started = time.perf_counter()
    obs = observable if observable is not None else load_observable(config.observable_source, dim=config.dim)
    truths, sums = _draw(config, obs)
    m, n = config.trials, config.copies
    errors = estimate_from_sums(config.estimator, sums, n, obs, config.n2)
    errors -= truths
    errors *= errors
    empirical_mse = _exact_sum(errors) / m
    errors -= empirical_mse
    errors *= errors
    standard_error = math.sqrt(_exact_sum(errors) / (m - 1) / m) if m > 1 else 0.0

    # every outcome at the top eigenvector is the top eigenvalue, which is
    # also its truth, so all M probe trials share one sum, N w_0: the drawn
    # path's sum of rows with counts [N, 0, ..., 0], bit for bit
    if not abs(outcome_distribution(PureState(obs.eigenvectors[:, 0]), obs)[0] - 1.0) <= 1e-12:
        raise ConfigError("the observable's top eigenvector is not an eigenstate to 1e-12")
    truth = float(obs.eigenvalues[0])
    e = float(estimate_from_sums(config.estimator, n * truth, n, obs, config.n2))
    # the correctly rounded M*e, as math.fsum([e] * M) is, since M < 2**53
    probe_mean = (m * e) / m
    return ResultRow(
        config=config,
        empirical_mse=empirical_mse,
        analytic_mse=_analytic_mse(config, obs),
        empirical_bias_at_probe=probe_mean - truth,
        analytic_bias_at_probe=_analytic_probe_mean(config, obs, truth) - truth,
        standard_error=standard_error,
        wall_time=time.perf_counter() - started,
    )


def _integral(value):
    """A numpy integer as an int; any other value as it is, bools too, for ExperimentConfig to check."""
    try:
        return value if isinstance(value, int) else operator.index(value)
    except TypeError:
        return value


def run_sweep(base: ExperimentConfig, copies_values, dim_values) -> list[ResultRow]:
    """Both pure-ensemble estimators on every (dim, copies) cell.

    Rows come out ordered by dim, then copies, with the optimal estimator
    before the sample average; every cell reuses the base master seed.  The
    sample average's run finds the optimal run's draw in ``_draw``'s memo.
    A Bloch base or a grid value that is not an integer raises ConfigError.
    """
    if base.is_bloch:
        raise ConfigError("sweep runs the Haar pure-state estimators; the config names a Bloch ensemble")
    cell = replace(base, estimator=EstimatorKind.OPTIMAL_PURE, ensemble=HAAR_ENSEMBLE)
    dims = sorted({replace(cell, dim=_integral(v)).dim for v in dim_values})
    copies = sorted({replace(cell, copies=_integral(v)).copies for v in copies_values})
    rows = []
    for d in dims:
        obs = load_observable(base.observable_source, dim=d)
        for n in copies:
            config = replace(cell, dim=d, copies=n)
            rows.append(run_experiment(config, observable=obs))
            rows.append(run_experiment(replace(config, estimator=EstimatorKind.SAMPLE_AVERAGE), observable=obs))
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
