"""Seeded Monte Carlo experiment runner with CSV/JSON emission.

An experiment draws M ensemble trials in blocks of ``BLOCK`` trials; the
block starting at trial k draws all of its randomness from the stream keyed
by (master_seed, k), which the drawing thread's kept generator restores from
a cached start state (:func:`optev.sampling.keyed_stream`).  The config's
ensemble object draws each block and then, once per run, turns the blocks
into each trial's truth and sum of observed eigenvalues (its ``draw`` and
``finish``, :mod:`optev.sampling`), so every ensemble takes one path: a Haar
block draws eigenbasis probabilities and outcome counts, with no
amplitude and no multinomial draw, and leaves ``finish`` nothing to do; a
Bloch block only reads the stream for each state's Bloch component along the
top eigenvector's and its outcomes, and ``finish`` does the arithmetic.
Blocks never depend on the worker count and write fixed slots of one array,
which the calling thread then reduces with numpy's sum, one pass over the
whole array in a fixed order, so output is byte-identical for any worker
count.  A run's truths, sums and squared errors are the rows of one buffer
the calling thread keeps (:func:`optev.sampling.scratch`), ``finish``
working in the third; a Haar block draws into buffers its thread keeps, so
a warm run asks for no array of M values.  No BLAS call lies between
the eigendecomposition and the CSV, so given the eigenvalues, the output
is also the same on every CPU and BLAS kernel.  The bias at the fixed probe (the
top eigenvector, where every outcome is the top eigenvalue, its truth) is exact, not drawn.

A run with ``workers > 1`` on a ``threaded`` ensemble (Haar, whose numpy
calls release the GIL) maps its blocks, one task each, over
min(workers, blocks, CPUs) threads of a ``ThreadPoolExecutor`` of its own.
Bloch runs always draw in the calling thread.  No run starts a process.

The estimator is in no stream key, so ``_draw`` keeps each thread's last
draw, read-only, keyed by every value the draw reads: master seed, N, M, the
ensemble, the eigenvalues' bytes (which fix d) and tr Omega; and by the
worker count, so a run on other workers draws afresh.  An equal key in that
thread, such as the other estimator on a cell, reuses the draw; another
thread draws its own, so no run reads rows that another rewrites.  A miss
takes the buffer, 24 bytes per trial, before the first block, so an M that
cannot be held fails at once with ``MemoryError``.
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
from functools import partial
from pathlib import Path

import numpy as np

from .estimators import EstimatorKind, affine_form, analytic_bias, analytic_mse, check_int, estimate_from_sums
from .hermitian import Observable, frozen, make_observable, observable_from_json
from .sampling import HAAR_PURE, HaarPure, RadialLaw, keyed_stream, scratch

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one Monte Carlo experiment.

    Its integer fields pass :func:`optev.estimators.check_int` and are kept as ``int``s.
    """

    dim: int = 2
    copies: int = 1
    trials: int = 100_000
    master_seed: int = 0
    estimator: EstimatorKind = EstimatorKind.OPTIMAL_PURE
    ensemble: "HaarPure | RadialLaw" = HAAR_PURE
    observable_source: str = "pauli-z"
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "estimator", EstimatorKind(self.estimator))
        if isinstance(self.ensemble, str) and self.ensemble == HAAR_PURE.label():
            object.__setattr__(self, "ensemble", HAAR_PURE)
        try:
            for name, low in (("dim", 2), ("trials", 1), ("workers", 1), ("master_seed", 0)):
                object.__setattr__(self, name, check_int(name, getattr(self, name), low))
            object.__setattr__(self, "copies", check_int("copies", self.copies, 1, bits=63))
            if not isinstance(self.ensemble, (HaarPure, RadialLaw)):
                raise ValueError(f"ensemble must be 'haar-pure' or a Bloch law, got {self.ensemble!r}")
            if self.ensemble.qubit_only and self.dim != 2:
                raise ValueError("the Bloch ensemble is qubit-only (dim must be 2)")
            affine_form(self.estimator, self.copies, self.dim, self.ensemble.second_moment())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "copies": self.copies,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "estimator": self.estimator.value,
            "ensemble": self.ensemble.to_json(),
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
        ensemble = kwargs.get("ensemble")
        # a ConfigError raised in here is a ValueError, re-raised with its message
        try:
            if isinstance(ensemble, dict):
                if set(ensemble.keys()) != {"bloch"}:
                    raise ConfigError(f"ensemble object must be {{'bloch': law}}, got {ensemble!r}")
                kwargs["ensemble"] = RadialLaw.from_dict(ensemble["bloch"])
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
    analytic_mse: float
    empirical_bias_at_probe: float
    analytic_bias_at_probe: float
    standard_error: float
    wall_time: float


def _draw_block(config: ExperimentConfig, obs: Observable, truths: np.ndarray, sums: np.ndarray, k: int) -> None:
    """Draw the block starting at trial k into its slices of the truths and sums,
    from the stream keyed by (master_seed, k)."""
    block = slice(k, min(k + BLOCK, config.trials))
    config.ensemble.draw(obs, config.copies, keyed_stream(config.master_seed, k), truths[block], sums[block])


# each thread's last draw as .entry = (key, (truths, sums)), or None; see _draw
_memo = threading.local()


def _draw(config: ExperimentConfig, obs: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Truths and sums of the ensemble pass's M trials, the only random part, as
    read-only rows of this thread's ``"run"`` buffer (see the module docstring)."""
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
    last = getattr(_memo, "entry", None)
    if last is not None and last[0] == key:
        return last[1]
    # cleared first, so a grown buffer frees the old draw and a failed draw leaves no entry over half-written rows
    _memo.entry = None
    m = config.trials
    truths, sums, work = scratch("run", 3, m)
    starts = range(0, m, BLOCK)
    block = partial(_draw_block, config, obs, truths, sums)
    threads = min(config.workers, len(starts)) if config.ensemble.threaded else 1
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
    config.ensemble.finish(obs, config.copies, truths, sums, work)
    drawn = (frozen(truths), frozen(sums))
    _memo.entry = (key, drawn)
    return drawn


def run_experiment(config: ExperimentConfig, observable: Observable | None = None) -> ResultRow:
    """Run one seeded experiment: ensemble MSE pass plus the exact bias at the probe.

    Its arrays are the calling thread's ``"run"`` buffer, 24 bytes per trial, kept until the thread ends.
    """
    started = time.perf_counter()
    obs = observable if observable is not None else load_observable(config.observable_source, dim=config.dim)
    truths, sums = _draw(config, obs)
    m, n, n2 = config.trials, config.copies, config.ensemble.second_moment()
    # the draw's buffer at its size, so the truths and sums stay where they are
    errors = estimate_from_sums(config.estimator, sums, n, obs, n2, out=scratch("run", 3, m)[2])
    errors -= truths
    errors *= errors
    empirical_mse = float(errors.sum()) / m
    errors -= empirical_mse
    errors *= errors
    standard_error = math.sqrt(float(errors.sum()) / (m - 1) / m) if m > 1 else 0.0

    # every outcome at the top eigenvector is the top eigenvalue, which is
    # also its truth, so all M probe trials share one sum, N w_0: the drawn
    # path's sum of rows with counts [N, 0, ..., 0], bit for bit; the
    # analytic bias is that estimate's closed form, rounded once
    if not obs.top_is_eigenstate:
        raise ConfigError("the observable's top eigenvector is not an eigenstate to 1e-12")
    truth = float(obs.eigenvalues[0])
    e = float(estimate_from_sums(config.estimator, n * truth, n, obs, n2))
    # M*e is the correctly rounded sum of M copies of e, since M < 2**53
    probe_mean = (m * e) / m
    return ResultRow(
        config=config,
        empirical_mse=empirical_mse,
        analytic_mse=analytic_mse(config.estimator, obs, n, n2),
        empirical_bias_at_probe=probe_mean - truth,
        analytic_bias_at_probe=analytic_bias(config.estimator, obs, n, n2),
        standard_error=standard_error,
        wall_time=time.perf_counter() - started,
    )


def run_sweep(base: ExperimentConfig, copies_values) -> list[ResultRow]:
    """Both pure-ensemble estimators at ``base.dim``, for every N in ``copies_values``.

    Rows come out ordered by copies, with the optimal estimator before the
    sample average; every cell reuses the base master seed.  The sample
    average's run finds the optimal run's draw in ``_draw``'s memo.  A Bloch
    base or a copies value that is not an integer raises ConfigError before
    any cell runs; an observable whose d is not ``base.dim`` raises it in
    ``_draw``, before any block is drawn.
    """
    if base.ensemble != HAAR_PURE:
        raise ConfigError("sweep runs the Haar pure-state estimators; the config names a Bloch ensemble")
    copies = sorted({replace(base, copies=v).copies for v in copies_values})
    obs = load_observable(base.observable_source, dim=base.dim)
    rows = []
    for n in copies:
        for kind in (EstimatorKind.OPTIMAL_PURE, EstimatorKind.SAMPLE_AVERAGE):
            rows.append(run_experiment(replace(base, copies=n, estimator=kind), observable=obs))
    return rows


def _format_cell(value) -> str:
    return "" if value is None else str(value)


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
                config.ensemble.label(),
                _format_cell(config.ensemble.second_moment()),
                _format_cell(row.empirical_mse),
                _format_cell(row.standard_error),
                _format_cell(row.analytic_mse),
                _format_cell(row.empirical_bias_at_probe),
                _format_cell(row.analytic_bias_at_probe),
                _format_cell(row.wall_time if include_timing else None),
            ]
        )
    return buffer.getvalue()
