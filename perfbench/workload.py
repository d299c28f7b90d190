"""Workload process of the benchmark: runs one workload against optev.

run.py starts it as

    python3 perfbench/workload.py --workload W --seed S --seconds T --trace 0|1 [--setup-only]

and reads the JSON objects it prints, one a line: a set-up line when the
inputs are built, one line per pass over the workload's fixed inputs and a
closing line.  With ``--trace 1`` it makes one pass of every workload,
recording spans around each call into optev, then probes each layer's
public functions directly; the spans stay in memory until the run ends and
are then written to ``perfbench/out``.  Nothing inside optev is traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import optev  # noqa: E402
from optev import verify as optev_verify  # noqa: E402

import oracle  # noqa: E402
from cells import FULL, WORKLOADS, Sizes, cells, observable_matrix  # noqa: E402

PROJECTOR_CELLS = ((2, 12), (8, 4))
LEMMA_CELL = (3, 3)
LEMMA_TRIALS = 1000
HAAR_BATCH = 4096
SIMULATE_COPIES = (1, 8, 64)
UNIT_SCALE = {"us": 1e6, "ns": 1e9, "s": 1.0}
PROBE_ITERATIONS = 50
PROBES = 5
# time of speed_probe on the reference machine when its core is not shared
# (the fast one of its two modes); it sets the reference speed
PROBE_REFERENCE_S = 6e-4


class Tracer:
    """Spans kept in memory: name, start, end, the enclosing span and the
    root span of the pass or probe they belong to."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "trace": len(self.spans) if parent is None else parent["trace"],
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}))


def no_span(name: str, **attrs):
    return nullcontext()


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def build(workload: str, seed: int, sizes: Sizes) -> list:
    """The observables and configs of a workload: the work set-up covers."""
    plan = cells(workload, sizes)
    observables = {d: optev.make_observable(observable_matrix(seed, d)) for d in sorted({c.dim for c in plan})}
    runs = []
    for cell in plan:
        config = optev.ExperimentConfig(
            dim=cell.dim,
            copies=cell.copies,
            trials=cell.trials,
            master_seed=seed,
            estimator=cell.estimator,
            ensemble="haar-pure" if cell.law is None else optev.RadialLaw.from_dict(cell.law),
            workers=cell.workers,
        )
        runs.append((cell, config, observables[cell.dim]))
    return runs


def certify_grids(level: str) -> list[int]:
    """Sizes of the published projector, operator and lemma grids."""
    prefix = level.upper()
    return [len(getattr(optev_verify, f"{prefix}_{grid}_PAIRS")) for grid in ("PROJECTOR", "OPERATOR", "LEMMA")]


def run_pass(workload: str, runs: list, seed: int, sizes: Sizes, span) -> dict:
    """One pass: the outputs to check, the number of operations that failed,
    and the wall time, CPU time and machine speed of each step.

    A step is one ``run_experiment`` call, or the one ``run_verify`` call of
    ``certify``.  The CPU time counts this process and the workers it reaped
    during the step.  The speed is the mean of the probe speeds taken just
    before and just after the step, in the same thread.
    """
    if workload == "certify":
        checks = sum(oracle.expected_certify_counts(*certify_grids(sizes.verify_level)).values())
        steps = [(checks, "verify.run_verify", "verify.run_s",
                  lambda: optev.run_verify(level=sizes.verify_level, seed=seed))]
    else:
        steps = [(1, "harness.run_experiment", f"harness.cell_s.{cell.name}",
                  lambda config=config, obs=obs: optev.run_experiment(config, observable=obs))
                 for cell, config, obs in runs]
    results, timings, failed = [], [], 0
    speed_before = probe_speed()
    for ops, name, metric, call in steps:
        before = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        started = time.perf_counter()
        try:
            with span(name, metric=metric, per=1):
                result = call()
        except Exception:
            traceback.print_exc()
            result = None
            failed += ops
        wall = time.perf_counter() - started
        after = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = sum(a.ru_utime + a.ru_stime - b.ru_utime - b.ru_stime for a, b in zip(after, before))
        speed_after = probe_speed()
        timings.append([wall, cpu, (speed_before + speed_after) / 2])
        speed_before = speed_after
        results.append(result)
    if workload == "certify":
        reports = results[0]
        out = None if reports is None else [[r.check, r.params, r.max_deviation, r.tolerance, r.passed] for r in reports]
    else:
        out = [None if row is None else [row.empirical_mse, row.standard_error, row.empirical_bias_at_probe]
               for row in results]
    return {"pass": workload, "failed": failed, "out": out, "steps": timings}


def speed_probe(generator: np.random.Generator) -> float:
    """Seconds taken by a fixed stretch of small numpy calls, of the kind
    optev's Monte Carlo loop makes, that never touches optev."""
    weights = np.linspace(-1.0, 1.0, 4)
    started = time.perf_counter()
    for _ in range(PROBE_ITERATIONS):
        z = generator.standard_normal(8).view(np.complex128)
        p = z.real**2 + z.imag**2
        cdf = np.cumsum(p / p.sum())
        weights[np.searchsorted(cdf, generator.random(8), side="right")].sum()
    return time.perf_counter() - started


def probe_speed() -> float:
    """How fast the machine runs this thread now, relative to the reference.

    On a shared host the same code runs up to 1.8 times slower while other
    tenants load the core, in spells of seconds to minutes; the probe slows
    with it.  The speed is PROBE_REFERENCE_S over the median of a few probes,
    so a time multiplied by it is that time at the reference speed.
    """
    generator = np.random.default_rng(0)
    return PROBE_REFERENCE_S / statistics.median(speed_probe(generator) for _ in range(PROBES))


def timed_passes(workload: str, runs: list, seed: int, sizes: Sizes, seconds: float):
    """Whole passes until the next one would end after ``seconds``; at least one."""
    started = time.perf_counter()
    walls = []
    while True:
        pass_started = time.perf_counter()
        yield run_pass(workload, runs, seed, sizes, no_span)
        walls.append(time.perf_counter() - pass_started)
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            return


def _repeat(tracer: Tracer, reps: int, name: str, metric: str, calls: int, call, per: int | None = None) -> None:
    """``reps`` spans of ``calls`` calls each; a span's time per ``per`` units
    (``calls`` by default) feeds ``metric``."""
    for _ in range(reps):
        with tracer.span(name, metric=metric, per=per or calls):
            for k in range(calls):
                call(k)


def probe_layers(tracer: Tracer, seed: int, sizes: Sizes) -> list[str]:
    """Spans around direct calls of each layer's public functions; returns
    the failures of the projector and lemma checks made on the way."""
    rng = np.random.default_rng([seed, 1])
    reps, calls = sizes.probe_reps, sizes.probe_calls
    stream = optev.derive_stream(seed, 1)
    obs8 = optev.make_observable(observable_matrix(seed, 8))
    state8 = optev.sample_haar_pure(8, stream)
    outcomes8 = optev.simulate_measurements(state8, obs8, 8, stream)
    ball = optev.RadialLaw.uniform_ball()
    matrices8 = [observable_matrix(seed + 1 + k, 8) for k in range(calls)]

    _repeat(tracer, reps, "hermitian.make_observable", "hermitian.make_observable_us", calls,
            lambda k: optev.make_observable(matrices8[k]))
    _repeat(tracer, reps, "sampling.derive_stream", "sampling.derive_stream_us", calls,
            lambda k: optev.derive_stream(seed, k))
    _repeat(tracer, reps, "sampling.sample_haar_amplitudes", "sampling.haar_us.d8", calls,
            lambda k: optev.sample_haar_amplitudes(8, 1, stream))
    _repeat(tracer, reps, "sampling.sample_haar_amplitudes", "sampling.haar_batch_ns.d8", 1,
            lambda k: optev.sample_haar_amplitudes(8, HAAR_BATCH, stream), per=HAAR_BATCH)
    _repeat(tracer, reps, "sampling.sample_bloch_mixed", "sampling.bloch_us", calls,
            lambda k: optev.sample_bloch_mixed(ball, stream))
    for n in SIMULATE_COPIES:
        _repeat(tracer, reps, "estimators.simulate_measurements", f"estimators.simulate_us.n{n}", calls,
                lambda k: optev.simulate_measurements(state8, obs8, n, stream))
    _repeat(tracer, reps, "estimators.estimate_optimal", "estimators.estimate_us", calls,
            lambda k: optev.estimate_optimal(outcomes8, obs8))

    qubit = optev.make_observable(observable_matrix(seed, 2))
    for workers in (1, 2) * reps:
        config = optev.ExperimentConfig(dim=2, copies=1, trials=4, master_seed=seed, workers=workers)
        _repeat(tracer, 1, "harness.run_experiment", f"harness.pool_w{workers}_s", 1,
                lambda k: optev.run_experiment(config, observable=qubit))

    failures = []
    for d, n in PROJECTOR_CELLS:
        for key, construct in (("perm", optev.build_projector_permutation), ("occ", optev.build_projector_occupation)):
            for _ in range(sizes.build_reps):
                with tracer.span(f"symmetric.{construct.__name__}", metric=f"symmetric.{key}_s.d{d}n{n}", per=1):
                    projector = construct(d, n)
            failures += oracle.projector_failures(projector.matrix, d, n, rng)
            del projector

    d, n = LEMMA_CELL
    for _ in range(reps):
        with tracer.span("symmetric.check_unbiased_lemma", metric=f"symmetric.lemma_s.d{d}n{n}", per=1):
            lemma = optev.check_unbiased_lemma(d, n, LEMMA_TRIALS, optev.derive_stream(seed, 2))
        if not lemma.passed:
            failures.append(f"lemma d={d} n={n}: {lemma}")
    return failures


def layer_metrics(tracer: Tracer, sizes: Sizes, verify_checks: int) -> dict:
    """Median per-call time of each span metric, scaled to its unit."""
    per_call: dict[str, list[float]] = {}
    for record in tracer.spans:
        metric = record["attrs"].get("metric")
        if metric:
            seconds = (record["end_ns"] - record["start_ns"]) / 1e9
            per_call.setdefault(metric, []).append(seconds / record["attrs"]["per"])
    metrics = {}
    for name, values in per_call.items():
        unit = name.split(".")[1].rsplit("_", 1)[1]
        metrics[name] = {"value": statistics.median(values) * UNIT_SCALE[unit], "unit": unit}
    w1 = metrics.pop("harness.pool_w1_s")["value"]
    w2 = metrics.pop("harness.pool_w2_s")["value"]
    metrics["harness.pool_start_s"] = {"value": w2 - w1, "unit": "s"}
    trial_cell = next(c for c in cells("pure-grid", sizes) if c.name == "pure-grid.d4n8.opt")
    cell_s = metrics[f"harness.cell_s.{trial_cell.name}"]["value"]
    metrics["harness.trial_us"] = {"value": cell_s / trial_cell.trial_passes * 1e6, "unit": "us"}
    side = 2**12
    metrics["symmetric.dense_mib.d2n12"] = {"value": side * side * 8 / 2**20, "unit": "MiB-computed"}
    metrics["verify.checks"] = {"value": verify_checks, "unit": "count"}
    return metrics


def traced_run(workload: str, seed: int, sizes: Sizes, emit_record, trace_file: Path) -> None:
    """One traced pass of every workload, the named one first, then the probes."""
    tracer = Tracer()
    verify_checks = 0
    for name in [workload] + [w for w in WORKLOADS if w != workload]:
        runs = build(name, seed, sizes)
        with tracer.span(f"pass.{name}"):
            record = run_pass(name, runs, seed, sizes, tracer.span)
        if name == "certify" and record["out"] is not None:
            verify_checks = len(record["out"])
        emit_record(record)
    failures = probe_layers(tracer, seed, sizes)
    tracer.write(trace_file)
    emit_record({"layers": layer_metrics(tracer, sizes, verify_checks), "failures": failures,
                 "trace_file": str(trace_file)})


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest reaped worker."""
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if not Path(optev.__file__).resolve().is_relative_to(SRC):
        print(f"workload: optev comes from {optev.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    runs = build(args.workload, args.seed, FULL)
    emit({"setup_at": time.monotonic(), "certify_grids": certify_grids(FULL.verify_level)})
    if args.setup_only:
        return 0
    emit({"machine": machine_facts()})
    if args.trace:
        traced_run(args.workload, args.seed, FULL, emit, OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        for record in timed_passes(args.workload, runs, args.seed, FULL, args.seconds):
            emit(record)
    emit({"peak_rss_mb": peak_rss_mb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
