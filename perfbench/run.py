"""Benchmark of optev: one workload, measured end to end or layer by layer.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from anywhere; the package under test is the ``src/optev`` next to this
directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  README.md in
this directory describes the workloads, metrics and checks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cells
import oracle

HERE = Path(__file__).resolve().parent
WORKLOAD_SCRIPT = HERE / "workload.py"
OUT = HERE / "out"
SETUP_PROBES = 8
# Set-up is dominated by interpreter start and the numpy import, whose time
# drifts with the host's load by up to twice over an hour.  Each set-up
# sample is therefore paired with a launch of this reference program just
# before it and scaled to the reference program's time LAUNCH_REFERENCE_S.
REFERENCE_LAUNCH = ["-c", "import numpy"]
LAUNCH_REFERENCE_S = 0.15
SCALED_STEP_MAX_S = 5.0
# every process of a run ends by then, well inside the 180 s a run may take
RUN_DEADLINE_S = 160.0


def stop_group(pgid: int) -> None:
    """Kill every process left in a process group and wait, up to 5 s, until
    none is left (a killed worker stays visible until init reaps it)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        time.sleep(0.05)
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return


def run_child(command: list[str], deadline: float) -> tuple[int | None, list[dict]]:
    """Run ``command`` in a process group of its own until it exits or the
    monotonic ``deadline`` passes, then stop whatever it left running.

    Returns its exit code, or None when it overran and was killed, and the
    JSON objects it printed one a line.
    """
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        out, _ = proc.communicate()
        code = None
    stop_group(proc.pid)
    return code, [json.loads(line) for line in out.splitlines() if line.startswith("{")]


def output_failures(workload: str, out: list | None, seed: int, sizes: cells.Sizes, certify_counts: dict) -> list[str]:
    """Check one pass's outputs against closed forms computed here."""
    if out is None:
        return []
    if workload == "certify":
        return oracle.certify_failures(out, certify_counts)
    failures = []
    facts = {}
    for cell, row in zip(cells.cells(workload, sizes), out, strict=True):
        if row is None:
            continue
        if cell.dim not in facts:
            facts[cell.dim] = oracle.spectrum_facts(cells.observable_matrix(seed, cell.dim))
        trace, trace_square, top = facts[cell.dim]
        failures += oracle.cell_failures(
            cell,
            *row,
            oracle.closed_form_mse(cell, trace, trace_square),
            oracle.exact_probe_bias(cell, trace, top),
        )
    return failures


def scaled_total(passes: list[dict], column: int) -> float:
    """Sum over the steps of a pass of the median, over passes, of the
    step's time (column 0 wall, 1 CPU) at the reference speed.

    A step longer than SCALED_STEP_MAX_S keeps its measured time: the host
    changes speed within seconds, so probes taken before and after such a
    step cannot tell its speed.
    """
    per_step = zip(*(record["steps"] for record in passes))
    return sum(
        statistics.median(t[column] * (t[2] if t[0] <= SCALED_STEP_MAX_S else 1.0) for t in timings)
        for timings in per_step
    )


def summarize(
    workload: str,
    seed: int,
    trace: int,
    lines: list[dict],
    setup_s: list[float],
    killed: bool,
    sizes: cells.Sizes = cells.FULL,
) -> tuple[dict, list[str]]:
    """The result object of a run and the correctness failures behind it."""
    certify_counts = oracle.expected_certify_counts(*lines[0]["certify_grids"])
    ops = {name: len(cells.cells(name, sizes)) for name in cells.WORKLOADS}
    ops["certify"] = sum(certify_counts.values())

    passes = [line for line in lines if "pass" in line]
    failures = []
    attempted = failed = 0
    first_out = {}
    for record in passes:
        name = record["pass"]
        attempted += ops[name]
        failed += record["failed"]
        failures += output_failures(name, record["out"], seed, sizes, certify_counts)
        if first_out.setdefault(name, record["out"]) != record["out"]:
            failures.append(f"{name}: two passes over the same inputs gave different outputs")
    if killed:
        order = [workload] + [w for w in cells.WORKLOADS if w != workload]
        overran = next((w for w in order if w not in first_out), None) if trace else workload
        if overran is not None:
            attempted += ops[overran]
            failed += ops[overran]

    metrics = {}
    if trace:
        for line in lines:
            if "layers" in line:
                metrics = line["layers"]
                failures += line["failures"]
    else:
        mine = [record for record in passes if record["pass"] == workload]
        work = sum(cell.trial_passes for cell in cells.cells(workload, sizes)) or ops["certify"]
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
        if mine:
            # times at the reference speed: see probe_speed in workload.py
            wall_s = scaled_total(mine, 0)
            metrics["wall_s"] = {"value": wall_s, "unit": "s"}
            metrics["ops_per_s"] = {"value": work / wall_s, "unit": "1/s"}
            metrics["cpu_s"] = {"value": scaled_total(mine, 1), "unit": "s"}
        for line in lines:
            if "peak_rss_mb" in line:
                metrics["peak_rss_mb"] = {"value": line["peak_rss_mb"], "unit": "MiB"}
    result = {"correct": not failures, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=cells.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")

    deadline = time.monotonic() + RUN_DEADLINE_S
    command = [sys.executable, str(WORKLOAD_SCRIPT), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []  # (set-up seconds, reference launch seconds just before)
    for probe in range(SETUP_PROBES + 1):
        final = probe == SETUP_PROBES
        started = time.monotonic()
        run_child([sys.executable, *REFERENCE_LAUNCH], deadline)
        reference_s = time.monotonic() - started
        launched = time.monotonic()
        code, lines = run_child(command if final else command + ["--setup-only"], deadline)
        if not lines or "setup_at" not in lines[0] or not (code == 0 or (final and code is None)):
            print(f"run: the workload process failed (exit code {code})", file=sys.stderr)
            return 1
        setups.append((lines[0]["setup_at"] - launched, reference_s))
    killed = code is None
    if killed:
        print(f"run: the workload process overran {RUN_DEADLINE_S:g} s and was killed", file=sys.stderr)

    setup_s = [seconds * LAUNCH_REFERENCE_S / reference_s for seconds, reference_s in setups]
    result, failures = summarize(args.workload, args.seed, args.trace, lines, setup_s, killed)
    for failure in failures:
        print(f"run: incorrect: {failure}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    details = {"result": result, "failures": failures, "killed": killed, "setups": setups, "lines": lines}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
