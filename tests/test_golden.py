"""Golden output: CSV rows at fixed seeds, byte for byte.

``golden.csv`` next to this file holds the text these calls produced with
the block-keyed kernel, one stream per block of ``BLOCK`` trials.  Every
estimator x ensemble pair runs at tiny, mostly odd trial counts, and one
Haar and one Bloch case span three blocks per pass, all at one and two
workers; any rewrite of the Monte Carlo core must reproduce the file
exactly.

A change that is meant to change the drawn numbers (a new stream or kernel)
regenerates the file with

    python tests/test_golden.py --write

which writes ``golden_text(1)`` and refuses, writing nothing, unless
``golden_text(2)`` is identical.  Run as a script, it imports optev from
the checkout's ``src`` when optev is not installed.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

if __name__ == "__main__":
    sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from optev import ExperimentConfig, Observable, RadialLaw, make_observable, rows_to_csv, run_experiment
from optev.harness import BLOCK, run_sweep

GOLDEN = Path(__file__).with_name("golden.csv")

QUBIT = make_observable([[0.3, 0.2 - 0.7j], [0.2 + 0.7j, -1.1]])
QUTRIT = make_observable([[1.0, 0.5 + 0.25j, -0.3j], [0.5 - 0.25j, 0.0, 0.75], [0.3j, 0.75, -2.0]])

LAWS = (
    RadialLaw.pure_surface(),
    RadialLaw.uniform_ball(),
    RadialLaw.fixed_radius(0.6),
    RadialLaw.fixed_radius(0.0),
    RadialLaw.two_point(1.0, 0.6),
)

CASES = (
    [
        (ExperimentConfig(dim=2, copies=1, trials=7, master_seed=101, estimator=kind), QUBIT)
        for kind in ("optimal-pure", "sample-average")
    ]
    + [
        (ExperimentConfig(dim=3, copies=5, trials=11, master_seed=102, estimator=kind), QUTRIT)
        for kind in ("optimal-pure", "sample-average")
    ]
    + [(ExperimentConfig(dim=2, copies=3, trials=9, master_seed=873, estimator="sample-average"), QUBIT)]
    + [
        (
            ExperimentConfig(
                dim=2, copies=1, trials=9, master_seed=103 + i, estimator="optimal-mixed-qubit", ensemble=law
            ),
            QUBIT,
        )
        for i, law in enumerate(LAWS)
    ]
    + [
        (ExperimentConfig(dim=2, copies=3, trials=8, master_seed=110, estimator=kind, ensemble=law), QUBIT)
        for kind in ("optimal-pure", "sample-average")
        for law in (RadialLaw.uniform_ball(), RadialLaw.two_point(0.8, 0.5))
    ]
    # these span three blocks, so a two-worker run draws them on threads
    + [(ExperimentConfig(dim=3, copies=2, trials=2 * BLOCK + 3, master_seed=111), QUTRIT)]
    + [
        (
            ExperimentConfig(
                dim=2,
                copies=1,
                trials=2 * BLOCK + 3,
                master_seed=112,
                estimator="optimal-mixed-qubit",
                ensemble=RadialLaw.uniform_ball(),
            ),
            QUBIT,
        )
    ]
)


def golden_text(workers: int) -> str:
    rows = [run_experiment(replace(config, workers=workers), observable=obs) for config, obs in CASES]
    base = ExperimentConfig(trials=5, master_seed=120, observable_source="diag(2,-0.5,1)")
    rows += run_sweep(replace(base, dim=3), copies_values=[1, 4])
    return rows_to_csv(rows)


@pytest.mark.parametrize("workers", [1, 2])
def test_csv_matches_golden_file(workers):
    assert golden_text(workers) == GOLDEN.read_text()


# the CPU flags each OpenBLAS kernel needs; forcing a kernel without them
# would stop the process on an illegal instruction
KERNEL_FLAGS = {
    "Prescott": {"pni"},
    "Nehalem": {"sse4_2"},
    "Sandybridge": {"avx"},
    "Haswell": {"avx2", "fma"},
    "Zen": {"avx2", "fma"},
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
    "Cooperlake": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl", "avx512_bf16"},
    "SapphireRapids": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl", "avx512_bf16", "avx512_fp16"},
}


def _openblas_cpu_flags() -> set:
    """The CPU's flags from /proc/cpuinfo if numpy's BLAS is OpenBLAS, else the empty set."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        flags = Path("/proc/cpuinfo").read_text().split()
    except (TypeError, KeyError, OSError):
        return set()
    return set(flags) if "openblas" in blas.lower() else set()


def _run_under_kernel(kernel: str, args: list) -> subprocess.CompletedProcess:
    """Run ``python args`` with ``OPENBLAS_CORETYPE=kernel`` and this checkout's ``src`` first on the path.

    OPENBLAS_CORETYPE picks the kernel at load time, so only a new process sees it.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)


# no BLAS call lies between the eigenvalues and the CSV, so every kernel gives
# the same bytes; Sandybridge needs only AVX and Prescott only SSE3
@pytest.mark.skipif(not {"avx2", "fma"} <= _openblas_cpu_flags(), reason="needs OpenBLAS on a CPU with AVX2 and FMA")
@pytest.mark.parametrize("kernel", ["Haswell", "Zen", "Sandybridge", "Prescott"])
def test_golden_file_under_another_openblas_kernel(kernel):
    done = _run_under_kernel(
        kernel, ["-m", "pytest", "-q", "-p", "no:cacheprovider", f"{__file__}::test_csv_matches_golden_file"]
    )
    assert done.returncode == 0, done.stdout[-3000:]


RANDOM_DIMS = range(2, 18)


def save_random_observables(path: Path) -> None:
    """Seeded random observables at every d in ``RANDOM_DIMS``, with their eigendecompositions, as one .npz file."""
    rng = np.random.default_rng(2026)
    arrays = {}
    for d in RANDOM_DIMS:
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        obs = make_observable((raw + raw.conj().T) * rng.uniform(0.1, 10.0))
        arrays.update({f"matrix{d}": obs.matrix, f"eigenvalues{d}": obs.eigenvalues, f"eigenvectors{d}": obs.eigenvectors})
    np.savez(path, **arrays)


def random_observable_text(path: Path) -> str:
    """CSV of Haar runs at every d in ``RANDOM_DIMS``, on both sides of the stars and
    bars choice, and one Bloch run, on the observables saved at ``path``.

    Each ``Observable`` is built from the stored entries, so eigh never runs
    and the rows depend on the BLAS kernel only if the harness calls BLAS.
    """
    stored = np.load(path)
    observables = {
        d: Observable(d, stored[f"matrix{d}"], stored[f"eigenvalues{d}"], stored[f"eigenvectors{d}"])
        for d in RANDOM_DIMS
    }
    rows = []
    for d, obs in observables.items():
        for copies, kind in ((max(1, d // 2), "optimal-pure"), (d + 3, "sample-average")):
            config = ExperimentConfig(dim=d, copies=copies, trials=BLOCK + 3, master_seed=300 + d, estimator=kind)
            rows.append(run_experiment(config, observable=obs))
    bloch = ExperimentConfig(
        dim=2, trials=BLOCK + 3, master_seed=320, estimator="optimal-mixed-qubit", ensemble=RadialLaw.uniform_ball()
    )
    rows.append(run_experiment(bloch, observable=observables[2]))
    return rows_to_csv(rows)


def test_random_observable_rows_are_the_same_bytes_under_every_kernel(tmp_path):
    flags = _openblas_cpu_flags()
    kernels = [kernel for kernel, needs in KERNEL_FLAGS.items() if needs <= flags]
    if len(kernels) < 2:
        pytest.skip("needs OpenBLAS on a CPU that runs at least two of its kernels")
    path = tmp_path / "observables.npz"
    save_random_observables(path)
    want = random_observable_text(path)
    differ = {}
    for kernel in kernels:
        done = _run_under_kernel(kernel, [__file__, "--rows", str(path)])
        assert done.returncode == 0, done.stderr[-3000:]
        if done.stdout != want:
            differ[kernel] = [line for line in done.stdout.splitlines() if line not in want.splitlines()]
    assert not differ


def write_golden() -> int:
    one, two = golden_text(1), golden_text(2)
    if one != two:
        print("golden.csv not written: the text at one and two workers differs", file=sys.stderr)
        return 1
    GOLDEN.write_text(one)
    print(f"wrote {GOLDEN}")
    return 0


def test_write_refuses_unless_worker_counts_agree(monkeypatch, tmp_path):
    module = sys.modules[__name__]
    target = tmp_path / "golden.csv"
    monkeypatch.setattr(module, "GOLDEN", target)
    monkeypatch.setattr(module, "golden_text", lambda workers: f"rows at {workers} workers\n")
    assert write_golden() == 1
    assert not target.exists()
    monkeypatch.setattr(module, "golden_text", lambda workers: "rows\n")
    assert write_golden() == 0
    assert target.read_text() == "rows\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        sys.exit(write_golden())
    if len(sys.argv) == 3 and sys.argv[1] == "--rows":
        sys.stdout.write(random_observable_text(Path(sys.argv[2])))
        sys.exit(0)
    sys.exit(f"usage: {sys.argv[0]} --write | --rows OBSERVABLES.npz")
