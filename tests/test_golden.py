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

import pytest

if __name__ == "__main__":
    sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

from optev import ExperimentConfig, RadialLaw, make_observable, rows_to_csv, run_experiment
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
    rows += run_sweep(base, copies_values=[1, 4], dim_values=[3])
    return rows_to_csv(rows)


@pytest.mark.parametrize("workers", [1, 2])
def test_csv_matches_golden_file(workers):
    assert golden_text(workers) == GOLDEN.read_text()


def _openblas_with_avx2_and_fma() -> bool:
    """Whether numpy's BLAS is OpenBLAS and the CPU has the AVX2 and FMA
    instructions that its Haswell and Zen kernels use."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        flags = Path("/proc/cpuinfo").read_text().split()
    except (TypeError, KeyError, OSError):
        return False
    return "openblas" in blas.lower() and {"avx2", "fma"} <= set(flags)


# the Bloch rows read the eigenvalues, never a BLAS dot; the Haar rows' gemv
# calls still change their last bits under the Sandybridge and Prescott kernels,
# so those two are left out
@pytest.mark.skipif(not _openblas_with_avx2_and_fma(), reason="needs OpenBLAS on a CPU with AVX2 and FMA")
@pytest.mark.parametrize("kernel", ["Haswell", "Zen"])
def test_golden_file_under_another_openblas_kernel(kernel):
    # OPENBLAS_CORETYPE picks the kernel at load time, so only a new process sees it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"{__file__}::test_csv_matches_golden_file"],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:]


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
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    sys.exit(write_golden())
