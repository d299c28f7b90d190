"""The benchmark's fixed workloads and the seeded inputs they run on.

Only numpy is used here: the parent process derives its closed forms from
the same matrices the workload process hands to optev, without importing
optev itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("pure-grid", "mixed-pooled", "certify")

PURE_DIMS = (2, 4, 8)
PURE_COPIES = (1, 8, 64)
PURE_ESTIMATORS = {"opt": "optimal-pure", "avg": "sample-average"}

# Radial laws of the mixed-qubit cells.  Three of them share n2 = 0.6, so a
# Bloch-path change that depends on more than the second moment shows.
MIXED_LAWS = {
    "r0": {"kind": "fixed-radius", "radius": 0.0},
    "r0.6": {"kind": "fixed-radius", "radius": 0.6},
    "rsqrt0.6": {"kind": "fixed-radius", "radius": math.sqrt(0.6)},
    "uniform-ball": {"kind": "uniform-ball"},
    "two-point": {"kind": "two-point", "radius": 1.0, "weight": 0.6},
    "pure-surface": {"kind": "pure-surface"},
}
MIXED_WORKERS = 2


@dataclass(frozen=True)
class Sizes:
    """How much work one pass and one layer probe do."""

    pure_trials: int = 4000
    mixed_trials: int = 20000
    verify_level: str = "full"
    probe_reps: int = 5
    probe_calls: int = 400
    build_reps: int = 3


FULL = Sizes()


@dataclass(frozen=True)
class Cell:
    """One ``run_experiment`` call of a Monte Carlo workload."""

    name: str
    dim: int
    copies: int
    estimator: str
    law: dict | None
    trials: int
    workers: int

    @property
    def trial_passes(self) -> int:
        # the ensemble draw and the probe draw each count as one trial
        return 2 * self.trials


def cells(workload: str, sizes: Sizes = FULL) -> list[Cell]:
    if workload == "pure-grid":
        return [
            Cell(f"pure-grid.d{d}n{n}.{short}", d, n, kind, None, sizes.pure_trials, 1)
            for d in PURE_DIMS
            for n in PURE_COPIES
            for short, kind in PURE_ESTIMATORS.items()
        ]
    if workload == "mixed-pooled":
        return [
            Cell(f"mixed-pooled.{label}", 2, 1, "optimal-mixed-qubit", law, sizes.mixed_trials, MIXED_WORKERS)
            for label, law in MIXED_LAWS.items()
        ]
    return []


def observable_matrix(seed: int, dim: int) -> np.ndarray:
    """Seeded Hermitian matrix (A + A^dagger)/2 with standard normal entries."""
    rng = np.random.default_rng([seed, dim])
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0
