"""Command line interface: analytic, simulate, sweep, verify.

Exit codes: 0 success, 1 configuration or I/O error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from .estimators import (
    EstimatorKind,
    analytic_delta_av,
    analytic_delta_mixed_qubit,
    analytic_delta_opt,
    analytic_second_moment,
    estimate_from_sums,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    load_config,
    load_observable,
    rows_to_csv,
    run_experiment,
    run_sweep,
)
from .sampling import RadialLaw
from .verify import run_verify

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors, not verification failures
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file mirroring ExperimentConfig fields")
    sub.add_argument("--dim", help="Hilbert space dimension d (sweep: comma list)")
    sub.add_argument("--copies", help="number of copies N (sweep: comma list)")
    sub.add_argument("--trials", type=int, help="Monte Carlo trial count M")
    sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument(
        "--estimator",
        choices=[kind.value for kind in EstimatorKind],
        help="estimator to simulate",
    )
    sub.add_argument("--observable", help="builtin name, diag(...), or JSON file path")
    sub.add_argument(
        "--n2",
        type=float,
        help="Bloch second moment; selects the fixed-radius sqrt(n2) ensemble",
    )
    sub.add_argument("--workers", type=int, help="worker process count")
    sub.add_argument("--out", help="output file (default: stdout)")
    sub.add_argument(
        "--timing",
        action="store_true",
        help="fill the wall_time_s CSV column (off by default to keep equal-seed output byte-identical)",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="optev", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("analytic", "print closed-form estimates and errors for a configuration"),
        ("simulate", "run one seeded Monte Carlo experiment, emit a CSV row"),
        ("sweep", "run both pure-state estimators over a (dim, copies) grid"),
        ("verify", "run the exact identity suite"),
    ):
        sub = commands.add_parser(name, help=helptext)
        _add_common(sub)
        if name == "verify":
            sub.add_argument("--level", choices=["fast", "full"], default="fast")
    return parser


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(token) for token in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects integers (comma separated), got {text!r}") from exc


def _single_int(text: str, flag: str) -> int:
    values = _parse_int_list(text, flag)
    if len(values) != 1:
        raise ConfigError(f"{flag} expects a single integer here, got {text!r}")
    return values[0]


def _config_from_args(args, grid_flags: bool = False) -> ExperimentConfig:
    if args.config:
        config = load_config(args.config)
    else:
        config = ExperimentConfig()
    overrides = {}
    if not grid_flags:
        if args.dim is not None:
            overrides["dim"] = _single_int(args.dim, "--dim")
        if args.copies is not None:
            overrides["copies"] = _single_int(args.copies, "--copies")
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.estimator is not None:
        overrides["estimator"] = args.estimator
    if args.observable is not None:
        overrides["observable_source"] = args.observable
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.n2 is not None:
        if not 0.0 <= args.n2 <= 1.0:
            raise ConfigError(f"--n2 must lie in [0, 1], got {args.n2}")
        overrides["ensemble"] = RadialLaw.fixed_radius(math.sqrt(args.n2))
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_analytic(args) -> int:
    config = _config_from_args(args)
    obs = load_observable(config.observable_source, dim=config.dim)
    if obs.dim != config.dim:
        raise ConfigError(f"observable has d={obs.dim} but config says dim={config.dim}")
    n, d = config.copies, config.dim
    opt = analytic_delta_opt(obs, n)
    av = analytic_delta_av(obs, n)
    report = {
        "dim": d,
        "copies": n,
        "observable": config.observable_source,
        "trace": obs.trace,
        "trace_square": obs.trace_square,
        "eigenvalues": [float(v) for v in obs.eigenvalues],
        "delta_opt": opt,
        "delta_av": av,
        "ratio_av_over_opt": (n + d) / n,
        "second_moment": analytic_second_moment(obs),
        # optimal estimate when all N outcomes hit eigenvalue i; for N = 1
        # this is the per-outcome estimate
        "omega_opt_by_outcome": estimate_from_sums(
            EstimatorKind.OPTIMAL_PURE, n * obs.eigenvalues, n, obs
        ).tolist(),
    }
    n2 = config.n2 if config.is_bloch else None
    if n2 is not None:
        report["n2"] = n2
        report["delta_mixed"] = analytic_delta_mixed_qubit(obs, n2)
        report["omega_mixed_by_outcome"] = estimate_from_sums(
            EstimatorKind.OPTIMAL_MIXED_QUBIT, obs.eigenvalues, 1, obs, n2
        ).tolist()
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    row = run_experiment(config)
    _emit(rows_to_csv([row], include_timing=args.timing), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _config_from_args(args, grid_flags=True)
    dims = _parse_int_list(args.dim, "--dim") if args.dim else [config.dim]
    copies = _parse_int_list(args.copies, "--copies") if args.copies else [config.copies]
    rows = run_sweep(config, copies_values=copies, dim_values=dims)
    _emit(rows_to_csv(rows, include_timing=args.timing), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # only the seed matters here; --config is honored for its master_seed
    seed = args.seed
    if seed is None and args.config:
        seed = load_config(args.config).master_seed
    reports = run_verify(level=args.level, seed=0 if seed is None else seed)
    lines = "".join(json.dumps(report.to_dict()) + "\n" for report in reports)
    _emit(lines, args.out)
    failed = [report for report in reports if not report.passed]
    if failed:
        sys.stderr.write(f"verify: {len(failed)} of {len(reports)} checks failed\n")
        return EXIT_VERIFY
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "analytic": _cmd_analytic,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError, BrokenProcessPool) as exc:
        sys.stderr.write(f"optev: error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
