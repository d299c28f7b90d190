"""Command line interface: analytic, simulate, sweep, verify.

Exit codes: 0 success, 1 usage, configuration, I/O or out-of-memory error (one
``optev: error:`` line on stderr), 2 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from .estimators import EstimatorKind, analytic_mse, ensemble_moments, estimate_from_sums
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
    # usage problems are configuration errors, reported by main as one line
    def error(self, message):
        raise ConfigError(message)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(token) for token in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expects integers (comma separated), got {text!r}") from exc


def _add_flags(sub: argparse.ArgumentParser, command: str) -> None:
    """Register the flags ``command`` reads, so that any other is a usage error."""
    sub.add_argument("--config", help="JSON config file mirroring ExperimentConfig fields")
    if command != "analytic":
        sub.add_argument("--seed", type=int, help="master seed")
    sub.add_argument("--out", help="output file (default: stdout)")
    if command == "verify":
        sub.add_argument("--level", choices=["fast", "full"], default="fast")
        return
    sub.add_argument("--dim", type=int, help="Hilbert space dimension d")
    if command == "sweep":
        sub.add_argument(
            "--copies", type=_parse_int_list, dest="copies_list", metavar="COPIES", help="comma list of copy counts N"
        )
    else:
        sub.add_argument("--copies", type=int, help="number of copies N")
    sub.add_argument("--observable", help="builtin name, diag(...), or JSON file path")
    if command != "sweep":
        sub.add_argument(
            "--n2",
            type=float,
            help="Bloch second moment: runs the fixed radius sqrt(n2) and reports that radius squared as n2,"
            " which can differ from the given value in the last bit",
        )
    if command == "analytic":
        return
    if command == "simulate":
        sub.add_argument("--estimator", choices=[e.value for e in EstimatorKind], help="estimator to run")
    sub.add_argument("--trials", type=int, help="Monte Carlo trial count M")
    sub.add_argument(
        "--workers",
        type=int,
        help="at most this many threads for a Haar run, and at most one per CPU; Bloch runs draw in one thread",
    )
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
        ("sweep", "run both pure-state estimators at one dim for a list of copies"),
        ("verify", "run the exact identity suite"),
    ):
        _add_flags(commands.add_parser(name, help=helptext), name)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    flags = {name: value for name, value in vars(args).items() if value is not None}
    overrides = {}
    renamed = {"seed": "master_seed", "observable": "observable_source"}
    for flag in ("dim", "copies", "trials", "seed", "estimator", "observable", "workers"):
        if flag in flags:
            overrides[renamed.get(flag, flag)] = flags[flag]
    if "n2" in flags:
        if not 0.0 <= flags["n2"] <= 1.0:
            raise ConfigError(f"--n2 must lie in [0, 1], got {flags['n2']}")
        overrides["ensemble"] = RadialLaw.fixed_radius(math.sqrt(flags["n2"]))
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
    n, d, n2 = config.copies, config.dim, config.ensemble.second_moment()
    mu, v_t, _ = ensemble_moments(obs, n2)
    report = {
        "dim": d,
        "copies": n,
        "observable": config.observable_source,
        "ensemble": config.ensemble.label(),
        "trace": obs.trace,
        "trace_square": obs.trace_square,
        "eigenvalues": [float(v) for v in obs.eigenvalues],
        "delta_opt": analytic_mse(EstimatorKind.OPTIMAL_PURE, obs, n, n2),
        "delta_av": analytic_mse(EstimatorKind.SAMPLE_AVERAGE, obs, n, n2),
        "ratio_av_over_opt": (n + d) / n,
        "second_moment": mu * mu + v_t,
        # the estimate when all N outcomes hit eigenvalue i, at N = 1 per outcome
        "omega_opt_by_outcome": estimate_from_sums(
            EstimatorKind.OPTIMAL_PURE, n * obs.eigenvalues, n, obs
        ).tolist(),
    }
    if n2 is not None:
        del report["ratio_av_over_opt"]  # (N + d)/N is Haar's closed form
        report["n2"] = n2
        report["delta_mixed"] = analytic_mse(EstimatorKind.OPTIMAL_MIXED_QUBIT, obs, n, n2)
        report["omega_mixed_by_outcome"] = estimate_from_sums(
            EstimatorKind.OPTIMAL_MIXED_QUBIT, n * obs.eigenvalues, n, obs, n2
        ).tolist()
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = _config_from_args(args)
    row = run_experiment(config)
    _emit(rows_to_csv([row], include_timing=args.timing), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    copies = args.copies_list if args.copies_list is not None else [config.copies]
    rows = run_sweep(config, copies_values=copies)
    _emit(rows_to_csv(rows, include_timing=args.timing), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # only the seed matters here; --config is honored for its master_seed
    reports = run_verify(level=args.level, seed=_config_from_args(args).master_seed)
    lines = "".join(json.dumps(report.to_dict()) + "\n" for report in reports)
    _emit(lines, args.out)
    failed = [report for report in reports if not report.passed]
    if failed:
        sys.stderr.write(f"verify: {len(failed)} of {len(reports)} checks failed\n")
        return EXIT_VERIFY
    return EXIT_OK


def main(argv=None) -> int:
    handlers = {
        "analytic": _cmd_analytic,
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
    }
    try:
        # a usage error raises ConfigError too (see _Parser), so it ends in the same one line
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:
        sys.stderr.write(f"optev: error: {exc}\n")
        return EXIT_CONFIG
    except MemoryError as exc:
        sys.stderr.write(f"optev: error: out of memory: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
