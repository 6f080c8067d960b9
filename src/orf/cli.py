"""Command-line entry point.

Subcommands:
  train        run a configured experiment (JSON config, seeded runs)
  diagnose     audit a finished run directory's artifacts
  parse-check  validate a LIBSVM-format file

Exit codes:
  train        0=ok 2=bad or unreadable config 3=bad, missing or unreadable
               data 4=invariant violation 5=cannot write artifacts
  diagnose     0=pass 1=invariant failure 3=missing or malformed artifacts
  parse-check  0=valid 1=malformed 3=missing file
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import pathlib
import sys

from orf.core import InvariantViolation
from orf.data import ParseError, parse_libsvm
from orf.evaluation import consistency_report, load_run_artifacts
from orf.experiment import ConfigError, DataError, ExperimentConfig, run_all


def cmd_train(args) -> int:
    try:
        config = ExperimentConfig.load(args.config)
        if args.seed is not None:
            try:
                params = dataclasses.replace(config.hyperparams,
                                             master_seed=args.seed)
            except ValueError as exc:
                raise ConfigError(f"--seed: {exc}") from None
            config = dataclasses.replace(config, hyperparams=params)
        if args.out is not None:
            config = dataclasses.replace(config, out_dir=args.out)
        results = run_all(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        # failed reads of the config or the data raise ConfigError or
        # DataError, so this comes from creating the run directory or
        # writing a file in it
        print(f"cannot write artifacts: {exc}", file=sys.stderr)
        return 5
    for res in results:
        last = res.checkpoints[-1]
        line = (f"run {res.run_dir.name}: t={last.t} "
                f"forest_accuracy={last.forest_accuracy:.4f} "
                f"mean_tree_accuracy={last.mean_tree_accuracy:.4f}")
        if last.bayes_accuracy is not None:
            line += f" bayes_accuracy={last.bayes_accuracy:.4f}"
        print(line)
    return 0


def _run_dirs(path: pathlib.Path):
    if (path / "run.json").exists():
        return [path]
    return sorted(p for p in path.glob("run*") if p.is_dir())


def cmd_diagnose(args) -> int:
    path = pathlib.Path(args.run_dir)
    if not path.is_dir():
        print(f"not a directory: {path}", file=sys.stderr)
        return 3
    dirs = _run_dirs(path)
    if not dirs:
        print(f"no run artifacts under {path}", file=sys.stderr)
        return 3
    all_ok = True
    for run_dir in dirs:
        try:
            audit = consistency_report(load_run_artifacts(run_dir))
        except OSError as exc:      # a missing or unreadable file
            print(str(exc), file=sys.stderr)
            return 3
        except (LookupError, TypeError, ValueError, ArithmeticError,
                csv.Error) as exc:
            # a malformed artifact or a value the audit cannot read; a
            # failed invariant is reported in the audit, never raised
            print(f"{run_dir}: malformed artifacts: {exc!r}", file=sys.stderr)
            return 3
        for line in audit.lines():
            print(f"{run_dir.name}: {line}")
        all_ok = all_ok and audit.ok
    return 0 if all_ok else 1


def cmd_parse_check(args) -> int:
    path = pathlib.Path(args.file)
    try:
        text = path.read_text()
    except FileNotFoundError:
        print(f"file not found: {path}", file=sys.stderr)
        return 3
    try:
        ds = parse_libsvm(text)
    except ParseError as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return 1
    print(f"{path}: ok ({len(ds.points)} points, {ds.n_features} features, "
          f"{ds.n_classes} classes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orf", description="streaming random forest experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a configured experiment")
    p_train.add_argument("--config", required=True, help="experiment JSON")
    p_train.add_argument("--seed", type=int, help="override master seed")
    p_train.add_argument("--out", help="override output directory")
    p_train.set_defaults(func=cmd_train)

    p_diag = sub.add_parser("diagnose", help="audit run artifacts")
    p_diag.add_argument("run_dir", help="run directory (or parent of run*/)")
    p_diag.set_defaults(func=cmd_diagnose)

    p_parse = sub.add_parser("parse-check", help="validate a LIBSVM file")
    p_parse.add_argument("file")
    p_parse.set_defaults(func=cmd_parse_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
