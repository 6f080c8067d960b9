"""Experiment harness: config loading, seeded runs, artifact writing.

A run directory holds curves.csv (one row per checkpoint), splits.csv (one
row per split), activations.csv (one row per fringe activation), run.json
(per-tree counters the offline audit needs) and forest.json.gz. CSV bytes
are a pure function of config + master seed, never of the process count:
`run_all` forks min(runs, usable CPUs) workers, and none if 1 or no fork.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import multiprocessing
import os
import pathlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from orf.core import (RESERVED_CHILD_INDICES, HyperParams,
                      InvariantViolation, RngStream, decode, split_budget,
                      sum_in_order, write_atomic)
from orf.data import (Dataset, MixtureOfGaussians, ParseError, align_pair,
                      parse_libsvm, stream_schedule)
from orf.evaluation import (ACTIVATIONS_COLUMNS, CURVES_COLUMNS,
                            SPLITS_COLUMNS, Checkpoint, clip_box_from_points,
                            evaluate, probe_stats)
from orf.forest import OnlineForest


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class MogSource:
    spec: str
    test_points: int = 5000


@dataclass(frozen=True)
class LibsvmSource:
    train: str
    test: str


@dataclass(frozen=True)
class ExperimentConfig:
    hyperparams: HyperParams
    data: MogSource | LibsvmSource
    checkpoints: tuple[int, ...]
    runs: int
    out_dir: str
    passes: int = 1
    probe_points: int = 256
    clip_sample: int = 1000
    clip_margin: float = 0.1

    def __post_init__(self):
        cps, mog = self.checkpoints, isinstance(self.data, MogSource)
        for holds, rule in (
                (cps, "checkpoints must be nonempty"),
                (all(c > 0 for c in cps), "checkpoints must be positive"),
                (all(a < b for a, b in zip(cps, cps[1:])),
                 "checkpoints must be strictly increasing"),
                (self.runs >= 1, "runs must be >= 1"),
                (self.hyperparams.master_seed + self.runs <= 2 ** 64,
                 "master_seed + runs - 1 must fit in 64 bits"),
                (self.passes >= 1, "passes must be >= 1"),
                (not mog or self.passes == 1,
                 "passes only applies to libsvm data"),
                (not mog or self.data.test_points >= 1,
                 "test_points must be >= 1"),
                (self.probe_points >= 1 and self.clip_sample >= 1,
                 "probe_points and clip_sample must be >= 1"),
                (self.clip_margin >= 0, "clip_margin must be >= 0")):
            if not holds:
                raise ConfigError(rule)

    @classmethod
    def from_json(cls, doc: dict, base_dir=".") -> "ExperimentConfig":
        base = pathlib.Path(base_dir)

        def resolve(p, key):
            # the OS refuses a NUL byte, and a string that the file system
            # encoding cannot encode (a lone surrogate, say)
            try:
                if b"\0" not in os.fsencode(p):
                    return str(base / p)  # an absolute p stays as it is
            except UnicodeEncodeError:
                pass
            raise ConfigError(f"{key} is not a usable path: {p!r}")

        def source(d, key):
            kind = d.get("kind") if type(d) is dict else None
            if kind not in ("mog", "libsvm"):
                raise ConfigError("data.kind must be 'mog' or 'libsvm'")
            return decode(MogSource if kind == "mog" else LibsvmSource,
                          {k: v for k, v in d.items() if k != "kind"},
                          key + ".", spec=resolve, train=resolve,
                          test=resolve)

        try:
            return decode(cls, doc, hyperparams=HyperParams, data=source,
                          out_dir=resolve)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_json(_read_json(path, "config file", ConfigError),
                             base_dir=pathlib.Path(path).parent)


def _read_json(path, what: str, error):
    """The JSON value in file `path`, else `error` with a one-line cause."""
    try:
        return json.loads(pathlib.Path(path).read_text())
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{path}: JSON nested too deeply") from None


@dataclass
class DataContext:
    n_features: int
    n_classes: int
    mog: MixtureOfGaussians | None = None
    train: Dataset | None = None
    test: Dataset | None = None


def load_data(config: ExperimentConfig) -> DataContext:
    src = config.data
    if isinstance(src, MogSource):
        doc = _read_json(src.spec, "mixture spec", DataError)
        try:
            gen = MixtureOfGaussians.from_json(doc)
        except ValueError as exc:
            raise DataError(f"bad mixture spec {src.spec}: {exc}") from None
        return DataContext(gen.n_features, gen.n_classes, mog=gen)
    try:
        train = parse_libsvm(pathlib.Path(src.train).read_text())
        test = parse_libsvm(pathlib.Path(src.test).read_text())
    except FileNotFoundError as exc:
        raise DataError(f"data file not found: {exc.filename}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read data file: {exc}") from None
    except ParseError as exc:
        raise DataError(str(exc)) from None
    train, test = align_pair(train, test)
    return DataContext(train.n_features, train.n_classes,
                       train=train, test=test)


@dataclass
class RunResult:
    run_dir: pathlib.Path
    checkpoints: list[Checkpoint]


def _event_rows(records, tree: int, columns) -> list[tuple]:
    return [(r.t, tree) + tuple(getattr(r, c) for c in columns[2:])
            for r in records]


def _write_csv(path, columns, rows):
    """The dialect `evaluation` reads: a float is its repr, None is empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    write_atomic(path, buf.getvalue().encode())


def run_experiment(config: ExperimentConfig, ctx: DataContext,
                   run_index: int) -> RunResult:
    t_start = time.monotonic()
    seed = config.hyperparams.master_seed + run_index
    params = dataclasses.replace(config.hyperparams, master_seed=seed)
    root = RngStream(seed)
    data_rng = root.child(RESERVED_CHILD_INDICES)
    probe_rng = root.child(RESERVED_CHILD_INDICES + 1)
    test_rng = root.child(RESERVED_CHILD_INDICES + 2)

    checkpoints = list(config.checkpoints)
    bayes_accuracy = None
    if ctx.mog is not None:
        stream = ctx.mog.sample(data_rng, checkpoints[-1])
        test_points = ctx.mog.sample(test_rng, config.data.test_points)
        probes = [p.x for p in ctx.mog.sample(probe_rng, config.probe_points)]
        pred = ctx.mog.bayes_predict_batch([p.x for p in test_points])
        bayes_accuracy = float(
            sum(int(a) == p.y for a, p in zip(pred, test_points))
            / len(test_points))
    else:
        stream = stream_schedule(ctx.train, config.passes, data_rng)
        if checkpoints[-1] > len(stream):
            raise ConfigError(
                f"final checkpoint {checkpoints[-1]} exceeds stream length "
                f"{len(stream)} ({config.passes} passes x "
                f"{len(ctx.train.points)} points)")
        if checkpoints[-1] < len(stream):
            checkpoints.append(len(stream))
        test_points = ctx.test.points
        n = len(ctx.train.points)
        probes = [ctx.train.points[probe_rng.randint(0, n)].x
                  for _ in range(config.probe_points)]

    clip_box = clip_box_from_points(stream[:config.clip_sample],
                                    config.clip_margin)
    forest = OnlineForest(params, ctx.n_features, ctx.n_classes)

    run_dir = pathlib.Path(config.out_dir) / f"run{run_index:02d}"
    run_dir.mkdir(parents=True, exist_ok=True)
    split_rows, act_rows = [], []
    cp_records = []
    summary = []
    pos = 0
    for cp in checkpoints:
        forest.update_stream(stream[pos:cp])
        pos = cp
        per_tree = []
        for i, tree in enumerate(forest.trees):
            splits, acts = tree.drain_events()
            split_rows += _event_rows(splits, i, SPLITS_COLUMNS)
            act_rows += _event_rows(acts, i, ACTIVATIONS_COLUMNS)
            per_tree.append({"splits": tree.split_count,
                             "est_seen": tree.total_est_seen,
                             "active": len(tree.fringe.active_ids),
                             "inactive": len(tree.fringe.inactive_ids)})
            # the fringe checks its capacity itself, after every refill
            budget = split_budget(params, tree.total_est_seen)
            if tree.split_count > budget:
                raise InvariantViolation(
                    f"split budget: tree {i} at t={cp} has "
                    f"{tree.split_count} splits > {budget:.2f}")
        forest_acc, tree_accs = evaluate(forest, test_points)
        mean_acc = sum_in_order(tree_accs) / len(tree_accs)
        std_acc = (sum_in_order((a - mean_acc) ** 2 for a in tree_accs)
                   / len(tree_accs)) ** 0.5
        med_diam, min_est, med_est = probe_stats(forest, probes, clip_box)
        cp_records.append(Checkpoint(
            t=cp, forest_accuracy=forest_acc, mean_tree_accuracy=mean_acc,
            std_tree_accuracy=std_acc, bayes_accuracy=bayes_accuracy,
            split_count=sum(tr["splits"] for tr in per_tree),
            active_leaves=sum(tr["active"] for tr in per_tree),
            inactive_leaves=sum(tr["inactive"] for tr in per_tree),
            median_diameter=med_diam, min_est_count=min_est,
            median_est_count=med_est))
        summary.append({"t": cp, "per_tree": per_tree})

    split_rows.sort(key=lambda r: (r[0], r[1]))
    act_rows.sort(key=lambda r: (r[0], r[1]))
    # every artifact is renamed into place once complete, and run.json goes
    # last: a run directory without it is unfinished and fails `diagnose`
    (run_dir / "run.json").unlink(missing_ok=True)
    _write_csv(run_dir / "curves.csv", CURVES_COLUMNS,
               [dataclasses.astuple(r) for r in cp_records])
    _write_csv(run_dir / "splits.csv", SPLITS_COLUMNS, split_rows)
    _write_csv(run_dir / "activations.csv", ACTIVATIONS_COLUMNS, act_rows)
    forest.save(run_dir / "forest.json.gz")
    run_doc = {
        "run_index": run_index,
        "seed": seed,
        "params": params.to_json(),
        "n_features": ctx.n_features,
        "n_classes": ctx.n_classes,
        "bayes_accuracy": bayes_accuracy,
        "clip_box": [[lo, hi] for lo, hi in clip_box],
        "checkpoints": summary,
        "runtime_sec": round(time.monotonic() - t_start, 3),
    }
    write_atomic(run_dir / "run.json",
                 (json.dumps(run_doc, indent=1) + "\n").encode())
    return RunResult(run_dir=run_dir, checkpoints=cp_records)


def _usable_cpus() -> int:
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _run(config: ExperimentConfig, ctx: DataContext, r: int) -> RunResult:
    # pickled by name, so a worker calls the `run_experiment` it has
    return run_experiment(config, ctx, r)


def run_all(config: ExperimentConfig) -> list[RunResult]:
    ctx = load_data(config)
    n, jobs = config.runs, min(config.runs, _usable_cpus())
    if jobs == 1:
        return [run_experiment(config, ctx, r) for r in range(n)]
    fork = multiprocessing.get_context("fork")  # spawn re-runs __main__
    with ProcessPoolExecutor(jobs, mp_context=fork) as pool:
        return list(pool.map(_run, [config] * n, [ctx] * n, range(n)))
