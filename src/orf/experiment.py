"""Experiment harness: config loading, seeded runs, artifact writing.

A run directory holds curves.csv (one row per checkpoint), splits.csv (one
row per split), activations.csv (one row per fringe activation), run.json
(per-tree counters the offline audit needs) and forest.json.gz. Their
bytes are a pure function of config + master seed, never of the process
count. Every tree draws from its own stream, so `run_all` splits each
run's trees into J = max(1, min(num_trees, usable CPUs // runs)) shards
and trains the (run, shard) units in forked workers, or in this process
if only one CPU is usable or there is no fork. A shard draws its run's
data again from the seed and hands back per-tree rows, counters, test
predictions, probe cells and tree documents; this process's `write_run`
puts them in the order of one shard of all the trees and writes every
artifact, so a worker touches no file.
"""

from __future__ import annotations

import contextlib
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
                            probe_cells, probe_summary, vote_accuracy)
from orf.forest import OnlineForest, forest_bytes, tree_text


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


@dataclass
class TreeCheckpoint:
    """One tree at one checkpoint, as its shard hands it to `write_run`."""
    splits: list[tuple]       # splits.csv rows since the last checkpoint
    activations: list[tuple]  # activations.csv rows since then
    counters: dict            # the tree's entry in run.json
    predictions: list[int]    # the class it predicts for each test point
    probes: list[tuple[float, int]]  # `probe_cells` at the probe points


@dataclass
class Shard:
    """Trees i = j (mod J) of one run, trained on the run's whole stream."""
    started: float  # time.monotonic() when the shard began
    bayes_accuracy: float | None
    clip_box: list[tuple[float, float]]
    labels: list[int]  # the test points' classes
    ts: list[int]      # the checkpoints
    trees: list[list[TreeCheckpoint]]  # per checkpoint, per tree
    texts: list[str]   # each tree's document, from `tree_text`


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


def _run_params(config: ExperimentConfig, run_index: int) -> HyperParams:
    return dataclasses.replace(
        config.hyperparams,
        master_seed=config.hyperparams.master_seed + run_index)


def _run_dir(config: ExperimentConfig, run_index: int) -> pathlib.Path:
    return pathlib.Path(config.out_dir) / f"run{run_index:02d}"


def train_shard(config: ExperimentConfig, ctx: DataContext, run_index: int,
                shard: int = 0, shards: int = 1) -> Shard:
    """Train trees i = shard (mod shards) of run `run_index`. The run's
    stream, test points and probes are drawn again from its seed, so every
    shard sees the same ones and a tree's bytes never depend on `shards`."""
    started = time.monotonic()
    params = _run_params(config, run_index)
    root = RngStream(params.master_seed)
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
    tree_ids = range(shard, params.num_trees, shards)
    forest = OnlineForest(params, ctx.n_features, ctx.n_classes, tree_ids)
    xs = [p.x for p in test_points]
    per_cp = []
    pos = 0
    for cp in checkpoints:
        forest.update_stream(stream[pos:cp])
        pos = cp
        per_tree = []
        for i, tree in zip(tree_ids, forest.trees):
            # the fringe checks its capacity itself, after every refill
            budget = split_budget(params, tree.total_est_seen)
            if tree.split_count > budget:
                raise InvariantViolation(
                    f"split budget: tree {i} at t={cp} has "
                    f"{tree.split_count} splits > {budget:.2f}")
            splits, acts = tree.drain_events()
            per_tree.append(TreeCheckpoint(
                _event_rows(splits, i, SPLITS_COLUMNS),
                _event_rows(acts, i, ACTIVATIONS_COLUMNS),
                {"splits": tree.split_count,
                 "est_seen": tree.total_est_seen,
                 "active": len(tree.fringe.active_ids),
                 "inactive": len(tree.fringe.inactive_ids)},
                [tree.predict_class(x) for x in xs],
                probe_cells(tree, probes, clip_box)))
        per_cp.append(per_tree)
    texts = []
    while forest.trees:  # a tree goes once its document is text
        texts.append(tree_text(forest.trees.pop(0)))
    return Shard(started, bayes_accuracy, clip_box,
                 [p.y for p in test_points], checkpoints, per_cp, texts)


def write_run(config: ExperimentConfig, ctx: DataContext, run_index: int,
              shards: list[Shard]) -> RunResult:
    """Run `run_index`'s artifacts from its shards, shard j holding trees
    i = j (mod len(shards)): the rows are in the order one shard of all
    the trees gives."""
    params = _run_params(config, run_index)
    first = shards[0]

    def in_tree_order(per_shard):
        return [per_shard[i % len(shards)][i // len(shards)]
                for i in range(params.num_trees)]

    split_rows, act_rows = [], []
    cp_records = []
    summary = []
    for k, cp in enumerate(first.ts):
        per_tree = in_tree_order([s.trees[k] for s in shards])
        for tr in per_tree:
            split_rows += tr.splits
            act_rows += tr.activations
        forest_acc, tree_accs = vote_accuracy(
            [tr.predictions for tr in per_tree], first.labels, ctx.n_classes)
        mean_acc = sum_in_order(tree_accs) / len(tree_accs)
        std_acc = (sum_in_order((a - mean_acc) ** 2 for a in tree_accs)
                   / len(tree_accs)) ** 0.5
        med_diam, min_est, med_est = probe_summary(
            [tr.probes for tr in per_tree])
        counters = [tr.counters for tr in per_tree]
        cp_records.append(Checkpoint(
            t=cp, forest_accuracy=forest_acc, mean_tree_accuracy=mean_acc,
            std_tree_accuracy=std_acc, bayes_accuracy=first.bayes_accuracy,
            split_count=sum(tr["splits"] for tr in counters),
            active_leaves=sum(tr["active"] for tr in counters),
            inactive_leaves=sum(tr["inactive"] for tr in counters),
            median_diameter=med_diam, min_est_count=min_est,
            median_est_count=med_est))
        summary.append({"t": cp, "per_tree": counters})

    split_rows.sort(key=lambda r: (r[0], r[1]))
    act_rows.sort(key=lambda r: (r[0], r[1]))
    run_dir = _run_dir(config, run_index)
    run_dir.mkdir(parents=True, exist_ok=True)
    # every artifact is renamed into place once complete, and run.json goes
    # last: a run directory without it is unfinished and fails `diagnose`
    (run_dir / "run.json").unlink(missing_ok=True)
    _write_csv(run_dir / "curves.csv", CURVES_COLUMNS,
               [dataclasses.astuple(r) for r in cp_records])
    _write_csv(run_dir / "splits.csv", SPLITS_COLUMNS, split_rows)
    _write_csv(run_dir / "activations.csv", ACTIVATIONS_COLUMNS, act_rows)
    write_atomic(run_dir / "forest.json.gz", forest_bytes(
        params, ctx.n_features, ctx.n_classes, first.ts[-1],
        in_tree_order([s.texts for s in shards])))
    run_doc = {
        "run_index": run_index,
        "seed": params.master_seed,
        "params": params.to_json(),
        "n_features": ctx.n_features,
        "n_classes": ctx.n_classes,
        "bayes_accuracy": first.bayes_accuracy,
        "clip_box": [[lo, hi] for lo, hi in first.clip_box],
        "checkpoints": summary,
        "runtime_sec": round(
            time.monotonic() - min(s.started for s in shards), 3),
    }
    write_atomic(run_dir / "run.json",
                 (json.dumps(run_doc, indent=1) + "\n").encode())
    return RunResult(run_dir=run_dir, checkpoints=cp_records)


def run_experiment(config: ExperimentConfig, ctx: DataContext,
                   run_index: int) -> RunResult:
    """Run `run_index` in this process: all its trees, then its artifacts."""
    return write_run(config, ctx, run_index,
                     [train_shard(config, ctx, run_index)])


def _usable_cpus() -> int:
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _unit(args) -> Shard:
    return train_shard(*args)  # pickled by name; tests replace train_shard


def run_all(config: ExperimentConfig) -> list[RunResult]:
    """Every run of the job (see the module docstring). The error raised is
    that of the first failing unit or write in (run, shard) order, and the
    units not yet started are then cancelled."""
    ctx = load_data(config)
    runs, cpus = config.runs, _usable_cpus()
    shards = max(1, min(config.hyperparams.num_trees, cpus // runs))
    units = [(config, ctx, r, j, shards)
             for r in range(runs) for j in range(shards)]
    workers = min(len(units), cpus)
    with contextlib.ExitStack() as stack:
        if workers == 1:
            done = map(_unit, units)
        else:  # fork: spawn re-runs __main__
            pool = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"))
            stack.callback(pool.shutdown, cancel_futures=True)
            done = pool.map(_unit, units)
        return [write_run(config, ctx, r, [next(done) for _ in range(shards)])
                for r in range(runs)]
