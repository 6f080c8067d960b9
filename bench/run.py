"""Benchmark for orf: one workload, one seed, one fresh process per run.

    python3 bench/run.py --workload fig1 --seed 1 --seconds 25 --trace 0

A run sets up (imports orf, loads the workload config and its data
context, and draws held-out and continuation points from the mixture), then
runs the job `orf train` on the workload config, single-threaded, and
`orf diagnose` on its output. The online phase follows: whole rounds of
load the job's first forest, predict the held-out points, take
predict-then-update steps on the continuation points and save the forest,
repeated until --seconds have passed. Every round does the same work on the
same inputs. A workload with train_reps > 1 splits the online phase into
that many parts and runs the job again before each part after the first;
train_s is the median of the jobs.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics. With --trace 1 the job runs once untraced and once with
spans recorded around orf's public callables (see spans.py), their outputs
are compared byte for byte, the online phase makes one round, and the
metrics are the per-layer ones. Checks from checks.py run in both modes;
any failure makes "correct" false.

Exit codes: 0 done (see "correct"), 1 an operation failed, 2 orf or the
workload's files are not where the checkout should have them.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import gzip
import hashlib
import importlib
import io
import json
import math
import pathlib
import resource
import shutil
import statistics
import sys
import time
import types

import checks
from spans import Tracer, orf_modules

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Child streams of the job's master seed that hold the benchmark's own
# points; orf derives trees below 1_000_000 and run data just above it.
HELDOUT_CHILD, STEPS_CHILD = 2_000_000, 2_000_001
SEED_STRIDE = 1000  # seed n trains with master seed + 1000 n
# set-up repeats at least this often and for at least this long; one
# set-up takes under 0.1 s
SETUP_MIN_REPS, SETUP_MIN_S = 3, 2.0


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: pathlib.Path
    heldout: int         # held-out points predicted in each round
    predict_passes: int  # passes over them, so the timed section is long
    steps: int           # predict-then-update steps in each round
    train_reps: int      # jobs on the same inputs; train_s is their median


WORKLOADS = {
    "fig1": Workload("fig1", ROOT / "configs" / "fig1_mog.json",
                     heldout=2000, predict_passes=20, steps=2000,
                     train_reps=1),
    # one fringe job takes about 6.5 s, short against the machine's swings
    # in speed; three jobs spread over the run give a steadier median
    "fringe": Workload("fringe", BENCH / "workloads" / "fringe.json",
                       heldout=2000, predict_passes=20, steps=2000,
                       train_reps=3),
}

END_TO_END_UNITS = {
    "setup_s": "s", "train_s": "s", "predict_rate": "1/s",
    "step_p50_us": "us", "step_p99_us": "us", "save_s": "s", "load_s": "s",
    "forest_mb": "MB", "peak_rss_mb": "MB",
}


class OperationFailed(RuntimeError):
    pass


class Ops:
    """Operations attempted and failed, by kind."""

    KINDS = ("jobs", "diagnoses", "loads", "saves", "predictions", "steps")

    def __init__(self):
        self.attempted = dict.fromkeys(self.KINDS, 0)
        self.failed = dict.fromkeys(self.KINDS, 0)

    @contextlib.contextmanager
    def one(self, kind: str):
        """One operation whose failure ends the run."""
        self.attempted[kind] += 1
        try:
            yield
        except Exception as exc:
            self.failed[kind] += 1
            raise OperationFailed(f"{kind}: {exc!r}") from exc


@dataclasses.dataclass
class Setup:
    orf: object          # namespace of the orf modules
    config: object       # orf.experiment.ExperimentConfig
    ctx: object          # orf.experiment.DataContext
    master_seed: int
    heldout: list
    stream: list


def import_orf():
    """Import orf from the checkout's src, afresh."""
    for name in list(orf_modules()):
        del sys.modules[name]
    mods = {name: importlib.import_module(f"orf.{name}")
            for name in ("cli", "core", "experiment", "forest")}
    return types.SimpleNamespace(**mods)


def set_up(workload: Workload, seed: int) -> Setup:
    orf = import_orf()
    config = orf.experiment.ExperimentConfig.load(workload.config)
    ctx = orf.experiment.load_data(config)
    master = config.hyperparams.master_seed + SEED_STRIDE * seed
    root = orf.core.RngStream(master)
    heldout = ctx.mog.sample(root.child(HELDOUT_CHILD), workload.heldout)
    stream = ctx.mog.sample(root.child(STEPS_CHILD), workload.steps)
    return Setup(orf, config, ctx, master, heldout, stream)


def timed_setups(workload: Workload, seed: int):
    times = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_S:
        gc.collect()
        t0 = time.perf_counter()
        setup = set_up(workload, seed)
        times.append(time.perf_counter() - t0)
    return setup, times


def quiet_cli(orf, argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return orf.cli.main(argv)


def run_job(s: Setup, workload: Workload, out: pathlib.Path, ops: Ops):
    """orf train on the workload config; returns its wall time."""
    argv = ["train", "--config", str(workload.config),
            "--seed", str(s.master_seed), "--out", str(out)]
    with ops.one("jobs"):
        gc.collect()
        t0 = time.perf_counter()
        rc = quiet_cli(s.orf, argv)
        wall = time.perf_counter() - t0
        if rc != 0:
            raise RuntimeError(f"orf train exited {rc}")
    return wall


def run_diagnose(s: Setup, out: pathlib.Path, ops: Ops) -> None:
    with ops.one("diagnoses"):
        rc = quiet_cli(s.orf, ["diagnose", str(out)])
        if rc != 0:
            raise RuntimeError(f"orf diagnose exited {rc}")


@dataclasses.dataclass
class Online:
    load_s: list = dataclasses.field(default_factory=list)
    save_s: list = dataclasses.field(default_factory=list)
    predict_rate: list = dataclasses.field(default_factory=list)
    step_ns: list = dataclasses.field(default_factory=list)  # one per round
    step_hits: int = 0
    saved_digests: set = dataclasses.field(default_factory=set)
    forest: object = None   # the last round's forest, after its steps


def online_round(s: Setup, workload: Workload, job_forest: pathlib.Path,
                 saved: pathlib.Path, ops: Ops, res: Online) -> None:
    Forest = s.orf.forest.OnlineForest
    xs = [p.x for p in s.heldout]

    gc.collect()
    with ops.one("loads"):
        t0 = time.perf_counter()
        forest = Forest.load(job_forest)
        res.load_s.append(time.perf_counter() - t0)

    predict = forest.predict
    n = len(xs) * workload.predict_passes
    ops.attempted["predictions"] += n
    gc.collect()
    try:
        t0 = time.perf_counter()
        for _ in range(workload.predict_passes):
            for x in xs:
                predict(x)
        dt = time.perf_counter() - t0
    except Exception as exc:
        ops.failed["predictions"] += 1
        raise OperationFailed(f"predictions: {exc!r}") from exc
    res.predict_rate.append(n * len(forest.trees) / dt)

    update, clock = forest.update, time.perf_counter_ns
    times = []
    hits = 0
    gc.collect()
    for p in s.stream:
        ops.attempted["steps"] += 1
        t0 = clock()
        try:
            y = predict(p.x)
            update(p)
        except Exception as exc:
            ops.failed["steps"] += 1
            print(f"step failed: {exc!r}", file=sys.stderr)
            continue
        times.append(clock() - t0)
        hits += y == p.y
    res.step_ns.append(times)
    res.step_hits = hits

    gc.collect()
    with ops.one("saves"):
        t0 = time.perf_counter()
        forest.save(saved)
        res.save_s.append(time.perf_counter() - t0)
    res.saved_digests.add(hashlib.sha256(saved.read_bytes()).hexdigest())
    res.forest = forest


def online_phase(s, workload, out, ops, seconds: float | None,
                 res: Online | None = None) -> Online:
    """Whole rounds until `seconds` have passed; one round if None.

    The rounds are added to `res` if it is given.
    """
    res = res if res is not None else Online()
    job_forest = out / "run00" / "forest.json.gz"
    deadline = time.perf_counter() + (seconds or 0.0)
    while True:
        online_round(s, workload, job_forest, out / "online.json.gz", ops,
                     res)
        if seconds is None or time.perf_counter() >= deadline:
            return res


def read_doc(path: pathlib.Path) -> dict:
    return json.loads(gzip.decompress(path.read_bytes()))


def check_outputs(s: Setup, workload: Workload, out: pathlib.Path,
                  online: Online, ops: Ops) -> list[str]:
    """Every check of checks.py on the job's output and the online phase."""
    hp = s.config.hyperparams.to_json()
    fails = []
    run_dirs = sorted(out.glob("run[0-9]*"))
    if len(run_dirs) != s.config.runs:
        fails.append(f"{len(run_dirs)} run directories, config has "
                     f"{s.config.runs}")
    for rd in run_dirs:
        run = json.loads((rd / "run.json").read_text())
        found = (checks.check_splits(checks.read_csv(rd / "splits.csv"), hp)
                 + checks.check_run_summary(run, hp)
                 + checks.check_activations(
                     checks.read_csv(rd / "activations.csv"))
                 + checks.check_run_estimation(run, hp))
        fails += [f"{rd.name}: {m}" for m in found]

    bayes = checks.Bayes(json.loads(pathlib.Path(s.config.data.spec)
                                    .read_text()))
    Forest = s.orf.forest.OnlineForest
    job_file = out / "run00" / "forest.json.gz"
    with ops.one("loads"):
        job = Forest.load(job_file)
    xs = [p.x for p in s.heldout]
    fails += checks.check_routes(read_doc(job_file), job, xs)
    fails += checks.check_vote(job, xs)
    acc = sum(job.predict(p.x) == p.y for p in s.heldout) / len(xs)
    fails += checks.check_accuracy("held-out", acc,
                                   bayes.accuracy(s.heldout), bayes.chance,
                                   len(xs))

    n = len(s.stream)
    fails += checks.check_accuracy("online", online.step_hits / n,
                                   bayes.accuracy(s.stream), bayes.chance, n)
    if online.forest.t != job.t + n:
        fails.append(f"online forest at t={online.forest.t}, expected "
                     f"{job.t + n}")
    for i, (before, after) in enumerate(zip(job.trees, online.forest.trees)):
        fails += [f"online tree {i}: {m}" for m in checks.estimation_share(
            after.total_est_seen - before.total_est_seen, n, hp)]
    after = {"t": online.forest.t, "per_tree": [
        {"splits": t.split_count, "est_seen": t.total_est_seen,
         "active": len(t.fringe.active_ids)} for t in online.forest.trees]}
    fails += [f"online: {m}" for m in checks.check_run_summary(
        {"checkpoints": [after]}, hp)]

    saved = out / "online.json.gz"
    fails += checks.check_routes(read_doc(saved), online.forest, xs)
    if len(online.saved_digests) != 1:
        fails.append(f"rounds saved {len(online.saved_digests)} different "
                     f"forests from the same inputs")
    with ops.one("loads"):
        again = Forest.load(saved)
    with ops.one("saves"):
        again.save(out / "resaved.json.gz")
    if (out / "resaved.json.gz").read_bytes() != saved.read_bytes():
        fails.append("save -> load -> save is not byte-identical")
    return fails


def forest_files(out: pathlib.Path) -> list[pathlib.Path]:
    return sorted(out.glob("run[0-9]*/forest.json.gz"))


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload, seed, seconds, out, ops):
    s, setup_times = timed_setups(workload, seed)
    train_times, fails = [run_job(s, workload, out, ops)], []
    run_diagnose(s, out, ops)
    # the online phase in train_reps parts, each after a job; a repeated job
    # writes to a directory of its own, must write the same bytes as the
    # first, and is removed
    online = Online()
    for i in range(1, workload.train_reps + 1):
        online_phase(s, workload, out, ops, seconds / workload.train_reps,
                     online)
        if i < workload.train_reps:
            again = out / f"repeat{i}"
            train_times.append(run_job(s, workload, again, ops))
            fails += compare_outputs(out, again)
            shutil.rmtree(again)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    fails += check_outputs(s, workload, out, online, ops)

    # step percentiles are taken in each round and their median reported:
    # the machine's speed swings by up to 2x between rounds, and a
    # percentile of the pooled steps would follow the slowest rounds
    rounds = online.step_ns
    p50s = [statistics.median(steps) for steps in rounds]
    p99s = [quantile(steps, 0.99) for steps in rounds]
    beyond = min(sum(t > p99 for t in steps)
                 for steps, p99 in zip(rounds, p99s))
    print(f"{workload.name} seed {seed}: {len(setup_times)} set-ups, "
          f"jobs {', '.join(f'{t:.3f}' for t in train_times)} s, "
          f"{len(rounds)} rounds of {len(rounds[0])} steps, at least "
          f"{beyond} beyond p99 in each", file=sys.stderr)
    if beyond < 10:
        fails.append(f"only {beyond} steps beyond p99 in a round")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "train_s": statistics.median(train_times),
        "predict_rate": statistics.median(online.predict_rate),
        "step_p50_us": statistics.median(p50s) / 1e3,
        "step_p99_us": statistics.median(p99s) / 1e3,
        "save_s": statistics.median(online.save_s),
        "load_s": statistics.median(online.load_s),
        "forest_mb": sum(f.stat().st_size for f in forest_files(out)) / 1e6,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
    }
    return fails, {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in metrics.items()}


# -- traced run ----------------------------------------------------------------


def _span(label, field):
    return lambda T, C: T[label][field]


def _count(key):
    return lambda T, C: C[key]


def _ratio(num, den):
    return lambda T, C: num(T, C) / den(T, C) if den(T, C) else 0.0


def _len_result(args, result):
    return len(result)


# (label, module, attribute path, (count key, increment) or None)
TRACE_TARGETS = [
    ("data.sample", "orf.data", "MixtureOfGaussians.sample",
     ("data.points_sampled", _len_result)),
    ("core.assign_stream", "orf.core", "assign_stream", None),
    ("tree.route", "orf.tree", "OnlineTree.route",
     ("tree.route_depth_sum", lambda a, r: r.depth)),
    ("tree.update", "orf.tree", "OnlineTree.update", None),
    ("tree.create_candidates", "orf.tree", "create_candidate_splits",
     ("tree.candidates_created", lambda a, r: len(a[0].candidate_dims))),
    ("tree.gain", "orf.tree", "information_gain", None),
    ("tree.split_check", "orf.tree", "_best_valid", None),
    ("tree.split", "orf.tree", "OnlineTree._perform_split", None),
    ("fringe.on_leaf_split", "orf.fringe", "FringeState.on_leaf_split", None),
    ("fringe.record_arrival", "orf.fringe",
     "FringeState.record_estimation_arrival", None),
    ("forest.to_doc", "orf.forest", "OnlineForest.to_doc", None),
    ("forest.to_bytes", "orf.forest", "OnlineForest.to_bytes", None),
    ("forest.from_doc", "orf.forest", "OnlineForest.from_doc", None),
    ("forest.from_bytes", "orf.forest", "OnlineForest.from_bytes", None),
    ("forest.predict", "orf.forest", "OnlineForest.predict",
     ("forest.votes", lambda a, r: len(a[0].trees))),
    ("forest.update", "orf.forest", "OnlineForest.update", None),
    ("forest.update_stream", "orf.forest", "OnlineForest.update_stream", None),
    ("evaluation.evaluate", "orf.evaluation", "evaluate",
     ("evaluation.votes", lambda a, r: len(a[0].trees) * len(a[1]))),
    ("evaluation.probe_stats", "orf.evaluation", "probe_stats", None),
    ("evaluation.audit", "orf.evaluation", "consistency_report", None),
    ("experiment.config_load", "orf.experiment", "ExperimentConfig.load",
     None),
    ("experiment.load_data", "orf.experiment", "load_data", None),
    ("experiment.run", "orf.experiment", "run_experiment", None),
]
HOOK_KEYS = ("fringe.activations", "fringe.leaves_scored")


def _activation_hook(counts, fringe):
    def hook(tree):
        counts["fringe.activations"] += 1
        counts["fringe.leaves_scored"] += len(tree.fringe.inactive_ids)
    fringe.activation_hook = hook


# name: (unit, value from span totals T and counts C). A span label or count
# key that is absent, because its callable is missing, raises KeyError.
PER_LAYER = {
    "data.sample_s": ("s", _span("data.sample", "total_s")),
    "data.points_sampled": ("count", _count("data.points_sampled")),
    "core.assign_stream_s": ("s", _span("core.assign_stream", "total_s")),
    "core.assign_stream_calls": ("count",
                                 _span("core.assign_stream", "calls")),
    "tree.route_s": ("s", _span("tree.route", "total_s")),
    "tree.route_calls": ("count", _span("tree.route", "calls")),
    "tree.route_depth_mean": ("count", _ratio(
        _count("tree.route_depth_sum"), _span("tree.route", "calls"))),
    "tree.update_self_s": ("s", _span("tree.update", "self_s")),
    "tree.update_calls": ("count", _span("tree.update", "calls")),
    "tree.create_candidates_s": ("s",
                                 _span("tree.create_candidates", "total_s")),
    "tree.candidates_created": ("count", _count("tree.candidates_created")),
    "tree.gain_s": ("s", _span("tree.gain", "total_s")),
    "tree.gain_evals": ("count", _span("tree.gain", "calls")),
    "tree.split_checks": ("count", _span("tree.split_check", "calls")),
    "tree.gain_evals_per_check": ("ratio", _ratio(
        _span("tree.gain", "calls"), _span("tree.split_check", "calls"))),
    "tree.splits": ("count", _span("tree.split", "calls")),
    "tree.splits_per_check": ("ratio", _ratio(
        _span("tree.split", "calls"), _span("tree.split_check", "calls"))),
    "tree.leaves": ("count", _count("shape.leaves")),
    "tree.candidates": ("count", _count("shape.candidates")),
    "tree.max_depth": ("count", _count("shape.max_depth")),
    "fringe.on_leaf_split_s": ("s", _span("fringe.on_leaf_split", "total_s")),
    "fringe.activations": ("count", _count("fringe.activations")),
    "fringe.leaves_scored": ("count", _count("fringe.leaves_scored")),
    "fringe.leaves_scored_per_activation": ("ratio", _ratio(
        _count("fringe.leaves_scored"), _count("fringe.activations"))),
    "fringe.record_arrival_s": ("s",
                                _span("fringe.record_arrival", "total_s")),
    "fringe.inactive_leaves": ("count", _count("shape.inactive_leaves")),
    "forest.to_doc_s": ("s", _span("forest.to_doc", "total_s")),
    "forest.encode_s": ("s", _span("forest.to_bytes", "self_s")),
    "forest.from_doc_s": ("s", _span("forest.from_doc", "total_s")),
    "forest.decode_s": ("s", _span("forest.from_bytes", "self_s")),
    "forest.doc_mb": ("MB", _count("shape.doc_mb")),
    "forest.predict_s": ("s", _span("forest.predict", "total_s")),
    "forest.votes": ("count", _count("forest.votes")),
    "forest.update_s": ("s", _span("forest.update", "total_s")),
    "forest.update_stream_s": ("s", _span("forest.update_stream", "total_s")),
    "evaluation.evaluate_s": ("s", _span("evaluation.evaluate", "total_s")),
    "evaluation.votes": ("count", _count("evaluation.votes")),
    "evaluation.probe_stats_s": ("s",
                                 _span("evaluation.probe_stats", "total_s")),
    "evaluation.audit_s": ("s", _span("evaluation.audit", "total_s")),
    "experiment.config_load_s": ("s",
                                 _span("experiment.config_load", "total_s")),
    "experiment.load_data_s": ("s", _span("experiment.load_data", "total_s")),
    "experiment.run_s": ("s", _span("experiment.run", "total_s")),
    "experiment.self_s": ("s", _span("experiment.run", "self_s")),
    "trace.train_s": ("s", _count("trace.train_s")),
    "trace.overhead": ("ratio", _ratio(_count("trace.train_s"),
                                       _count("plain.train_s"))),
}


def forest_shape(doc: dict) -> dict:
    leaves = [nd for td in doc["trees"] for nd in td["nodes"]
              if nd["kind"] == "leaf"]
    return {"shape.leaves": len(leaves),
            "shape.candidates": sum(len(nd["cands"]) for nd in leaves),
            "shape.max_depth": max(nd["depth"] for nd in leaves),
            "shape.inactive_leaves": sum(not nd["active"] for nd in leaves)}


def compare_outputs(a: pathlib.Path, b: pathlib.Path) -> list[str]:
    """The CSVs and forest files of two job outputs are byte-identical."""
    names = sorted(p.relative_to(a) for pat in ("run*/*.csv",
                                                "run*/forest.json.gz")
                   for p in a.glob(pat))
    if not names:
        return [f"no outputs under {a}"]
    return [f"{n} differs between the jobs in {a.name} and {b.name}"
            for n in names if (a / n).read_bytes() != (b / n).read_bytes()]


def traced(workload, seed, out, ops):
    s = set_up(workload, seed)
    plain_s = run_job(s, workload, out / "plain", ops)

    tracer = Tracer()
    mods = orf_modules()
    tracer.install(mods, TRACE_TARGETS)
    tracer.hook(mods, "fringe.activation_hook", "orf.fringe", "FringeState",
                "activation_hook", _activation_hook, HOOK_KEYS)
    try:
        config = s.orf.experiment.ExperimentConfig.load(workload.config)
        s.orf.experiment.load_data(config)
        root = s.orf.core.RngStream(s.master_seed)
        s.ctx.mog.sample(root.child(HELDOUT_CHILD), workload.heldout)
        s.ctx.mog.sample(root.child(STEPS_CHILD), workload.steps)
        train_s = run_job(s, workload, out / "traced", ops)
        run_diagnose(s, out / "traced", ops)
        online = online_phase(s, workload, out / "traced", ops, None)
    finally:
        tracer.uninstall()

    fails = compare_outputs(out / "plain", out / "traced")
    fails += check_outputs(s, workload, out / "traced", online, ops)
    files = forest_files(out / "traced")
    counts = dict(tracer.counts)
    counts.update(forest_shape(read_doc(files[0])))
    counts["shape.doc_mb"] = sum(len(gzip.decompress(f.read_bytes()))
                                 for f in files) / 1e6
    counts["trace.train_s"] = train_s
    counts["plain.train_s"] = plain_s
    totals = tracer.totals()
    print(f"{workload.name} seed {seed}: {tracer.span_count} spans; "
          f"missing: {sorted(tracer.missing) or 'none'}", file=sys.stderr)
    metrics = {}
    for name, (unit, value) in PER_LAYER.items():
        try:
            metrics[name] = {"value": value(totals, counts), "unit": unit}
        except KeyError as exc:
            metrics[name] = {"value": None, "unit": unit,
                             "missing": exc.args[0]}
    return fails, metrics


# -- entry point ---------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            out: pathlib.Path) -> tuple[dict, int]:
    """Run one workload; returns the result object and the exit code."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    ops = Ops()
    code = 0
    try:
        if trace:
            fails, metrics = traced(workload, seed, out, ops)
        else:
            fails, metrics = end_to_end(workload, seed, seconds, out, ops)
    except OperationFailed as exc:
        fails, metrics, code = [f"operation failed: {exc}"], {}, 1
    for msg in fails:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print("operations attempted/failed: " + ", ".join(
        f"{k} {ops.attempted[k]}/{ops.failed[k]}" for k in Ops.KINDS),
        file=sys.stderr)
    result = {"correct": not fails,
              "attempted": sum(ops.attempted.values()),
              "failed": sum(ops.failed.values()),
              "metrics": metrics}
    return result, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    needed = [SRC / "orf" / "__init__.py", workload.config]
    absent = [str(p) for p in needed if not p.is_file()]
    if absent:
        print(f"not found in the checkout: {', '.join(absent)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result, code = measure(workload, args.seed, args.seconds,
                           bool(args.trace), OUT / workload.name)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
