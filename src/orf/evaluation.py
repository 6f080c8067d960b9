"""Holdout evaluation, consistency diagnostics, and offline run audits.

The measurable consequences of the theory are what get checked here: cell
diameters at fixed probe points must trend down, leaf estimation counts up,
and the split count can never outrun the estimation data budget
K <= N^e/(2*alpha(1)) + 1 per tree.
"""

from __future__ import annotations

import csv
import json
import operator
import pathlib
import statistics
from dataclasses import dataclass, field, fields

from orf.core import HyperParams, alpha, majority, split_budget
from orf.forest import OnlineForest
from orf.fringe import ActivationRecord
from orf.tree import SplitRecord


@dataclass(frozen=True)
class Checkpoint:
    """One row of curves.csv: the forest measured at stream position t."""
    t: int
    forest_accuracy: float
    mean_tree_accuracy: float
    std_tree_accuracy: float
    bayes_accuracy: float | None
    split_count: int
    active_leaves: int
    inactive_leaves: int
    median_diameter: float
    min_est_count: int
    median_est_count: float


# Each CSV's columns are its record's fields; splits and activations put
# the tree index after t.
CURVES_COLUMNS = [f.name for f in fields(Checkpoint)]
SPLITS_COLUMNS = ["t", "tree"] + [f.name for f in fields(SplitRecord)][1:]
ACTIVATIONS_COLUMNS = ["t", "tree"] + [
    f.name for f in fields(ActivationRecord)][1:]


def evaluate(forest: OnlineForest, test_points):
    """Holdout accuracy of the forest vote and of every tree."""
    if not test_points:
        raise ValueError("empty test set")
    return vote_accuracy(
        [[tree.predict_class(p.x) for p in test_points]
         for tree in forest.trees],
        [p.y for p in test_points], forest.n_classes)


def vote_accuracy(predictions, labels, n_classes: int):
    """Holdout accuracy of the majority vote and of every tree, from the
    class each tree predicts for each test point: one list per tree, in
    tree order."""
    forest_hits = 0
    for y, votes in zip(labels, zip(*predictions)):
        counts = [0] * n_classes
        for v in votes:
            counts[v] += 1
        if majority(counts) == y:
            forest_hits += 1
    n = len(labels)
    return forest_hits / n, [sum(map(operator.eq, preds, labels)) / n
                             for preds in predictions]


def clip_box_from_points(points, margin: float = 0.1):
    """Axis-aligned bounding box of the points, expanded by `margin`."""
    if not points:
        raise ValueError("no points for clip box")
    box = []
    for col in zip(*(p.x for p in points)):
        lo, hi = min(col), max(col)
        pad = margin * (hi - lo)
        box.append((lo - pad, hi + pad))
    return box


def probe_stats(forest, probes, clip_box):
    """Median clipped diameter and min/median estimation count over all
    (probe point, tree) pairs."""
    return probe_summary([probe_cells(tree, probes, clip_box)
                          for tree in forest.trees])


def probe_cells(tree, probes, clip_box) -> list[tuple[float, int]]:
    """(clipped cell diameter, leaf n_est) at each probe point."""
    cells = []
    for x in probes:
        leaf, diameter = tree.cell_diameter(x, clip_box)
        cells.append((diameter, leaf.n_est))
    return cells


def probe_summary(cells):
    """`probe_stats` from each tree's `probe_cells`; the medians sort, so
    the order of the pairs does not matter."""
    diams = [d for tree in cells for d, _ in tree]
    est_counts = [n for tree in cells for _, n in tree]
    return (statistics.median(diams), min(est_counts),
            statistics.median(est_counts))


# -- offline audit of a finished run ------------------------------------------


@dataclass
class RunAudit:
    hard_failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.hard_failures

    def lines(self):
        return ([f"FAIL {msg}" for msg in self.hard_failures] + self.notes
                + ["result: " + ("PASS" if self.ok else "FAIL")])


def _read_csv(path: pathlib.Path, columns) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != columns:
            raise ValueError(f"{path.name}: columns are not "
                             f"{','.join(columns)}")
        rows = list(reader)
    # DictReader puts extra cells under the key None and fills missing ones
    if any(None in row or None in row.values() for row in rows):
        raise ValueError(f"{path.name}: a row does not have "
                         f"{len(columns)} cells")
    return rows


def load_run_artifacts(run_dir):
    """A run directory's four artifacts; raises FileNotFoundError where one
    is missing and ValueError where they cannot be what a run writes."""
    run_dir = pathlib.Path(run_dir)
    needed = ["run.json", "curves.csv", "splits.csv", "activations.csv"]
    missing = [n for n in needed if not (run_dir / n).exists()]
    if missing:
        raise FileNotFoundError(f"{run_dir}: missing {', '.join(missing)}")
    try:
        with open(run_dir / "run.json", "rb") as fh:
            run = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"run.json: not JSON: {exc}") from None
    curves = _read_csv(run_dir / "curves.csv", CURVES_COLUMNS)
    if not curves:
        raise ValueError("curves.csv: no checkpoint")
    return {"run": run,
            "curves": curves,
            "splits": _read_csv(run_dir / "splits.csv", SPLITS_COLUMNS),
            "activations": _read_csv(run_dir / "activations.csv",
                                     ACTIVATIONS_COLUMNS)}


def consistency_report(artifacts: dict) -> RunAudit:
    """Audit one run's artifacts.

    Hard invariants (any failure flips the exit status): the per-split
    validity gate, the fringe capacity bound, and the per-tree split-count
    budget. Trend diagnostics are reported as notes.
    """
    audit = RunAudit()
    run = artifacts["run"]
    params = HyperParams.from_json(run["params"])
    curves = artifacts["curves"]
    if len(curves) < 2:
        audit.notes.append("note: fewer than 2 checkpoints; trends not assessed")

    for row in artifacts["splits"]:
        d = int(row["depth"])
        a = alpha(params, d)
        le, re = int(row["left_est"]), int(row["right_est"])
        if le < a or re < a:
            audit.hard_failures.append(
                f"validity gate: split at t={row['t']} tree={row['tree']} "
                f"depth={d} has child estimation counts ({le}, {re}) < {a}")

    for cp in run["checkpoints"]:
        for i, tr in enumerate(cp["per_tree"]):
            bound = split_budget(params, tr["est_seen"])
            if tr["splits"] > bound:
                audit.hard_failures.append(
                    f"split budget: tree {i} at t={cp['t']} has "
                    f"{tr['splits']} splits > {bound:.2f}")
            if params.fringe_capacity is not None \
                    and tr["active"] > params.fringe_capacity:
                audit.hard_failures.append(
                    f"fringe capacity: tree {i} at t={cp['t']} has "
                    f"{tr['active']} active leaves > {params.fringe_capacity}")

    ks = [int(r["split_count"]) for r in curves]
    if any(b < a for a, b in zip(ks, ks[1:])):
        audit.hard_failures.append("split count decreased between checkpoints")

    for row in artifacts["activations"]:
        other = row["best_other_s_hat"]
        if other and float(row["s_hat"]) < float(other):
            audit.hard_failures.append(
                f"activation at t={row['t']} tree={row['tree']} chose "
                f"s_hat={row['s_hat']} over larger {other}")

    diams = [float(r["median_diameter"]) for r in curves]
    ests = [float(r["median_est_count"]) for r in curves]
    audit.notes.append(f"note: median probe diameter {diams[0]:.4g} -> "
                       f"{diams[-1]:.4g} over {len(curves)} checkpoints")
    audit.notes.append(f"note: median probe estimation count {ests[0]:.4g} "
                       f"-> {ests[-1]:.4g}")
    audit.notes.append(f"note: split count trajectory {ks}")
    if len(diams) >= 2 and diams[-1] > diams[0]:
        audit.notes.append("note: median diameter did not shrink (small run?)")
    if len(ests) >= 2 and ests[-1] < ests[0]:
        audit.notes.append("note: median estimation count did not grow")
    return audit
