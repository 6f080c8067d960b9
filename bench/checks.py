"""Checks on orf's outputs, computed apart from the program.

Each check returns a list of failure messages; an empty list passes. The
schedules, the Bayes posterior, the majority vote and the routing walk are
written out again here from their definitions, so a fault in the program's
own copy cannot hide itself.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# |observed - expected| may reach this many binomial standard deviations
BINOMIAL_Z = 5.0


def alpha(base: float, growth: float, depth: int) -> int:
    """Minimum estimation count of each child for a split at `depth`."""
    return math.ceil(base * growth ** depth)


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_splits(rows: list[dict], hp: dict) -> list[str]:
    """Every split's child estimation counts reach alpha(depth)."""
    bad = []
    for row in rows:
        a = alpha(hp["alpha_base"], hp["alpha_growth"], int(row["depth"]))
        le, re = int(row["left_est"]), int(row["right_est"])
        if le < a or re < a:
            bad.append(f"split t={row['t']} tree={row['tree']} "
                       f"depth={row['depth']}: children ({le}, {re}) < {a}")
    return bad


def check_run_summary(run: dict, hp: dict) -> list[str]:
    """Split budget K <= N_e/(2 alpha(1)) + 1 and the fringe capacity, at
    every checkpoint of every tree."""
    bad = []
    a1 = alpha(hp["alpha_base"], hp["alpha_growth"], 1)
    cap = hp["fringe_capacity"]
    for cp in run["checkpoints"]:
        for i, tr in enumerate(cp["per_tree"]):
            if tr["splits"] > tr["est_seen"] / (2 * a1) + 1:
                bad.append(f"t={cp['t']} tree {i}: {tr['splits']} splits "
                           f"over the budget of {tr['est_seen']} "
                           f"estimation points")
            if cap is not None and tr["active"] > cap:
                bad.append(f"t={cp['t']} tree {i}: {tr['active']} active "
                           f"leaves > capacity {cap}")
    return bad


def check_activations(rows: list[dict]) -> list[str]:
    """Every activation took the largest s_hat = p_hat * e_hat."""
    bad = []
    for row in rows:
        s, p, e = (float(row[k]) for k in ("s_hat", "p_hat", "e_hat"))
        if s != p * e:
            bad.append(f"activation t={row['t']} tree={row['tree']}: "
                       f"s_hat {s} != p_hat*e_hat {p * e}")
        other = row["best_other_s_hat"]
        if other and s < float(other):
            bad.append(f"activation t={row['t']} tree={row['tree']}: "
                       f"s_hat {s} < runner-up {other}")
    return bad


def estimation_share(count: int, n: int, hp: dict) -> list[str]:
    """`count` estimation points among `n` lies within binomial bounds of
    1 - p_structure - p_skip."""
    p = 1.0 - hp["p_structure"] - hp["p_skip"]
    slack = BINOMIAL_Z * math.sqrt(n * p * (1.0 - p))
    if abs(count - n * p) > slack:
        return [f"{count} estimation points of {n}, expected "
                f"{n * p:.0f} +- {slack:.0f}"]
    return []


def check_run_estimation(run: dict, hp: dict) -> list[str]:
    final = run["checkpoints"][-1]
    bad = []
    for i, tr in enumerate(final["per_tree"]):
        bad += [f"tree {i}: {m}"
                for m in estimation_share(tr["est_seen"], final["t"], hp)]
    return bad


class Bayes:
    """Posterior argmax of a diagonal Gaussian mixture spec, in numpy."""

    def __init__(self, spec: dict):
        comps = spec["components"]
        w = np.array([c["weight"] for c in comps], dtype=float)
        self.mu = np.array([c["mean"] for c in comps], dtype=float)
        self.var = np.array([c["var"] for c in comps], dtype=float)
        self.label = np.array([c["label"] for c in comps])
        self.n_classes = spec["n_classes"]
        self.log_w = np.log(w / w.sum())
        self.log_norm = -0.5 * np.log(2 * np.pi * self.var).sum(axis=1)
        prior = np.bincount(self.label, weights=w, minlength=self.n_classes)
        self.chance = float(prior.max() / w.sum())

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        z = ((X[:, None, :] - self.mu[None]) ** 2 / self.var[None]).sum(axis=2)
        comp = self.log_w + self.log_norm - 0.5 * z
        scores = np.full((len(X), self.n_classes), -np.inf)
        for k in range(self.n_classes):
            block = comp[:, self.label == k]
            if block.shape[1]:
                scores[:, k] = np.logaddexp.reduce(block, axis=1)
        return scores.argmax(axis=1)

    def accuracy(self, points) -> float:
        pred = self.predict([p.x for p in points])
        return float(np.mean(pred == np.array([p.y for p in points])))


def check_accuracy(what: str, acc: float, bayes_acc: float, chance: float,
                   n: int) -> list[str]:
    """Accuracy clears chance by a quarter of the gap to Bayes, and exceeds
    Bayes by no more than three worst-case binomial standard deviations."""
    floor = chance + 0.25 * (bayes_acc - chance)
    tol = 3.0 * math.sqrt(0.25 / n)
    if acc < floor:
        return [f"{what} accuracy {acc:.4f} below floor {floor:.4f} "
                f"(chance {chance:.4f}, Bayes {bayes_acc:.4f})"]
    if acc > bayes_acc + tol:
        return [f"{what} accuracy {acc:.4f} above Bayes {bayes_acc:.4f} "
                f"+ {tol:.4f}"]
    return []


def majority(votes: list[int], n_classes: int) -> int:
    counts = [0] * n_classes
    for v in votes:
        counts[v] += 1
    return counts.index(max(counts))  # index() finds the smallest tie


def check_vote(forest, xs) -> list[str]:
    """forest.predict equals the majority of the trees' predict_class."""
    bad = []
    for x in xs:
        want = majority([t.predict_class(x) for t in forest.trees],
                        forest.n_classes)
        got = forest.predict(x)
        if got != want:
            bad.append(f"predict gave {got}, tree majority is {want}")
    return bad[:5]


def walk(nodes: list[dict], x) -> int:
    """Leaf reached in one saved tree: x[dim] <= threshold goes left."""
    i = 0
    while nodes[i]["kind"] == "split":
        nd = nodes[i]
        i = nd["left"] if x[nd["dim"]] <= nd["threshold"] else nd["right"]
    return i


def check_routes(doc: dict, forest, xs) -> list[str]:
    """Walking the saved document reaches the leaf the loaded tree routes
    to, for every tree and point."""
    if len(doc["trees"]) != len(forest.trees):
        return [f"document has {len(doc['trees'])} trees, forest "
                f"{len(forest.trees)}"]
    bad = []
    for i, (td, tree) in enumerate(zip(doc["trees"], forest.trees)):
        for x in xs:
            want, got = walk(td["nodes"], x), tree.route(x).node_id
            if want != got:
                bad.append(f"tree {i}: document walk reaches node {want}, "
                           f"route reaches {got}")
    return bad[:5]
