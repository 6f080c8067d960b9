"""The online decision tree.

Points routed by `x[dim] <= threshold -> left`. Structure-stream points
place candidate splits and drive the split decision; estimation-stream
points fill leaf posteriors and the per-candidate-child counts that gate
splitting. The two bookkeeping paths never mix: estimation labels cannot
move a threshold, structure labels never enter a posterior.

A leaf at depth d splits on arrival of a structure point when some
candidate has both estimation children at alpha(d) or more, and either the
best such candidate's information gain exceeds tau or the leaf itself holds
beta(d) or more estimation points.

Leaves store no geometry: a leaf's cell is derived by walking the split
nodes from the root (`OnlineTree.cell`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from orf.core import HyperParams, InvariantViolation, RngStream, \
    StreamAssignment, alpha, beta, majority
from orf.fringe import FringeState, InactiveLeafStats

SERIALIZATION_VERSION = 1


class ClassHistogram:
    __slots__ = ("counts", "total")

    def __init__(self, n_classes: int = 0, counts: list[int] | None = None):
        if counts is not None:
            self.counts = list(counts)
            self.total = sum(counts)
        else:
            self.counts = [0] * n_classes
            self.total = 0

    def add(self, y: int) -> None:
        self.counts[y] += 1
        self.total += 1

    def copy(self) -> "ClassHistogram":
        return ClassHistogram(counts=self.counts)

    def __eq__(self, other):
        return isinstance(other, ClassHistogram) and self.counts == other.counts

    def __repr__(self):
        return f"ClassHistogram({self.counts})"


class CandidateSplit:
    __slots__ = ("dim", "threshold", "creation_order",
                 "left_struct", "right_struct", "left_est", "right_est")

    def __init__(self, dim: int, threshold: float, creation_order: int,
                 n_classes: int):
        self.dim = dim
        self.threshold = threshold
        self.creation_order = creation_order
        self.left_struct = ClassHistogram(n_classes)
        self.right_struct = ClassHistogram(n_classes)
        self.left_est = ClassHistogram(n_classes)
        self.right_est = ClassHistogram(n_classes)


class Leaf:
    __slots__ = ("node_id", "depth", "est_hist", "candidate_dims",
                 "candidate_splits", "n_split_points_seen", "active",
                 "created_at", "stats")

    def __init__(self, node_id: int, depth: int, est_hist: ClassHistogram,
                 candidate_dims: list[int], created_at: int):
        self.node_id = node_id
        self.depth = depth
        self.est_hist = est_hist
        self.candidate_dims = candidate_dims
        self.candidate_splits: list[CandidateSplit] = []
        self.n_split_points_seen = 0
        self.active = False
        self.created_at = created_at
        self.stats: InactiveLeafStats | None = None


class InternalNode:
    __slots__ = ("node_id", "dim", "threshold", "left", "right")

    def __init__(self, node_id: int, dim: int, threshold: float,
                 left: int, right: int):
        self.node_id = node_id
        self.dim = dim
        self.threshold = threshold
        self.left = left    # child node ids into the tree's arena
        self.right = right


@dataclass(frozen=True)
class SplitRecord:
    t: int
    depth: int            # depth of the split leaf (parent)
    dim: int
    threshold: float
    gain: float
    left_est: int
    right_est: int


def entropy(h: ClassHistogram) -> float:
    """Label entropy in bits; empty and pure histograms are exactly zero."""
    n = h.total
    if n == 0:
        return 0.0
    acc = 0.0
    occupied = 0
    for c in h.counts:
        if c:
            occupied += 1
            acc += c * math.log2(c)
    if occupied <= 1:
        return 0.0
    v = math.log2(n) - acc / n
    return v if v > 0.0 else 0.0


def information_gain(s: CandidateSplit) -> float:
    """Entropy reduction of the structure-stream labels under s, in bits."""
    nl, nr = s.left_struct.total, s.right_struct.total
    n = nl + nr
    if n == 0:
        return 0.0
    parent = ClassHistogram(counts=[a + b for a, b in
                                    zip(s.left_struct.counts,
                                        s.right_struct.counts)])
    g = entropy(parent)
    if nl:
        g -= nl / n * entropy(s.left_struct)
    if nr:
        g -= nr / n * entropy(s.right_struct)
    # integer-count entropies can round a zero gain a hair negative
    return g if g > 0.0 else 0.0


def create_candidate_splits(leaf: Leaf, x, n_classes: int) -> None:
    """Project one structure point onto the leaf's candidate dimensions."""
    order = len(leaf.candidate_splits)
    for d in leaf.candidate_dims:
        leaf.candidate_splits.append(
            CandidateSplit(d, x[d], order, n_classes))
        order += 1
    leaf.n_split_points_seen += 1


def must_split(leaf: Leaf, params: HyperParams) -> bool:
    return leaf.est_hist.total >= beta(params, leaf.depth)


def _best_valid(leaf: Leaf, params: HyperParams):
    """Best valid candidate and its gain; earliest creation wins ties."""
    a = alpha(params, leaf.depth)
    best = None
    best_gain = -1.0
    for s in leaf.candidate_splits:
        if s.left_est.total >= a and s.right_est.total >= a:
            g = information_gain(s)
            if g > best_gain:
                best, best_gain = s, g
    return best, best_gain


class OnlineTree:
    """Single-owner mutable tree; updates must be serialized per tree."""

    ROOT_ID = 0

    def __init__(self, params: HyperParams, n_features: int, n_classes: int,
                 rng: RngStream, _empty: bool = False):
        self.params = params
        self.n_features = n_features
        self.n_classes = n_classes
        self.rng = rng
        self.nodes: list = []
        self.split_count = 0
        self.total_est_seen = 0
        self.fringe = FringeState(params.fringe_capacity)
        self.pending_splits: list[SplitRecord] = []
        self.pending_activations: list = []
        if _empty:
            return
        root = self._new_leaf(depth=0, est_hist=ClassHistogram(n_classes),
                              created_at=0)
        self.fringe.register_root(root)

    # -- construction helpers ---------------------------------------------

    def _new_leaf(self, depth, est_hist, created_at) -> Leaf:
        k = min(1 + self.rng.poisson(self.params.lam), self.n_features)
        dims = self.rng.sample_distinct(self.n_features, k)
        leaf = Leaf(len(self.nodes), depth, est_hist, dims, created_at)
        self.nodes.append(leaf)
        return leaf

    def leaves(self):
        return [n for n in self.nodes if type(n) is Leaf]

    # -- routing and prediction -------------------------------------------

    def route(self, x) -> Leaf:
        if len(x) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, "
                             f"got {len(x)}")
        nodes = self.nodes
        node = nodes[self.ROOT_ID]
        while type(node) is InternalNode:
            node = nodes[node.left if x[node.dim] <= node.threshold
                         else node.right]
        return node

    def cell(self, x) -> tuple[Leaf, list[tuple[float, float]]]:
        """The leaf at x and its cell, one (lo, hi] interval per feature.

        Walks the same path as `route`, narrowing the cell at every split.
        """
        if len(x) != self.n_features:
            raise ValueError(f"expected {self.n_features} features, "
                             f"got {len(x)}")
        lo = [-math.inf] * self.n_features
        hi = [math.inf] * self.n_features
        nodes = self.nodes
        node = nodes[self.ROOT_ID]
        while type(node) is InternalNode:
            if x[node.dim] <= node.threshold:
                hi[node.dim] = node.threshold
                node = nodes[node.left]
            else:
                lo[node.dim] = node.threshold
                node = nodes[node.right]
        return node, list(zip(lo, hi))

    def predict_posterior(self, x) -> list[float]:
        h = self.route(x).est_hist
        if h.total == 0:
            return [1.0 / self.n_classes] * self.n_classes
        return [c / h.total for c in h.counts]

    def predict_class(self, x) -> int:
        return majority(self.route(x).est_hist.counts)

    # -- stream updates ----------------------------------------------------

    def update(self, x, y: int, assignment: StreamAssignment,
               t: int) -> SplitRecord | None:
        """Absorb one stream element; returns the split it caused, if any."""
        if assignment is StreamAssignment.SKIP:
            return None
        leaf = self.route(x)
        if assignment is StreamAssignment.ESTIMATION:
            self.total_est_seen += 1
            if not leaf.active:
                self.fringe.record_estimation_arrival(leaf, y)
            leaf.est_hist.add(y)
            for s in leaf.candidate_splits:
                h = s.left_est if x[s.dim] <= s.threshold else s.right_est
                h.counts[y] += 1
                h.total += 1
            return None
        # structure point
        if not leaf.active:
            return None
        if leaf.n_split_points_seen < self.params.m:
            create_candidate_splits(leaf, x, self.n_classes)
        for s in leaf.candidate_splits:
            h = s.left_struct if x[s.dim] <= s.threshold else s.right_struct
            h.counts[y] += 1
            h.total += 1
        best, gain = _best_valid(leaf, self.params)
        if best is not None and (gain > self.params.tau
                                 or must_split(leaf, self.params)):
            return self._perform_split(leaf, best, gain, t)
        return None

    def _perform_split(self, leaf: Leaf, s: CandidateSplit, gain: float,
                       t: int) -> SplitRecord:
        d = leaf.depth
        a = alpha(self.params, d)
        if s.left_est.total < a or s.right_est.total < a:
            raise InvariantViolation(
                f"validity gate: split at depth {d} with child estimation "
                f"counts ({s.left_est.total}, {s.right_est.total}) < {a}")
        left = self._new_leaf(d + 1, s.left_est.copy(), t)
        right = self._new_leaf(d + 1, s.right_est.copy(), t)
        self.nodes[leaf.node_id] = InternalNode(
            leaf.node_id, s.dim, s.threshold, left.node_id, right.node_id)
        self.split_count += 1
        record = SplitRecord(t=t, depth=d, dim=s.dim, threshold=s.threshold,
                             gain=gain, left_est=s.left_est.total,
                             right_est=s.right_est.total)
        self.pending_splits.append(record)
        self.fringe.on_leaf_split(self, leaf, left, right, t)
        return record

    def drain_events(self):
        splits, activations = self.pending_splits, self.pending_activations
        self.pending_splits, self.pending_activations = [], []
        return splits, activations

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> dict:
        nodes = []
        for node in self.nodes:
            if type(node) is InternalNode:
                nodes.append({"kind": "split", "dim": node.dim,
                              "threshold": node.threshold,
                              "left": node.left, "right": node.right})
            else:
                doc = {"kind": "leaf", "depth": node.depth,
                       "est": node.est_hist.counts,
                       "dims": node.candidate_dims,
                       "nsp": node.n_split_points_seen,
                       "active": node.active,
                       "created_at": node.created_at,
                       "cands": [{"dim": s.dim, "thr": s.threshold,
                                  "order": s.creation_order,
                                  "ls": s.left_struct.counts,
                                  "rs": s.right_struct.counts,
                                  "le": s.left_est.counts,
                                  "re": s.right_est.counts}
                                 for s in node.candidate_splits]}
                if node.stats is not None:
                    doc["stats"] = {
                        "n_est_in_leaf": node.stats.n_est_in_leaf,
                        "n_errors": node.stats.n_errors,
                        "est_tree_at_creation":
                            node.stats.est_tree_at_creation}
                nodes.append(doc)
        return {"version": SERIALIZATION_VERSION,
                "n_features": self.n_features,
                "n_classes": self.n_classes,
                "split_count": self.split_count,
                "total_est_seen": self.total_est_seen,
                "rng": self.rng.get_state(),
                "nodes": nodes,
                "retired": self.fringe.retired_count}

    @classmethod
    def from_doc(cls, doc: dict, params: HyperParams) -> "OnlineTree":
        if doc["version"] != SERIALIZATION_VERSION:
            raise ValueError(f"unsupported tree format {doc['version']}")
        tree = cls(params, doc["n_features"], doc["n_classes"],
                   RngStream.from_state(doc["rng"]), _empty=True)
        tree.split_count = doc["split_count"]
        tree.total_est_seen = doc["total_est_seen"]
        tree.fringe.retired_count = doc["retired"]
        n_classes = doc["n_classes"]
        for node_id, nd in enumerate(doc["nodes"]):
            if nd["kind"] == "split":
                tree.nodes.append(InternalNode(node_id, nd["dim"],
                                               nd["threshold"],
                                               nd["left"], nd["right"]))
                continue
            leaf = Leaf(node_id, nd["depth"],
                        ClassHistogram(counts=nd["est"]),
                        list(nd["dims"]), nd["created_at"])
            leaf.n_split_points_seen = nd["nsp"]
            leaf.active = nd["active"]
            for cd in nd["cands"]:
                s = CandidateSplit(cd["dim"], cd["thr"], cd["order"],
                                   n_classes)
                s.left_struct = ClassHistogram(counts=cd["ls"])
                s.right_struct = ClassHistogram(counts=cd["rs"])
                s.left_est = ClassHistogram(counts=cd["le"])
                s.right_est = ClassHistogram(counts=cd["re"])
                leaf.candidate_splits.append(s)
            if "stats" in nd:
                st = nd["stats"]
                leaf.stats = InactiveLeafStats(
                    n_est_in_leaf=st["n_est_in_leaf"],
                    n_errors=st["n_errors"],
                    est_tree_at_creation=st["est_tree_at_creation"])
            if leaf.active:
                tree.fringe.active_ids.add(node_id)
            else:
                tree.fringe.inactive_ids.add(node_id)
            tree.nodes.append(leaf)
        return tree
