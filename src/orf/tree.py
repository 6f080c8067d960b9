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

Leaves and candidates count classes the same way, per class with the
total beside. A candidate is one list, `[dim, threshold, *ls, *rs, *le,
*re, nle, nre]`: C structure (`ls`, `rs`) and C estimation (`le`, `re`)
label counts each side of the threshold, then the two estimation totals
the alpha gate reads; the document stores it without the totals. Leaves
store no geometry: a probe's cell is walked from the root when it is
measured (`OnlineTree.cell_diameter`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from orf.core import HyperParams, InvariantViolation, RngStream, \
    StreamAssignment, alpha, beta, is_int, is_number, majority
from orf.fringe import FringeState

class Leaf:
    """A leaf with its estimation counts: `est` per class, `n_est` in all.

    Every structure point it has projected added one candidate per
    candidate dimension, so that count is derived from the two lists.
    A leaf is active (it takes structure points) exactly when `stats`,
    the bounded fringe's counters for an inactive leaf, is None.
    """

    __slots__ = ("node_id", "depth", "est", "n_est", "candidate_dims",
                 "candidate_splits", "created_at", "stats")

    def __init__(self, node_id: int, depth: int, est: list[int], n_est: int,
                 candidate_dims: list[int], created_at: int):
        self.node_id = node_id
        self.depth = depth
        self.est = est
        self.n_est = n_est
        self.candidate_dims = candidate_dims
        self.candidate_splits: list[list] = []  # candidate rows
        self.created_at = created_at
        self.stats: list[int] | None = None


class InternalNode:
    __slots__ = ("dim", "threshold", "left", "right")

    def __init__(self, dim: int, threshold: float, left: int, right: int):
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


# Entropy terms for counts below _TABLE_SIZE, from the very expressions a
# direct loop evaluates (so bit-identical); larger ones are made per call.
_TABLE_SIZE = 1024
_XLOG2X = (0.0,) + tuple(c * math.log2(c) for c in range(1, _TABLE_SIZE))
_LOG2 = (0.0,) + tuple(math.log2(n) for n in range(1, _TABLE_SIZE))


def information_gain(s: list) -> float:
    """Entropy reduction of the structure-stream labels under s, in bits.

    Computes H(parent) - nl/n*H(left) - nr/n*H(right) in one pass over
    both count lists, where H(counts) = log2(n) - sum(c·log2(c))/n with the
    terms added left to right; H is exactly zero on an empty or pure side
    and clamped at zero where it rounds below.
    """
    c = (len(s) - 4) >> 2
    ls, rs = s[2:2 + c], s[2 + c:2 + 2 * c]
    nl, nr = sum(ls), sum(rs)
    n = nl + nr
    if n == 0:
        return 0.0
    l_pure = nl == 0 or nl in ls
    r_pure = nr == 0 or nr in rs
    if l_pure and r_pure and (nl == 0 or nr == 0
                              or ls.index(nl) == rs.index(nr)):
        return 0.0          # the parent is pure, so every H is zero
    xlog2x, log2 = _XLOG2X, _LOG2
    if n >= _TABLE_SIZE:  # past the tables: the same terms for these counts
        xlog2x = {c: c * math.log2(c) if c else 0.0
                  for a, b in zip(ls, rs) for c in (a, b, a + b)}
        log2 = {c: math.log2(c) for c in (n, nl, nr) if c}
    acc_p = acc_l = acc_r = 0.0
    for a, b in zip(ls, rs):
        acc_p += xlog2x[a + b]
        acc_l += xlog2x[a]
        acc_r += xlog2x[b]
    g = log2[n] - acc_p / n
    if g <= 0.0:
        g = 0.0
    if not l_pure:
        v = log2[nl] - acc_l / nl
        if v > 0.0:
            g -= nl / n * v
    if not r_pure:
        v = log2[nr] - acc_r / nr
        if v > 0.0:
            g -= nr / n * v
    # integer-count entropies can round a zero gain a hair negative
    return g if g > 0.0 else 0.0


def create_candidate_splits(leaf: Leaf, x, n_classes: int) -> None:
    """Project one structure point onto the leaf's candidate dimensions."""
    counts = [0] * (4 * n_classes + 2)  # four count lists and two totals
    leaf.candidate_splits += ([d, x[d]] + counts for d in leaf.candidate_dims)


def must_split(leaf: Leaf, params: HyperParams) -> bool:
    return leaf.n_est >= beta(params, leaf.depth)


def _best_valid(leaf: Leaf, params: HyperParams):
    """Best valid candidate and its gain; the earliest created (first in
    the list) wins ties."""
    a = alpha(params, leaf.depth)
    best, best_gain = None, -1.0
    for s in leaf.candidate_splits:
        if s[-2] >= a and s[-1] >= a:
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
        self.total_est_seen = 0
        self.fringe = FringeState()
        self.pending_splits: list[SplitRecord] = []
        self.pending_activations: list = []
        if _empty:
            return
        root = self._new_leaf(depth=0, est=[0] * n_classes, n_est=0,
                              created_at=0)
        self.fringe.active_ids.add(root.node_id)

    @property
    def split_count(self) -> int:
        """Every split turns one leaf into a split node and adds two."""
        return (len(self.nodes) - 1) // 2

    # -- construction helpers ---------------------------------------------

    def _new_leaf(self, depth, est, n_est, created_at) -> Leaf:
        k = 1 + self.rng.poisson(self.params.lam, self.n_features - 1)
        dims = self.rng.sample_distinct(self.n_features, k)
        leaf = Leaf(len(self.nodes), depth, est, n_est, dims, created_at)
        self.nodes.append(leaf)
        return leaf

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

    def cell_diameter(self, x, box) -> tuple[Leaf, float]:
        """The leaf at x, on the path `route` takes, and the Euclidean
        diameter of its cell clipped to `box`, a (lo, hi) pair per feature."""
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
        acc = 0.0
        for a, b, (clo, chi) in zip(lo, hi, box):
            edge = min(b, chi) - max(a, clo)
            if edge > 0:
                acc += edge * edge
        return node, math.sqrt(acc)

    def predict_class(self, x) -> int:
        return majority(self.route(x).est)

    # -- stream updates ----------------------------------------------------

    def update(self, x, y: int, assignment: StreamAssignment,
               t: int) -> None:
        """Absorb one stream element; a split is queued for `drain_events`."""
        if assignment is StreamAssignment.SKIP:
            return
        leaf = self.route(x)
        c = self.n_classes
        if assignment is StreamAssignment.ESTIMATION:
            self.total_est_seen += 1
            if leaf.stats is not None:
                self.fringe.record_estimation_arrival(leaf, y)
            leaf.est[y] += 1
            leaf.n_est += 1
            i, j = 2 + 2 * c + y, 2 + 3 * c + y  # le[y], re[y]
            for s in leaf.candidate_splits:
                if x[s[0]] <= s[1]:
                    s[i] += 1
                    s[-2] += 1
                else:
                    s[j] += 1
                    s[-1] += 1
            return
        # structure point; an inactive leaf ignores it
        if leaf.stats is not None:
            return
        # fewer than m structure points projected so far
        if len(leaf.candidate_splits) < \
                self.params.m * len(leaf.candidate_dims):
            create_candidate_splits(leaf, x, c)
        i, j = 2 + y, 2 + c + y  # ls[y], rs[y]
        for s in leaf.candidate_splits:
            s[i if x[s[0]] <= s[1] else j] += 1
        best, gain = _best_valid(leaf, self.params)
        if best is not None and (gain > self.params.tau
                                 or must_split(leaf, self.params)):
            self._perform_split(leaf, best, gain, t)

    def _perform_split(self, leaf: Leaf, s: list, gain: float,
                       t: int) -> None:
        d, c = leaf.depth, self.n_classes
        a = alpha(self.params, d)
        nle, nre = s[-2], s[-1]
        if nle < a or nre < a:
            raise InvariantViolation(
                f"validity gate: split at depth {d} with child estimation "
                f"counts ({nle}, {nre}) < {a}")
        # the children take the winner's estimation counts, `le` and `re`;
        # the candidate goes away with the leaf it belonged to
        left = self._new_leaf(d + 1, s[2 + 2 * c:2 + 3 * c], nle, t)
        right = self._new_leaf(d + 1, s[2 + 3 * c:-2], nre, t)
        self.nodes[leaf.node_id] = InternalNode(
            s[0], s[1], left.node_id, right.node_id)
        self.pending_splits.append(SplitRecord(
            t=t, depth=d, dim=s[0], threshold=s[1], gain=gain,
            left_est=nle, right_est=nre))
        self.fringe.on_leaf_split(self, leaf, left, right, t)

    def drain_events(self):
        """Split and activation records since the last drain, oldest first."""
        splits, activations = self.pending_splits, self.pending_activations
        self.pending_splits, self.pending_activations = [], []
        return splits, activations

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> dict:
        """A snapshot of the tree; the forest document carries the version."""
        nodes = []
        for node in self.nodes:
            if type(node) is InternalNode:
                nodes.append({"kind": "split", "dim": node.dim,
                              "threshold": node.threshold,
                              "left": node.left, "right": node.right})
            else:
                doc = {"kind": "leaf", "depth": node.depth,
                       "est": node.est[:],
                       "dims": node.candidate_dims[:],
                       "active": node.stats is None,
                       "created_at": node.created_at,
                       "cands": [s[:-2] for s in node.candidate_splits]}
                if node.stats is not None:
                    doc["stats"] = node.stats[:]
                nodes.append(doc)
        return {"total_est_seen": self.total_est_seen,
                "rng": self.rng.get_state(),
                "nodes": nodes}

    @classmethod
    def from_doc(cls, doc: dict, params: HyperParams, n_features: int,
                 n_classes: int, rng: RngStream) -> "OnlineTree":
        """The tree `to_doc` saved; the forest gives its shape and `rng` as
        seeded, which moves to the saved position. Raises ValueError, naming
        the node, where an entry has the wrong shape, type or range, a node
        but the root is not the child of one earlier split, a leaf's depth
        is not its parent's + 1, or more leaves are active than the fringe
        capacity. Integers are checked through sums, so true and false pass
        as 1, 0."""
        if not is_int(doc["total_est_seen"]):
            raise ValueError(f"total_est_seen must be an integer, "
                             f"got {doc['total_est_seen']!r}")
        rng.set_state(doc["rng"])
        tree = cls(params, n_features, n_classes, rng, _empty=True)
        tree.total_est_seen = doc["total_est_seen"]
        c, nf, n = n_classes, n_features, len(doc["nodes"])
        lsrs, le, re = (slice(2 + a * c, 2 + b * c)
                        for a, b in ((0, 2), (2, 3), (3, 4)))
        dim_ids, left_ids = range(nf), range(1, n - 1, 2)
        if not n:
            raise ValueError("a tree has no nodes")
        is_left = bytearray(n)  # children come in pairs (left, left + 1)
        depths = [0] * n  # set by the parent split, which comes first
        for node_id, nd in enumerate(doc["nodes"]):
            if node_id and not is_left[(node_id - 1) | 1]:  # its pair's left
                raise ValueError(f"node {node_id}: no split has it as a child "
                                 f"before it")
            if nd["kind"] == "split":
                dim, thr, left, right = (nd["dim"], nd["threshold"],
                                         nd["left"], nd["right"])
                try:  # integers through their sum, as at a leaf
                    ok = (type(dim + left + right) is int and 0 <= dim < nf
                          and left in left_ids and right - left == 1
                          and not is_left[left] and math.isfinite(thr))
                except (TypeError, OverflowError):
                    ok = False
                if not ok:
                    raise ValueError(f"node {node_id}: a split is malformed")
                is_left[left] = 1
                depths[left] = depths[right] = depths[node_id] + 1
                tree.nodes.append(InternalNode(dim, thr, left, right))
                continue
            active = "stats" not in nd
            if nd["active"] is not active:
                raise ValueError(f'node {node_id}: "active" is '
                                 f'{nd["active"]!r}; "stats" says otherwise')
            est, dims, stats = nd["est"], nd["dims"], nd.get("stats", ())
            try:  # integers sum to an integer; a float, string or null not
                n_est = sum(est)
                ok = (type(sum(dims, sum(stats, n_est + nd["depth"]
                                         + nd["created_at"]))) is int
                      and len(est) == c and nd["depth"] == depths[node_id]
                      and all(map(dim_ids.__contains__, dims)))
            except TypeError:
                ok = False
            if not (ok and (active or type(stats) is list
                            and len(stats) == 3)):
                raise ValueError(f"node {node_id}: a leaf is malformed")
            leaf = Leaf(node_id, depths[node_id], list(est), n_est,
                        list(dims), nd["created_at"])
            for row in nd["cands"]:
                if type(row) is not list or len(row) != 2 + 4 * c:
                    raise ValueError(f"node {node_id}: a candidate row is not "
                                     f"a list of {2 + 4 * c}")
                try:  # as for the leaf, one sum over the dim and the counts
                    nle, nre = sum(row[le]), sum(row[re])
                    ok = type(sum(row[lsrs], row[0] + nle + nre)) is int
                except TypeError:
                    ok = False
                if not (ok and 0 <= row[0] < nf and is_number(row[1])):
                    raise ValueError(f"node {node_id}: a row is malformed")
                # a copy: the tree must not share lists with the document
                leaf.candidate_splits.append(row + [nle, nre])
            if active:
                tree.fringe.active_ids.add(node_id)
            else:
                leaf.stats = list(stats)
                tree.fringe.inactive_ids.add(node_id)
            tree.nodes.append(leaf)
        cap = params.fringe_capacity
        if cap is not None and len(tree.fringe.active_ids) > cap:
            raise ValueError(f"more than fringe_capacity {cap} leaves active")
        return tree
