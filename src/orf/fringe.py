"""Bounded-memory leaf management.

Leaves are either active (collecting candidate-split statistics) or
inactive (carrying only `leaf.stats`, the counters `[n_est_in_leaf,
n_errors, est_tree_at_creation]`): a leaf is active exactly when its
`stats` is None. When an active leaf splits it frees a slot and the
inactive leaf with the largest s-hat = p-hat * e-hat estimate takes its
place; while the tree is smaller than the capacity the freed slots let
every new leaf activate immediately, which reproduces the unbounded
algorithm.

The tree-wide arrival count backing p-hat is kept once on the tree and
snapshotted per leaf at creation, so scoring a leaf is O(1) instead of
touching every inactive leaf on every estimation point: a leaf's lifetime
arrival count is derived from the snapshot when it is scored.
"""

from __future__ import annotations

from dataclasses import dataclass

from orf.core import InvariantViolation, majority


@dataclass(frozen=True)
class ActivationRecord:
    t: int
    leaf: int
    s_hat: float
    p_hat: float
    e_hat: float
    # runner-up among the other inactive leaves, for offline argmax audits
    best_other_s_hat: float | None
    best_other_created_at: int | None


def score(stats: list[int],
          tree_total_est: int) -> tuple[float, float, float]:
    """(s-hat, p-hat, e-hat) from a leaf's stats, s-hat = p-hat * e-hat.

    p-hat is the leaf's share of the tree's estimation points since the
    leaf was created; e-hat is its prequential error rate.
    """
    n_est_in_leaf, n_errors, est_tree_at_creation = stats
    p = n_est_in_leaf / max(1, tree_total_est - est_tree_at_creation)
    e = n_errors / max(1, n_est_in_leaf)
    return p * e, p, e


class FringeState:
    """Per-tree active/inactive bookkeeping, bounded by the tree's
    `params.fringe_capacity` (None disables it)."""

    __slots__ = ("active_ids", "inactive_ids", "activation_hook")

    def __init__(self):
        self.active_ids: set[int] = set()
        self.inactive_ids: set[int] = set()
        # instrumentation, called as hook(tree) right before each
        # activation choice: a test and the benchmark's counters set it
        self.activation_hook = None

    def record_estimation_arrival(self, leaf, y: int) -> None:
        """Update an inactive leaf's counters for one arriving point.

        Must run before the point enters leaf.est: the error is scored
        prequentially, against the majority class as of the arrival.
        """
        stats = leaf.stats
        stats[0] += 1  # n_est_in_leaf
        if y != majority(leaf.est):
            stats[1] += 1  # n_errors

    def on_leaf_split(self, tree, parent, left, right, t: int) -> None:
        """Retire a just-split leaf, enroll its children, refill capacity.

        While the tree is smaller than the capacity both children activate;
        at steady state exactly one leaf does.
        """
        self.active_ids.discard(parent.node_id)
        capacity = tree.params.fringe_capacity
        if capacity is None:
            self.active_ids.update((left.node_id, right.node_id))
            return
        for child in (left, right):
            child.stats = [0, 0, tree.total_est_seen]
            self.inactive_ids.add(child.node_id)
        while len(self.active_ids) < capacity and self.inactive_ids:
            if self.activation_hook is not None:
                self.activation_hook(tree)
            self._activate_best(tree, t)
        if len(self.active_ids) > capacity:
            raise InvariantViolation(
                f"fringe capacity exceeded: {len(self.active_ids)} active "
                f"> {capacity}")

    def _activate_best(self, tree, t: int) -> None:
        scored = []
        for node_id in self.inactive_ids:
            leaf = tree.nodes[node_id]
            s, p, e = score(leaf.stats, tree.total_est_seen)
            # node ids are unique, so p and e never take part in the order
            scored.append((-s, leaf.created_at, node_id, p, e))
        scored.sort()
        neg_s, _, chosen_id, p, e = scored[0]
        leaf = tree.nodes[chosen_id]
        record = ActivationRecord(
            t=t, leaf=chosen_id, s_hat=-neg_s, p_hat=p, e_hat=e,
            best_other_s_hat=-scored[1][0] if len(scored) > 1 else None,
            best_other_created_at=scored[1][1] if len(scored) > 1 else None)
        self.inactive_ids.discard(chosen_id)
        self.active_ids.add(chosen_id)
        leaf.stats = None
        tree.pending_activations.append(record)
