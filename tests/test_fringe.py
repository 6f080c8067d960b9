import json

import pytest

from conftest import drive, leaves, make_params, synthetic_stream
from orf.core import RngStream, StreamAssignment
from orf.fringe import score
from orf.tree import InternalNode, Leaf, OnlineTree

E, S = StreamAssignment.ESTIMATION, StreamAssignment.STRUCTURE


def scored(in_leaf, errors, in_tree, created=1000):
    """score() of a leaf created when the tree had seen `created` points,
    after `in_tree` more arrived."""
    return score([in_leaf, errors, created], created + in_tree)


@pytest.mark.parametrize("in_leaf, errors, in_tree, expect", [
    (50, 25, 500, 0.05),
    (0, 0, 100, 0.0),
    (40, 0, 400, 0.0),   # pure leaf: e-hat = 0
])
def test_s_hat(in_leaf, errors, in_tree, expect):
    assert scored(in_leaf, errors, in_tree)[0] == pytest.approx(expect)


def test_s_hat_factors():
    s, p, e = scored(50, 25, 500)
    assert p == pytest.approx(0.1)
    assert e == pytest.approx(0.5)
    assert s == p * e
    # a leaf created at the tree's start has the tree's whole count
    assert scored(50, 25, 500, created=0) == (s, p, e)
    # no arrivals yet: both denominators are clamped to 1
    assert scored(0, 0, 0) == (0.0, 0.0, 0.0)


class TestRecordArrival:
    def _leaf(self, counts):
        leaf = Leaf(0, 1, list(counts), sum(counts), [0], 0)
        leaf.stats = [0, 0, 0]
        return leaf

    def _tree_stub(self):
        return OnlineTree(make_params(fringe_capacity=4), 1, 2, RngStream(0))

    @pytest.mark.parametrize("counts, y, expect_errors", [
        ([3, 1], 0, 0),   # majority 0, agreeing arrival
        ([3, 1], 1, 1),
        ([2, 2], 1, 1),   # majority tie -> class 0
        ([2, 2], 0, 0),
    ])
    def test_error_against_current_majority(self, counts, y, expect_errors):
        tree = self._tree_stub()
        leaf = self._leaf(counts)
        tree.fringe.record_estimation_arrival(leaf, y)
        assert leaf.stats == [1, expect_errors, 0]


def grow_bounded_tree(capacity, n=900, seed=19, tree_seed=8):
    params = make_params(m=3, lam=1.0, alpha_base=1.0, alpha_growth=1.2,
                         beta_multiplier=8.0, fringe_capacity=capacity)
    tree = OnlineTree(params, 2, 2, RngStream(tree_seed))
    drive(tree, synthetic_stream(seed, n))
    return tree


class TestActivationPolicy:
    def test_capacity_and_partition_of_leaves(self):
        tree = grow_bounded_tree(capacity=3)
        assert tree.split_count > 4
        active = [l for l in leaves(tree) if l.stats is None]
        inactive = [l for l in leaves(tree) if l.stats is not None]
        assert len(active) <= 3
        assert {l.node_id for l in active} == tree.fringe.active_ids
        assert {l.node_id for l in inactive} == tree.fringe.inactive_ids
        n_split = sum(type(n) is InternalNode for n in tree.nodes)
        assert tree.split_count == n_split
        assert len(active) + len(inactive) + n_split == len(tree.nodes)
        assert all(l.stats is not None for l in inactive)
        assert all(l.stats is None for l in active)
        for l in inactive:
            n_est_in_leaf, n_errors, est_tree_at_creation = l.stats
            lifetime = tree.total_est_seen - est_tree_at_creation
            assert n_errors <= n_est_in_leaf <= lifetime

    def test_every_activation_is_argmax(self):
        """Independent shadow check: recompute s-hat over the leaves found by
        scanning the node arena (not the fringe's own inactive set) right
        before each activation, then compare with the choice made."""
        from orf import fringe as fringe_mod
        params = make_params(m=3, lam=1.0, alpha_base=1.0, alpha_growth=1.2,
                             beta_multiplier=8.0, fringe_capacity=2)
        tree = OnlineTree(params, 2, 2, RngStream(4))
        snapshots = []

        def hook(tr):
            snap = []
            for node in tr.nodes:
                if type(node) is Leaf and node.stats is not None:
                    n_in, n_err, created = node.stats
                    p = n_in / max(1, tr.total_est_seen - created)
                    e = n_err / max(1, n_in)
                    snap.append((-(p * e), node.created_at, node.node_id,
                                 p, e))
            snapshots.append(sorted(snap))

        tree.fringe.activation_hook = hook
        _, activations = drive(tree, synthetic_stream(23, 1200))
        assert len(activations) >= 4
        assert len(snapshots) == len(activations)
        for snap, rec in zip(snapshots, activations):
            neg_s, created, node_id, p, e = snap[0]
            assert rec.leaf == node_id
            assert rec.s_hat == pytest.approx(-neg_s)
            assert (rec.p_hat, rec.e_hat) == pytest.approx((p, e))
            if len(snap) > 1:
                assert rec.best_other_s_hat == pytest.approx(-snap[1][0])

    def test_sibling_tie_breaks_to_smaller_id(self):
        params = make_params(fringe_capacity=1, m=1, lam=0.0,
                             beta_multiplier=2.0)
        tree = OnlineTree(params, 1, 2, RngStream(2))
        # split the root: two children appear with identical (zero) scores
        _, (rec,) = drive(tree, [((0.5,), 0, S), ((0.3,), 0, E),
                                 ((0.8,), 1, E), ((0.6,), 1, S)])
        inactive_id = next(iter(tree.fringe.inactive_ids))
        chosen, passed_over = tree.nodes[rec.leaf], tree.nodes[inactive_id]
        assert rec.s_hat == 0.0
        assert chosen.created_at == passed_over.created_at
        assert chosen.node_id < passed_over.node_id

    def test_score_tie_breaks_to_older_leaf(self):
        params = make_params(fringe_capacity=2)
        tree = OnlineTree(params, 1, 2, RngStream(3))
        tree.total_est_seen = 100
        leaves = []
        for created_at in (7, 3):  # insertion order is not creation order
            leaf = Leaf(len(tree.nodes), 1, [0, 0], 0, [0], created_at)
            # identical scores: p-hat = 10/100, e-hat = 5/10
            leaf.stats = [10, 5, 0]
            tree.nodes.append(leaf)
            tree.fringe.inactive_ids.add(leaf.node_id)
            leaves.append(leaf)
        tree.fringe._activate_best(tree, t=200)
        _, (rec,) = tree.drain_events()
        assert rec.leaf == leaves[1].node_id  # created_at 3 wins over 7
        assert rec.s_hat == pytest.approx(0.05)
        assert rec.best_other_s_hat == pytest.approx(0.05)
        assert rec.best_other_created_at == 7


class TestUnboundedEquivalence:
    def test_huge_capacity_matches_disabled(self):
        stream = synthetic_stream(41, 1000)
        docs = []
        for capacity in (None, 10 ** 9):
            params = make_params(m=3, lam=1.0, beta_multiplier=10.0,
                                 fringe_capacity=capacity)
            tree = OnlineTree(params, 2, 2, RngStream(6))
            drive(tree, stream)
            doc = tree.to_doc()
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_huge_capacity_activates_children_immediately(self):
        tree = grow_bounded_tree(capacity=10 ** 9)
        assert all(l.stats is None for l in leaves(tree))
