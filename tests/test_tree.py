import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (cand, cand_fields, drive, leaf_cells,
                      leaf_cells_in_order, leaves, load_tiny_fixture,
                      make_params, synthetic_stream, tree_skeleton)
from orf.core import InvariantViolation, RngStream, StreamAssignment
from orf.tree import (_TABLE_SIZE, InternalNode, Leaf, OnlineTree, _best_valid, create_candidate_splits,
                      information_gain, must_split)

E, S, SKIP = (StreamAssignment.ESTIMATION, StreamAssignment.STRUCTURE,
              StreamAssignment.SKIP)


def set_est(leaf, counts):
    leaf.est, leaf.n_est = list(counts), sum(counts)


def bare_leaf(depth=0, C=2, dims=(0,), est=None):
    leaf = Leaf(0, depth, [0] * C, 0, list(dims), 0)
    if est:
        set_est(leaf, est)
    return leaf


def new_tree(params=None, D=2, C=2, seed=7):
    params = params or make_params()
    return OnlineTree(params, D, C, RngStream(seed))


def gate_tree(cands, est=None, **over):
    """Tree whose root holds exactly `cands` and takes no new candidates:
    with m = 1 and one candidate dimension per candidate, the root has
    projected its one structure point."""
    tree = new_tree(make_params(m=1, **over))
    root = tree.nodes[0]
    root.candidate_splits = cands
    root.candidate_dims = [cand_fields(s).dim for s in cands]
    if est:
        set_est(root, est)
    return tree


@pytest.mark.parametrize("ls, rs, expect", [
    ([4, 0], [0, 4], 1.0),
    ([2, 2], [2, 2], 0.0),
    ([4, 0], [1, 3], 0.548795),
    ([0, 0], [0, 0], 0.0),
])
def test_information_gain(ls, rs, expect):
    assert information_gain(cand(ls=ls, rs=rs)) == pytest.approx(expect, abs=1e-6)


def test_information_gain_bounds_random():
    rng = RngStream(13)
    for _ in range(2000):
        C = rng.randint(2, 6)
        s = cand(ls=[rng.randint(0, 30) for _ in range(C)],
                 rs=[rng.randint(0, 30) for _ in range(C)], C=C)
        g = information_gain(s)
        assert 0.0 <= g <= math.log2(C) + 1e-9


@given(ls=st.lists(st.integers(0, 50), min_size=2, max_size=5),
       rs=st.lists(st.integers(0, 50), min_size=2, max_size=5))
@settings(max_examples=200)
def test_gain_never_exceeds_parent_entropy(ls, rs):
    n = min(len(ls), len(rs))
    s = cand(ls=ls[:n], rs=rs[:n], C=n)
    parent = [a + b for a, b in zip(ls[:n], rs[:n])]
    assert information_gain(s) <= reference_entropy(parent) + 1e-9


# The entropy and gain loops as they stood before the table-driven kernel:
# the kernel must reproduce them bit for bit, not approximately.
def reference_entropy(counts):
    n = sum(counts)
    if n == 0:
        return 0.0
    acc = 0.0
    occupied = 0
    for c in counts:
        if c:
            occupied += 1
            acc += c * math.log2(c)
    if occupied <= 1:
        return 0.0
    v = math.log2(n) - acc / n
    return v if v > 0.0 else 0.0


def reference_gain(ls, rs):
    nl, nr = sum(ls), sum(rs)
    n = nl + nr
    if n == 0:
        return 0.0
    g = reference_entropy([a + b for a, b in zip(ls, rs)])
    if nl:
        g -= nl / n * reference_entropy(ls)
    if nr:
        g -= nr / n * reference_entropy(rs)
    return g if g > 0.0 else 0.0


# counts on both sides of the kernel's table bound, up to about 10^5
count = st.one_of(st.integers(0, 40), st.integers(0, 5000),
                  st.integers(_TABLE_SIZE - 40, _TABLE_SIZE + 40),
                  st.integers(4000, 100_000))


@st.composite
def split_counts(draw):
    """(ls, rs) with C in [2, 12]; sides may be empty, pure or mixed."""
    C = draw(st.integers(2, 12))

    def side():
        kind = draw(st.sampled_from(["empty", "pure", "mixed"]))
        if kind == "empty":
            return [0] * C
        if kind == "pure":
            counts = [0] * C
            counts[draw(st.integers(0, C - 1))] = draw(count)
            return counts
        return draw(st.lists(count, min_size=C, max_size=C))
    return side(), side()


@given(split_counts())
@settings(max_examples=1000)
def test_gain_kernel_bit_identical_to_reference(sides):
    ls, rs = sides
    assert information_gain(cand(ls=ls, rs=rs, C=len(ls))) == \
        reference_gain(ls, rs)


class TestGates:
    def test_split_is_valid_boundaries(self):
        p = make_params(alpha_base=3.0, alpha_growth=1.1)  # alpha(0)=3
        leaf = bare_leaf()

        def valid(s, params):
            leaf.candidate_splits = [s]
            return _best_valid(leaf, params)[0] is s

        assert valid(cand(le=[2, 1], re=[3, 0]), p)
        assert not valid(cand(le=[4, 1], re=[2, 0]), p)
        p1 = make_params(alpha_base=1.0)
        assert not valid(cand(le=[0, 0], re=[2, 2]), p1)

    def test_should_split_strict_inequality(self):
        # the structure point below goes right, leaving ([1,1] vs [0,2]),
        # parent [1,3]: a gain of about 0.3113 bits
        g = information_gain(cand(ls=[1, 1], rs=[0, 2]))
        for tau, splits in ((g / 2, True), (g, False)):  # "> tau" is strict
            tree = gate_tree([cand(ls=[1, 1], rs=[0, 1],
                                   le=[2, 2], re=[2, 2])], tau=tau)
            tree.update((0.9, 0.0), 1, S, 1)
            recs, _ = tree.drain_events()
            assert [r.gain for r in recs] == ([g] if splits else [])

    def test_must_split_threshold(self):
        p = make_params(alpha_base=1.0, beta_multiplier=10.0)  # beta(0)=10
        leaf = bare_leaf(est=[6, 3])
        assert not must_split(leaf, p)
        set_est(leaf, [7, 3])
        assert must_split(leaf, p)

    def test_can_split_needs_candidates(self):
        leaf = bare_leaf(est=[50, 50])
        assert _best_valid(leaf, make_params()) == (None, -1.0)
        # past beta(0) = 1, but a leaf without candidates cannot split
        tree = gate_tree([], est=[50, 50], beta_multiplier=1.0)
        assert must_split(tree.nodes[0], tree.params)
        tree.update((0.9, 0.0), 1, S, 1)
        assert tree.drain_events() == ([], [])
        assert tree.split_count == 0


class TestBestSplit:
    def test_argmax_and_tie_and_validity(self):
        p = make_params(alpha_base=1.0)
        leaf = bare_leaf()
        weak = cand(ls=[3, 1], rs=[1, 3], le=[1, 1], re=[1, 1])
        strong = cand(ls=[4, 0], rs=[0, 4], le=[1, 1], re=[1, 1])
        invalid = cand(ls=[9, 0], rs=[0, 9], le=[0, 0], re=[9, 9])
        leaf.candidate_splits = [weak, strong, invalid]
        best, gain = _best_valid(leaf, p)
        assert best is strong and gain == 1.0
        twin = cand(dim=1, ls=[4, 0], rs=[0, 4], le=[1, 1], re=[1, 1])
        leaf.candidate_splits = [invalid, twin, strong]
        # twin and strong tie at gain 1.0; twin comes first in the list
        assert _best_valid(leaf, p)[0] is twin
        # the tree splits on the same choice; the structure point goes
        # right under both, so they still tie
        tree = gate_tree([invalid, twin, strong], tau=0.5, alpha_base=1.0)
        tree.update((0.9, 0.9), 1, S, 1)
        (rec,), _ = tree.drain_events()
        assert rec.dim == cand_fields(twin).dim

    def test_no_valid_candidate_raises(self):
        tree = gate_tree([cand(le=[0, 0], re=[5, 5])], beta_multiplier=1.0)
        leaf = tree.nodes[0]
        assert _best_valid(leaf, tree.params) == (None, -1.0)
        tree.update((0.9, 0.0), 1, S, 1)
        assert tree.drain_events() == ([], [])
        # the split itself re-checks the alpha gate
        with pytest.raises(InvariantViolation, match="validity gate"):
            tree._perform_split(leaf, leaf.candidate_splits[0], 0.0, 2)


class TestCandidateCreation:
    def test_projection_single_dim(self):
        leaf = bare_leaf(dims=[2])
        create_candidate_splits(leaf, (9.0, 9.0, 4.0), 2)
        (s,) = map(cand_fields, leaf.candidate_splits)
        assert (s.dim, s.threshold) == (2, 4.0)
        assert sum(s.ls) == s.nle == 0

    def test_projection_two_dims(self):
        leaf = bare_leaf(dims=[0, 1])
        create_candidate_splits(leaf, (1.0, 2.0), 2)
        assert [(s.dim, s.threshold) for s in
                map(cand_fields, leaf.candidate_splits)] == [(0, 1.0), (1, 2.0)]
        # creation order is list order: a later point's candidates follow
        create_candidate_splits(leaf, (3.0, 4.0), 2)
        assert [(s.dim, s.threshold) for s in
                map(cand_fields, leaf.candidate_splits)] == \
            [(0, 1.0), (1, 2.0), (0, 3.0), (1, 4.0)]

    def test_m_limits_split_points(self):
        tree = new_tree(make_params(m=1, lam=0.0), D=1)
        tree.update((0.5,), 0, S, 1)
        tree.update((0.8,), 1, S, 2)
        (leaf,) = leaves(tree)
        assert leaf.candidate_dims == [0]
        assert [cand_fields(s).threshold for s in leaf.candidate_splits] == \
            [0.5]


class TestRouting:
    def test_single_leaf(self):
        tree = new_tree()
        assert tree.route((0.1, 0.2)) is tree.nodes[0]
        assert tree.route((100.0, -5.0)) is tree.nodes[0]

    def test_boundary_goes_left(self):
        tree = new_tree(make_params(m=1, lam=0.0, alpha_base=1.0,
                                    beta_multiplier=2.0), D=2)
        # force a split at dim drawn by the tree's rng; drive manually instead
        leaf = tree.route((0.5, 0.5))
        leaf.candidate_dims = [0]
        tree.update((0.5, 0.0), 0, S, 1)        # candidate (dim 0, thr 0.5)
        tree.update((0.2, 0.0), 0, E, 2)
        tree.update((0.9, 0.0), 1, E, 3)
        tree.update((0.7, 0.0), 1, S, 4)        # valid + gain 1 -> split
        (rec,), _ = tree.drain_events()
        assert rec.threshold == 0.5
        left, right = tree.route((0.5, 123.0)), tree.route((0.5000001, 0.0))
        assert left is not right
        cells = leaf_cells(tree)
        assert cells[left.node_id][0] == (-math.inf, 0.5)
        assert cells[right.node_id][0] == (0.5, math.inf)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            new_tree().route((0.1,))
        with pytest.raises(ValueError):
            new_tree().route((0.1, 0.2, 0.3))
        with pytest.raises(ValueError):
            new_tree().cell_diameter((0.1,), [(0.0, 1.0)] * 2)

    def test_cell_matches_route_and_tree_walk(self):
        tree = new_tree(make_params(m=4, lam=1.0, beta_multiplier=20.0),
                        seed=9)
        stream = synthetic_stream(21, 800)
        drive(tree, stream)
        assert tree.split_count > 5
        cells = leaf_cells(tree)
        for x, _, _ in stream[::7]:
            cell = cells[tree.route(x).node_id]
            assert all(lo < v <= hi for v, (lo, hi) in zip(x, cell))

    def test_cell_diameter_is_the_clipped_walked_cell(self):
        """cell_diameter lands on route's leaf, and its diameter equals, as
        a float, that of the leaf's depth-first cell clipped to the box."""
        tree = new_tree(make_params(m=4, lam=1.0, beta_multiplier=20.0),
                        seed=9)
        stream = synthetic_stream(21, 800)
        drive(tree, stream)
        assert tree.split_count > 5
        cells = leaf_cells(tree)
        box = [(0.1, 0.8), (-0.2, 1.1)]
        outside = 0
        for x, _, _ in stream[::3]:
            leaf, diameter = tree.cell_diameter(x, box)
            assert leaf is tree.route(x)
            acc = 0.0
            for (lo, hi), (clo, chi) in zip(cells[leaf.node_id], box):
                edge = min(hi, chi) - max(lo, clo)
                outside += edge <= 0
                acc += edge * edge if edge > 0 else 0.0
            assert diameter == math.sqrt(acc)
        assert outside


class TestUpdate:
    def test_estimation_into_fresh_root(self):
        tree = new_tree()
        tree.update((0.3, 0.3), 1, E, 1)
        assert tree.drain_events() == ([], [])
        assert (tree.nodes[0].est, tree.nodes[0].n_est) == ([0, 1], 1)

    def test_skip_is_noop(self):
        tree = new_tree()
        drive(tree, synthetic_stream(3, 60))
        before = json.dumps(tree.to_doc())
        tree.update((0.5, 0.5), 1, SKIP, 999)
        assert tree.drain_events() == ([], [])
        assert json.dumps(tree.to_doc()) == before

    def test_structure_ignored_in_inactive_leaf(self):
        tree = new_tree(make_params(fringe_capacity=1, m=1, lam=0.0,
                                    beta_multiplier=2.0), D=1, seed=3)
        drive(tree, [((0.5,), 0, E), ((0.6,), 1, E), ((0.4,), 0, S),
                     ((0.2,), 0, E), ((0.8,), 1, E), ((0.3,), 0, S)])
        # root split; capacity 1 -> one child active, one inactive
        inactive = [l for l in leaves(tree) if l.stats is not None]
        assert len(inactive) == 1
        lo, hi = leaf_cells(tree)[inactive[0].node_id][0]
        x = ((lo + hi) / 2 if math.isfinite(lo + hi)
             else (lo + 1 if math.isfinite(lo) else hi - 1))
        tree.update((x,), 0, S, 100)
        assert inactive[0].candidate_splits == []


class TestSplit:
    def _split_tree(self):
        tree = new_tree(make_params(m=2, lam=0.0, alpha_base=1.0), D=1, seed=1)
        drive(tree, [((0.5,), 0, S), ((0.3,), 0, E), ((0.8,), 1, E),
                     ((0.6,), 1, S)])
        return tree

    def test_children_inherit_candidate_est_counts(self):
        tree = self._split_tree()
        assert tree.split_count == 1
        (left, _), (right, _) = leaf_cells_in_order(tree)
        assert (left.est, left.n_est) == ([1, 0], 1)
        assert (right.est, right.n_est) == ([0, 1], 1)
        assert left.depth == right.depth == 1

    def test_parent_candidates_discarded_and_children_fresh(self):
        tree = self._split_tree()
        for leaf in leaves(tree):
            assert leaf.candidate_splits == []

    def test_routing_after_split(self):
        tree = self._split_tree()
        thr = tree.nodes[0].threshold
        assert leaf_cells(tree)[tree.route((thr,)).node_id][0][1] == thr


class TestPrediction:
    def test_predicts_majority_class(self):
        tree = new_tree(D=2, C=3)
        set_est(tree.nodes[0], [3, 5, 2])
        assert tree.predict_class((0.0, 0.0)) == 1

    def test_empty_leaf_uniform_and_class_zero(self):
        tree = new_tree(D=2, C=4)
        assert tree.predict_class((0.0, 0.0)) == 0

    def test_tie_breaks_to_smaller_index(self):
        tree = new_tree(D=2, C=2)
        set_est(tree.nodes[0], [4, 4])
        assert tree.predict_class((0.0, 0.0)) == 0
        set_est(tree.nodes[0], [0, 4])
        assert tree.predict_class((0.0, 0.0)) == 1


class TestTinyTrace:
    """Replay of the hand-simulated 40-point fixture (independent oracle)."""

    def _run(self):
        doc, stream = load_tiny_fixture()
        p = doc["params"]
        params = make_params(lam=p["lambda"], m=p["m"], tau=p["tau"],
                             alpha_base=p["alpha_base"],
                             alpha_growth=p["alpha_growth"],
                             beta_multiplier=p["beta_multiplier"])
        tree = OnlineTree(params, doc["n_features"], doc["n_classes"],
                          RngStream(0))
        splits, _ = drive(tree, stream)
        return doc, tree, splits

    def test_split_times_thresholds_depths(self):
        doc, tree, splits = self._run()
        expect = doc["expected"]["splits"]
        assert [(s.t, s.depth, s.threshold) for s in splits] == \
            [(e["t"], e["depth"], e["threshold"]) for e in expect]
        assert [(s.left_est, s.right_est) for s in splits] == \
            [(e["left_est"], e["right_est"]) for e in expect]
        for got, exp in zip(splits, expect):
            assert got.gain == pytest.approx(exp["gain"], abs=1e-9)

    def test_final_leaves(self):
        doc, tree, _ = self._run()
        got = []
        for leaf, cell in leaf_cells_in_order(tree):
            lo, hi = cell[0]
            got.append({"depth": leaf.depth,
                        "lo": None if math.isinf(lo) else lo,
                        "hi": None if math.isinf(hi) else hi,
                        "est": leaf.est})
        assert got == doc["expected"]["leaves"]


class TestStreamIsolation:
    def _sums(self, tree):
        est = struct = 0
        for leaf in leaves(tree):
            assert leaf.n_est == sum(leaf.est)
            est += leaf.n_est
            for s in map(cand_fields, leaf.candidate_splits):
                assert (s.nle, s.nre) == (sum(s.le), sum(s.re))
                est += s.nle + s.nre
                struct += sum(s.ls) + sum(s.rs)
        return est, struct

    def test_tagged_counters(self):
        tree = new_tree(make_params(m=3, lam=1.0, alpha_base=1.0,
                                    beta_multiplier=5.0), seed=5)
        t = 0
        for x, y, tag in synthetic_stream(11, 400):
            est0, struct0 = self._sums(tree)
            leaf = tree.route(x)
            n_cand_containing = sum(1 for _ in leaf.candidate_splits)
            t += 1
            tree.update(x, y, tag, t)
            split_made = bool(tree.drain_events()[0])
            est1, struct1 = self._sums(tree)
            if tag is SKIP:
                assert (est1, struct1) == (est0, struct0)
            elif tag is E:
                assert struct1 == struct0
                assert est1 == est0 + 1 + n_cand_containing
            else:
                # structure arrivals never raise estimation mass; splits
                # discard the unsplit candidates' estimation counts
                assert est1 <= est0
                if not split_made:
                    assert est1 == est0


class TestCandidateBudget:
    def test_every_leaf_within_budget(self):
        params = make_params(m=4, lam=1.5, beta_multiplier=15.0)
        tree = new_tree(params, D=3, seed=2)
        t = 0
        for x, y, tag in synthetic_stream(29, 700, n_features=3):
            t += 1
            tree.update(x, y, tag, t)
            leaf = tree.route(x)
            dims = leaf.candidate_dims
            assert 1 <= len(dims) <= 3
            assert len(set(dims)) == len(dims)
            assert all(0 <= d < 3 for d in dims)
            # one candidate per dimension for each projected point, and at
            # most m points projected
            assert len(leaf.candidate_splits) % len(dims) == 0
            assert len(leaf.candidate_splits) <= params.m * len(dims)


class TestMonotoneRefinement:
    def test_query_cell_never_grows(self):
        tree = new_tree(make_params(m=4, lam=1.0), seed=9)
        probes = [(0.21, 0.77), (0.5, 0.5), (0.99, 0.01)]

        def cell(p):
            return leaf_cells(tree)[tree.route(p).node_id]

        prev = {p: cell(p) for p in probes}
        t = 0
        for x, y, tag in synthetic_stream(21, 600):
            t += 1
            tree.update(x, y, tag, t)
            for p in probes:
                ext = cell(p)
                for (lo0, hi0), (lo1, hi1) in zip(prev[p], ext):
                    assert lo1 >= lo0 and hi1 <= hi0
                prev[p] = ext


class TestLabelPermutationInvariance:
    def test_partition_identical_under_estimation_relabeling(self):
        perm = [1, 0]
        params = make_params(m=5, lam=1.0, beta_multiplier=50.0)
        streams = []
        base = synthetic_stream(17, 800)
        streams.append(base)
        streams.append([(x, perm[y] if tag is E else y, tag)
                        for x, y, tag in base])
        skeletons = []
        for stream in streams:
            tree = new_tree(params, seed=123)
            drive(tree, stream)
            skeletons.append(tree_skeleton(tree))
        assert skeletons[0] == skeletons[1]


class TestSerialization:
    def test_round_trip_and_exact_resume(self):
        # capacity 3 leaves most leaves inactive at the reload, so their
        # counters are restored and activations happen after it
        for capacity in (None, 3):
            params = make_params(m=3, lam=1.0, beta_multiplier=20.0,
                                 fringe_capacity=capacity)
            stream = synthetic_stream(31, 1500)
            tree = new_tree(params, seed=77)
            drive(tree, stream[:500])
            doc = json.loads(json.dumps(tree.to_doc(), allow_nan=False))
            # the forest derives the shape and the seed; the doc moves it
            clone = OnlineTree.from_doc(doc, params, 2, 2, RngStream(77))
            assert json.dumps(clone.to_doc()) == json.dumps(tree.to_doc())
            assert clone.split_count == tree.split_count == sum(
                type(n) is InternalNode for n in tree.nodes)
            splits, activations = drive(tree, stream[500:], t0=500)
            assert drive(clone, stream[500:], t0=500) == \
                (splits, activations)
            assert json.dumps(clone.to_doc()) == json.dumps(tree.to_doc())
            assert splits
            assert bool(activations) == (capacity is not None)
            # cells are derived from the restored split nodes
            assert leaf_cells(clone) == leaf_cells(tree)
