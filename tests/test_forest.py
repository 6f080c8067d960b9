import gzip
import io
import json
import math
import time
import tracemalloc

import pytest

from conftest import cand_fields, leaves, make_params, synthetic_stream
from orf.core import LabeledPoint, RngStream
from orf.forest import OnlineForest
from orf.tree import OnlineTree


def points_from_stream(stream):
    return [LabeledPoint(x, y) for x, y, _ in stream]


def grown_forest(num_trees=3, n=400, seed=101, **over):
    params = make_params(num_trees=num_trees, m=3, beta_multiplier=20.0,
                         master_seed=seed, **over)
    forest = OnlineForest(params, 2, 2)
    forest.update_stream(points_from_stream(synthetic_stream(7, n)))
    return forest


def _child_before_parent(leaf):
    """[leaf, split -> 3, leaf, split -> 1, leaf]: every node but the root
    is one split's child, but node 1's parent comes after it, so nodes 1 to
    4 hang in a cycle that the root, a leaf, cannot reach."""
    split = {"kind": "split", "dim": 0, "threshold": 0.5}
    return [{**leaf, "depth": 0}, {**split, "left": 3, "right": 4},
            {**leaf, "depth": 0}, {**split, "left": 1, "right": 2},
            {**leaf, "depth": 1}]


class TestUpdate:
    def test_single_tree_forest_equals_tree(self):
        params = make_params(num_trees=1, m=3, master_seed=5)
        forest = OnlineForest(params, 2, 2)
        from orf.core import assign_stream
        solo = OnlineTree(params, 2, 2, RngStream(5).child(0))
        t = 0
        for x, y, _ in synthetic_stream(9, 300):
            forest.update(LabeledPoint(x, y))
            t += 1
            solo.update(x, y, assign_stream(solo.rng, params), t)
        assert json.dumps(forest.trees[0].to_doc()) == json.dumps(solo.to_doc())

    def test_trees_differ_under_same_master_seed(self):
        forest = grown_forest(num_trees=2)
        a, b = (json.dumps(t.to_doc()) for t in forest.trees)
        assert a != b

    def test_skip_heavy_stream_changes_nothing(self):
        params = make_params(num_trees=2, p_structure=1e-9, p_skip=1 - 2e-9,
                             master_seed=3)
        forest = OnlineForest(params, 2, 2)
        before = [json.dumps(t.to_doc()) for t in forest.trees]
        forest.update_stream(points_from_stream(synthetic_stream(1, 500)))
        # rng state advances (assignment draws) but tree content does not
        after = [json.dumps({**t.to_doc(), "rng": None}) for t in forest.trees]
        before = [json.dumps({**json.loads(d), "rng": None}) for d in before]
        assert before == after

    def test_point_validation(self):
        forest = OnlineForest(make_params(num_trees=1), 2, 2)
        # one feature rule for training and prediction: length and finiteness
        for x in [(0.0,), (0.0, 0.0, 0.0), (math.nan, 0.0), (math.inf, 0.0),
                  (0.0, -math.inf)]:
            with pytest.raises(ValueError):
                forest.update(LabeledPoint(x, 0))
            with pytest.raises(ValueError):
                forest.predict(x)
        with pytest.raises(ValueError):
            forest.update(LabeledPoint((0.0, 0.0), 7))
        assert forest.t == 0

    @pytest.mark.parametrize("bad", [
        [LabeledPoint((math.nan, 0.0), 0)] * 200,
        [LabeledPoint((0.5, 0.5), 7)],
    ], ids=["nan_features", "label_out_of_range"])
    def test_update_stream_rejects_bad_batch_untouched(self, bad):
        forest = OnlineForest(make_params(num_trees=2, master_seed=5), 2, 5)
        good = points_from_stream(synthetic_stream(3, 100, n_classes=5))
        forest.update_stream(good)
        before = forest.to_bytes()
        # the bad point comes after enough good ones to move every tree
        with pytest.raises(ValueError):
            forest.update_stream(good + bad)
        assert forest.t == 100
        assert forest.to_bytes() == before

    def test_update_stream_failure_propagates_and_keeps_t(self):
        forest = OnlineForest(make_params(num_trees=3, master_seed=5), 2, 2)
        tree = forest.trees[1]
        calls = []

        def failing_update(*args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("tree 1 failed")
            return OnlineTree.update(tree, *args)

        tree.update = failing_update
        with pytest.raises(RuntimeError, match="tree 1 failed"):
            forest.update_stream(points_from_stream(synthetic_stream(3, 10)))
        # tree 0 took the batch, tree 1 two points, tree 2 none: the
        # forest is to be discarded, and its t says nothing moved
        assert forest.t == 0
        assert len(calls) == 3

    def test_huge_lambda_trains_fast_with_every_dimension(self):
        D = 4
        params = make_params(num_trees=2, lam=1e12, m=2, master_seed=3)
        forest = OnlineForest(params, D, 2)
        stream = points_from_stream(synthetic_stream(5, 500, n_features=D))
        t0 = time.monotonic()
        forest.update_stream(stream)
        assert time.monotonic() - t0 < 2.0
        grown = [l for tree in forest.trees for l in leaves(tree)]
        assert len(grown) > len(forest.trees)
        assert all(sorted(l.candidate_dims) == list(range(D)) for l in grown)


class TestPredict:
    def _rig_votes(self, forest, votes):
        for tree, v in zip(forest.trees, votes):
            counts = [0] * forest.n_classes
            counts[v] = 1
            tree.nodes[0].est, tree.nodes[0].n_est = counts, 1

    def test_majority(self):
        forest = OnlineForest(make_params(num_trees=5, master_seed=1), 2, 3)
        self._rig_votes(forest, [2, 2, 0, 1, 2])
        assert forest.vote_counts((0.5, 0.5)) == [1, 1, 3]
        assert forest.predict((0.5, 0.5)) == 2

    def test_tie_to_smaller_class(self):
        forest = OnlineForest(make_params(num_trees=2, master_seed=1), 2, 2)
        self._rig_votes(forest, [1, 0])
        assert forest.predict((0.5, 0.5)) == 0

    def test_vote_counts_sum_to_m(self):
        forest = grown_forest(num_trees=7)
        for x in [(0.1, 0.9), (0.8, 0.2), (0.5, 0.5)]:
            assert sum(forest.vote_counts(x)) == 7

    def test_single_tree_vote_equals_tree_prediction(self):
        forest = grown_forest(num_trees=1)
        for x in [(0.3, 0.3), (0.9, 0.9)]:
            assert forest.predict(x) == forest.trees[0].predict_class(x)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        blobs = []
        for _ in range(3):
            params = make_params(num_trees=4, m=3, master_seed=99)
            forest = OnlineForest(params, 2, 2)
            forest.update_stream(points_from_stream(synthetic_stream(55, 600)))
            blobs.append(forest.to_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_pointwise_equals_batched(self):
        params = make_params(num_trees=3, m=3, master_seed=31)
        pts = points_from_stream(synthetic_stream(77, 300))
        a = OnlineForest(params, 2, 2)
        for p in pts:
            a.update(p)
        b = OnlineForest(params, 2, 2)
        b.update_stream(pts)
        assert a.to_bytes() == b.to_bytes()


class TestSerialization:
    def test_bytes_round_trip_and_resume(self):
        # capacity 3 leaves most leaves inactive at the reload, so their
        # counters are restored and activations happen after it
        for capacity in (None, 3):
            forest = grown_forest(num_trees=3, n=600, fringe_capacity=capacity)
            for tree in forest.trees:
                tree.drain_events()
            blob = forest.to_bytes()
            clone = OnlineForest.from_bytes(blob)
            assert clone.to_bytes() == blob
            more = points_from_stream(synthetic_stream(8, 900))
            forest.update_stream(more)
            clone.update_stream(more)
            assert clone.to_bytes() == forest.to_bytes()
            events = [tree.drain_events() for tree in forest.trees]
            assert [tree.drain_events() for tree in clone.trees] == events
            activations = [a for _, acts in events for a in acts]
            assert bool(activations) == (capacity is not None)

    def test_save_load(self, tmp_path):
        forest = grown_forest(num_trees=2)
        path = tmp_path / "forest.json.gz"
        forest.save(path)
        assert OnlineForest.load(path).to_bytes() == forest.to_bytes()

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            OnlineForest.from_doc({"format": "other"})

    @pytest.mark.parametrize("inactive", [False, True])
    def test_rejects_active_flag_that_disagrees_with_stats(self, inactive):
        """A leaf is active exactly when it has no "stats"; a document
        saying otherwise is refused at load, not at the next update."""
        doc = grown_forest(num_trees=1, n=600, fringe_capacity=3).to_doc()
        leaves = [nd for nd in doc["trees"][0]["nodes"]
                  if nd["kind"] == "leaf" and ("stats" in nd) is inactive]
        assert leaves and all(nd["active"] is not inactive for nd in leaves)
        leaves[0]["active"] = inactive
        with pytest.raises(ValueError, match=r'^node \d+: "active"'):
            OnlineForest.from_doc(doc)

    @pytest.mark.parametrize("version", [1, 2, 3, 5, None])
    def test_rejects_other_versions(self, version):
        doc = grown_forest(num_trees=1).to_doc()
        doc["version"] = version
        with pytest.raises(ValueError, match="version"):
            OnlineForest.from_doc(doc)

    def test_leaf_layout(self):
        """A candidate is one row [dim, thr, *ls, *rs, *le, *re]; an
        inactive leaf's stats, [n_est_in_leaf, n_errors,
        est_tree_at_creation], have the same layout in memory and on disk; a
        tree stores its counter, RNG position and nodes, nothing else."""
        tree = grown_forest(num_trees=1, n=600, fringe_capacity=3).trees[0]
        doc = tree.to_doc()
        assert list(doc) == ["total_est_seen", "rng", "nodes"]
        assert doc["rng"] == tree.rng.get_state()
        nodes = doc["nodes"]
        leaves_seen = inactive_seen = 0
        for leaf in leaves(tree):
            nd = nodes[leaf.node_id]
            assert nd["cands"] == [[s.dim, s.threshold, *s.ls, *s.rs, *s.le,
                                    *s.re] for s in
                                   map(cand_fields, leaf.candidate_splits)]
            leaves_seen += bool(nd["cands"])
            if leaf.stats is not None:
                n_est_in_leaf, n_errors, _ = leaf.stats
                assert n_errors <= n_est_in_leaf
                assert nd["stats"] == leaf.stats
                inactive_seen += 1
        assert leaves_seen and inactive_seen

    @pytest.mark.parametrize("n", [0, 600])
    def test_to_doc_is_a_snapshot(self, n):
        """Neither training the forest nor training a forest loaded from
        the document changes a document already taken."""
        forest = grown_forest(num_trees=2, n=n, fringe_capacity=3)
        doc = forest.to_doc()
        text = json.dumps(doc)
        clone = OnlineForest.from_doc(doc)
        more = points_from_stream(synthetic_stream(8, 300))
        forest.update_stream(more)
        clone.update_stream(more)
        assert json.dumps(forest.to_doc()) != text
        assert json.dumps(doc) == text

    @pytest.mark.parametrize("key, spoil", [
        ("cands", lambda cands: [cands[0] + [0], *cands[1:]]),
        ("cands", lambda cands: [*cands[:-1], cands[-1][:-1]]),
        ("stats", lambda stats: stats + [0]),
        ("stats", lambda stats: stats[:-1]),
        ("stats", lambda stats: dict(zip("abc", stats))),
        ("cands", lambda cands: [[*cands[0][:2], "a", *cands[0][3:]]]),
        ("cands", lambda cands: [[*cands[0][:-1], 1.5]]),
        ("cands", lambda cands: [[1.0, *cands[0][1:]]]),
        ("cands", lambda cands: [[cands[0][0], math.inf, *cands[0][2:]]]),
        ("depth", lambda depth: "a"),
        ("created_at", lambda t: None),
        ("est", lambda est: [1.5, *est[1:]]),
        ("dims", lambda dims: [0.5, *dims[1:]]),
        ("stats", lambda stats: [stats[0], "1", stats[2]]),
        ("est", lambda est: {}),
        ("est", lambda est: est + [0]),
        ("dims", lambda dims: [2, *dims[1:]]),
        ("cands", lambda cands: [[2, *cands[0][1:]]]),
        ("threshold", lambda thr: "a"),
        ("threshold", lambda thr: math.nan),
        ("dim", lambda dim: 5),
        ("dim", lambda dim: 1.0),
        ("left", lambda left: 0),
        ("right", lambda right: right + 1),
    ], ids=["long_row", "short_row", "long_stats", "short_stats",
            "stats_object", "structure_count_a", "estimation_count_float",
            "candidate_dim_float", "threshold_inf", "depth_a",
            "created_at_null", "est_float", "dims_float", "stats_entry_str",
            "est_object", "est_long", "dims_out_of_range",
            "candidate_dim_out_of_range", "split_threshold_a",
            "split_threshold_nan", "split_dim_out_of_range",
            "split_dim_float", "root_left_own_id", "right_not_left_plus_1"])
    def test_rejects_malformed_leaf(self, key, spoil):
        """Wrong lengths, a v2-style stats object of three keys, an entry
        of the wrong type in a leaf or a candidate row, a dimension outside
        [0, n_features), and a split node's malformed field (the first
        split is the root, so a left of 0 is the root's own id)."""
        doc = grown_forest(num_trees=1, n=600, fringe_capacity=3).to_doc()
        node_id, nd = next((i, nd) for i, nd in
                           enumerate(doc["trees"][0]["nodes"]) if nd.get(key))
        nd[key] = spoil(nd[key])
        with pytest.raises(ValueError, match=f"^node {node_id}: "):
            OnlineForest.from_doc(doc)

    @pytest.mark.parametrize("key, value", [
        ("t", "1"), ("n_features", 2.0), ("trees.total_est_seen", None),
        ("n_classes", 3), ("n_classes", 10 ** 13), ("n_classes", 2 ** 63)])
    def test_rejects_mistyped_counter(self, key, value):
        """A counter of the wrong type, and a forest whose n_classes is not
        the length of its leaves' counts, however large: the reader builds
        nothing from the shape before it has checked a leaf against it."""
        doc = grown_forest(num_trees=1).to_doc()
        part = doc["trees"][0] if key.startswith("trees.") else doc
        part[key.split(".")[-1]] = value
        match = {"n_classes": r"^node \d+: a leaf is malformed"}
        with pytest.raises(ValueError, match=match.get(
                key, f"^{key.split('.')[-1]} must be an integer")):
            OnlineForest.from_doc(doc)

    @pytest.mark.parametrize("n_features", [10 ** 13, 2 ** 63])
    def test_huge_n_features_loads(self, n_features):
        """A dimension is checked against range(n_features), so the reader
        builds nothing of that size: a forest of any width loads, and a
        point of another width is then a ValueError."""
        doc = grown_forest(num_trees=2).to_doc()
        doc["n_features"] = n_features
        forest = OnlineForest.from_doc(doc)
        assert forest.n_features == n_features
        with pytest.raises(ValueError, match=f"^expected {n_features} "):
            forest.predict([0.5, 0.5])

    @pytest.mark.parametrize("rng", [
        [1.5, 0, 0], [-1, 0, 0], [2 ** 128, 0, 0], [2 ** 200, 0, 0],
        [0, 2, 0], [0, True, 0], [0, 0, -1], [0, 0, 2 ** 32], [0, 0, 2 ** 40],
        {"state": 0, "has_uint32": 0, "uinteger": 0}, [0, 0]],
        ids=["state_float", "state_negative", "state_2**128", "state_2**200",
             "has_uint32_2", "has_uint32_true", "uinteger_negative",
             "uinteger_2**32", "uinteger_2**40", "not_a_list", "two_entries"])
    def test_rejects_bad_rng_position(self, rng):
        """A tree's "rng" is its PCG64 position [state, has_uint32,
        uinteger]; one the generator cannot take is a ValueError."""
        doc = grown_forest(num_trees=2).to_doc()
        doc["trees"][1]["rng"] = rng
        with pytest.raises(ValueError,
                           match=r"^rng must be \[state < 2\*\*128, "):
            OnlineForest.from_doc(doc)

    def test_rng_position_bounds_load(self):
        """The largest position of each kind loads, and tree i's stream is
        the seed's child i moved to it."""
        forest = grown_forest(num_trees=2)
        doc = forest.to_doc()
        doc["trees"][1]["rng"] = [2 ** 128 - 1, 1, 2 ** 32 - 1]
        clone = OnlineForest.from_doc(doc)
        assert clone.trees[1].rng.get_state() == doc["trees"][1]["rng"]
        moved = RngStream(forest.params.master_seed).child(1)
        moved.set_state(doc["trees"][1]["rng"])
        assert clone.trees[1].rng.uniform() == moved.uniform()
        assert clone.trees[0].rng.uniform() == forest.trees[0].rng.uniform()

    @pytest.mark.parametrize("spoil, match", [
        (lambda nodes: nodes[-1].update(kind="split"), "KeyError 'dim'"),
        (lambda nodes: nodes.__setitem__(slice(None), _child_before_parent(
            next(nd for nd in nodes if nd["kind"] == "leaf"))),
         "^node 1: no split has it as a child before it"),
        (lambda nodes: next(nd for nd in nodes if nd["kind"] == "leaf")
         .update(depth=5), r"^node \d+: a leaf is malformed"),
        (lambda nodes: next(nd for nd in nodes[1:] if nd["kind"] == "split")
         .update(left=1, right=2), r"^node [1-9]\d*: a split is malformed"),
        (lambda nodes: nodes.append(dict(nodes[-1])),
         r"^node \d+: no split has it as a child"),
        (lambda nodes: nodes.clear(), "^a tree has no nodes"),
        (lambda nodes: nodes.__setitem__(0, []), "TypeError"),
    ], ids=["leaf_kind_split", "child_before_parent", "leaf_depth",
            "second_parent", "orphan", "no_nodes", "node_not_an_object"])
    def test_rejects_broken_tree_structure(self, spoil, match):
        """Every node but the root is the child of exactly one split that
        comes before it, so routing ends at a leaf, and a leaf's depth is
        its parent's + 1; a missing key or a wrong container type is a
        ValueError too."""
        doc = grown_forest(num_trees=1).to_doc()
        spoil(doc["trees"][0]["nodes"])
        with pytest.raises(ValueError, match=match):
            OnlineForest.from_doc(doc)

    def test_rejects_more_active_leaves_than_capacity(self):
        """Loading must not leave a fringe over its capacity, which the
        first split would find."""
        doc = grown_forest(num_trees=1, n=600, fringe_capacity=3).to_doc()
        active = sum(nd.get("active", False)
                     for nd in doc["trees"][0]["nodes"])
        assert active > 1
        doc["params"]["fringe_capacity"] = active - 1
        with pytest.raises(ValueError, match=f"^more than fringe_capacity "
                                             f"{active - 1} leaves active"):
            OnlineForest.from_doc(doc)

    @pytest.mark.parametrize("n_trees", [0, 1, 3])
    def test_rejects_tree_count_not_num_trees(self, n_trees):
        doc = grown_forest(num_trees=2).to_doc()
        doc["trees"] = (doc["trees"] * 2)[:n_trees]
        with pytest.raises(ValueError,
                           match=f"^{n_trees} trees, but num_trees is 2"):
            OnlineForest.from_doc(doc)

    def test_gzip_header(self):
        """GzipFile's header: magic, deflate, mtime 0 and OS byte ff (255,
        unknown) on every Python; gzip.compress writes 03 from 3.11 on."""
        blob = grown_forest(num_trees=1).to_bytes()
        assert blob[:3] == b"\x1f\x8b\x08"
        assert blob[4:8] == b"\x00\x00\x00\x00"
        assert blob[9] == 0xFF

    @pytest.mark.parametrize("num_trees", [1, 3])
    def test_to_bytes_streams_the_one_shot_text(self, num_trees):
        """Written tree by tree, the bytes are those of compressing the
        whole document's text at once."""
        forest = grown_forest(num_trees=num_trees, n=600, fringe_capacity=3)
        text = json.dumps(forest.to_doc(), separators=(",", ":"),
                          allow_nan=False)
        buf = io.BytesIO()
        with gzip.GzipFile(fileobj=buf, mode="wb", compresslevel=6,
                           mtime=0) as zf:
            zf.write(text.encode())
        assert forest.to_bytes() == buf.getvalue()

    @pytest.mark.parametrize("spoil", [
        lambda good: b"garbage",
        lambda good: good[:200],
        lambda good: good[:10] + b"\xff" * 8 + good[18:],  # deflate data
        lambda good: gzip.compress(b"[" * 100_000),
    ], ids=["not_gzip", "truncated", "corrupted", "deeply_nested"])
    def test_from_bytes_raises_only_value_error(self, spoil, tmp_path):
        """Bytes that are not gzip, a cut or corrupted stream and JSON
        nested past the parser's depth are all a ValueError, from
        `from_bytes` and from `load`; a file that cannot be opened is
        still an OSError."""
        blob = spoil(grown_forest(num_trees=1).to_bytes())
        with pytest.raises(ValueError, match="^cannot decode a forest: "):
            OnlineForest.from_bytes(blob)
        path = tmp_path / "forest.json.gz"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="^cannot decode a forest: "):
            OnlineForest.load(path)
        with pytest.raises(FileNotFoundError):
            OnlineForest.load(tmp_path / "missing.json.gz")

    def test_loaded_candidate_memory(self):
        """A loaded candidate is one flat list: at most 350 bytes each under
        tracemalloc at C = 5, where an object with four lists took 515."""
        forest = OnlineForest(make_params(num_trees=2, m=10, master_seed=3),
                              2, 5)
        forest.update_stream(points_from_stream(
            synthetic_stream(7, 3000, n_classes=5)))
        doc = forest.to_doc()
        rows = [nd["cands"] for td in doc["trees"] for nd in td["nodes"]
                if nd["kind"] == "leaf"]
        n_cands = sum(map(len, rows))
        full = forest.to_bytes()
        for cands in rows:
            cands.clear()
        bare = gzip.compress(json.dumps(doc).encode())

        def live_bytes(blob):
            tracemalloc.start()
            try:
                loaded = OnlineForest.from_bytes(blob)
                return tracemalloc.get_traced_memory()[0], loaded
            finally:
                tracemalloc.stop()

        (with_rows, _), (without, _) = live_bytes(full), live_bytes(bare)
        assert n_cands > 1000
        assert (with_rows - without) / n_cands <= 350
