import json
import math
import pathlib
import shutil

import pytest

from conftest import make_params, shrink_factor_check
from orf.core import LabeledPoint, RngStream
from orf.experiment import (ExperimentConfig, MogSource, load_data,
                            run_experiment)

MOG_SPEC = str(pathlib.Path(__file__).resolve().parents[1]
               / "configs" / "mog5.json")
from orf.evaluation import (clip_box_from_points, consistency_report,
                            evaluate, load_run_artifacts, probe_stats)
from orf.forest import OnlineForest
from orf.tree import InternalNode, Leaf, OnlineTree


def constant_forest(label, num_trees=3, C=2):
    forest = OnlineForest(make_params(num_trees=num_trees, master_seed=1), 2, C)
    for tree in forest.trees:
        counts = [0] * C
        counts[label] = 1
        tree.nodes[0].est, tree.nodes[0].n_est = counts, 1
    return forest


def pts(labels):
    return [LabeledPoint((0.1, 0.2), y) for y in labels]


class TestEvaluate:
    def test_constant_forest_on_pure_test(self):
        forest = constant_forest(0)
        acc, tree_accs = evaluate(forest, pts([0, 0, 0, 0]))
        assert acc == 1.0
        assert tree_accs == [1.0, 1.0, 1.0]

    def test_single_tree_forest_accuracy_equals_tree(self):
        forest = constant_forest(1, num_trees=1)
        acc, tree_accs = evaluate(forest, pts([0, 1, 1, 0]))
        assert acc == tree_accs[0] == 0.5

    def test_half_right(self):
        forest = constant_forest(0)
        acc, _ = evaluate(forest, pts([0, 1] * 10))
        assert acc == 0.5

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            evaluate(constant_forest(0), [])


class TestLeafDiameter:
    def _tree(self, *splits):
        """A tree cut by `splits`, (dim, threshold) pairs: the first at the
        root, each later one in the left child of the one before."""
        tree = OnlineTree(make_params(), 2, 2, RngStream(1))
        node_id = 0
        for dim, thr in splits:
            left = len(tree.nodes)
            tree.nodes[node_id] = InternalNode(dim, thr, left, left + 1)
            tree.nodes += [Leaf(left, 1, [0, 0], 0, [0], 0),
                           Leaf(left + 1, 1, [0, 0], 0, [0], 0)]
            node_id = left
        return tree

    def test_root_clipped_to_unit_square(self):
        tree = self._tree()
        leaf, diameter = tree.cell_diameter((0.5, 0.5), [(0.0, 1.0)] * 2)
        assert leaf is tree.nodes[0]
        assert diameter == pytest.approx(math.sqrt(2))

    def test_partial_cell(self):
        # a cell that only one split has cut: (-inf, 0.5] x (-inf, inf)
        tree = self._tree((0, 0.5))
        leaf, diameter = tree.cell_diameter((0.2, 0.2), [(-5.0, 5.0)] * 2)
        assert leaf is tree.nodes[1]
        assert diameter == pytest.approx(math.sqrt(130.25))
        _, diameter = tree.cell_diameter((0.2, 0.2), [(0.0, 5.0), (0.0, 1.0)])
        assert diameter == pytest.approx(math.sqrt(1.25))

    def test_degenerate_cell(self):
        """A cell outside the box adds no edge: (-inf, 0.5]^2 misses
        [0.6, 1]^2 entirely, and [0.6, 1] x [0, 1] but for one edge."""
        tree = self._tree((0, 0.5), (1, 0.5))
        leaf, diameter = tree.cell_diameter((0.2, 0.2), [(0.6, 1.0)] * 2)
        assert leaf is tree.nodes[3] and diameter == 0.0
        _, diameter = tree.cell_diameter((0.2, 0.2), [(0.6, 1.0), (0.0, 1.0)])
        assert diameter == 0.5

    def test_probe_stats_on_fresh_forest(self):
        forest = constant_forest(0, num_trees=2)
        box = [(0.0, 2.0), (0.0, 1.0)]
        med, min_est, med_est = probe_stats(forest, [(0.5, 0.5)], box)
        assert med == pytest.approx(math.sqrt(5.0))
        assert min_est == med_est == 1


class TestClipBox:
    def test_margin_expansion(self):
        box = clip_box_from_points(pts([0, 0]) + [LabeledPoint((0.5, 1.2), 0)],
                                   margin=0.1)
        (lo0, hi0), (lo1, hi1) = box
        assert (lo0, hi0) == pytest.approx((0.1 - 0.04, 0.5 + 0.04))
        assert (lo1, hi1) == pytest.approx((0.2 - 0.1, 1.2 + 0.1))


class TestShrinkFactor:
    @pytest.mark.parametrize("m", [1, 5, 10])
    def test_matches_closed_form(self, m):
        mean, stderr = shrink_factor_check(m, 100_000, 100 + m)
        assert abs(mean - (2 * m + 1) / (2 * m + 2)) < 3 * stderr

    def test_monotone_in_m_toward_one(self):
        means = [shrink_factor_check(m, 40_000, 7)[0]
                 for m in (1, 4, 16, 64)]
        assert all(b > a for a, b in zip(means, means[1:]))
        assert means[-1] > 0.99

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            shrink_factor_check(0, 10, 1)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    config = ExperimentConfig(
        hyperparams=make_params(num_trees=3, master_seed=11,
                                fringe_capacity=25),
        data=MogSource(spec=MOG_SPEC, test_points=400),
        checkpoints=(300, 800, 1500), runs=1, out_dir=str(out),
        probe_points=64, clip_sample=300)
    ctx = load_data(config)
    run_experiment(config, ctx, 0)
    return out / "run00"


class TestConsistencyReport:
    def test_clean_run_passes(self, small_run):
        audit = consistency_report(load_run_artifacts(small_run))
        assert audit.ok, audit.hard_failures
        assert any("diameter" in n for n in audit.notes)

    def test_zero_split_run_keeps_box_diameter(self, tmp_path):
        config = ExperimentConfig(
            hyperparams=make_params(num_trees=2, master_seed=5,
                                    alpha_base=1e6),  # unreachable gate
            data=MogSource(spec=MOG_SPEC, test_points=50),
            checkpoints=(100, 200), runs=1, out_dir=str(tmp_path),
            probe_points=16, clip_sample=100)
        ctx = load_data(config)
        res = run_experiment(config, ctx, 0)
        assert [c.split_count for c in res.checkpoints] == [0, 0]
        diams = [c.median_diameter for c in res.checkpoints]
        assert diams[0] == pytest.approx(diams[1])
        audit = consistency_report(
            load_run_artifacts(tmp_path / "run00"))
        assert audit.ok

    def test_validity_gate_detector(self, small_run, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(small_run, broken)
        path = broken / "splits.csv"
        lines = path.read_text().splitlines()
        parts = lines[1].split(",")
        parts[-1] = "0"  # right child estimation count below any alpha
        lines[1] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        audit = consistency_report(load_run_artifacts(broken))
        assert not audit.ok
        assert any("validity gate" in f for f in audit.hard_failures)

    def test_split_budget_detector(self, small_run, tmp_path):
        broken = tmp_path / "broken2"
        shutil.copytree(small_run, broken)
        run_doc = json.loads((broken / "run.json").read_text())
        run_doc["checkpoints"][-1]["per_tree"][0]["splits"] = 10 ** 9
        (broken / "run.json").write_text(json.dumps(run_doc))
        audit = consistency_report(load_run_artifacts(broken))
        assert any("split budget" in f for f in audit.hard_failures)

    def test_split_count_regression_detector(self, small_run, tmp_path):
        broken = tmp_path / "broken3"
        shutil.copytree(small_run, broken)
        path = broken / "curves.csv"
        lines = path.read_text().splitlines()
        cols = lines[0].split(",")
        idx = cols.index("split_count")
        last = lines[-1].split(",")
        last[idx] = "0"
        lines[-1] = ",".join(last)
        path.write_text("\n".join(lines) + "\n")
        audit = consistency_report(load_run_artifacts(broken))
        assert any("decreased" in f for f in audit.hard_failures)

    def test_missing_artifacts(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run_artifacts(tmp_path)
