"""Exit criteria, each at its stated tolerance, one pass/fail line apiece.

The synthetic-mixture experiment (criteria 1, 2, 5c, 7) runs the shipped
configs/fig1_mog.json exactly as committed; its artifacts are shared
across the criteria that audit them.
"""

import dataclasses
import json
import math
import pathlib
import time

import pytest

from conftest import cand, drive, leaf_cells_in_order, load_tiny_fixture, \
    make_params, shrink_factor_check, synthetic_stream, tree_skeleton
from orf.core import HyperParams, LabeledPoint, RngStream, StreamAssignment, alpha
from orf.experiment import (ExperimentConfig, MogSource, load_data, run_all,
                            run_experiment)
from orf.forest import OnlineForest
from orf.tree import Leaf, OnlineTree, information_gain

REPO = pathlib.Path(__file__).resolve().parents[1]
E, S = StreamAssignment.ESTIMATION, StreamAssignment.STRUCTURE


def note(criterion, ok, detail=""):
    print(f"\n[acceptance] criterion {criterion}: "
          f"{'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def fig1_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    config = ExperimentConfig.load(REPO / "configs" / "fig1_mog.json")
    config = dataclasses.replace(config, out_dir=str(out))
    assert config.runs == 5 and config.checkpoints == (1000, 5000, 20000)
    assert config.hyperparams.num_trees == 10
    t0 = time.monotonic()
    results = run_all(config)
    elapsed = time.monotonic() - t0
    return config, results, elapsed


def test_criterion_1_forest_dominates_trees(fig1_runs):
    config, results, elapsed = fig1_runs
    p = config.hyperparams
    assert (p.lam, p.m, p.tau) == (1.0, 10, 0.001)
    assert (p.alpha_base, p.alpha_growth, p.beta_multiplier) == \
        (1.0, 1.1, 1000.0)
    dominated = sum(r.checkpoints[-1].forest_accuracy
                    >= r.checkpoints[-1].mean_tree_accuracy for r in results)
    gap_ok = all(r.checkpoints[-1].forest_accuracy
                 <= r.checkpoints[-1].bayes_accuracy + 0.01
                 for r in results)
    ok = dominated >= 4 and gap_ok and elapsed < 120
    note(1, ok, f"dominated {dominated}/5 runs, bayes gap ok={gap_ok}, "
                f"runtime {elapsed:.1f}s < 120s")
    assert dominated >= 4
    assert gap_ok
    assert elapsed < 120


def test_criterion_2_consistency_trend(fig1_runs):
    _, results, _ = fig1_runs
    shrink_ok = True
    grow_ok = True
    for r in results:
        diams = [c.median_diameter for c in r.checkpoints]
        ests = [c.median_est_count for c in r.checkpoints]
        shrink_ok &= diams[-1] < 0.8 * diams[0]
        grow_ok &= all(b > a for a, b in zip(ests, ests[1:]))
    ok = shrink_ok and grow_ok
    note(2, ok, f"diameter shrink<0.8x ok={shrink_ok}, "
                f"estimation count strictly increasing ok={grow_ok}")
    assert shrink_ok and grow_ok


def test_criterion_3_shrink_factor_identity():
    t0 = time.monotonic()
    failures = []
    for m in (1, 5, 10):
        mean, stderr = shrink_factor_check(m, 100_000, 4000 + m)
        expected = (2 * m + 1) / (2 * m + 2)
        if abs(mean - expected) >= 3 * stderr:
            failures.append((m, mean, expected, stderr))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 5
    note(3, ok, f"m in {{1,5,10}} within 3 SE, runtime {elapsed:.2f}s < 5s")
    assert not failures, failures
    assert elapsed < 5


def test_criterion_4_tiny_trace_oracle_equivalence():
    doc, stream = load_tiny_fixture()
    p = doc["params"]
    params = make_params(lam=p["lambda"], m=p["m"], tau=p["tau"],
                         alpha_base=p["alpha_base"],
                         alpha_growth=p["alpha_growth"],
                         beta_multiplier=p["beta_multiplier"])
    tree = OnlineTree(params, doc["n_features"], doc["n_classes"],
                      RngStream(0))
    splits, _ = drive(tree, stream)
    got_splits = [{"t": s.t, "depth": s.depth, "threshold": s.threshold,
                   "gain": s.gain, "left_est": s.left_est,
                   "right_est": s.right_est} for s in splits]
    got_leaves = [{"depth": l.depth,
                   "lo": None if math.isinf(c[0][0]) else c[0][0],
                   "hi": None if math.isinf(c[0][1]) else c[0][1],
                   "est": l.est}
                  for l, c in leaf_cells_in_order(tree)]
    ok = (got_splits == doc["expected"]["splits"]
          and got_leaves == doc["expected"]["leaves"])
    note(4, ok, f"{len(got_splits)} splits and {len(got_leaves)} leaf "
                f"histograms match the hand-simulated trace")
    assert got_splits == doc["expected"]["splits"]
    assert got_leaves == doc["expected"]["leaves"]


def test_criterion_5a_information_gain_bounds():
    rng = RngStream(555)
    worst = 0.0
    for _ in range(10_000):
        C = rng.randint(2, 7)
        ls, rs = ([rng.randint(0, 40) for _ in range(C)] for _ in range(2))
        g = information_gain(cand(0, 0.5, ls, rs, C=C))
        assert 0.0 <= g <= math.log2(C) + 1e-9
        worst = max(worst, g - math.log2(C))
    note("5a", True, "gain within [0, log2 C] on 10^4 random histograms")


def test_criterion_5b_estimation_label_permutation():
    perm = [2, 0, 1]
    checked = 0
    for seed in range(20):
        base = synthetic_stream(1000 + seed, 500, n_classes=3)
        permuted = [(x, perm[y] if tag is E else y, tag)
                    for x, y, tag in base]
        skel = []
        for stream in (base, permuted):
            tree = OnlineTree(make_params(m=4, lam=1.0, beta_multiplier=30.0),
                              2, 3, RngStream(9000 + seed))
            drive(tree, stream)
            skel.append(tree_skeleton(tree))
        assert skel[0] == skel[1], f"partition changed under relabeling, seed {seed}"
        checked += 1
    note("5b", True, f"partition bit-identical under estimation relabeling "
                     f"on {checked} seeded runs")


def test_criterion_5c_validity_gate_in_logs(fig1_runs):
    config, results, _ = fig1_runs
    params = config.hyperparams
    n_rows = 0
    for r in results:
        lines = (r.run_dir / "splits.csv").read_text().splitlines()
        header = lines[0].split(",")
        di, li, ri = (header.index(k) for k in ("depth", "left_est",
                                                "right_est"))
        for line in lines[1:]:
            parts = line.split(",")
            a = alpha(params, int(parts[di]))
            assert int(parts[li]) >= a and int(parts[ri]) >= a
            n_rows += 1
    note("5c", True, f"{n_rows} logged splits all satisfy the "
                     f"alpha(depth) validity gate")


def test_criterion_5d_fringe_capacity_and_argmax():
    params = make_params(m=3, lam=1.0, alpha_base=1.0, alpha_growth=1.2,
                         beta_multiplier=8.0, fringe_capacity=3)
    tree = OnlineTree(params, 2, 2, RngStream(42))
    snapshots = []

    def hook(tr):
        snap = []
        for node in tr.nodes:
            if type(node) is Leaf and node.stats is not None:
                n_in, n_err, created = node.stats
                p = n_in / max(1, tr.total_est_seen - created)
                e = n_err / max(1, n_in)
                snap.append((-(p * e), node.created_at, node.node_id))
        snapshots.append(sorted(snap))

    tree.fringe.activation_hook = hook
    stream = synthetic_stream(4242, 3000)
    for i, (x, y, tag) in enumerate(stream, start=1):
        tree.update(x, y, tag, i)
        assert len(tree.fringe.active_ids) <= 3
    _, activations = tree.drain_events()
    assert len(activations) >= 10
    for snap, rec in zip(snapshots, activations):
        assert rec.leaf == snap[0][2]
    note("5d", True, f"capacity 3 never exceeded over {len(stream)} points; "
                     f"all {len(activations)} activations are argmax s-hat")


def test_criterion_5e_unbounded_fringe_equivalence():
    stream = synthetic_stream(777, 2000)
    docs = []
    for capacity in (None, 10 ** 9):
        params = make_params(num_trees=2, m=3, beta_multiplier=10.0,
                             fringe_capacity=capacity, master_seed=99)
        forest = OnlineForest(params, 2, 2)
        forest.update_stream([LabeledPoint(x, y) for x, y, _ in stream])
        docs.append(json.dumps([t.to_doc() for t in forest.trees]))
    ok = docs[0] == docs[1]
    note("5e", ok, "fringe capacity 10^9 build bit-identical to disabled")
    assert ok


def test_criterion_5f_byte_identical_serialization(tmp_path):
    blobs = []
    for _ in range(3):
        cfg = ExperimentConfig(
            hyperparams=make_params(num_trees=4, m=4, master_seed=31,
                                    beta_multiplier=50.0),
            data=MogSource(str(REPO / "configs" / "mog5.json"), 300),
            checkpoints=(1500,), runs=1,
            out_dir=str(tmp_path / f"x{len(blobs)}"), probe_points=16,
            clip_sample=300)
        run_all(cfg)
        blobs.append((pathlib.Path(cfg.out_dir) / "run00" /
                      "forest.json.gz").read_bytes())
    ok = blobs[0] == blobs[1] == blobs[2]
    note("5f", ok, "serialized forest byte-identical across three "
                   "executions")
    assert ok


def test_criterion_6_usps_desk_scale():
    train = REPO / "data" / "usps"
    test = REPO / "data" / "usps.t"
    if not (train.exists() and test.exists()):
        print("\n[acceptance] criterion 6: SKIP (data/usps{,.t} not present; "
              "fetch with scripts/fetch_usps.py)")
        pytest.skip("USPS data not present; run scripts/fetch_usps.py first")
    config = ExperimentConfig.load(REPO / "configs" / "usps.json")
    assert config.hyperparams.num_trees == 25 and config.passes == 2
    assert (config.hyperparams.lam, config.hyperparams.m,
            config.hyperparams.tau) == (10.0, 10, 0.1)
    ctx = load_data(config)
    t0 = time.monotonic()
    res = run_experiment(config, ctx, 0)
    elapsed = time.monotonic() - t0
    acc = res.checkpoints[-1].forest_accuracy
    ok = acc >= 0.80 and elapsed < 600
    note(6, ok, f"test accuracy {acc:.4f} >= 0.80, "
                f"runtime {elapsed:.0f}s < 600s")
    assert acc >= 0.80
    assert elapsed < 600


def test_criterion_7_split_budget(fig1_runs):
    config, results, _ = fig1_runs
    a1 = alpha(config.hyperparams, 1)
    checked = 0
    for r in results:
        run_doc = json.loads((r.run_dir / "run.json").read_text())
        for cp in run_doc["checkpoints"]:
            for tr in cp["per_tree"]:
                assert tr["splits"] <= tr["est_seen"] / (2 * a1) + 1
                checked += 1
    note(7, True, f"K <= N^e/(2*alpha(1)) + 1 held for {checked} "
                  f"(tree, checkpoint) pairs across 5 runs")
