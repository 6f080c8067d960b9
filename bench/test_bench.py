"""Fast test of the benchmark: every workload end to end at tiny sizes, in
both modes, and checks that flag broken outputs.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import gzip
import json
import pathlib
import shutil
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TINY = {"fig1": [300, 1000], "fringe": [1000, 3000]}


def tiny(name: str, tmp: pathlib.Path) -> run.Workload:
    """The workload with its job shrunk to a few thousand point-trees."""
    w = run.WORKLOADS[name]
    doc = json.loads(w.config.read_text())
    doc["data"]["spec"] = str((w.config.parent / doc["data"]["spec"])
                              .resolve())
    doc["data"]["test_points"] = 100
    doc["checkpoints"] = TINY[name]
    doc["runs"] = min(doc["runs"], 2)
    doc["probe_points"] = 16
    config = tmp / f"{name}.json"
    config.write_text(json.dumps(doc))
    return dataclasses.replace(w, config=config, heldout=200,
                               predict_passes=1, steps=1200)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return {(name, trace): run.measure(tiny(name, tmp), 0, 0.0, trace,
                                       tmp / f"{name}-{trace}")
            for name in run.WORKLOADS for trace in (False, True)}, tmp


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean(outputs, name, trace):
    (result, code), tmp = outputs[0][(name, trace)], outputs[1]
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    group = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), k
        if not trace:
            assert v["value"] > 0, k


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _first_run(outputs, name):
    return outputs[1] / f"{name}-False" / "run00"


def test_alpha_gate_check_bites(outputs):
    rows = checks.read_csv(_first_run(outputs, "fig1") / "splits.csv")
    hp = json.loads((_first_run(outputs, "fig1") / "run.json")
                    .read_text())["params"]
    assert rows and checks.check_splits(rows, hp) == []
    row = dict(rows[-1])
    a = checks.alpha(hp["alpha_base"], hp["alpha_growth"], int(row["depth"]))
    row["left_est"] = str(a - 1)
    assert checks.check_splits([row], hp)


def test_budget_and_capacity_checks_bite(outputs):
    run_doc = json.loads((_first_run(outputs, "fringe") / "run.json")
                         .read_text())
    hp = run_doc["params"]
    assert checks.check_run_summary(run_doc, hp) == []
    tr = run_doc["checkpoints"][-1]["per_tree"][0]
    tr["active"] = hp["fringe_capacity"] + 1
    tr["splits"] = tr["est_seen"]
    assert len(checks.check_run_summary(run_doc, hp)) == 2


def test_activation_check_bites(outputs):
    rows = checks.read_csv(_first_run(outputs, "fringe") / "activations.csv")
    assert rows and checks.check_activations(rows) == []
    row = next(r for r in rows if r["best_other_s_hat"])
    row = dict(row, best_other_s_hat=repr(float(row["s_hat"]) + 1e-3))
    assert checks.check_activations([row])


def test_estimation_share_check_bites():
    hp = {"p_structure": 0.5, "p_skip": 0.0}
    assert checks.estimation_share(5000, 10000, hp) == []
    assert checks.estimation_share(5300, 10000, hp)


def test_accuracy_check_bites():
    assert checks.check_accuracy("x", 0.75, 0.76, 0.28, 2000) == []
    assert checks.check_accuracy("x", 0.30, 0.76, 0.28, 2000)
    assert checks.check_accuracy("x", 0.85, 0.76, 0.28, 2000)


def test_route_and_vote_checks_bite(outputs, monkeypatch):
    path = _first_run(outputs, "fig1") / "forest.json.gz"
    from orf.forest import OnlineForest
    forest = OnlineForest.load(path)
    doc = json.loads(gzip.decompress(path.read_bytes()))
    mog = json.loads((BENCH.parent / "configs" / "mog5.json").read_text())
    xs = [tuple(c["mean"]) for c in mog["components"]]
    assert checks.check_routes(doc, forest, xs) == []
    assert checks.check_vote(forest, xs) == []
    for td in doc["trees"]:
        for nd in td["nodes"]:
            if nd["kind"] == "split":
                nd["left"], nd["right"] = nd["right"], nd["left"]
    assert checks.check_routes(doc, forest, xs)
    monkeypatch.setattr(type(forest), "predict",
                        lambda self, x: self.n_classes - 1)
    assert checks.check_vote(forest, xs)


def test_bayes_matches_a_direct_density():
    spec = json.loads((BENCH.parent / "configs" / "mog5.json").read_text())
    bayes = checks.Bayes(spec)
    x = (0.3, -0.4)
    dens = [0.0] * spec["n_classes"]
    for c in spec["components"]:
        p = c["weight"]
        for xi, m, v in zip(x, c["mean"], c["var"]):
            p *= (2 * 3.141592653589793 * v) ** -0.5 \
                * 2.718281828459045 ** (-(xi - m) ** 2 / (2 * v))
        dens[c["label"]] += p
    assert bayes.predict([x])[0] == dens.index(max(dens))


def test_missing_callable_reads_missing_not_zero(monkeypatch, tmp_path):
    targets = [t if t[0] != "tree.gain" else
               ("tree.gain", "orf.tree", "information_gain_renamed", None)
               for t in run.TRACE_TARGETS]
    monkeypatch.setattr(run, "TRACE_TARGETS", targets)
    result, code = run.measure(tiny("fringe", tmp_path), 0, 0.0, True,
                               tmp_path / "out")
    assert code == 0 and result["correct"]
    for name in ("tree.gain_s", "tree.gain_evals", "tree.gain_evals_per_check"):
        assert result["metrics"][name]["value"] is None
        assert result["metrics"][name]["missing"] == "tree.gain"
    assert result["metrics"]["tree.splits"]["value"] > 0


def test_output_comparison_bites(outputs, tmp_path):
    base = outputs[1] / "fig1-True"
    copy = tmp_path / "traced"
    shutil.copytree(base / "traced", copy)
    assert run.compare_outputs(base / "plain", copy) == []
    splits = copy / "run00" / "splits.csv"
    splits.write_text(splits.read_text().replace(",", ";", 1))
    assert run.compare_outputs(base / "plain", copy)
