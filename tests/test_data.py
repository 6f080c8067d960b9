import json
import math

import numpy as np
import pytest

from conftest import write_config
from orf.cli import main
from orf.core import RngStream
from orf.data import (Dataset, MixtureOfGaussians, MogComponent, ParseError,
                      align_pair, parse_libsvm, stream_schedule)


def dump_libsvm(ds: Dataset) -> str:
    """Dense emission; parsing it back reproduces the Dataset exactly."""
    lines = []
    for p in ds.points:
        label = ds.labels[p.y]
        parts = [repr(label) if not isinstance(label, int) else str(label)]
        parts += [f"{i + 1}:{v!r}" for i, v in enumerate(p.x)]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def mog_to_json(gen: MixtureOfGaussians) -> dict:
    """The spec `MixtureOfGaussians.from_json` reads back."""
    return {"n_classes": gen.n_classes,
            "components": [{"weight": c.weight, "mean": list(c.mean),
                            "var": list(c.var), "label": c.label}
                           for c in gen.components]}


def bayes_predict(gen: MixtureOfGaussians, x) -> int:
    return int(gen.bayes_predict_batch(np.asarray(x)[None, :])[0])


class TestParser:
    def test_basic_line(self):
        ds = parse_libsvm("3 1:0.5 4:-1.2")
        assert ds.n_features == 4
        assert ds.n_classes == 1
        assert ds.labels == [3]
        (p,) = ds.points
        assert p.x == (0.5, 0.0, 0.0, -1.2)
        assert p.y == 0

    def test_label_remap_sorted(self):
        ds = parse_libsvm("1 2:1\n-1 1:1")
        assert ds.labels == [-1, 1]
        assert [p.y for p in ds.points] == [1, 0]
        assert ds.points[0].x == (0.0, 1.0)
        assert ds.points[1].x == (1.0, 0.0)

    def test_round_trip(self):
        ds = parse_libsvm("2 1:0.25 3:-7.5\n9 2:1e-3\n2 1:4 2:5 3:6")
        assert parse_libsvm(dump_libsvm(ds)) == ds

    def test_round_trip_preserves_dim_with_trailing_zero(self):
        ds = parse_libsvm("1 3:0\n1 1:2")
        assert ds.n_features == 3
        assert parse_libsvm(dump_libsvm(ds)) == ds

    @pytest.mark.parametrize("text, fragment", [
        ("", "empty input"),
        ("1 2:1\n\n1 1:1", "line 2"),
        ("x 1:1", "line 1: non-numeric label"),
        ("1 1:one", "line 1: non-numeric"),
        ("1 1", "index:value"),
        ("1 2:1 2:3", "line 1: index 2 not strictly increasing"),
        ("1 3:1 2:5", "not strictly increasing"),
        ("1 0:1", "not strictly increasing"),
        ("nan 1:1", "non-finite label"),
        ("1 1:inf", "non-finite value"),
        ("1\n2", "no features"),
    ])
    def test_rejects_malformed(self, text, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_libsvm(text)

    def test_align_pair(self):
        train = parse_libsvm("5 1:1 3:1\n7 1:2")
        test = parse_libsvm("7 4:1\n6 1:1")
        train2, test2 = align_pair(train, test)
        assert train2.n_features == test2.n_features == 4
        assert train2.labels == test2.labels == [5, 6, 7]
        assert [p.y for p in train2.points] == [0, 2]
        assert [p.y for p in test2.points] == [2, 1]
        assert train2.points[0].x == (1.0, 0.0, 1.0, 0.0)


class TestSchedule:
    def _ds(self, n=3):
        text = "\n".join(f"{i % 2} 1:{i}" for i in range(n))
        return parse_libsvm(text)

    def test_two_passes_multiset(self):
        ds = self._ds()
        out = stream_schedule(ds, 2, RngStream(3))
        assert len(out) == 6
        for p in ds.points:
            assert out.count(p) == 2

    def test_deterministic_and_actually_shuffles(self):
        ds = self._ds(50)
        a = stream_schedule(ds, 2, RngStream(9))
        b = stream_schedule(ds, 2, RngStream(9))
        c = stream_schedule(ds, 2, RngStream(10))
        assert a == b
        assert a != c
        assert a[:50] != a[50:]  # passes shuffled independently

    def test_bad_passes(self):
        with pytest.raises(ValueError):
            stream_schedule(self._ds(), 0, RngStream(1))


def two_component_line():
    return MixtureOfGaussians(
        [MogComponent(0.5, (-1.0,), (1.0,), 0),
         MogComponent(0.5, (1.0,), (1.0,), 1)], n_classes=2)


class TestMixture:
    # explicit ids keep the names these two cases have always had
    @pytest.mark.parametrize("path, value, fragment", [
        pytest.param("weight", "0.5",
                     "components[0].weight must be a finite number",
                     id="weight-0.5-finite numbers"),
        pytest.param("weight", True,
                     "components[0].weight must be a finite number",
                     id="weight-True-finite numbers"),
        ("mean", "ab", "finite numbers"),
        ("mean", [0.0, None], "finite numbers"),
        ("var", [1.0, math.inf], "finite numbers"),
        ("label", 1.0, "label must be an integer"),
        ("label", False, "label must be an integer"),
        ("n_classes", "2", "n_classes must be an integer"),
        ("weight", "1", "components[0].weight must be a finite number"),
        ("weight", None, "components[0].weight must be a finite number"),
        ("mean", [True, 0.0], "components[0].mean entries must be finite"),
        ("mean", ["1", 0.0], "components[0].mean entries must be finite"),
        ("var", [True, 1.0], "components[0].var entries must be finite"),
        ("var", ["1", 1.0], "components[0].var entries must be finite"),
        ("var", [None, 1.0], "components[0].var entries must be finite"),
        ("label", True, "components[0].label must be an integer"),
        ("label", 1.5, "components[0].label must be an integer"),
        ("label", "1", "components[0].label must be an integer"),
        ("n_classes", True, "n_classes must be an integer"),
        ("n_classes", 1.5, "n_classes must be an integer"),
    ])
    def test_from_json_rejects_mistyped_entries(self, tmp_path, capsys, path,
                                                value, fragment):
        """A mistyped spec entry makes `orf train` exit 3 (data error)
        with a message naming the entry."""
        doc = {"n_classes": 1, "components": [
            {"weight": 1.0, "mean": [0.0, 0.0], "var": [1.0, 1.0],
             "label": 0}]}
        if path == "n_classes":
            doc[path] = value
        else:
            doc["components"][0][path] = value
        (tmp_path / "spec.json").write_text(json.dumps(doc))
        cfg = write_config(tmp_path, data={"kind": "mog", "spec": "spec.json"})
        assert main(["train", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: bad mixture spec")
        assert fragment in err
        assert not (tmp_path / "out").exists()

    def test_weights_normalized_and_validated(self):
        gen = MixtureOfGaussians(
            [MogComponent(2.0, (0.0,), (1.0,), 0),
             MogComponent(6.0, (1.0,), (1.0,), 1)], 2)
        assert [c.weight for c in gen.components] == [0.25, 0.75]
        with pytest.raises(ValueError):
            MixtureOfGaussians([MogComponent(1.0, (0.0,), (1.0,), 3)], 2)
        with pytest.raises(ValueError):
            MixtureOfGaussians([MogComponent(-1.0, (0.0,), (1.0,), 0)], 1)
        with pytest.raises(ValueError, match="0 to 9999999999999, each"):
            MixtureOfGaussians([MogComponent(1.0, (0.0,), (1.0,), 0)],
                               10 ** 13)
        with pytest.raises(ValueError, match="at least one dimension"):
            MixtureOfGaussians([MogComponent(1.0, (), (), 0)], 1)

    def test_degenerate_weight_and_variance(self):
        gen = MixtureOfGaussians(
            [MogComponent(1.0, (2.5,), (0.0,), 0),
             MogComponent(0.0, (9.0,), (1.0,), 1)], 2)
        pts = gen.sample(RngStream(1), 200)
        assert all(p.y == 0 for p in pts)
        assert all(abs(p.x[0] - 2.5) < 1e-4 for p in pts)

    def test_component_fractions(self):
        gen = MixtureOfGaussians(
            [MogComponent(0.3, (0.0,), (1.0,), 0),
             MogComponent(0.7, (0.0,), (1.0,), 1)], 2)
        n = 100_000
        pts = gen.sample(RngStream(5), n)
        frac0 = sum(p.y == 0 for p in pts) / n
        assert abs(frac0 - 0.3) < 0.01

    def test_json_round_trip(self):
        gen = two_component_line()
        clone = MixtureOfGaussians.from_json(mog_to_json(gen))
        assert mog_to_json(clone) == mog_to_json(gen)


class TestBayesOracle:
    def test_tie_and_dominance(self):
        gen = two_component_line()
        assert bayes_predict(gen, (0.0,)) == 0  # exact tie -> smaller index
        assert bayes_predict(gen, (2.0,)) == 1
        assert bayes_predict(gen, (-2.0,)) == 0

    def test_accuracy_matches_normal_cdf(self):
        gen = two_component_line()
        n = 100_000
        pts = gen.sample(RngStream(12), n)
        X = [p.x for p in pts]
        pred = gen.bayes_predict_batch(X)
        acc = sum(int(pr) == p.y for pr, p in zip(pred, pts)) / n
        # P(correct) = Phi(1), from the error function directly
        expect = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
        assert abs(acc - expect) < 0.005

    def test_multiclass_scores_cover_all_classes(self):
        gen = MixtureOfGaussians(
            [MogComponent(0.4, (0.0, 0.0), (1.0, 1.0), 0),
             MogComponent(0.3, (2.0, 0.0), (1.0, 1.0), 1),
             MogComponent(0.3, (0.0, 2.0), (1.0, 1.0), 2)], 3)
        assert bayes_predict(gen, (0.0, 0.0)) == 0
        assert bayes_predict(gen, (3.0, 0.0)) == 1
        assert bayes_predict(gen, (0.0, 3.0)) == 2
