import contextlib
import copy
import dataclasses
import io
import json
import math
import multiprocessing
import os
import pathlib
import tempfile
import time
import warnings

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import orf.experiment
from conftest import MOG_SPEC, make_params, tiny_config_doc, write_config
from orf.cli import main
from orf.core import InvariantViolation
from orf.evaluation import SPLITS_COLUMNS
from orf.experiment import (ConfigError, DataError, ExperimentConfig,
                            LibsvmSource, MogSource, load_data, run_all)


def first_row(text, edit):
    """The CSV text with its first data row replaced by edit(row)."""
    lines = text.split("\n")
    lines[1] = edit(lines[1])
    return "\n".join(lines)


# Every JSON type a typed field must refuse: a bool, a float and a string
# for an integer; a bool, a string and null for a number.
INT_VALUES = (True, 1.5, "1")
NUMBER_VALUES = (True, "1", None)


def with_type_cases(cases, ints=(), numbers=(), wrap=lambda v: v):
    """`cases`, then (key, wrap(value)) for each of INT_VALUES on each key
    in `ints` and each of NUMBER_VALUES on each key in `numbers`, where
    `cases` does not hold that pair already."""
    have = {(key, repr(value)) for key, value in cases}
    extra = [(key, wrap(v)) for keys, values in ((ints, INT_VALUES),
                                                 (numbers, NUMBER_VALUES))
             for key in keys for v in values]
    return cases + [(key, value) for key, value in extra
                    if (key, repr(value)) not in have]


class TestExperimentConfig:
    def test_load_resolves_relative_paths(self, tmp_path):
        cfg = ExperimentConfig.load(write_config(tmp_path))
        assert cfg.out_dir == str(tmp_path / "out")

    @pytest.mark.parametrize("over, fragment", [
        ({"checkpoints": [600, 200]}, "strictly increasing"),
        ({"checkpoints": []}, "nonempty"),
        ({"checkpoints": [0, 5]}, "positive"),
        ({"runs": 0}, "runs"),
        ({"passes": 2}, "passes"),
        ({"bogus_key": 1}, "bogus_key"),
        ({"data": {"kind": "mog", "spec": "x", "wat": 1}}, "wat"),
        ({"data": {"kind": "nope"}}, "kind"),
    ])
    def test_validation(self, tmp_path, over, fragment):
        with pytest.raises(ConfigError, match=fragment):
            ExperimentConfig.load(write_config(tmp_path, **over))

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"runs": 1}))
        with pytest.raises(ConfigError, match=r"missing keys: \['hyperparams'"
                           r", 'data', 'checkpoints', 'out_dir'\]"):
            ExperimentConfig.load(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentConfig.load(path)


class TestDataErrors:
    def test_missing_mog_spec(self):
        cfg = ExperimentConfig(
            hyperparams=make_params(), data=MogSource("no/such.json", 10),
            checkpoints=(10,), runs=1, out_dir="out")
        with pytest.raises(DataError, match="not found"):
            load_data(cfg)

    def test_missing_libsvm_files(self):
        cfg = ExperimentConfig(
            hyperparams=make_params(),
            data=LibsvmSource("no/train", "no/test"),
            checkpoints=(10,), runs=1, out_dir="out")
        with pytest.raises(DataError, match="not found"):
            load_data(cfg)

    def test_unparseable_libsvm(self, tmp_path):
        bad = tmp_path / "train"
        bad.write_text("not a libsvm line\n")
        cfg = ExperimentConfig(
            hyperparams=make_params(),
            data=LibsvmSource(str(bad), str(bad)),
            checkpoints=(10,), runs=1, out_dir="out")
        with pytest.raises(DataError):
            load_data(cfg)


ARTIFACTS = ("curves.csv", "splits.csv", "activations.csv", "forest.json.gz")


def libsvm_config_doc(tmp_path, **over):
    train = tmp_path / "train.libsvm"
    train.write_text("".join(
        f"{i % 3} 1:{(i * 37 % 100) / 100} 2:{(i * 53 % 100) / 100}\n"
        for i in range(60)))
    return tiny_config_doc(
        data={"kind": "libsvm", "train": str(train), "test": str(train)},
        checkpoints=[30], passes=2, **over)


class TestRunAll:
    def test_artifacts_and_byte_identical_reruns(self, tmp_path):
        cfg_path = write_config(tmp_path)
        blobs = {}
        for attempt in range(3):
            out = tmp_path / f"out{attempt}"
            cfg = ExperimentConfig.load(cfg_path)
            cfg = dataclasses.replace(cfg, out_dir=str(out))
            run_all(cfg)
            run_dir = out / "run00"
            assert all((run_dir / n).exists()
                       for n in ARTIFACTS + ("run.json",))
            blobs[attempt] = {n: (run_dir / n).read_bytes()
                              for n in ARTIFACTS}
        assert blobs[0] == blobs[1] == blobs[2]

    def test_curves_have_bayes_column_for_mog(self, tmp_path):
        cfg = ExperimentConfig.load(write_config(tmp_path))
        run_all(cfg)
        header, *rows = (pathlib.Path(cfg.out_dir) / "run00" /
                         "curves.csv").read_text().splitlines()
        cols = header.split(",")
        idx = cols.index("bayes_accuracy")
        assert all(r.split(",")[idx] for r in rows)

    def test_libsvm_curves_leave_bayes_empty(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(libsvm_config_doc(tmp_path)))
        cfg = ExperimentConfig.load(path)
        run_all(cfg)
        header, *rows = (pathlib.Path(cfg.out_dir) / "run00" /
                         "curves.csv").read_text().splitlines()
        idx = header.split(",").index("bayes_accuracy")
        assert all(r.split(",")[idx] == "" for r in rows)
        # stream-end checkpoint auto-appended: 2 passes x 60 points
        assert rows[-1].split(",")[0] == "120"


class TestCli:
    def test_train_and_diagnose_clean(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "forest_accuracy" in out and "bayes_accuracy" in out
        assert main(["diagnose", str(tmp_path / "out")]) == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_train_seed_and_out_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--seed", "123",
                     "--out", str(tmp_path / "other")]) == 0
        run_doc = json.loads(
            (tmp_path / "other" / "run00" / "run.json").read_text())
        assert run_doc["seed"] == 123

    def test_train_bad_config_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, checkpoints=[600, 200])
        assert main(["train", "--config", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_train_missing_config_exit_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "none.json")]) == 2

    def test_train_missing_data_exit_3(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, data={"kind": "libsvm", "train": "none", "test": "none"})
        assert main(["train", "--config", str(cfg)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_diagnose_corrupted_run_exit_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        splits = tmp_path / "out" / "run00" / "splits.csv"
        lines = splits.read_text().splitlines()
        parts = lines[1].split(",")
        parts[-2] = parts[-1] = "0"
        lines[1] = ",".join(parts)
        splits.write_text("\n".join(lines) + "\n")
        assert main(["diagnose", str(tmp_path / "out")]) == 1
        assert "validity gate" in capsys.readouterr().out

    def test_diagnose_empty_dir_exit_3(self, tmp_path):
        assert main(["diagnose", str(tmp_path)]) == 3
        assert main(["diagnose", str(tmp_path / "missing")]) == 3

    @pytest.mark.parametrize("name, spoil, fragment", [
        ("run.json", lambda text: "{}", "'params'"),
        ("curves.csv", lambda text: text.split("\n", 1)[0] + "\n",
         "curves.csv: no checkpoint"),
        ("run.json", lambda text: text[:len(text) // 2], "run.json: not JSON"),
        ("splits.csv", lambda text: "\n".join(
            ",".join(c for i, c in enumerate(line.split(","))
                     if i != SPLITS_COLUMNS.index("left_est"))
            for line in text.split("\n")), "splits.csv: columns"),
        ("splits.csv", lambda text: first_row(text, lambda r: r + ",999"),
         "splits.csv: a row does not have"),
        ("curves.csv", lambda text: first_row(
            text, lambda r: r.rsplit(",", 1)[0]),
         "curves.csv: a row does not have"),
    ], ids=["empty_run_json", "header_only_curves", "run_json_not_json",
            "splits_without_left_est", "splits_row_with_extra_cell",
            "curves_row_short_of_a_cell"])
    def test_diagnose_malformed_artifacts_exit_3(self, tmp_path, capsys,
                                                 name, spoil, fragment):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        path = tmp_path / "out" / "run00" / name
        path.write_text(spoil(path.read_text()))
        capsys.readouterr()
        assert main(["diagnose", str(tmp_path / "out")]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "malformed artifacts" in err
        assert fragment in err

    def test_parse_check(self, tmp_path, capsys):
        good = tmp_path / "good"
        good.write_text("1 1:0.5\n-1 1:0.25\n")
        assert main(["parse-check", str(good)]) == 0
        assert "2 points" in capsys.readouterr().out
        bad = tmp_path / "bad"
        bad.write_text("1 5:1 2:2\n")
        assert main(["parse-check", str(bad)]) == 1
        assert "line 1" in capsys.readouterr().err
        bad.write_text("1\n-1\n")
        assert main(["parse-check", str(bad)]) == 1
        assert "no features" in capsys.readouterr().err
        assert main(["parse-check", str(tmp_path / "none")]) == 3

    @pytest.mark.parametrize("key, value", with_type_cases([
        ("num_trees", True), ("m", 2.5), ("fringe_capacity", 1.5),
        ("tau", float("nan")), ("alpha_growth", float("inf")),
        ("master_seed", 1.7),
    ], ints=("num_trees", "m", "master_seed", "fringe_capacity"),
        numbers=("lambda", "tau", "p_structure", "p_skip", "alpha_base",
                 "alpha_growth", "beta_multiplier")))
    def test_train_mistyped_hyperparam_exit_2(self, tmp_path, capsys, key,
                                              value):
        doc = tiny_config_doc()
        doc["hyperparams"][key] = value
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", with_type_cases(with_type_cases([
        ("runs", 1.5), ("runs", True), ("passes", 1.0),
        ("probe_points", 2.5), ("clip_sample", "200"),
        ("checkpoints", [200, 600.5]), ("checkpoints", [True, 600]),
        ("clip_margin", "0.1"), ("clip_margin", float("inf")),
        ("clip_margin", False),
    ], ints=("runs", "passes", "probe_points", "clip_sample"),
        numbers=("clip_margin",)),
        ints=("checkpoints",), wrap=lambda v: [v, 600]))
    def test_train_mistyped_config_exit_2(self, tmp_path, capsys, key,
                                          value):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(tiny_config_doc(**{key: value})))
        assert main(["train", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [2.5, True, "200", 1.5, "1"])
    def test_train_mistyped_test_points_exit_2(self, tmp_path, capsys,
                                               value):
        doc = tiny_config_doc()
        doc["data"]["test_points"] = value
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(doc))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "test_points" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("over, key", [
        ({"data": {"kind": "mog", "spec": 5}}, "data.spec"),
        ({"data": {"kind": "mog"}}, "data.spec"),
        ({"data": {"kind": "libsvm", "train": "a"}}, "data.test"),
        ({"out_dir": 5}, "out_dir"),
        ({"out_dir": "a\0b"}, "out_dir"),
        ({"out_dir": "\ud800"}, "out_dir"),
        ({"data": {"kind": "mog", "spec": "a\0b"}}, "data.spec"),
    ])
    def test_train_bad_path_exit_2(self, tmp_path, capsys, over, key):
        cfg = write_config(tmp_path, **over)
        assert main(["train", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    def test_failed_save_leaves_unfinished_run(self, tmp_path, capsys,
                                               monkeypatch):
        """A save that fails mid-run leaves no partial file under a final
        name and no run.json, so `diagnose` reports missing artifacts."""
        def failing_forest_bytes(*args):
            raise OSError("disk full")
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        run_dir = tmp_path / "out" / "run00"
        before = {f.name: f.read_bytes() for f in run_dir.iterdir()}
        monkeypatch.setattr(orf.experiment, "forest_bytes",
                            failing_forest_bytes)
        assert main(["train", "--config", str(cfg), "--seed", "8"]) == 5
        assert "cannot write artifacts: disk full" in capsys.readouterr().err
        names = sorted(f.name for f in run_dir.iterdir())
        assert "run.json" not in names
        assert not [n for n in names if n.endswith(".tmp")]
        # the old forest stays whole; the CSVs are the new run's, complete
        assert (run_dir / "forest.json.gz").read_bytes() == \
            before["forest.json.gz"]
        for name in ("curves.csv", "splits.csv", "activations.csv"):
            assert (run_dir / name).read_text().endswith("\n")
        capsys.readouterr()
        assert main(["diagnose", str(tmp_path / "out")]) == 3
        assert "missing run.json" in capsys.readouterr().err

    def test_failed_write_keeps_old_file_whole(self, tmp_path, monkeypatch):
        import orf.core

        def failing_replace(src, dst):
            raise OSError("rename failed")
        path = tmp_path / "a.csv"
        orf.core.write_atomic(path, b"old\n")
        monkeypatch.setattr(orf.core.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            orf.core.write_atomic(path, b"new, longer content\n")
        assert path.read_bytes() == b"old\n"
        assert [f.name for f in tmp_path.iterdir()] == ["a.csv"]

    def test_train_seed_out_of_range_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg),
                     "--seed", str(2 ** 64)]) == 2
        assert "master_seed must fit in 64 bits" in capsys.readouterr().err
        # run r trains with master_seed + r, so the last run must fit too
        cfg = write_config(tmp_path, runs=2)
        assert main(["train", "--config", str(cfg),
                     "--seed", str(2 ** 64 - 1)]) == 2
        assert "master_seed + runs - 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case, code, message", [
        ("out_dir_under_dev_null", 5, "cannot write artifacts"),
        ("out_dir_is_a_file", 5, "cannot write artifacts"),
        ("spec_is_a_directory", 3, "cannot read mixture spec"),
        ("spec_mean_is_a_string", 3, "finite numbers"),
        ("config_is_a_directory", 2, "cannot read config file"),
        ("config_is_not_utf8", 2, "cannot read config file"),
        ("spec_class_without_component", 3,
         "labels must be the classes 0 to 9999999999999"),
        ("spec_without_dimensions", 3, "at least one dimension"),
        ("libsvm_without_features", 3, "no features"),
        ("number_past_float_range", 2,
         "hyperparams.tau must be a finite number"),
    ])
    def test_train_boundary_inputs_exit_codes(self, tmp_path, capsys, case,
                                              code, message):
        """Output that cannot be written, or a spec, config or data file
        that cannot be read or used, ends in its documented exit code with
        a one-line message instead of a traceback."""
        spec = json.loads(pathlib.Path(MOG_SPEC).read_text())
        spec["components"][0]["mean"] = "ab"
        (tmp_path / "bad_spec.json").write_text(json.dumps(spec))
        spec = json.loads(pathlib.Path(MOG_SPEC).read_text())
        spec["n_classes"] = 10 ** 13
        (tmp_path / "huge_spec.json").write_text(json.dumps(spec))
        (tmp_path / "flat_spec.json").write_text(json.dumps(
            {"n_classes": 1, "components": [
                {"weight": 1.0, "mean": [], "var": [], "label": 0}]}))
        (tmp_path / "labels_only").write_text("1\n2\n")
        (tmp_path / "a_file").write_text("")
        over = {
            "out_dir_under_dev_null": {"out_dir": "/dev/null/x"},
            "out_dir_is_a_file": {"out_dir": "a_file"},
            "spec_is_a_directory": {"data": {"kind": "mog", "spec": "."}},
            "spec_mean_is_a_string": {
                "data": {"kind": "mog", "spec": "bad_spec.json"}},
            "spec_class_without_component": {
                "data": {"kind": "mog", "spec": "huge_spec.json"}},
            "spec_without_dimensions": {
                "data": {"kind": "mog", "spec": "flat_spec.json"}},
            "libsvm_without_features": {
                "data": {"kind": "libsvm", "train": "labels_only",
                         "test": "labels_only"}},
        }.get(case, {})
        cfg = write_config(tmp_path, **over)
        if case == "number_past_float_range":
            cfg.write_text(cfg.read_text().replace(
                '"tau": 0.001', '"tau": 1' + "0" * 400))
        if case == "config_is_a_directory":
            cfg = tmp_path
        elif case == "config_is_not_utf8":
            cfg.write_bytes(b'{"runs": "\xff"}')
        assert main(["train", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("where, code", [("config", 2), ("spec", 3)])
    def test_train_deeply_nested_json_exit_code(self, tmp_path, capsys,
                                                where, code):
        """JSON nested past the parser's recursion limit is a bad config
        (exit 2) or a bad mixture spec (exit 3), not a traceback."""
        deep = "[" * 100_000 + "]" * 100_000
        if where == "config":
            cfg = tmp_path / "exp.json"
            cfg.write_text('{"runs": ' + deep + "}")
        else:
            (tmp_path / "deep.json").write_text(
                '{"components": ' + deep + "}")
            cfg = write_config(tmp_path,
                               data={"kind": "mog", "spec": "deep.json"})
        assert main(["train", "--config", str(cfg)]) == code
        err = capsys.readouterr().err
        assert "nested too deeply" in err
        assert len(err.splitlines()) == 1


class TestRunsInProcesses:
    """A job trains its (run, tree shard) units in worker processes; the
    bytes are those of one `runs: 1` job per run, at master seed + r,
    trained in this process."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def force(n):
            monkeypatch.setattr(orf.experiment, "_usable_cpus", lambda: n)
        return force

    @pytest.fixture
    def two_cpus(self, cpus):
        cpus(2)

    @pytest.fixture
    def shard_pids(self, tmp_path, monkeypatch):
        """Each shard leaves the pid that trained it in a file named
        `run-shard-shards`; the fixture reads them back."""
        pids = tmp_path / "pids"
        pids.mkdir()
        real = orf.experiment.train_shard

        def recording(config, ctx, r, shard=0, shards=1):
            (pids / f"{r}-{shard}-{shards}").write_text(str(os.getpid()))
            return real(config, ctx, r, shard, shards)
        monkeypatch.setattr(orf.experiment, "train_shard", recording)
        return lambda: {p.name: int(p.read_text()) for p in pids.iterdir()}

    @staticmethod
    def check_against_single_runs(cfg, results, tmp_path, cpus):
        """Each run's artifacts and checkpoints are those of a `runs: 1` job
        at master seed + r, trained in this process on one CPU."""
        assert [res.run_dir.name for res in results] == \
            [f"run{r:02d}" for r in range(cfg.runs)]
        cpus(1)
        seed = cfg.hyperparams.master_seed
        for r in range(cfg.runs):
            single = dataclasses.replace(
                cfg, runs=1, out_dir=str(tmp_path / f"single{r}"),
                hyperparams=dataclasses.replace(cfg.hyperparams,
                                                master_seed=seed + r))
            [alone] = run_all(single)
            assert results[r].checkpoints == alone.checkpoints
            for name in ARTIFACTS:
                assert (results[r].run_dir / name).read_bytes() == \
                    (alone.run_dir / name).read_bytes(), (r, name)

    @pytest.mark.parametrize("kind, runs", [("mog", 3), ("libsvm", 2)])
    def test_bytes_match_single_runs(self, tmp_path, cpus, two_cpus,
                                     shard_pids, kind, runs):
        doc = (tiny_config_doc(runs=runs) if kind == "mog"
               else libsvm_config_doc(tmp_path, runs=runs))
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        cfg = ExperimentConfig.load(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a fork from a threaded process
            results = run_all(dataclasses.replace(
                cfg, out_dir=str(tmp_path / "multi")))
        assert multiprocessing.active_children() == []
        pids = shard_pids()  # more runs than CPUs: one shard per run
        assert sorted(pids) == [f"{r}-0-1" for r in range(runs)]
        assert os.getpid() not in pids.values()
        self.check_against_single_runs(cfg, results, tmp_path, cpus)

    @pytest.mark.parametrize("kind, runs, n_cpus, shards", [
        ("mog", 1, 2, 2), ("mog", 1, 3, 3), ("mog", 1, 5, 4),
        ("libsvm", 1, 2, 2), ("libsvm", 1, 3, 3), ("libsvm", 1, 5, 4),
        ("mog", 2, 4, 2)])
    def test_shards_write_the_same_bytes(self, tmp_path, cpus, shard_pids,
                                         kind, runs, n_cpus, shards):
        """Trees i = j (mod J) train in shard j, J = min(num_trees,
        CPUs // runs), and the run's artifacts are assembled here."""
        doc = (tiny_config_doc(runs=runs) if kind == "mog"
               else libsvm_config_doc(tmp_path, runs=runs))
        doc["hyperparams"].update(num_trees=4, fringe_capacity=2)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(doc))
        cfg = ExperimentConfig.load(path)
        cpus(n_cpus)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = run_all(dataclasses.replace(
                cfg, out_dir=str(tmp_path / "sharded")))
        assert multiprocessing.active_children() == []
        pids = shard_pids()
        assert sorted(pids) == [f"{r}-{j}-{shards}" for r in range(runs)
                                for j in range(shards)]
        assert os.getpid() not in pids.values()
        self.check_against_single_runs(cfg, results, tmp_path, cpus)
        assert shard_pids()["0-0-1"] == os.getpid()

    @pytest.mark.parametrize("error, code", [
        (InvariantViolation("boom"), 4), (ConfigError("boom"), 2),
        (DataError("boom"), 3), (OSError(28, "boom"), 5)])
    def test_failing_worker_keeps_exit_code(self, tmp_path, capsys,
                                            monkeypatch, two_cpus, error,
                                            code):
        real = orf.experiment._write_csv

        def failing(path, columns, rows):
            if path.parent.name == "run01":
                raise error
            real(path, columns, rows)
        monkeypatch.setattr(orf.experiment, "_write_csv", failing)
        cfg = write_config(tmp_path, runs=2)
        assert main(["train", "--config", str(cfg)]) == code
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "boom" in err
        assert (tmp_path / "out" / "run00" / "run.json").exists()
        assert (tmp_path / "out" / "run01").is_dir()
        assert not (tmp_path / "out" / "run01" / "run.json").exists()
        assert multiprocessing.active_children() == []

    def test_first_failing_run_wins(self, tmp_path, capsys, monkeypatch,
                                    two_cpus):
        """run00 fails only after run01 has failed, and its error is the
        one reported, as in a loop over the runs."""
        failed = tmp_path / "run01.failed"

        def failing(path, columns, rows):
            if path.parent.name == "run01":
                failed.touch()
                raise DataError("run01")
            deadline = time.monotonic() + 30
            while not failed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise InvariantViolation("run00")
        monkeypatch.setattr(orf.experiment, "_write_csv", failing)
        cfg = write_config(tmp_path, runs=2)
        assert main(["train", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == "invariant violation: run00\n"
        assert failed.exists()

    @staticmethod
    def failing_shard(monkeypatch, failure):
        """train_shard runs `failure(shard)` first, in its worker."""
        real = orf.experiment.train_shard

        def failing(config, ctx, r, shard=0, shards=1):
            failure(shard)
            return real(config, ctx, r, shard, shards)
        monkeypatch.setattr(orf.experiment, "train_shard", failing)

    @pytest.mark.parametrize("error, code", [
        (InvariantViolation("boom"), 4), (ConfigError("boom"), 2),
        (DataError("boom"), 3), (OSError(28, "boom"), 5)])
    def test_failing_shard_keeps_exit_code(self, tmp_path, capsys,
                                           monkeypatch, two_cpus, error,
                                           code):
        def fail(shard):
            if shard == 1:
                raise error
        self.failing_shard(monkeypatch, fail)
        cfg = write_config(tmp_path)  # 2 trees, 1 run: 2 shards
        assert main(["train", "--config", str(cfg)]) == code
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and "boom" in err
        assert not (tmp_path / "out" / "run00" / "run.json").exists()
        assert multiprocessing.active_children() == []

    def test_first_failing_shard_wins(self, tmp_path, capsys, monkeypatch,
                                      cpus):
        """Shard 1 fails only after shard 2 has failed, and its error is
        the one reported, as in a loop over the (run, shard) units."""
        failed = tmp_path / "shard2.failed"

        def fail(shard):
            if shard == 2:
                failed.touch()
                raise DataError("shard 2")
            if shard == 1:
                deadline = time.monotonic() + 30
                while not failed.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                raise InvariantViolation("shard 1")
        self.failing_shard(monkeypatch, fail)
        doc = tiny_config_doc()
        doc["hyperparams"]["num_trees"] = 4
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(doc))
        cpus(3)
        assert main(["train", "--config", str(cfg)]) == 4
        assert capsys.readouterr().err == "invariant violation: shard 1\n"
        assert failed.exists()
        assert multiprocessing.active_children() == []

    def test_dead_worker_exits_6(self, tmp_path, capsys, monkeypatch,
                                 two_cpus):
        """A worker that dies without raising ends the job with one line
        and exit 6, and leaves its run unfinished."""
        def die(shard):
            if shard == 1:
                os._exit(9)
        self.failing_shard(monkeypatch, die)
        cfg = write_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 6
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("worker process died: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "run00" / "run.json").exists()
        assert multiprocessing.active_children() == []

    def test_one_usable_cpu_stays_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(orf.experiment.os, "sched_getaffinity",
                            lambda pid: {0}, raising=False)
        monkeypatch.setattr(orf.experiment, "ProcessPoolExecutor", None)
        assert orf.experiment._usable_cpus() == 1
        assert len(run_all(ExperimentConfig.load(
            write_config(tmp_path, runs=2)))) == 2

    def test_usable_cpus(self, monkeypatch):
        monkeypatch.delattr(orf.experiment.os, "sched_getaffinity",
                            raising=False)
        monkeypatch.setattr(orf.experiment.os, "cpu_count", lambda: 3)
        assert orf.experiment._usable_cpus() == 3
        monkeypatch.setattr(orf.experiment.multiprocessing,
                            "get_all_start_methods", lambda: ["spawn"])
        assert orf.experiment._usable_cpus() == 1


# A small valid config; the fuzz test below mutates its keys.
FUZZ_BASE = {
    "hyperparams": {
        "num_trees": 2, "lambda": 1.0, "m": 3, "tau": 0.001,
        "p_structure": 0.5, "p_skip": 0.0, "alpha_base": 1.0,
        "alpha_growth": 1.1, "beta_multiplier": 20.0, "fringe_capacity": 4,
        "master_seed": 7},
    "data": {"kind": "mog", "spec": MOG_SPEC, "test_points": 50},
    "checkpoints": [100, 300],
    "runs": 1,
    "out_dir": "out",
    "passes": 1,
    "probe_points": 16,
    "clip_sample": 100,
    "clip_margin": 0.1,
}

# Keys whose value scales a run's work, with the largest value drawn for
# each, so that every example stays small; other keys draw any size.
FUZZ_BOUNDS = {("hyperparams", "num_trees"): 3,
               ("hyperparams", "lambda"): 10 ** 12,
               ("data", "test_points"): 50, ("checkpoints", 0): 300,
               ("checkpoints", 1): 300, ("runs",): 2, ("probe_points",): 16}


def _key_paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


FUZZ_PATHS = list(_key_paths(FUZZ_BASE))
_DELETE = object()


def fuzz_values(bound):
    """Values of every JSON type: bool, null, strings (a NUL byte and a
    lone surrogate too), floats (NaN and infinities too), negative and
    small integers and, unless `bound` caps them, integers past 64 bits."""
    top = 2 ** 70 if bound is None else bound
    return st.one_of(
        st.booleans(), st.none(), st.text(max_size=4),
        st.sampled_from(["mog", "libsvm", ".", "a\0b", "\ud800"]),
        st.integers(0, min(top, 8)), st.floats(0, min(top, 2)),
        st.integers(-2 ** 70, top), st.floats(-1e300, top),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.lists(st.integers(-2, 3), max_size=3),
        st.dictionaries(st.text(max_size=2), st.integers(-2, 3),
                        max_size=2))


@st.composite
def fuzzed_config(draw):
    doc = copy.deepcopy(FUZZ_BASE)
    paths = draw(st.lists(st.sampled_from(FUZZ_PATHS), min_size=1,
                          max_size=2, unique=True))
    for path in paths:
        value = draw(st.one_of(st.just(_DELETE),
                               fuzz_values(FUZZ_BOUNDS.get(path))))
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            if value is _DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced the parent
    return doc


@given(doc=fuzzed_config())
@settings(max_examples=1200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_train_fuzzed_config_exits_with_documented_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "exp.json"
        cfg.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["train", "--config", str(cfg)])
    event(f"exit {code}")
    assert code in (0, 2, 3, 5)
