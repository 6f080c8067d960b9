"""Golden byte guard: three fixed small runs must reproduce committed digests.

The digests in fixtures/golden_digests.json were taken from the code as it
stood before the refactors they guard. A change that alters any of these
bytes must say so and regenerate the fixture on purpose:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import pathlib
import sys

import pytest

from conftest import FIXTURES, make_params
from orf.evaluation import (ACTIVATIONS_COLUMNS, CURVES_COLUMNS,
                            SPLITS_COLUMNS)
from orf.experiment import ExperimentConfig, MogSource, run_all

REPO = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = FIXTURES / "golden_digests.json"
FILES = ("curves.csv", "splits.csv", "activations.csv", "forest.json.gz")

MOG5 = REPO / "configs" / "mog5.json"

# name -> (mixture spec, hyperparameter overrides); "fringe" and "c3d4" are
# bounded tightly enough that activations.csv has rows, and "c3d4" has
# another class and feature count (C = 3, D = 4) than mog5 (C = 5, D = 2)
CASES = {
    "unbounded": (MOG5, dict(num_trees=3, m=5, beta_multiplier=50.0,
                             master_seed=20130901)),
    "fringe": (MOG5, dict(num_trees=3, m=5, beta_multiplier=20.0,
                          fringe_capacity=3, master_seed=20130920)),
    "c3d4": (FIXTURES / "mog3x4.json",
             dict(num_trees=3, lam=3.0, m=2, beta_multiplier=20.0,
                  fringe_capacity=2, master_seed=20130302)),
}


def run_digests(name, out_dir) -> dict:
    spec, overrides = CASES[name]
    config = ExperimentConfig(
        hyperparams=make_params(**overrides),
        data=MogSource(str(spec), 300),
        checkpoints=(300, 1500), runs=1, out_dir=str(out_dir),
        probe_points=32, clip_sample=300)
    run_all(config)
    run_dir = pathlib.Path(out_dir) / "run00"
    return {f: hashlib.sha256((run_dir / f).read_bytes()).hexdigest()
            for f in FILES}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests(name, tmp_path):
    expected = json.loads(DIGESTS.read_text())[name]
    assert run_digests(name, tmp_path / name) == expected
    # each header is the list derived from its record class
    run_dir = tmp_path / name / "run00"
    headers = {f: (run_dir / f).read_text().split("\n", 1)[0]
               for f in FILES[:3]}
    assert headers == {"curves.csv": ",".join(CURVES_COLUMNS),
                       "splits.csv": ",".join(SPLITS_COLUMNS),
                       "activations.csv": ",".join(ACTIVATIONS_COLUMNS)}


def test_fringe_case_has_activations(tmp_path):
    for name in ("fringe", "c3d4"):
        run_digests(name, tmp_path / name)
        rows = (tmp_path / name / "run00" / "activations.csv").read_text()
        assert len(rows.splitlines()) > 1, name


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        digests = {n: run_digests(n, pathlib.Path(tmp) / n) for n in CASES}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
