"""Data ingestion and synthesis.

LIBSVM text parsing to dense feature vectors, multi-pass shuffled stream
scheduling, and a diagonal-covariance Gaussian mixture with an exact
posterior-argmax oracle for consistency experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from orf.core import LabeledPoint, RngStream, decode, sum_in_order

VAR_FLOOR = 1e-12


class ParseError(ValueError):
    pass


@dataclass
class Dataset:
    points: list[LabeledPoint]
    n_features: int
    n_classes: int
    labels: list  # original label values, sorted; index = class id


def _parse_label(tok: str, lineno: int):
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(f"line {lineno}: non-numeric label {tok!r}") from None
    if not math.isfinite(v):
        raise ParseError(f"line {lineno}: non-finite label {tok!r}")
    return int(v) if v == int(v) else v


def parse_libsvm(text: str) -> Dataset:
    """Parse `<label> <index>:<value> ...` lines into a dense Dataset.

    Indices are 1-based and must be strictly increasing within a line;
    absent indices read as 0. The feature count is the largest index seen.
    Labels are remapped to 0..C-1 by sorted original value.
    """
    rows = []
    max_index = 0
    raw_labels = set()
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input")
    for lineno, line in enumerate(lines, start=1):
        toks = line.split()
        if not toks:
            raise ParseError(f"line {lineno}: empty line")
        label = _parse_label(toks[0], lineno)
        pairs = []
        prev = 0
        for tok in toks[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: expected index:value, "
                                 f"got {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise ParseError(f"line {lineno}: non-numeric entry "
                                 f"{tok!r}") from None
            if idx <= prev:
                raise ParseError(
                    f"line {lineno}: index {idx} not strictly increasing")
            if not math.isfinite(val):
                raise ParseError(f"line {lineno}: non-finite value {tok!r}")
            prev = idx
            pairs.append((idx, val))
        max_index = max(max_index, prev)
        raw_labels.add(label)
        rows.append((label, pairs))
    if max_index == 0:
        raise ParseError("no features")
    labels = sorted(raw_labels)
    label_map = {orig: i for i, orig in enumerate(labels)}
    points = []
    for label, pairs in rows:
        x = [0.0] * max_index
        for idx, val in pairs:
            x[idx - 1] = val
        points.append(LabeledPoint(tuple(x), label_map[label]))
    return Dataset(points, max_index, len(labels), labels)


def align_pair(train: Dataset, test: Dataset) -> tuple[Dataset, Dataset]:
    """Re-embed two datasets into a common feature count and label set."""
    dim = max(train.n_features, test.n_features)
    labels = sorted(set(train.labels) | set(test.labels))
    label_map = {orig: i for i, orig in enumerate(labels)}

    def rebuild(ds):
        points = []
        for p in ds.points:
            x = p.x if len(p.x) == dim else p.x + (0.0,) * (dim - len(p.x))
            points.append(LabeledPoint(x, label_map[ds.labels[p.y]]))
        return Dataset(points, dim, len(labels), labels)

    return rebuild(train), rebuild(test)


def stream_schedule(ds: Dataset, passes: int,
                    rng: RngStream) -> list[LabeledPoint]:
    """Concatenation of `passes` independently shuffled passes."""
    if passes < 1:
        raise ValueError("passes must be >= 1")
    out = []
    n = len(ds.points)
    for _ in range(passes):
        order = rng.permutation(n)
        out.extend(ds.points[i] for i in order)
    return out


@dataclass(frozen=True)
class MogComponent:
    weight: float
    mean: tuple[float, ...]
    var: tuple[float, ...]
    label: int


@dataclass(eq=False)
class MixtureOfGaussians:
    """Weighted diagonal Gaussians, each emitting a fixed class label. The
    fields are the JSON spec's keys; the weights are normalized."""

    components: tuple[MogComponent, ...]
    n_classes: int

    def __post_init__(self):
        components, n_classes = self.components, self.n_classes
        if not components:
            raise ValueError("need at least one component")
        total = sum_in_order(c.weight for c in components)
        if total <= 0 or any(c.weight < 0 for c in components):
            raise ValueError("weights must be nonnegative with positive sum")
        dim = len(components[0].mean)
        if dim < 1:
            raise ValueError("components need at least one dimension")
        labels = {c.label for c in components}
        if (min(labels), max(labels), len(labels)) != (0, n_classes - 1,
                                                       n_classes):
            raise ValueError(f"component labels must be the classes 0 to "
                             f"{n_classes - 1}, each at least once")
        comps = []
        for c in components:
            if len(c.mean) != dim or len(c.var) != dim:
                raise ValueError("inconsistent component dimensions")
            comps.append(MogComponent(
                c.weight / total, tuple(c.mean),
                tuple(max(v, VAR_FLOOR) for v in c.var), c.label))
        self.components = comps
        self.n_features = dim
        self._weights = [c.weight for c in self.components]
        # vectorized copies for the batch oracle
        self._mu = np.array([c.mean for c in comps])
        self._var = np.array([c.var for c in comps])
        with np.errstate(divide="ignore"):  # zero weight -> -inf is right
            self._log_w = np.log(np.array(self._weights))
        self._labels = np.array([c.label for c in comps])
        self._log_norm = -0.5 * np.sum(np.log(2 * np.pi * self._var), axis=1)

    @classmethod
    def from_json(cls, doc: dict) -> "MixtureOfGaussians":
        """Mixture from its JSON spec; raises ValueError (see `decode`)."""
        return decode(cls, doc, components=MogComponent)

    def sample(self, rng: RngStream, n: int) -> list[LabeledPoint]:
        if n < 1:
            raise ValueError("n must be >= 1")
        out = []
        for _ in range(n):
            c = self.components[rng.categorical(self._weights)]
            x = tuple(rng.normal(m, math.sqrt(v))
                      for m, v in zip(c.mean, c.var))
            out.append(LabeledPoint(x, c.label))
        return out

    def class_log_scores(self, X: np.ndarray) -> np.ndarray:
        """(n, C) log-space unnormalized posterior scores."""
        X = np.asarray(X, dtype=float)
        diff = X[:, None, :] - self._mu[None, :, :]
        comp_log = (self._log_w + self._log_norm
                    - 0.5 * np.sum(diff * diff / self._var, axis=2))
        scores = np.full((X.shape[0], self.n_classes), -np.inf)
        for k in range(self.n_classes):
            mask = self._labels == k
            if not np.isfinite(self._log_w[mask]).any():
                continue
            block = comp_log[:, mask]
            peak = block.max(axis=1)
            scores[:, k] = peak + np.log(
                np.sum(np.exp(block - peak[:, None]), axis=1))
        return scores

    def bayes_predict_batch(self, X) -> np.ndarray:
        return np.argmax(self.class_log_scores(np.atleast_2d(X)), axis=1)
