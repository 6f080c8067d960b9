"""Streaming random forests with separate structure and estimation streams.

The names below are the public API. Counts are flat per-class lists with
their totals beside them: a `Leaf` keeps its estimation counts in `est` and
`n_est`; a candidate split is one list `[dim, threshold, *ls, *rs, *le, *re,
nle, nre]` in `Leaf.candidate_splits` (the layout is in `orf.tree`), and
`information_gain` scores it from a precomputed c·log2(c) table.
"""

from orf.core import (HyperParams, InvariantViolation, LabeledPoint,
                      RngStream, StreamAssignment, alpha, assign_stream, beta)
from orf.data import (Dataset, MixtureOfGaussians, MogComponent, ParseError,
                      parse_libsvm, stream_schedule)
from orf.forest import OnlineForest
from orf.tree import Leaf, OnlineTree, information_gain, must_split

__all__ = [
    "HyperParams", "InvariantViolation", "LabeledPoint", "RngStream",
    "StreamAssignment", "alpha", "assign_stream", "beta",
    "Dataset", "MixtureOfGaussians", "MogComponent", "ParseError",
    "parse_libsvm", "stream_schedule",
    "OnlineForest",
    "Leaf", "OnlineTree", "information_gain", "must_split",
]
