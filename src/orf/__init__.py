from orf.core import (HyperParams, InvariantViolation, LabeledPoint,
                      RngStream, StreamAssignment, alpha, assign_stream, beta)
from orf.data import (Dataset, MixtureOfGaussians, MogComponent, ParseError,
                      parse_libsvm, stream_schedule)
from orf.forest import OnlineForest
from orf.tree import (CandidateSplit, ClassHistogram, Leaf, OnlineTree,
                      entropy, information_gain, must_split)

__all__ = [
    "HyperParams", "InvariantViolation", "LabeledPoint", "RngStream",
    "StreamAssignment", "alpha", "assign_stream", "beta",
    "Dataset", "MixtureOfGaussians", "MogComponent", "ParseError",
    "parse_libsvm", "stream_schedule",
    "OnlineForest",
    "CandidateSplit", "ClassHistogram", "Leaf", "OnlineTree", "entropy",
    "information_gain", "must_split",
]
