"""Majority-vote ensemble of independent online trees.

Every tree sees every point (no bagging); randomness enters only through
each tree's own stream assignment and candidate sampling, so trees can be
updated in any order with bit-identical results.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import io
import json

from orf.core import (HyperParams, LabeledPoint, RngStream, assign_stream,
                      check_features, is_int, majority, write_atomic)
from orf.tree import OnlineTree

FOREST_FORMAT = "orf-forest"
FOREST_VERSION = 4  # the only layout `from_doc` reads


class OnlineForest:
    def __init__(self, params: HyperParams, n_features: int, n_classes: int,
                 tree_ids=None):
        """Fresh trees: tree i grows from child i of the master seed's
        stream. `tree_ids` picks which (all of them if None): a shard of a
        run's trees, or none for a reader that brings its own."""
        self.params = params
        self.n_features = n_features
        self.n_classes = n_classes
        self.t = 0
        root = RngStream(params.master_seed)
        ids = range(params.num_trees) if tree_ids is None else tree_ids
        self.trees = [OnlineTree(params, n_features, n_classes, root.child(i))
                      for i in ids]

    # -- training -----------------------------------------------------------

    def update(self, point: LabeledPoint) -> None:
        """Feed one labeled point to every tree: `update_stream` of one."""
        self.update_stream((point,))

    def update_stream(self, points) -> None:
        """Feed a batch to every tree, tree by tree, point by point.

        Every point is validated before any tree moves, so a bad batch
        leaves the forest as it was. A tree update that raises part-way
        (an invariant violation, say) propagates with `t` unchanged, but
        the trees before it have taken the whole batch and that tree part
        of it: the trees then disagree on `t`, and the forest must be
        discarded.
        """
        for p in points:
            p.validate(self.n_features, self.n_classes)
        base_t = self.t
        params = self.params
        for tree in self.trees:
            t = base_t
            for p in points:
                t += 1
                tree.update(p.x, p.y, assign_stream(tree.rng, params), t)
        self.t = base_t + len(points)

    # -- prediction -----------------------------------------------------------

    def vote_counts(self, x) -> list[int]:
        check_features(x, self.n_features)
        counts = [0] * self.n_classes
        for tree in self.trees:
            counts[tree.predict_class(x)] += 1
        return counts

    def predict(self, x) -> int:
        return majority(self.vote_counts(x))

    # -- serialization ----------------------------------------------------------

    def to_doc(self) -> dict:
        return {**_head(self.params, self.n_features, self.n_classes, self.t),
                "trees": [tree.to_doc() for tree in self.trees]}

    @classmethod
    def from_doc(cls, doc: dict) -> "OnlineForest":
        """Raises only ValueError; a missing key or wrong type becomes one."""
        try:
            if doc.get("format") != FOREST_FORMAT:
                raise ValueError("not a forest document")
            if doc.get("version") != FOREST_VERSION:
                raise ValueError(f"unsupported forest format version "
                                 f"{doc.get('version')!r}; regenerate the run")
            for key in ("n_features", "n_classes", "t"):
                if not is_int(doc[key]):
                    raise ValueError(f"{key} must be an integer, "
                                     f"got {doc[key]!r}")
            params = HyperParams.from_json(doc["params"])
            if len(doc["trees"]) != params.num_trees:
                raise ValueError(f"{len(doc['trees'])} trees, but num_trees "
                                 f"is {params.num_trees}")
            forest = cls(params, doc["n_features"], doc["n_classes"],
                         tree_ids=())
            root = RngStream(params.master_seed)  # tree i's seed, as __init__
            forest.trees = [OnlineTree.from_doc(td, params, forest.n_features,
                                                forest.n_classes, root.child(i))
                            for i, td in enumerate(doc["trees"])]
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed forest document: "
                             f"{type(exc).__name__} {exc}") from None
        forest.t = doc["t"]
        return forest

    def to_bytes(self) -> bytes:
        """Canonical gzip-compressed JSON; equal forests give equal bytes.
        The text is `to_doc`'s, written tree by tree: a save holds one
        tree's document at a time."""
        return forest_bytes(self.params, self.n_features, self.n_classes,
                            self.t, map(tree_text, self.trees))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "OnlineForest":
        """Raises only ValueError on a blob that is not a forest."""
        with _gc_paused():
            try:  # not gzip, cut short, corrupted, or nested too deeply
                doc = json.loads(gzip.decompress(blob))
            except (OSError, EOFError, gzip.zlib.error, RecursionError) as exc:
                raise ValueError(f"cannot decode a forest: "
                                 f"{type(exc).__name__} {exc}") from None
            return cls.from_doc(doc)

    def save(self, path) -> None:
        write_atomic(path, self.to_bytes())

    @classmethod
    def load(cls, path) -> "OnlineForest":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


_dumps = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode


def _head(params: HyperParams, n_features: int, n_classes: int,
          t: int) -> dict:
    """The document without its trees; "trees" is its last key."""
    return {"format": FOREST_FORMAT, "version": FOREST_VERSION,
            "params": params.to_json(), "n_features": n_features,
            "n_classes": n_classes, "t": t, "trees": []}


def tree_text(tree: OnlineTree) -> str:
    """The tree's document as the forest document holds it."""
    return _dumps(tree.to_doc())


def forest_bytes(params: HyperParams, n_features: int, n_classes: int,
                 t: int, tree_texts) -> bytes:
    """The bytes `to_bytes` gives for a forest whose trees, in order, have
    the documents `tree_texts` (from `tree_text`), written as they come."""
    buf = io.BytesIO()
    # GzipFile, not gzip.compress: its OS byte is ff on every Python
    with _gc_paused(), gzip.GzipFile(fileobj=buf, mode="wb",
                                     compresslevel=6, mtime=0) as zf:
        zf.write(_dumps(_head(params, n_features, n_classes, t))[:-2]
                 .encode())  # to "trees":[
        for i, text in enumerate(tree_texts):
            zf.write(b"," if i else b"")
            zf.write(text.encode())
        zf.write(b"]}")
    return buf.getvalue()


@contextlib.contextmanager
def _gc_paused():
    """No cyclic GC: a document has no cycles, and a pass walks the forest."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
