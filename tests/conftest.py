import json
import math
import pathlib
from types import SimpleNamespace

import numpy as np

from orf.core import HyperParams, RngStream, StreamAssignment

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
REPO = pathlib.Path(__file__).resolve().parents[1]
MOG_SPEC = str(REPO / "configs" / "mog5.json")

TAGS = {"s": StreamAssignment.STRUCTURE,
        "e": StreamAssignment.ESTIMATION,
        "skip": StreamAssignment.SKIP}


def make_params(**over):
    base = dict(num_trees=1, lam=1.0, m=10, tau=0.001, alpha_base=1.0,
                alpha_growth=1.1, beta_multiplier=1000.0, master_seed=42)
    base.update(over)
    return HyperParams(**base)


def tiny_config_doc(**over):
    doc = {
        "hyperparams": {
            "num_trees": 2, "lambda": 1.0, "m": 3, "tau": 0.001,
            "p_structure": 0.5, "p_skip": 0.0, "alpha_base": 1.0,
            "alpha_growth": 1.1, "beta_multiplier": 100.0,
            "fringe_capacity": None, "master_seed": 7},
        "data": {"kind": "mog", "spec": MOG_SPEC, "test_points": 200},
        "checkpoints": [200, 600],
        "runs": 1,
        "out_dir": "out",
        "probe_points": 32,
        "clip_sample": 200,
    }
    doc.update(over)
    return doc


def write_config(tmp_path, **over):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(tiny_config_doc(**over)))
    return path


def synthetic_stream(seed, n, n_features=2, n_classes=2, p_structure=0.5,
                     p_skip=0.0):
    """Labeled stream with real signal: class = quadrant-ish rule + noise."""
    rng = RngStream(seed)
    out = []
    for _ in range(n):
        x = tuple(rng.uniform() for _ in range(n_features))
        clean = int(x[0] > 0.5) if n_classes == 2 else \
            int(sum(x) / n_features * n_classes) % n_classes
        y = clean if rng.uniform() < 0.85 else rng.randint(0, n_classes)
        u = rng.uniform()
        if u < p_structure:
            tag = StreamAssignment.STRUCTURE
        elif u < p_structure + p_skip:
            tag = StreamAssignment.SKIP
        else:
            tag = StreamAssignment.ESTIMATION
        out.append((x, y, tag))
    return out


def shrink_factor_check(m: int, trials: int, seed: int):
    """Monte-Carlo estimate of E[max(max U_i, 1 - min U_i)] over m uniforms.

    Returns (mean, standard error); the exact value is (2m+1)/(2m+2).
    """
    if m < 1 or trials < 1:
        raise ValueError("m and trials must be >= 1")
    u = np.random.default_rng(seed).random((trials, m))
    vstar = np.maximum(u.max(axis=1), 1.0 - u.min(axis=1))
    mean = float(vstar.mean())
    stderr = float(vstar.std(ddof=1) / math.sqrt(trials))
    return mean, stderr


def cand(dim=0, thr=0.5, ls=None, rs=None, le=None, re=None, C=2):
    """A candidate row, `[dim, thr, *ls, *rs, *le, *re, nle, nre]`; a count
    list not given is C zeros."""
    ls, rs, le, re = (list(v) if v is not None else [0] * C
                      for v in (ls, rs, le, re))
    return [dim, thr, *ls, *rs, *le, *re, sum(le), sum(re)]


def cand_fields(row):
    """A candidate row's entries by name: dim, threshold, ls, rs, le, re,
    nle, nre."""
    c = len(row) // 4 - 1
    return SimpleNamespace(
        dim=row[0], threshold=row[1], ls=row[2:2 + c], rs=row[2 + c:2 + 2 * c],
        le=row[2 + 2 * c:2 + 3 * c], re=row[2 + 3 * c:2 + 4 * c],
        nle=row[-2], nre=row[-1])


def drive(tree, stream, t0=0):
    """Push (x, y, tag) triples through a tree, labelled t0+1, t0+2, ...;
    returns (split records, activation records) from `drain_events`."""
    for t, (x, y, tag) in enumerate(stream, start=t0 + 1):
        tree.update(x, y, tag, t)
    return tree.drain_events()


def leaves(tree):
    """The tree's leaves in node-id order."""
    from orf.tree import Leaf
    return [n for n in tree.nodes if type(n) is Leaf]


def load_tiny_fixture():
    doc = json.loads((FIXTURES / "tiny_stream.json").read_text())
    stream = [(  # noqa: E201
        (x,), y, TAGS[tag]) for x, y, tag in doc["stream"]]
    return doc, stream


def leaf_cells(tree):
    """{leaf node id: cell} by a depth-first pass over the node arena.

    Independent of OnlineTree.cell_diameter's walk: each child's cell is
    copied from its parent's with the split dimension's interval cut at
    the threshold.
    """
    from orf.tree import InternalNode
    cells = {}
    stack = [(tree.ROOT_ID, [(-math.inf, math.inf)] * tree.n_features)]
    while stack:
        node_id, cell = stack.pop()
        node = tree.nodes[node_id]
        if type(node) is InternalNode:
            lo, hi = cell[node.dim]
            left, right = list(cell), list(cell)
            left[node.dim] = (lo, node.threshold)
            right[node.dim] = (node.threshold, hi)
            stack += [(node.left, left), (node.right, right)]
        else:
            cells[node_id] = cell
    return cells


def tree_skeleton(tree):
    """Structure-only view of a tree: split layout, thresholds, leaf cells."""
    from orf.tree import InternalNode
    cells = leaf_cells(tree)
    out = []
    for node_id, node in enumerate(tree.nodes):
        if type(node) is InternalNode:
            out.append(("split", node_id, node.dim, node.threshold,
                        node.left, node.right))
        else:
            out.append(("leaf", node.node_id, node.depth, node.created_at,
                        tuple(cells[node.node_id])))
    return out


def leaf_cells_in_order(tree):
    """(leaf, cell) pairs sorted spatially (1-D helper for the tiny fixture)."""
    cells = leaf_cells(tree)
    return sorted(((l, cells[l.node_id]) for l in leaves(tree)),
                  key=lambda pair: pair[1][0][0])


def approx_inf(v):
    return None if v is None or math.isinf(v) else v
