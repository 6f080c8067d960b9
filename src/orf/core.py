"""Shared domain types: stream elements, hyperparameters, schedules, RNG,
plus the order-fixed float sum and the atomic file write the outputs use.

Everything here is immutable after construction except RngStream, which is
single-owner: never share one across trees, derive children instead.
"""

from __future__ import annotations

import enum
import math
import os
import pathlib
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

# Schedules are clamped here so ceil() never overflows; no experiment gets
# anywhere near 2**62 estimation points.
SCHEDULE_CAP = 2 ** 62

# Child-stream indices below this are reserved for forest trees; harness
# code (data generation, probes, ...) must derive children at or above it.
RESERVED_CHILD_INDICES = 1_000_000


class InvariantViolation(RuntimeError):
    """A runtime check on one of the documented invariants failed."""


class StreamAssignment(enum.Enum):
    STRUCTURE = "structure"
    ESTIMATION = "estimation"
    SKIP = "skip"


def check_features(x, n_features: int) -> None:
    """The one feature rule: exactly n_features values, all finite."""
    if len(x) != n_features:
        raise ValueError(f"expected {n_features} features, got {len(x)}")
    if not all(map(math.isfinite, x)):
        raise ValueError("features must be finite")


@dataclass(frozen=True)
class LabeledPoint:
    """One stream element: feature vector plus class index in [0, C)."""

    x: tuple[float, ...]
    y: int

    def validate(self, n_features: int, n_classes: int) -> None:
        check_features(self.x, n_features)
        if not 0 <= self.y < n_classes:
            raise ValueError(f"label {self.y} outside [0, {n_classes})")


def is_int(v) -> bool:
    """A JSON integer; bool is an int subclass and never passes."""
    return type(v) is int


_FLOAT_MAX = 1.7976931348623157e308  # the largest finite float


def is_number(v) -> bool:
    """A finite JSON number: an int or a float (never a bool) that a float
    can hold; NaN fails the comparison."""
    return type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX


# field type -> (predicate, one value, several), for `decode`
_RULES = {"int": (is_int, "an integer", "integers"),
          "float": (is_number, "a finite number", "finite numbers"),
          "str": (lambda v: type(v) is str, "a string", "strings")}


def decode(cls, doc, path: str = "", **convert):
    """The one JSON-object decoder: the dataclass `cls` built from `doc`.

    The keys are cls's fields (or `metadata["json"]`); a field without a
    default is required. A value must match its field's type: `int` is a
    JSON integer, never a bool, `float` a finite number, `X | None` also
    takes null and `tuple[X, ...]` is a list of X. `convert[name]` then
    decodes the field (each entry, for a tuple): a dataclass, or a function
    of (value, key). `path` prefixes the keys errors name.
    """
    if type(doc) is not dict:
        raise ValueError(f"{path[:-1] or 'the document'} is not a JSON object")
    by_key = {f.metadata.get("json", f.name): f for f in fields(cls)}
    unknown = doc.keys() - by_key.keys()
    if unknown:
        raise ValueError(f"unknown keys: {sorted(path + k for k in unknown)}")
    missing = [path + k for k, f in by_key.items()
               if k not in doc and f.default is MISSING]
    if missing:
        raise ValueError(f"missing keys: {missing}")
    return cls(**{f.name: _value(f.type, doc[k], path + k,
                                 convert.get(f.name))
                  for k, f in by_key.items() if k in doc})


def _value(kind: str, v, key: str, convert):
    """`v` checked against the field type `kind`; a list becomes a tuple."""
    if v is None and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    if kind.startswith("tuple["):
        item = kind[len("tuple["):-len(", ...]")]
        check, _, many = _RULES.get(item, (None, None, "objects"))
        if type(v) is not list:
            raise ValueError(f"{key} must be a list of {many}, got {v!r}")
        bad = [x for x in v if check and not check(x)]
        if bad:
            raise ValueError(f"{key} entries must be {many}, got {bad[0]!r}")
        return tuple(_value(item, x, f"{key}[{i}]", convert)
                     for i, x in enumerate(v))
    if kind in _RULES and not _RULES[kind][0](v):
        raise ValueError(f"{key} must be {_RULES[kind][1]}, got {v!r}")
    if isinstance(convert, type):
        return decode(convert, v, key + ".")
    return v if convert is None else convert(v, key)


@dataclass(frozen=True)
class HyperParams:
    """Forest-wide knobs. `lam` serializes under the JSON key "lambda".

    fringe_capacity=None means unbounded: every leaf is active and the
    memory manager is a no-op.
    """

    num_trees: int
    lam: float = field(metadata={"json": "lambda"})
    m: int
    tau: float
    alpha_base: float
    alpha_growth: float
    beta_multiplier: float
    master_seed: int
    p_structure: float = 0.5
    p_skip: float = 0.0
    fringe_capacity: int | None = None

    def __post_init__(self):
        for holds, rule in (
                (self.num_trees >= 1, "num_trees must be >= 1"),
                (self.lam >= 0, "lambda must be >= 0"),
                (self.m >= 1, "m must be >= 1"),
                (self.tau >= 0, "tau must be >= 0"),
                (self.alpha_base > 0, "alpha_base must be > 0"),
                (self.alpha_growth > 1, "alpha_growth must be > 1"),
                (self.beta_multiplier >= 1, "beta_multiplier must be >= 1"),
                (0 < self.p_structure < 1, "p_structure must be in (0, 1)"),
                (0 <= self.p_skip < 1, "p_skip must be in [0, 1)"),
                (self.p_structure + self.p_skip < 1,
                 "p_structure + p_skip must be < 1"),
                (self.fringe_capacity is None or self.fringe_capacity >= 1,
                 "fringe_capacity must be >= 1 or null"),
                (-(2 ** 63) <= self.master_seed < 2 ** 64,
                 "master_seed must fit in 64 bits")):
            if not holds:
                raise ValueError(rule)

    def to_json(self) -> dict:
        return {f.metadata.get("json", f.name): getattr(self, f.name)
                for f in fields(self)}

    @classmethod
    def from_json(cls, d: dict) -> "HyperParams":
        return decode(cls, d)


def majority(counts) -> int:
    """Index of the largest count; ties go to the smaller index."""
    return counts.index(max(counts))


def sum_in_order(values) -> float:
    """Float sum added strictly left to right, as builtin sum() did up to
    Python 3.11; from 3.12 on sum() compensates rounding, which would make
    output bytes depend on the interpreter version."""
    acc = 0.0
    for v in values:
        acc += v
    return acc


def write_atomic(path, data: bytes) -> None:
    """Write `data` to a temporary name beside `path`, then rename it into
    place: `path` never holds part of a write."""
    path = pathlib.Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def alpha(params: HyperParams, d: int) -> int:
    """Minimum per-child estimation count to allow a split at parent depth d."""
    try:
        v = params.alpha_base * params.alpha_growth ** d
    except OverflowError:
        return SCHEDULE_CAP
    if v >= SCHEDULE_CAP:
        return SCHEDULE_CAP
    return math.ceil(v)


def split_budget(params: HyperParams, est_seen: int) -> float:
    """Most splits a tree may hold after `est_seen` estimation points:
    K <= N_e/(2*alpha(1)) + 1, since every split below the root gives both
    children at least alpha(1) of them."""
    return est_seen / (2 * alpha(params, 1)) + 1


def beta(params: HyperParams, d: int) -> int:
    """Leaf estimation count past which a valid split is forced."""
    v = params.beta_multiplier * alpha(params, d)
    if v >= SCHEDULE_CAP:
        return SCHEDULE_CAP
    return math.ceil(v)


def assign_stream(rng: "RngStream", params: HyperParams) -> StreamAssignment:
    """Tag one point for one tree. Consumes exactly one uniform draw."""
    u = rng.uniform()
    if u < params.p_structure:
        return StreamAssignment.STRUCTURE
    if u < params.p_structure + params.p_skip:
        return StreamAssignment.SKIP
    return StreamAssignment.ESTIMATION


class RngStream:
    """Deterministic PCG64 stream with child derivation by index.

    Poisson sampling inverts the CDF by sequential search (exact, one
    uniform per draw); rates above 30 are split additively so the search
    term never underflows. Normals use a non-caching Box-Muller, so the
    saved position is the generator's alone: a stream is restored by
    seeding it again (`RngStream(seed).child(i)`) and calling `set_state`.
    """

    __slots__ = ("_seq", "_gen")

    def __init__(self, seed: int, spawn_key=()):
        self._seq = np.random.SeedSequence(seed & (2 ** 64 - 1),
                                           spawn_key=spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def child(self, index: int) -> "RngStream":
        return RngStream(self._seq.entropy, self._seq.spawn_key + (index,))

    def uniform(self) -> float:
        return float(self._gen.random())

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi)."""
        return int(self._gen.integers(lo, hi))

    def poisson(self, lam: float, cap: int) -> int:
        """min(Poisson(lam), cap). Once the rate-30 blocks reach `cap` the
        rest of the rate cannot change the result and is not drawn, so a
        huge rate costs no more than cap/30 blocks."""
        if lam < 0:
            raise ValueError("rate must be >= 0")
        total = 0
        while lam > 30.0:
            if total >= cap:
                return cap
            total += self._poisson_small(30.0)
            lam -= 30.0
        return min(total + self._poisson_small(lam), cap)

    def _poisson_small(self, lam: float) -> int:
        u = self.uniform()
        p = math.exp(-lam)
        cdf = p
        k = 0
        while u >= cdf:
            k += 1
            p *= lam / k
            cdf += p
            if p <= 0.0:  # float exhaustion; u was in the far tail
                break
        return k

    def categorical(self, weights) -> int:
        u = self.uniform()
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if u < acc:
                return i
        return len(weights) - 1  # guard for cumulative rounding

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        u1 = 1.0 - self.uniform()  # in (0, 1], keeps log() finite
        u2 = self.uniform()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mean + std * z

    def sample_distinct(self, n: int, k: int) -> list[int]:
        """k distinct integers from [0, n), in draw order."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        pool = list(range(n))
        for i in range(k):
            j = self.randint(i, n)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def permutation(self, n: int) -> list[int]:
        return [int(i) for i in self._gen.permutation(n)]

    def get_state(self) -> list[int]:
        """PCG64's [state, has_uint32, uinteger]; the seed fixes the rest."""
        st = self._gen.bit_generator.state
        return [st["state"]["state"], st["has_uint32"], st["uinteger"]]

    def set_state(self, position) -> None:
        """Move to a position `get_state` gave; the seed stays."""
        if not (type(position) is list and len(position) == 3
                and all(map(is_int, position)) and 0 <= position[0] < 2 ** 128
                and 0 <= position[1] <= 1 and 0 <= position[2] < 2 ** 32):
            raise ValueError(f"rng must be [state < 2**128, has_uint32 0 or "
                             f"1, uinteger < 2**32], got {position!r}")
        st = self._gen.bit_generator.state
        st["state"]["state"], st["has_uint32"], st["uinteger"] = position
        self._gen.bit_generator.state = st
