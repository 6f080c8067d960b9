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
from dataclasses import dataclass, fields

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


@dataclass(frozen=True)
class HyperParams:
    """Forest-wide knobs. `lam` serializes under the JSON key "lambda".

    fringe_capacity=None means unbounded: every leaf is active and the
    memory manager is a no-op.
    """

    num_trees: int
    lam: float
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
        for f in fields(self):
            v = getattr(self, f.name)
            # exact types: bool is an int subclass and must not pass
            if f.name in _INT_FIELDS:
                if type(v) is not int and not (
                        v is None and f.name == "fringe_capacity"):
                    raise ValueError(
                        f"{_JSON_KEYS[f.name]} must be an integer, got {v!r}")
            elif type(v) not in (int, float) or not math.isfinite(v):
                raise ValueError(
                    f"{_JSON_KEYS[f.name]} must be a finite number, got {v!r}")
        if self.num_trees < 1:
            raise ValueError("num_trees must be >= 1")
        if self.lam < 0:
            raise ValueError("lambda must be >= 0")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.alpha_base <= 0:
            raise ValueError("alpha_base must be > 0")
        if self.alpha_growth <= 1:
            raise ValueError("alpha_growth must be > 1")
        if self.beta_multiplier < 1:
            raise ValueError("beta_multiplier must be >= 1")
        if not 0 < self.p_structure < 1:
            raise ValueError("p_structure must be in (0, 1)")
        if not 0 <= self.p_skip < 1:
            raise ValueError("p_skip must be in [0, 1)")
        if self.p_structure + self.p_skip >= 1:
            raise ValueError("p_structure + p_skip must be < 1")
        if self.fringe_capacity is not None and self.fringe_capacity < 1:
            raise ValueError("fringe_capacity must be >= 1 or null")
        if not -(2 ** 63) <= self.master_seed < 2 ** 64:
            raise ValueError("master_seed must fit in 64 bits")

    def to_json(self) -> dict:
        d = {}
        for f in fields(self):
            d[_JSON_KEYS[f.name]] = getattr(self, f.name)
        return d

    @classmethod
    def from_json(cls, d: dict) -> "HyperParams":
        unknown = set(d) - set(_JSON_KEYS.values())
        if unknown:
            raise ValueError(f"unknown hyperparameter keys: {sorted(unknown)}")
        kwargs = {}
        for f in fields(cls):
            key = _JSON_KEYS[f.name]
            if key in d:
                kwargs[f.name] = d[key]
        return cls(**kwargs)


_JSON_KEYS = {f.name: ("lambda" if f.name == "lam" else f.name)
              for f in fields(HyperParams)}
_INT_FIELDS = {"num_trees", "m", "master_seed", "fringe_capacity"}


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
    term never underflows. Normals use a non-caching Box-Muller so the
    serialized position is just the bit-generator state.
    """

    __slots__ = ("_entropy", "_spawn_key", "_gen")

    def __init__(self, seed: int | None = None, *, _entropy=None, _spawn_key=()):
        if seed is not None:
            _entropy = seed & (2 ** 64 - 1)
        if _entropy is None:
            raise ValueError("seed required")
        self._entropy = int(_entropy)
        self._spawn_key = tuple(int(i) for i in _spawn_key)
        ss = np.random.SeedSequence(entropy=self._entropy, spawn_key=self._spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def child(self, index: int) -> "RngStream":
        return RngStream(_entropy=self._entropy,
                         _spawn_key=self._spawn_key + (index,))

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

    def get_state(self) -> dict:
        return {"entropy": self._entropy,
                "spawn_key": list(self._spawn_key),
                "bit_generator": self._gen.bit_generator.state}

    @classmethod
    def from_state(cls, state: dict) -> "RngStream":
        rng = cls(_entropy=state["entropy"], _spawn_key=tuple(state["spawn_key"]))
        rng._gen.bit_generator.state = state["bit_generator"]
        return rng
