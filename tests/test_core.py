import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orf.core import (SCHEDULE_CAP, HyperParams, LabeledPoint, RngStream,
                      StreamAssignment, alpha, assign_stream, beta,
                      sum_in_order)


def make_params(**over):
    base = dict(num_trees=1, lam=1.0, m=10, tau=0.001, alpha_base=1.0,
                alpha_growth=1.1, beta_multiplier=1000.0, master_seed=42)
    base.update(over)
    return HyperParams(**base)


@pytest.mark.parametrize("a0, growth, d, expect", [
    (1.0, 1.1, 0, 1),        # 1.1^0
    (1.0, 1.1, 10, 3),       # ceil(1.1^10) = ceil(2.5937...)
    (10.0, 1.00001, 0, 10),  # 10 * 1.00001^0
])
def test_alpha_examples(a0, growth, d, expect):
    p = make_params(alpha_base=a0, alpha_growth=growth)
    assert alpha(p, d) == expect


@pytest.mark.parametrize("mult, a0, growth, d, expect", [
    (1000.0, 1.0, 1.1, 0, 1000),
    (4.0, 25.0, 1.01, 0, 100),
])
def test_beta_examples(mult, a0, growth, d, expect):
    p = make_params(alpha_base=a0, alpha_growth=growth, beta_multiplier=mult)
    assert beta(p, d) == expect


def test_beta_multiplier_one_is_identity():
    p = make_params(beta_multiplier=1.0, alpha_base=3.0, alpha_growth=1.3)
    assert all(beta(p, d) == alpha(p, d) for d in range(50))


@given(a0=st.floats(0.01, 50), growth=st.floats(1.0001, 3.0, exclude_min=True))
@settings(max_examples=50)
def test_schedule_monotone_and_ordered(a0, growth):
    p = make_params(alpha_base=a0, alpha_growth=growth, beta_multiplier=2.5)
    prev = 0
    for d in range(0, 200):
        a = alpha(p, d)
        assert a >= max(1, prev)
        assert beta(p, d) >= a
        prev = a


@pytest.mark.parametrize("growth", [1.001, 1.1])
def test_depth_over_alpha_vanishes(growth):
    p = make_params(alpha_growth=growth)
    ratios = [d / alpha(p, d) for d in range(0, 10_001)]
    # peak is at d ~ 1/ln(growth); past it the trend is decay (ceil()
    # quantization allows flat stretches, so sample geometrically)
    peak = max(range(len(ratios)), key=ratios.__getitem__)
    assert peak < 2 / math.log(growth)
    d = max(peak, 1)
    samples = []
    while d <= 10_000 and alpha(p, d) < SCHEDULE_CAP:
        samples.append(ratios[d])
        d *= 2
    assert all(b < a for a, b in zip(samples, samples[1:]))
    assert ratios[10_000] < 0.5 * ratios[peak]
    if growth == 1.1:
        # schedule saturates the overflow clamp well before d=10^4
        assert all(r < 1e-12 for r in ratios[2000:])


def test_assign_stream_degenerate():
    rng = RngStream(1)
    p = make_params(p_structure=1 - 1e-12)
    tags = {assign_stream(rng, p) for _ in range(1000)}
    assert tags == {StreamAssignment.STRUCTURE}


@pytest.mark.parametrize("p_s, p_k, which, expect", [
    (0.5, 0.0, StreamAssignment.STRUCTURE, 0.5),
    (0.4, 0.2, StreamAssignment.ESTIMATION, 0.4),
])
def test_assign_stream_fractions(p_s, p_k, which, expect):
    rng = RngStream(123)
    p = make_params(p_structure=p_s, p_skip=p_k)
    n = 100_000
    hits = sum(assign_stream(rng, p) is which for _ in range(n))
    assert abs(hits / n - expect) < 0.01


def test_all_stream_types_keep_arriving():
    rng = RngStream(5)
    p = make_params(p_structure=0.5, p_skip=0.2)
    counts = {t: 0 for t in StreamAssignment}
    milestones = {}
    for n in range(1, 10_001):
        counts[assign_stream(rng, p)] += 1
        if n in (1000, 10_000):
            milestones[n] = dict(counts)
    assert all(v >= 1 for v in milestones[1000].values())
    assert all(milestones[10_000][t] > milestones[1000][t] for t in StreamAssignment)


def test_labeled_point_validation():
    LabeledPoint((0.0, 1.5), 1).validate(2, 2)
    with pytest.raises(ValueError):
        LabeledPoint((0.0,), 0).validate(2, 2)
    with pytest.raises(ValueError):
        LabeledPoint((0.0, math.nan), 0).validate(2, 2)
    with pytest.raises(ValueError):
        LabeledPoint((0.0, 1.0), 2).validate(2, 2)


class TestHyperParams:
    def test_json_round_trip_uses_exact_names(self):
        p = make_params(fringe_capacity=7)
        doc = p.to_json()
        assert set(doc) == {"num_trees", "lambda", "m", "tau", "p_structure",
                            "p_skip", "alpha_base", "alpha_growth",
                            "beta_multiplier", "fringe_capacity", "master_seed"}
        assert doc["lambda"] == 1.0
        assert HyperParams.from_json(json.loads(json.dumps(doc))) == p

    def test_unknown_key_rejected(self):
        doc = make_params().to_json()
        doc["lambda_"] = 2.0
        with pytest.raises(ValueError, match="lambda_"):
            HyperParams.from_json(doc)

    @pytest.mark.parametrize("bad", [
        dict(num_trees=0), dict(lam=-1), dict(m=0), dict(tau=-0.1),
        dict(alpha_base=0), dict(alpha_growth=1.0), dict(beta_multiplier=0.5),
        dict(p_structure=0.0), dict(p_structure=0.8, p_skip=0.3),
        dict(p_skip=-0.1), dict(fringe_capacity=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            make_params(**bad)


class TestRngStream:
    def test_replay_million_mixed_draws(self):
        a, b = RngStream(99), RngStream(99)
        for _ in range(250_000):
            assert a.uniform() == b.uniform()
            assert a.randint(0, 1000) == b.randint(0, 1000)
            assert a.poisson(3.0, 99) == b.poisson(3.0, 99)
            assert a.normal() == b.normal()

    def test_children_distinct_and_deterministic(self):
        root = RngStream(4)
        seqs = {}
        for i in range(5):
            seqs[i] = [root.child(i).uniform() for _ in range(4)]
        for i in range(5):
            assert [RngStream(4).child(i).uniform() for _ in range(4)] == seqs[i]
        flat = {tuple(v) for v in seqs.values()}
        assert len(flat) == 5

    def test_poisson_zero_rate(self):
        rng = RngStream(0)
        assert all(rng.poisson(0.0, 5) == 0 for _ in range(100))

    @pytest.mark.parametrize("lam", [0.5, 3.0, 50.0])
    def test_poisson_mean(self, lam):
        rng = RngStream(11)
        n = 20_000
        mean = sum(rng.poisson(lam, 10 ** 9) for _ in range(n)) / n
        assert abs(mean - lam) < 4 * math.sqrt(lam / n)

    @pytest.mark.parametrize("lam, cap", [
        (0.5, 2), (3.0, 2), (30.0, 2),
        (50.0, 1000),  # the blocks never reach the cap
    ])
    def test_poisson_cap_draws_as_uncapped(self, lam, cap):
        def uncapped(rng, lam):
            """The draw as made before it took a cap."""
            total = 0
            while lam > 30.0:
                total += rng._poisson_small(30.0)
                lam -= 30.0
            return total + rng._poisson_small(lam)

        a, b = RngStream(13), RngStream(13)
        for _ in range(2000):
            assert a.poisson(lam, cap) == min(uncapped(b, lam), cap)
        assert a.uniform() == b.uniform()

    def test_poisson_cap_ends_a_huge_rate(self):
        rng = RngStream(1)
        assert [rng.poisson(1e12, c) for c in (0, 1, 5)] == [0, 1, 5]

    def test_categorical_frequencies(self):
        rng = RngStream(2)
        w = [0.2, 0.5, 0.3]
        n = 50_000
        counts = [0, 0, 0]
        for _ in range(n):
            counts[rng.categorical(w)] += 1
        for c, wi in zip(counts, w):
            assert abs(c / n - wi) < 0.01

    def test_normal_moments(self):
        rng = RngStream(3)
        xs = [rng.normal(2.0, 0.5) for _ in range(50_000)]
        mean = sum(xs) / len(xs)
        var = sum((v - mean) ** 2 for v in xs) / len(xs)
        assert abs(mean - 2.0) < 0.02
        assert abs(var - 0.25) < 0.02

    @given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    def test_sample_distinct(self, n, seed):
        rng = RngStream(seed)
        k = rng.randint(0, n + 1)
        got = rng.sample_distinct(n, k)
        assert len(got) == k == len(set(got))
        assert all(0 <= v < n for v in got)

    def test_state_round_trip_mid_sequence(self):
        rng = RngStream(77)
        [rng.poisson(2.0, 99) for _ in range(100)]
        clone = RngStream(77)
        clone.set_state(json.loads(json.dumps(rng.get_state())))
        assert [rng.uniform() for _ in range(50)] == [clone.uniform() for _ in range(50)]
        assert clone.child(1).uniform() == rng.child(1).uniform()


def _compensated_sum(values):
    """builtin sum() of floats from Python 3.12 on (Neumaier's method)."""
    s = c = 0.0
    for x in values:
        t = s + x
        c += (s - t) + x if abs(s) >= abs(x) else (x - t) + s
        s = t
    return s + c


def test_sum_in_order_is_left_to_right():
    accs = [0.72155, 0.72445, 0.69331, 0.71121, 0.73188, 0.7298, 0.72317,
            0.71484, 0.72904, 0.63898]
    assert repr(sum_in_order(accs)) == "7.11823"
    # what a compensated sum gives: it would change curves.csv bytes
    assert repr(_compensated_sum(accs)) == "7.1182300000000005"
    assert sum_in_order([]) == 0.0
    assert sum_in_order(iter([1, 0.5])) == 1.5
