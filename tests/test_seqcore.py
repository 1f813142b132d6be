"""Sequence algebra, greedy drivers, and checker behavior."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqsub import adalloc
from seqsub.seqcore import (
    ActionSet,
    DiscreteSequence,
    MismatchedActionSets,
    SegmentCapExceeded,
    SequenceFunction,
    TimedSequence,
    check_derivative_props,
    check_nondecreasing,
    check_step_gain_bound,
    check_submodular,
    concat,
    dominates,
    equivalent,
    exact_argmax,
    greedy_continuous,
    greedy_discrete,
    marginal_value,
    random_discrete_sequence,
    sample_dominated,
)

from conftest import random_coverage


ABC = ActionSet(("s1", "s2", "s3"))


def D(*items):
    return DiscreteSequence(items, ABC)


# ---------------------------------------------------------------------------
# concat / slice
# ---------------------------------------------------------------------------

def test_concat_discrete():
    assert concat(D("s1"), D("s2", "s3")).items == ("s1", "s2", "s3")


def test_concat_empty_identity():
    a = D("s1", "s3")
    assert concat(D(), a).items == a.items
    assert concat(a, D()).items == a.items


def test_concat_timed_length_additive():
    a = TimedSequence((("s", 1.0),))
    b = TimedSequence((("s", 2.0),))
    assert concat(a, b).length == pytest.approx(3.0, abs=1e-12)


def test_concat_mismatched_action_sets():
    other = ActionSet(("x", "y"))
    with pytest.raises(MismatchedActionSets):
        concat(D("s1"), DiscreteSequence(("x",), other))


def test_concat_kind_mismatch():
    with pytest.raises(TypeError):
        concat(D("s1"), TimedSequence((("s1", 1.0),)))


def test_slice_timed_split():
    a = TimedSequence((("s", 1.0), ("t", 2.0)))
    cut = a.slice(0.5, 1.5)
    assert cut.segments == (("s", 0.5), ("t", 0.5))


def test_slice_timed_empty_intersection():
    a = TimedSequence((("s", 1.0),))
    assert a.slice(2.0, 3.0).is_empty()


def test_slice_discrete_subrange():
    a = D("s1", "s2", "s3")
    assert a.slice(2, 3).items == ("s2", "s3")
    assert a.slice(1, 0).is_empty()


def test_slice_full_range_is_identity():
    a = TimedSequence((("s", 0.7), ("t", 1.3), ("s", 0.2)))
    assert equivalent(a.slice(0.0, a.length), a)


def test_durations_must_be_positive():
    with pytest.raises(ValueError):
        TimedSequence((("s", 0.0),))


def test_action_set_rejects_empty_and_duplicates():
    with pytest.raises(ValueError):
        ActionSet(())
    with pytest.raises(ValueError):
        ActionSet(("s1", "s1"))


# ---------------------------------------------------------------------------
# domination
# ---------------------------------------------------------------------------

def test_dominates_discrete():
    assert dominates(D("s1", "s3"), D("s1", "s2", "s3"))
    assert not dominates(D("s3", "s1"), D("s1", "s2", "s3"))


def test_dominates_timed():
    b = TimedSequence((("x", 1.0), ("y", 1.0), ("x", 0.5)))
    assert dominates(TimedSequence((("x", 1.2),)), b)  # pieced from both x windows
    assert not dominates(TimedSequence((("x", 1.6),)), b)
    assert dominates(TimedSequence(()), b)


def test_sample_dominated_examples():
    b = D("s1", "s2", "s3")
    # Some seed keeps a strict subsequence, some keeps everything, some keeps nothing.
    results = {sample_dominated(b, seed).items for seed in range(200)}
    assert ("s1", "s2", "s3") in results
    assert () in results
    assert any(0 < len(r) < 3 for r in results)
    for seed in range(50):
        assert dominates(sample_dominated(b, seed), b)


def test_sample_dominated_timed():
    b = TimedSequence((("x", 1.0), ("y", 2.0)))
    for seed in range(50):
        a = sample_dominated(b, seed)
        assert dominates(a, b)
        assert a.length <= b.length + 1e-9
    assert any(sample_dominated(b, seed).is_empty() for seed in range(40))


# ---------------------------------------------------------------------------
# marginal value and greedy (discrete)
# ---------------------------------------------------------------------------

def test_marginal_value_identities(i2):
    u, actions = i2
    b = DiscreteSequence(("s1", "s2"), actions)
    empty = DiscreteSequence((), actions)
    assert marginal_value(u, b, empty) == pytest.approx(u(b), abs=1e-12)
    assert marginal_value(u, empty, b) == pytest.approx(0.0, abs=1e-12)
    assert marginal_value(
        u, DiscreteSequence(("s2",), actions), DiscreteSequence(("s1",), actions)
    ) == pytest.approx(1.0, abs=1e-12)


def test_greedy_discrete_coverage(i2):
    u, actions = i2
    best2 = greedy_discrete(u, actions, 2)
    assert best2.items == ("s1", "s2")
    assert u(best2) == pytest.approx(3.0, abs=1e-12)
    assert greedy_discrete(u, actions, 1).items == ("s1",)
    assert greedy_discrete(u, actions, 0).is_empty()


def test_greedy_discrete_step_optimality():
    rng = np.random.default_rng(5)
    for _ in range(20):
        u, actions = random_coverage(rng)
        horizon = int(rng.integers(1, 4))
        h = greedy_discrete(u, actions, horizon)
        for i in range(1, horizon + 1):
            prefix = h.slice(1, i - 1)
            picked = marginal_value(u, DiscreteSequence((h.items[i - 1],), actions), prefix)
            for s in actions:
                other = marginal_value(u, DiscreteSequence((s,), actions), prefix)
                assert picked >= other - 1e-9


def test_greedy_discrete_negative_horizon(i2):
    u, actions = i2
    with pytest.raises(ValueError):
        greedy_discrete(u, actions, -1)


def test_exact_argmax_tie_break(i2):
    u, actions = i2
    # s1 and s2 both gain 2.0 from the empty prefix; order breaks the tie.
    assert exact_argmax(u, DiscreteSequence((), actions), actions) == "s1"


# ---------------------------------------------------------------------------
# greedy (continuous)
# ---------------------------------------------------------------------------

def test_greedy_continuous_single_config(i0):
    configs = adalloc.enumerate_configurations(i0)
    h = greedy_continuous(adalloc.incremental_oracle(i0), ActionSet(configs), 1.0)
    assert len(h.segments) == 1
    config, dur = h.segments[0]
    assert config.ads_for("t1") == ("a1",)
    assert dur == pytest.approx(1.0, abs=1e-12)


def test_greedy_continuous_switches_at_exhaustion(i1):
    configs = adalloc.enumerate_configurations(i1)
    h = greedy_continuous(adalloc.incremental_oracle(i1), ActionSet(configs), 1.0)
    assert len(h.segments) == 2
    assert h.segments[0][1] == pytest.approx(0.5, abs=1e-9)
    assert h.segments[0][0].ads_for("t1") == ("a1",)
    assert h.segments[1][0].ads_for("t1") == ("a2",)
    assert h.length == pytest.approx(1.0, abs=1e-12)


def test_greedy_continuous_zero_horizon(i0):
    configs = adalloc.enumerate_configurations(i0)
    h = greedy_continuous(adalloc.incremental_oracle(i0), ActionSet(configs), 0.0)
    assert h.is_empty()


def test_greedy_continuous_segment_cap():
    actions = ActionSet(("a", "b"))
    oracle = lambda prefix, action: (1.0, 0.01)  # never makes real progress
    with pytest.raises(SegmentCapExceeded):
        greedy_continuous(oracle, actions, 10.0, max_segments=5)


def test_greedy_continuous_bad_hold():
    actions = ActionSet(("a",))
    with pytest.raises(ValueError):
        greedy_continuous(lambda p, a: (1.0, 0.0), actions, 1.0)


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def _length_function():
    return SequenceFunction("discrete", lambda seq: float(seq.length))


def test_check_nondecreasing_length_ok():
    u = _length_function()
    gen = lambda rng: random_discrete_sequence(ABC, rng)
    report = check_nondecreasing(u, gen, samples=200, seed=3)
    assert report.ok
    assert report.samples_tested == 200


def test_check_nondecreasing_catches_decreasing():
    u = SequenceFunction("discrete", lambda seq: -float(seq.length))
    gen = lambda rng: random_discrete_sequence(ABC, rng, max_len=5)
    report = check_nondecreasing(u, gen, samples=200, seed=3)
    assert not report.ok
    v = report.violations[0]
    assert v.lhs > v.rhs
    assert "a" in v.witness and "b" in v.witness


def test_check_submodular_catches_superadditive():
    u = SequenceFunction("discrete", lambda seq: float(seq.length) ** 2)
    gen = lambda rng: random_discrete_sequence(ABC, rng, max_len=5)
    report = check_submodular(u, gen, gen, samples=300, seed=11)
    assert not report.ok


def test_check_submodular_coverage_ok():
    rng = np.random.default_rng(2)
    u, actions = random_coverage(rng)
    gen = lambda r: random_discrete_sequence(actions, r)
    assert check_submodular(u, gen, gen, samples=300, seed=4).ok


class _ConstantRateModel:
    """Utility grows at unit rate forever, no breakpoints anywhere."""

    def random_prefix(self, rng):
        k = int(rng.integers(0, 3))
        return TimedSequence(tuple(("go", float(rng.uniform(0.1, 1.0))) for _ in range(k)))

    def random_action(self, rng):
        return "go"

    def utility(self, seq):
        return seq.length

    def rate(self, action, delta, prefix):
        return 1.0

    def breakpoints(self, action, prefix):
        return ()

    def best_rate(self, prefix):
        return 1.0


def test_check_derivative_constant_rate():
    report = check_derivative_props(_ConstantRateModel(), samples=50, seed=9)
    assert report.ok


def test_check_derivative_requires_breakpoints():
    class NoBreakpoints:
        pass

    with pytest.raises(TypeError):
        check_derivative_props(NoBreakpoints(), samples=1)


def test_check_step_gain_bound_coverage():
    rng = np.random.default_rng(8)
    for _ in range(5):
        u, actions = random_coverage(rng)
        gen = lambda r: random_discrete_sequence(actions, r)
        report = check_step_gain_bound(u, actions, gen, gen, samples=200, seed=13)
        assert report.ok


def test_checkers_reject_zero_samples():
    u = _length_function()
    gen = lambda rng: random_discrete_sequence(ABC, rng)
    with pytest.raises(ValueError):
        check_nondecreasing(u, gen, samples=0)


# ---------------------------------------------------------------------------
# hypothesis properties
# ---------------------------------------------------------------------------

items_st = st.lists(st.sampled_from(("s1", "s2", "s3")), max_size=8)
durations_st = st.lists(
    st.tuples(st.sampled_from(("x", "y")), st.floats(0.01, 5.0)), max_size=6
)


@given(items_st, items_st)
def test_concat_length_additive_discrete(xs, ys):
    a, b = DiscreteSequence(tuple(xs)), DiscreteSequence(tuple(ys))
    assert concat(a, b).length == a.length + b.length


@given(durations_st, durations_st)
def test_concat_length_additive_timed(xs, ys):
    a, b = TimedSequence(tuple(xs)), TimedSequence(tuple(ys))
    assert concat(a, b).length == pytest.approx(a.length + b.length, abs=1e-12)


@given(durations_st, st.integers(0, 10_000))
def test_sampled_cut_always_dominates(xs, seed):
    b = TimedSequence(tuple(xs))
    a = sample_dominated(b, seed)
    assert dominates(a, b)


@given(durations_st, st.floats(-1.0, 6.0), st.floats(-1.0, 6.0))
def test_slice_is_dominated(xs, x, y):
    b = TimedSequence(tuple(xs))
    assert dominates(b.slice(x, y), b)
