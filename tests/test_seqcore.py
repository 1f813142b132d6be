"""Sequence algebra, greedy drivers, and checker behavior."""

import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from seqsub import adalloc, qrewrite, seqcore
from seqsub.seqcore import (
    DEFAULT_TOL,
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

from conftest import make_i3, needs_two_cpus, probe_env, random_coverage


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


def test_concat_checks_the_items_without_an_action_set_against_the_other():
    # concat builds unchecked only where both sides share their action set.
    with pytest.raises(ValueError):
        concat(DiscreteSequence(("x",)), D())
    with pytest.raises(ValueError):
        concat(D("s1"), DiscreteSequence(("x",)))
    assert concat(DiscreteSequence(("s1",)), D("s2")) == D("s1", "s2")
    assert concat(D("s1"), D("s2")) == D("s1", "s2") and concat(D("s1"), D()).actions is ABC
    bare = concat(DiscreteSequence(("x",)), DiscreteSequence(["y"]))
    assert bare == DiscreteSequence(("x", "y")) and type(bare.items) is tuple


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
    # The public constructor checks; only concat, slice and the samplers build unchecked.
    for bad in (0, -0.0, -1e-300, -2.0, math.nan, -math.inf):
        with pytest.raises(ValueError):
            TimedSequence((("s", 1.0), ("t", bad)))


def _checked(seq):
    """`seq` rebuilt through the checking constructor, which must accept its segments."""
    return TimedSequence(seq.segments)


def test_concat_and_slice_build_what_the_checked_constructor_builds():
    # Cuts at every segment edge, inside segments, before 0, past the end and
    # reversed (empty); durations given as ints and floats.
    rng = np.random.default_rng(1063)
    for _ in range(300):
        n = int(rng.integers(0, 5))
        durs = [int(rng.integers(1, 4)) if rng.random() < 0.3 else float(rng.uniform(1e-3, 2.0)) for _ in range(n)]
        seq = TimedSequence(tuple((f"s{int(rng.integers(3))}", d) for d in durs))
        other = TimedSequence(tuple((f"s{int(rng.integers(3))}", float(rng.uniform(0.1, 1.0))) for _ in range(2)))
        edges = [0.0]
        for _, d in seq.segments:
            edges.append(edges[-1] + d)
        cuts = edges + [float(x) for x in rng.uniform(-0.5, seq.length + 0.5, size=3)]
        parts = [seq.slice(x, y) for x in cuts for y in cuts]
        parts += [concat(seq, other), concat(other, seq), concat(seq, TimedSequence(()))]
        for part in parts:
            rebuilt = _checked(part)
            assert part == rebuilt and hash(part) == hash(rebuilt) and repr(part) == repr(rebuilt)
            assert all(type(seg) is tuple and type(seg[1]) is float for seg in part.segments)
        assert concat(seq, other) == TimedSequence(seq.segments + other.segments)
        assert seq.slice(seq.length, 0.0) == seq.slice(2.0 * seq.length + 1.0, math.inf) == TimedSequence(())


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


def test_equivalence_holds_its_meaning_at_tiny_time_scales():
    # The duration slack is relative below length 1: two different actions
    # over 1e-10 are not equivalent, while a rounding-sized nudge still is.
    tiny = 1e-10
    assert not equivalent(TimedSequence((("x", tiny),)), TimedSequence((("y", tiny),)))
    assert not dominates(TimedSequence((("x", tiny),)), TimedSequence((("y", 5 * tiny),)))
    assert equivalent(TimedSequence((("x", tiny),)), TimedSequence((("x", tiny * (1 + 1e-12)),)))
    assert equivalent(TimedSequence((("x", 1.0),)), TimedSequence((("x", 1.0), ("y", 1e-10))))


def _slack(a, b):
    """The duration slack of `dominates`: DEFAULT_TOL relative to the longer length, up to length 1."""
    return DEFAULT_TOL * min(1.0, max(a.length, b.length))


def reference_dominates(a, b):
    """The canonicalising walk `dominates` replaced: adjacent same-action segments merged first."""
    need, have = a.canonical().segments, b.canonical().segments
    slack = _slack(a, b)
    i = j = 0
    ra = need[0][1] if need else 0.0
    rb = have[0][1] if have else 0.0
    while i < len(need):
        if ra <= slack:
            i += 1
            ra = need[i][1] if i < len(need) else 0.0
            continue
        if j >= len(have):
            return False
        if need[i][0] == have[j][0] and rb > slack:
            take = min(ra, rb)
            ra -= take
            rb -= take
        else:
            j += 1
            rb = have[j][1] if j < len(have) else 0.0
    return True


def reference_equivalent(a, b):
    """The lockstep walk `equivalent` replaced: merged segments consumed pairwise."""
    ca, cb = a.canonical().segments, b.canonical().segments
    slack = _slack(a, b)
    if abs(math.fsum(d for _, d in ca) - math.fsum(d for _, d in cb)) > slack:
        return False
    i = j = 0
    ra = ca[0][1] if ca else 0.0
    rb = cb[0][1] if cb else 0.0
    while i < len(ca) and j < len(cb):
        if ca[i][0] != cb[j][0]:
            return False
        take = min(ra, rb)
        ra -= take
        rb -= take
        if ra <= slack:
            i += 1
            ra = ca[i][1] if i < len(ca) else 0.0
        if rb <= slack:
            j += 1
            rb = cb[j][1] if j < len(cb) else 0.0
    return i >= len(ca) and j >= len(cb)


def _timed_pair(rng):
    """A timed sequence and a near copy: pieces split, nudged by 1e-10, dropped, shrunk or added.

    About a quarter of the pieces are of the order of the 1e-9 duration slack.
    """

    def duration():
        r = rng.random()
        if r < 0.25:
            return float(rng.choice([1e-10, 1e-9])) * (1.0 + rng.random())
        return float(rng.choice([0.25, 0.5, 1.0])) if r < 0.6 else float(rng.uniform(0.1, 1.5))

    def action():
        return str(rng.choice(["x", "y", "z"]))

    b = [(action(), duration()) for _ in range(int(rng.integers(0, 5)))]
    if rng.random() < 0.2:
        return b, [(action(), duration()) for _ in range(int(rng.integers(0, 5)))]
    a = []
    for act, d in b:
        r = rng.random()
        if r < 0.2:
            f = float(rng.uniform(0.1, 0.9))
            a += [(act, d * f), (act, d - d * f)]
        elif r < 0.3:
            a.append((act, d + float(rng.choice([-1.0, 1.0])) * 1e-10 * (1.0 + rng.random())))
        elif r < 0.4:
            a += [(act, d), (action(), 1e-10 * (1.0 + rng.random()))]
        elif r < 0.5:
            a.append((act, d * float(rng.uniform(0.5, 1.0))))
        elif r < 0.55:
            continue
        else:
            a.append((act, d))
    if rng.random() < 0.2:
        a.append((action(), duration()))
    return b, [(act, d) for act, d in a if d > 0.0]


def test_equivalent_is_mutual_domination_and_matches_the_old_walks():
    # Mutual domination is the definition of `equivalent`.  On segments
    # longer than twice the slack it answers as the old lockstep walk did,
    # and `dominates` as the old canonicalising walk did; they may part only
    # on pairs holding a piece of the order of the 1e-9 slack.
    rng = np.random.default_rng(20)
    differ = equal = 0
    for _ in range(12_000):
        b, a = _timed_pair(rng)
        seq_a, seq_b = TimedSequence(tuple(a)), TimedSequence(tuple(b))
        mutual = dominates(seq_a, seq_b) and dominates(seq_b, seq_a)
        assert equivalent(seq_a, seq_b) == equivalent(seq_b, seq_a) == mutual
        equal += mutual
        same = (
            dominates(seq_a, seq_b) == reference_dominates(seq_a, seq_b)
            and dominates(seq_b, seq_a) == reference_dominates(seq_b, seq_a)
            and mutual == reference_equivalent(seq_a, seq_b)
        )
        if not same:
            differ += 1
            assert min(d for _, d in a + b) < 2.0 * DEFAULT_TOL, (a, b)
    assert equal > 5_000  # the near copies make equivalence common
    assert 0 < differ < 1_500  # the slack region is reached, and it is where they differ


def test_equivalent_discrete_and_mixed_kinds():
    rng = np.random.default_rng(21)
    for _ in range(2_000):
        x = random_discrete_sequence(ABC, rng, max_len=3)
        y = random_discrete_sequence(ABC, rng, max_len=3)
        assert equivalent(x, y) == (x.items == y.items)
    assert not equivalent(D("s1"), TimedSequence((("s1", 1.0),)))


def test_sample_dominated_examples():
    b = D("s1", "s2", "s3")
    # Some seed keeps a strict subsequence, some keeps everything, some keeps nothing.
    results = {sample_dominated(b, np.random.default_rng(seed)).items for seed in range(200)}
    assert ("s1", "s2", "s3") in results
    assert () in results
    assert any(0 < len(r) < 3 for r in results)
    for seed in range(50):
        assert dominates(sample_dominated(b, np.random.default_rng(seed)), b)


def test_sample_dominated_timed():
    b = TimedSequence((("x", 1.0), ("y", 2.0)))
    for seed in range(50):
        a = sample_dominated(b, np.random.default_rng(seed))
        assert dominates(a, b)
        assert a.length <= b.length + 1e-9
    assert any(sample_dominated(b, np.random.default_rng(seed)).is_empty() for seed in range(40))


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


@pytest.mark.parametrize("order", [("x", "y"), ("y", "x")])
def test_greedy_continuous_tie_break(order):
    # Equal rates: the first action in input order runs, for its own hold.
    holds = {"x": 2.0, "y": 0.5}
    h = greedy_continuous(lambda prefix, a: (1.0, holds[a]), ActionSet(order), 1.0)
    assert h.segments[0] == (order[0], min(holds[order[0]], 1.0))


@pytest.mark.parametrize("order", [("rx", "ry"), ("ry", "rx")])
def test_best_rewrite_set_tie_break(order):
    # Both rewrites unlock the same ad, so every set of one has equal value.
    base = make_i3(1).base
    inst = qrewrite.RewriteInstance(base, tuple(qrewrite.Rewrite(r, ("a1",)) for r in order), 1)
    assert qrewrite.best_rewrite_set(inst, "t1", base.budgets) == ((order[0],), 0.4)


@pytest.mark.parametrize("order", [("t1", "t2"), ("t2", "t1")])
def test_greedy_rewrite_tie_break(order):
    # Two identical types: the first in input order is appended first.
    base = adalloc.AdInstance.build(
        ads=[("a1", 0.25)],
        query_types=[(t, 0.5) for t in order],
        bids={"a1": {"t1": 1.0, "t2": 1.0}},
        slots=1,
        horizon=1.0,
    )
    plan, _ = qrewrite.greedy_rewrite(qrewrite.RewriteInstance(base, (qrewrite.Rewrite("r1", ("a1",)),), 1))
    assert [pa.query_type for pa in plan.items] == list(order)


# ---------------------------------------------------------------------------
# greedy (continuous)
# ---------------------------------------------------------------------------

def test_greedy_continuous_single_config(i0):
    configs = adalloc.enumerate_configurations(i0)
    h = greedy_continuous(adalloc.incremental_oracle(i0), ActionSet(configs), 1.0)
    assert len(h.segments) == 1
    config, dur = h.segments[0]
    assert config.assignment == (("t1", ("a1",)),)
    assert dur == pytest.approx(1.0, abs=1e-12)


def test_greedy_continuous_switches_at_exhaustion(i1):
    configs = adalloc.enumerate_configurations(i1)
    h = greedy_continuous(adalloc.incremental_oracle(i1), ActionSet(configs), 1.0)
    assert len(h.segments) == 2
    assert h.segments[0][1] == pytest.approx(0.5, abs=1e-9)
    assert dict(h.segments[0][0].assignment)["t1"] == ("a1",)
    assert dict(h.segments[1][0].assignment)["t1"] == ("a2",)
    assert h.length == pytest.approx(1.0, abs=1e-12)


def test_greedy_continuous_zero_horizon(i0):
    configs = adalloc.enumerate_configurations(i0)
    h = greedy_continuous(adalloc.incremental_oracle(i0), ActionSet(configs), 0.0)
    assert h.is_empty()


def test_greedy_continuous_segment_cap():
    # The cap is 10 * len(actions) = 20 segments: a unit hold over a horizon
    # of 20 fills exactly 20 of them, and any longer horizon needs a 21st.
    actions = ActionSet(("a", "b"))
    oracle = lambda prefix, action: (1.0, 1.0)
    assert len(greedy_continuous(oracle, actions, 20.0).segments) == 20
    with pytest.raises(SegmentCapExceeded, match="20 segments"):
        greedy_continuous(oracle, actions, 20.5)


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
    report = check_submodular(u, gen, samples=300, seed=11)
    assert not report.ok


def test_check_submodular_coverage_ok():
    rng = np.random.default_rng(2)
    u, actions = random_coverage(rng)
    gen = lambda r: random_discrete_sequence(actions, r)
    assert check_submodular(u, gen, samples=300, seed=4).ok


class _ConstantRateModel:
    """Utility grows at unit rate forever, no breakpoints anywhere."""

    def random_prefix(self, rng):
        k = rng.integers(0, 3)
        return TimedSequence(tuple(("go", 0.1 + (1.0 - 0.1) * rng.random()) for _ in range(k)))

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
        report = check_step_gain_bound(u, actions, gen, samples=200, seed=13)
        assert report.ok


def test_checkers_reject_zero_samples():
    u = _length_function()
    gen = lambda rng: random_discrete_sequence(ABC, rng)
    with pytest.raises(ValueError):
        check_nondecreasing(u, gen, samples=0)


def _seeds_and_indices():
    """Seeds of 1 to 7 words, so [seed, i] fills the pool of 4 words or runs
    past it, and index ranges from 0, on both sides of a block boundary, and
    on both sides of 2^32, where an index gains a word."""
    rng = np.random.default_rng(1100)
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7]
    seeds += [int.from_bytes(rng.bytes(int(rng.integers(1, 29))), "little") for _ in range(8)]
    block = seqcore.SUBSTREAM_BLOCK
    ranges = (range(0, 40), range(3 * block - 30, 3 * block + 30), range(2**32 - 30, 2**32 + 30))
    return [(seed, indices) for seed in seeds for indices in ranges]


# Ranges of `integers`: one value (no draw), then up to 2^32 values; about
# half of the draws over 2^31 + 1 values and a quarter over 3 * 2^30 are
# rejected and drawn again.
SPANS = (1, 2, 5, 70, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)


def test_stream_draws_what_default_rng_draws():
    # Each sample's Stream against a fresh default_rng([seed, i]): every
    # range of integers, each draw followed by a double (which must leave
    # the buffered half word alone), then one pick of distinct values, with
    # (n, size) running through every size at n <= 60, against choice.
    picks = [(n, size) for n in range(1, 61) for size in range(n + 1)]
    pairs = 0
    for seed, indices in _seeds_and_indices():
        streams = [seqcore.Stream(*state) for state in seqcore._pcg64_states(seed, indices)]
        for i, stream in zip(indices, streams, strict=True):
            g = np.random.default_rng([seed, i])
            for span in SPANS:
                assert stream.integers(3, 3 + span) == g.integers(3, 3 + span), (seed, i, span)
                assert stream.random() == g.random(), (seed, i, span)
            n, size = picks[pairs % len(picks)]
            assert adalloc._draw_distinct(stream, n, size) == tuple(g.choice(n, size, replace=False).tolist())
            assert (stream.integers(0, 7), stream.random()) == (g.integers(0, 7), g.random())
            pairs += 1
    assert pairs >= max(2000, len(picks))


def test_draw_distinct_shuffles_the_tail_as_choice_does():
    # Above 10,000 values and n // 50 picks, choice shuffles the tail of
    # range(n); (10_001, 200) is the last case below that line, by Floyd.
    for seed, (n, size) in enumerate([(10_001, 200), (10_001, 201), (10_050, 10_050), (20_000, 5_000)]):
        stream = seqcore.Stream(*next(seqcore._pcg64_states(seed, range(1))))
        g = np.random.default_rng([seed, 0])
        assert adalloc._draw_distinct(stream, n, size) == tuple(g.choice(n, size, replace=False).tolist())
        assert stream.random() == g.random()


@pytest.mark.parametrize("low, high", [(0, 0), (5, 4), (0, 2**32 + 1), (-(2**40), 2**40)])
def test_stream_rejects_an_empty_or_too_wide_range(low, high):
    stream = seqcore.Stream(*next(seqcore._pcg64_states(0, range(1))))
    with pytest.raises(ValueError):
        stream.integers(low, high)


def test_substreams_reject_a_negative_seed_as_default_rng_does():
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError):
        next(seqcore._pcg64_states(-1, range(1)))


def test_scaled_doubles_are_generator_uniform():
    # Generator.uniform(lo, hi) is lo + (hi - lo) * random(): the same bits
    # and the same stream position, from 1e-300 to 1e300, with lo = 0 and lo > 0.
    rng = np.random.default_rng(1101)
    draws = 0
    for case in range(120):
        hi = 10.0 ** rng.uniform(-300.0, 300.0)
        lo = 0.0 if case % 2 else hi * 10.0 ** -rng.uniform(0.0, 17.0)
        seed = int(rng.integers(2**63))
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        scaled = [seqcore._draw_smooth(new, lo, hi, (), 0.0) for _ in range(60)]
        assert [x.hex() for x in scaled] == [old.uniform(lo, hi).hex() for _ in range(60)]
        scaled = (hi * new.random(30)).tolist()
        assert [x.hex() for x in scaled] == [x.hex() for x in old.uniform(0.0, hi, size=30).tolist()]
        assert new.random() == old.random()
        draws += 90
    assert draws >= 10**4


# ---------------------------------------------------------------------------
# the checkers' samples in forked workers: the same report as inline
# ---------------------------------------------------------------------------

# Runs in a fresh process without numpy, so it has one thread and
# `_run_samples` forks: once over every CPU of its affinity; then over four
# claimed CPUs with the first and the last of each check's three forks
# refused, so chunks 1 and 3 run inline and chunk 2 in a worker; then pinned
# to one CPU, inline.  Sample i is found from its stream's start; one in 7
# is skipped and one in 5 reports a violation, so the merge order shows.
PARALLEL_PROBE = """
import errno, json, os, sys
from seqsub import seqcore

assert "numpy" not in sys.modules and len(os.listdir("/proc/self/task")) == 1
forks = []
fork = os.fork
os.fork = lambda: forks.append(1) or fork()
samples, seed = 4 * seqcore.MIN_WORKER_SAMPLES, 3
index = {state: i for i, state in enumerate(seqcore._pcg64_states(seed, range(samples)))}

def run(fail=()):
    counts = {"seen": 0, "drawn": 0}

    def body(rng):
        i = index[rng.state, rng.inc]
        if i in fail:
            raise ValueError(f"sample {i} failed")
        counts["seen"] += 1
        counts["drawn"] += rng.integers(0, 10)
        if i % 7 == 0:
            return None
        return [seqcore.Violation("v", float(i), rng.random(), 1.0, {"i": i})] if i % 5 == 0 else []

    before, first = len(forks), (seqcore.Violation("first", 0.0, 0.0, 0.0),)
    try:
        report = seqcore._run_samples("probe", samples, seed, body, first, counts)
    except Exception as exc:
        return {"error": [type(exc).__name__, str(exc)], "forks": len(forks) - before}
    violations = [[v.check, v.lhs, v.rhs, v.witness] for v in report.violations]
    return {"report": [report.check, report.samples_tested, violations, report.details], "forks": len(forks) - before}

def children_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True

failures = [(samples - 1,), (0,), (samples // 2,), (samples // 2, samples - 1)]
out = {"workers": seqcore._workers(samples)}
out["parallel"] = [run(), *map(run, failures[:2])]
out["parallel_children_left"] = children_left()
counted, attempts, affinity = os.fork, [], os.sched_getaffinity

def refusing_fork():
    attempts.append(1)
    if len(attempts) % 3 != 2:
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    return counted()

os.fork, os.sched_getaffinity = refusing_fork, lambda pid: {0, 1, 2, 3}
out["refused"] = [run(), *map(run, failures)]
out["refused_children_left"] = children_left()
os.fork, os.sched_getaffinity = counted, affinity
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
out["inline"] = [run(), *map(run, failures)]
out["inline_children_left"] = children_left()
print(json.dumps(out))
"""

DYING_PROBE = """
import os
from seqsub import seqcore

samples = 4 * seqcore.MIN_WORKER_SAMPLES
last = list(seqcore._pcg64_states(0, range(samples)))[-1]

def body(rng):
    if (rng.state, rng.inc) == last:
        os._exit(3)
    return []

try:
    seqcore._run_samples("probe", samples, 0, body)
except ChildProcessError as exc:
    print("ChildProcessError", "exit code 3" in str(exc))
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no children")
"""


@pytest.fixture(scope="module")
def parallel_probe():
    proc = subprocess.run([sys.executable, "-c", PARALLEL_PROBE], env=probe_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@needs_two_cpus
def test_forked_samples_make_the_inline_report(parallel_probe):
    samples = 4 * seqcore.MIN_WORKER_SAMPLES
    workers = min(len(os.sched_getaffinity(0)), 4)
    assert parallel_probe["workers"] == workers
    parallel, inline = parallel_probe["parallel"][0], parallel_probe["inline"][0]
    assert (parallel["forks"], inline["forks"]) == (workers - 1, 0)
    assert parallel["report"] == inline["report"]
    check, tested, violations, details = inline["report"]
    assert tested == samples - len(range(0, samples, 7))
    assert [v[3].get("i") for v in violations] == [None, *(i for i in range(samples) if i % 5 == 0 and i % 7)]
    assert details["seen"] == samples and details["drawn"] > 0


@needs_two_cpus
def test_a_worker_raises_what_the_inline_run_raises(parallel_probe):
    # In the last chunk's worker, and in this process's own first chunk.
    samples = 4 * seqcore.MIN_WORKER_SAMPLES
    for k, failed in ((1, samples - 1), (2, 0)):
        parallel, inline = parallel_probe["parallel"][k], parallel_probe["inline"][k]
        assert parallel["error"] == inline["error"] == ["ValueError", f"sample {failed} failed"]
        assert parallel["forks"] > 0 and inline["forks"] == 0


@needs_two_cpus
def test_a_refused_fork_runs_its_chunk_inline(parallel_probe):
    # The report, and the first exception in sample order (of an inline
    # chunk, of a worker, and of a worker before an inline chunk that also
    # raises), are the inline run's.
    assert [run["forks"] for run in parallel_probe["refused"]] == [1] * 5
    for refused, inline in zip(parallel_probe["refused"], parallel_probe["inline"]):
        assert refused.get("report") == inline.get("report") and refused.get("error") == inline.get("error")
    half = 2 * seqcore.MIN_WORKER_SAMPLES
    assert [run["error"][1] for run in parallel_probe["inline"][1:]] == [
        f"sample {i} failed" for i in (2 * half - 1, 0, half, half)
    ]
    assert parallel_probe["refused_children_left"] is False


@needs_two_cpus
def test_no_sample_worker_outlives_its_check(parallel_probe, tmp_path):
    assert parallel_probe["parallel_children_left"] is False
    assert parallel_probe["inline_children_left"] is False
    # A worker that dies without a result is reaped and reported.
    proc = subprocess.run([sys.executable, "-c", DYING_PROBE], env=probe_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["ChildProcessError True", "no children"]


def test_a_threaded_process_runs_the_samples_inline(monkeypatch):
    # Forking a process with more than one thread can deadlock the child, so
    # a check in one, like this test process, must never fork.
    def no_fork():
        raise AssertionError("forked a threaded process")

    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        monkeypatch.setattr(os, "fork", no_fork)
        assert seqcore._workers(64 * seqcore.MIN_WORKER_SAMPLES) == 1
        u = _length_function()
        report = check_nondecreasing(u, lambda rng: random_discrete_sequence(ABC, rng),
                                     samples=4 * seqcore.MIN_WORKER_SAMPLES)
        assert report.samples_tested == 4 * seqcore.MIN_WORKER_SAMPLES and report.ok
    finally:
        release.set()
        thread.join()


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
    a = sample_dominated(b, np.random.default_rng(seed))
    assert dominates(a, b)


@given(durations_st, st.floats(-1.0, 6.0), st.floats(-1.0, 6.0))
def test_slice_is_dominated(xs, x, y):
    b = TimedSequence(tuple(xs))
    assert dominates(b.slice(x, y), b)
