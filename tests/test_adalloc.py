"""Fluid allocator: evaluation semantics, greedy behavior, structural checks."""

import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsub import adalloc, oracle, stochsim
from seqsub.adalloc import (
    Configuration,
    FluidRateModel,
    InstanceError,
    best_configuration,
    configuration_hold,
    evaluate_strategy,
    greedy_allocate,
    instance_to_json,
    marginal_rate,
    parse_instance,
    random_strategy,
    revenue_rate,
)
from seqsub.cli import CONTINUOUS_RATIO_BOUND
from seqsub.seqcore import (
    ActionSet,
    TimedSequence,
    check_derivative_props,
    check_nondecreasing,
    check_rate_gain_bound,
    check_submodular,
    concat,
    dominates,
    greedy_continuous,
    sample_dominated,
)

from conftest import random_ad_instance, replace


def cfg(mapping):
    return Configuration.of(mapping)


# ---------------------------------------------------------------------------
# revenue rate
# ---------------------------------------------------------------------------

def test_revenue_rate_single(i0):
    assert revenue_rate(i0, cfg({"t1": ("a1",)}), i0.budgets) == pytest.approx(2.0)


def test_revenue_rate_two_types(i1):
    c = cfg({"t1": ("a1",), "t2": ("a1",)})
    assert revenue_rate(i1, c, i1.budgets) == pytest.approx(1.0)


def test_revenue_rate_exhausted_is_zero(i1):
    c = cfg({"t1": ("a1",), "t2": ("a1",)})
    assert revenue_rate(i1, c, (0.0, 0.0)) == 0.0


def test_revenue_rate_unknown_ids(i0):
    with pytest.raises(InstanceError):
        revenue_rate(i0, cfg({"t1": ("nope",)}), i0.budgets)
    with pytest.raises(InstanceError):
        revenue_rate(i0, cfg({"nope": ("a1",)}), i0.budgets)


def test_configuration_slot_limit(i1):
    too_many = cfg({"t1": ("a1", "a2")})
    with pytest.raises(ValueError):
        revenue_rate(i1, too_many, i1.budgets)


# ---------------------------------------------------------------------------
# strategy evaluation
# ---------------------------------------------------------------------------

def test_evaluate_single_segment(i0):
    led = evaluate_strategy(i0, TimedSequence(((cfg({"t1": ("a1",)}), 1.0),)))
    assert led.utility == pytest.approx(1.0, abs=1e-12)
    assert led.breakpoints == pytest.approx((0.5,), abs=1e-12)


def test_evaluate_two_segments(i1):
    strat = TimedSequence(
        (
            (cfg({"t1": ("a1",), "t2": ("a1",)}), 0.5),
            (cfg({"t1": ("a2",)}), 0.5),
        )
    )
    led = evaluate_strategy(i1, strat)
    assert led.utility == pytest.approx(0.75, abs=1e-9)
    assert led.spent == pytest.approx((0.5, 0.25), abs=1e-9)


def test_evaluate_empty(i1):
    led = evaluate_strategy(i1, TimedSequence(()))
    assert led.utility == 0.0
    assert led.breakpoints == ()


def test_evaluate_rejects_overlong(i0):
    with pytest.raises(ValueError):
        evaluate_strategy(i0, TimedSequence(((cfg({"t1": ("a1",)}), 1.5),)))


def test_budget_feasibility_random():
    rng = np.random.default_rng(17)
    for _ in range(30):
        inst = random_ad_instance(rng)
        strat = random_strategy(inst, rng)
        led = evaluate_strategy(inst, strat)
        for spent, budget in zip(led.spent, inst.budgets):
            assert spent <= budget + 1e-9
            assert spent >= -1e-12
        assert led.utility == pytest.approx(math.fsum(led.spent), abs=1e-9)


# ---------------------------------------------------------------------------
# marginal rate
# ---------------------------------------------------------------------------

def test_marginal_rate_examples(i0, i1):
    c = cfg({"t1": ("a1",)})
    assert marginal_rate(i0, c, 0.0) == pytest.approx(2.0)
    assert marginal_rate(i0, c, 0.6) == 0.0
    both = cfg({"t1": ("a1",), "t2": ("a1",)})
    prefix = TimedSequence(((both, 0.5),))
    assert marginal_rate(i1, both, 0.0, prefix) == 0.0


def test_marginal_rate_rejects_negative_delta(i0):
    with pytest.raises(ValueError):
        marginal_rate(i0, cfg({"t1": ("a1",)}), -0.1)


# ---------------------------------------------------------------------------
# best configuration / greedy
# ---------------------------------------------------------------------------

def test_best_configuration_tie_to_lower_index(i1):
    best = best_configuration(i1, i1.budgets)
    assert best.assignment == (("t1", ("a1",)), ("t2", ("a1",)))


def test_best_configuration_skips_exhausted_and_zero_bids(i1):
    best = best_configuration(i1, (0.0, 0.5))
    assert best.assignment == (("t1", ("a2",)),)


def test_best_configuration_all_exhausted(i1):
    assert best_configuration(i1, (0.0, 0.0)).is_empty()


def test_best_configuration_maximizes_rate():
    rng = np.random.default_rng(23)
    for _ in range(15):
        inst = random_ad_instance(rng, max_ads=3, max_types=3)
        remaining = [float(rng.uniform(0.0, b)) for b in inst.budgets]
        best = best_configuration(inst, remaining)
        best_rate = revenue_rate(inst, best, remaining)
        for c in adalloc.enumerate_configurations(inst):
            assert best_rate >= revenue_rate(inst, c, remaining) - 1e-12


def test_greedy_single_ad_runs_full_horizon(i0):
    strat, led = greedy_allocate(i0)
    assert len(strat.segments) == 1
    config, dur = strat.segments[0]
    assert config.assignment == (("t1", ("a1",)),)
    assert dur == pytest.approx(1.0, abs=1e-12)
    assert led.utility == pytest.approx(1.0, abs=1e-12)


def test_greedy_switches_once(i1):
    strat, led = greedy_allocate(i1)
    assert len(strat.segments) == 2
    assert strat.segments[0][1] == pytest.approx(0.5, abs=1e-9)
    assert strat.segments[1][0].assignment == (("t1", ("a2",)),)
    assert led.utility == pytest.approx(0.75, abs=1e-9)


def test_greedy_zero_bids():
    inst = adalloc.AdInstance.build(
        ads=[("a1", 1.0)], query_types=[("t1", 1.0)], bids={}, slots=1, horizon=1.0
    )
    strat, led = greedy_allocate(inst)
    assert led.utility == 0.0
    assert len(strat.segments) == 1
    assert strat.segments[0][0] == Configuration(())
    assert strat.length == pytest.approx(1.0, abs=1e-12)


def test_greedy_segment_bound_random():
    rng = np.random.default_rng(29)
    for _ in range(40):
        inst = random_ad_instance(rng)
        strat, led = greedy_allocate(inst)
        assert len(strat.segments) <= inst.num_ads + 1
        assert strat.length == pytest.approx(inst.horizon, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1e-3, 1e12))
def test_greedy_ends_within_one_event_per_ad_plus_one(seed, horizon_scale):
    # Every event but the last exhausts an ad, and an exhausted ad stays so.
    inst = random_ad_instance(np.random.default_rng(seed), max_ads=6, max_types=4, max_slots=3, max_pairs=24)
    inst = replace(inst, horizon=inst.horizon * horizon_scale)
    with mock.patch.object(adalloc, "_step", wraps=adalloc._step) as steps, mock.patch.object(adalloc, "_ledger"):
        greedy_allocate(inst)
    # The ledger's replay is patched out, so these are the greedy's own steps.
    assert steps.call_count <= inst.num_ads + 1
    strat, led = greedy_allocate(inst)
    assert len(led.breakpoints) <= inst.num_ads


def test_tiny_budget_is_spent():
    # Exhaustion is relative to the ad's budget, so a budget below the
    # threshold's scale still counts.
    inst = adalloc.AdInstance.build(
        ads=[("a1", 1e-13)], query_types=[("t1", 1.0)], bids={"a1": {"t1": 1e-13}}, slots=1, horizon=2.0
    )
    strat, led = greedy_allocate(inst)
    assert led.utility == 1e-13
    assert led.breakpoints == (1.0,)


def test_underflowed_exhaustion_time_still_exhausts():
    # budget / rate underflows to 0.0: the step must still retire the ad
    # instead of stepping by zero forever.
    inst = adalloc.AdInstance.build(
        ads=[("a1", 1e-300), ("a2", 1.0)],
        query_types=[("t1", 0.5), ("t2", 0.5)],
        bids={"a1": {"t1": 1e300}, "a2": {"t1": 0.5, "t2": 1.0}},
        slots=1,
        horizon=4.0,
    )
    strat, led = greedy_allocate(inst)
    assert led.utility == pytest.approx(1.0, rel=1e-12)
    # a1 ran out in zero time, which leaves no zero-length segment behind.
    assert all(d > 0.0 for _, d in strat.segments)
    alone = replace(inst, budgets=(1e-300, 0.0))
    assert greedy_allocate(alone)[1].spent == (1e-300, 0.0)


def test_greedy_allocate_matches_paper_reference():
    # greedy_continuous over every configuration is the paper's algorithm
    # verbatim.  Both stop relative to the horizon, so they also agree on the
    # instance rescaled in time (horizon x s, bids / s).
    rng = np.random.default_rng(53)
    for _ in range(300):
        base = random_ad_instance(rng, max_ads=3, max_types=3)
        actions = ActionSet(adalloc.enumerate_configurations(base))
        for s in (1.0, 1e-12, 1e-6, 1e6):
            inst = replace(
                base,
                horizon=base.horizon * s,
                bid_matrix=tuple(tuple(p / s for p in row) for row in base.bid_matrix),
            )
            strat, led = greedy_allocate(inst)
            ref = greedy_continuous(adalloc.incremental_oracle(inst), actions, inst.horizon)
            assert evaluate_strategy(inst, ref).utility == pytest.approx(led.utility, abs=1e-12)
            assert len(ref.canonical().segments) == len(strat.canonical().segments)


def test_greedy_allocate_scales_with_budgets_and_bids():
    # Money is in arbitrary units: scaling every budget and bid by 10^k scales
    # the utility by 10^k and leaves the schedule's shape alone.
    rng = np.random.default_rng(71)
    for _ in range(300):
        inst = random_ad_instance(rng)
        strat, led = greedy_allocate(inst)
        for k in (3, 6, 9):
            f = 10.0**k
            scaled = replace(
                inst,
                budgets=tuple(b * f for b in inst.budgets),
                bid_matrix=tuple(tuple(p * f for p in row) for row in inst.bid_matrix),
            )
            s_strat, s_led = greedy_allocate(scaled)
            assert s_led.utility == pytest.approx(led.utility * f, rel=1e-9)
            assert len(s_strat.segments) == len(strat.segments)


def reference_greedy_allocate(instance):
    """The id-based greedy that `greedy_allocate` replaced, the reference of its differential test.

    Every step picks the best configuration over all types and resolves the
    playing configuration's ids again.
    """
    remaining = list(instance.budgets)
    segs = []
    elapsed = 0.0
    current = None
    horizon = instance.horizon
    while horizon - elapsed > 1e-15 * horizon:
        best = adalloc.best_configuration(instance, remaining)
        if current is None or revenue_rate(instance, best, remaining) > revenue_rate(
            instance, current, remaining
        ):
            current = best
        rates = adalloc._spend_rates(instance, adalloc._config_indices(instance, current), remaining)
        dt, hit, _ = adalloc._step(instance, rates, remaining, horizon - elapsed)
        if segs and segs[-1][0] == current:
            segs[-1][1] += dt
        elif dt > 0.0:
            segs.append([current, dt])
        elapsed = math.fsum(d for _, d in segs)
        if not hit:
            break
    strategy = TimedSequence(tuple((c, d) for c, d in segs))
    return strategy, evaluate_strategy(instance, strategy)


def _differential_instance(rng):
    """A random instance for the incremental greedy's differential test.

    Ids are shuffled names such as t10 and t2, so string order differs from
    index order; payments are often tied, budgets sometimes zero, some types
    have no bids, `slots` may reach the number of ads, money is scaled by
    1e-3 to 1e9 and time by 1e-3 to 1e9, and some horizons outlast every
    budget.
    """
    m = int(rng.integers(1, 13))
    n = int(rng.integers(1, 15))
    ad_ids = [f"a{int(k)}" for k in rng.permutation(m)]
    type_ids = [f"t{int(k)}" for k in rng.permutation(n)]
    money = 10.0 ** rng.uniform(-3, 9)
    time = 10.0 ** rng.uniform(-3, 9)
    tied = rng.random() < 0.5
    budgets = [0.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 1.0)) * money for _ in ad_ids]
    q = rng.dirichlet(np.ones(n))
    bids = {}
    for a in ad_ids:
        row = {}
        for t in type_ids:
            if rng.random() < 0.6:
                p = int(rng.integers(1, 4)) / 4.0 if tied else float(rng.uniform(0.1, 2.0))
                row[t] = p * money / time
        bids[a] = row
    if rng.random() < 0.2:
        bids = {a: {t: p for t, p in row.items() if t != type_ids[0]} for a, row in bids.items()}
    horizon = float(rng.uniform(0.05, 3.0)) * (1e3 if rng.random() < 0.2 else 1.0) * time
    slots = int(rng.integers(1, m + 2))
    return adalloc.AdInstance.build(
        list(zip(ad_ids, budgets)), [(t, float(x)) for t, x in zip(type_ids, q)], bids, slots, horizon
    )


def _full_horizon(instance):
    """A horizon past the greedy's last exhaustion.

    While an ad with a positive rate is live, some such ad spends at least
    at its smallest positive rate, so the greedy exhausts them all by the
    sum of their budgets over those rates.
    """
    total = 0.0
    for i, row in enumerate(instance.bid_matrix):
        rates = [q * p for q, p in zip(instance.probs, row) if q * p > 0.0]
        if rates:
            total += instance.budgets[i] / min(rates)
    return 2.0 * total + instance.horizon


def _slotted_instance(rng):
    """2 or 3 slots over ads whose budgets span three orders of magnitude.

    A low-ranked ad often runs out before one ranked above it, so a re-pick
    must skip a dead ad that sits below a live one.  Budgets, payments and
    probabilities take few values, so ads often run out at the same event.
    """
    m, n = int(rng.integers(3, 10)), int(rng.integers(1, 6))
    bids = {f"a{i}": {f"t{j}": int(rng.integers(1, 5)) / 4.0 for j in range(n) if rng.random() < 0.7} for i in range(m)}
    return adalloc.AdInstance.build(
        [(f"a{i}", float(rng.choice([0.001, 0.01, 0.1, 1.0]))) for i in range(m)],
        [(f"t{j}", 1.0 / n) for j in range(n)],
        bids,
        int(rng.integers(2, 4)),
        float(rng.uniform(0.5, 3.0)),
    )


def _dead_below_live(instance, ledger):
    """Whether some type ranks an ad that the ledger spent out below one it left live."""
    dead = [s == b for s, b in zip(ledger.spent, instance.budgets)]
    for j in range(instance.num_types):
        flags = [dead[i] for i in instance.ranked_ads(j)]
        if False in flags and True in flags[flags.index(False):]:
            return True
    return False


def _underflow_instance(rng):
    """Ads whose payment on a type of probability 1e-200 is at most 1e-130, so `q * p` underflows to 0.0.

    Some of them bid on that type alone: they hold a slot at rate 0.0 and never run out.
    """
    m, n = int(rng.integers(2, 8)), int(rng.integers(2, 5))
    probs = [1e-200] + [float(x) for x in rng.dirichlet(np.ones(n - 1))]
    bids = {}
    for i in range(m):
        row = {"t0": float(10.0 ** rng.uniform(-300, -130))}
        if rng.random() < 0.7:
            row.update({f"t{j}": float(rng.uniform(0.1, 1.0)) for j in range(1, n) if rng.random() < 0.6})
        bids[f"a{i}"] = row
    return adalloc.AdInstance.build(
        [(f"a{i}", float(rng.uniform(0.05, 1.0))) for i in range(m)],
        [(f"t{j}", q) for j, q in enumerate(probs)],
        bids,
        int(rng.integers(1, 3)),
        float(rng.uniform(0.1, 3.0)),
    )


def _differential_instances():
    """The instances of the greedy's differential test, in four families.

    400 random instances, then tri(n) (`_triangular`): every bid tied, so
    each exhaustion hands its types on by tie-break, in cascades far longer
    than the random instances, with at most 12 ads, reach.  With 2 or 3
    slots a re-pick walks past the dead prefix of a ranking and past dead
    ads ranked below a live one.  An ad whose every rate underflows to 0.0
    is picked but never spent and never runs out.
    """
    rng = np.random.default_rng(1009)
    instances = [_differential_instance(rng) for _ in range(400)]
    slotted = [_slotted_instance(rng) for _ in range(200)]
    underflow = [_underflow_instance(rng) for _ in range(100)]
    triangular = [_triangular(n) for n in (*range(1, 17), 32, 48, 64)]
    return instances, slotted, underflow, triangular


def test_greedy_allocate_matches_id_based_reference():
    instances, slotted, underflow, triangular = _differential_instances()
    assert sum(_dead_below_live(inst, greedy_allocate(inst)[1]) for inst in slotted) >= 50
    assert all(0.0 == inst.probs[0] * row[0] < row[0] for inst in underflow for row in inst.bid_matrix)
    for inst in instances + slotted + underflow + triangular:
        assert greedy_allocate(inst) == reference_greedy_allocate(inst)
        full = replace(inst, horizon=_full_horizon(inst))
        result = greedy_allocate(full)
        assert result == reference_greedy_allocate(full)
        for i, row in enumerate(full.bid_matrix):
            if any(q * p > 0.0 for q, p in zip(full.probs, row)):
                assert result[1].spent[i] == full.budgets[i]
    # Longer cascades, at full horizon only.
    for n in (128, 200):
        full = replace(_triangular(n), horizon=_full_horizon(_triangular(n)))
        result = greedy_allocate(full)
        assert result == reference_greedy_allocate(full)
        assert result[1].spent == full.budgets


def test_step_reports_the_ads_it_retired():
    # On the differential test's instances, at their horizon and past the
    # last exhaustion, every `_step` the greedy and its ledger make reports
    # exactly the ads it dropped from `rates`: on an exhaustion, each ad
    # that sets the step's length, ties and underflowed quotients included,
    # and never an ad of rate 0.0.
    step, calls = adalloc._step, []

    def checked(instance, rates, remaining, limit):
        before, left = dict(rates), list(remaining)
        dt, hit, gone = step(instance, rates, remaining, limit)
        assert sorted(gone) == sorted(before.keys() - rates.keys())
        assert all(before[i] > 0.0 for i in gone)
        if hit:
            assert gone and {i for i, r in before.items() if r > 0.0 and left[i] / r == dt} <= set(gone)
        calls.append(hit)
        return dt, hit, gone

    with mock.patch.object(adalloc, "_step", checked):
        for inst in sum(_differential_instances(), []):
            greedy_allocate(inst)
            greedy_allocate(replace(inst, horizon=_full_horizon(inst)))
    assert calls.count(True) > 1000 and False in calls


@pytest.mark.parametrize("seed", range(4))
def test_greedy_configurations_equal_the_canonical_ones(seed):
    # Ids a0..a39 and t0..t29 in index order, so string order differs
    # (a10 < a2, t10 < t2): each configuration, built without the
    # canonicalising sort, is the one Configuration.of makes of its picks
    # in any order, at a horizon between two exhaustions and past the last.
    rng = np.random.default_rng(seed)
    m, n = 40, 30
    bids = {f"a{i}": {f"t{j}": float(rng.uniform(0.1, 1.0)) for j in range(n) if rng.random() < 0.3} for i in range(m)}
    inst = adalloc.AdInstance.build(
        [(f"a{i}", float(rng.uniform(0.05, 0.5))) for i in range(m)],
        [(f"t{j}", float(q)) for j, q in enumerate(rng.dirichlet(np.ones(n)))],
        bids,
        2,
        1.0,
    )
    full = replace(inst, horizon=_full_horizon(inst))
    events = greedy_allocate(full)[1].breakpoints
    middle = replace(inst, horizon=(events[15] + events[16]) / 2.0)
    for instance in (middle, full):
        strategy, _ = greedy_allocate(instance)
        assert len(strategy.segments) > 10
        for config, _ in strategy.segments:
            canonical = Configuration.of({t: ads[::-1] for t, ads in reversed(config.assignment)})
            assert config == canonical
            assert hash(config) == hash(canonical)
            assert config.assignment == canonical.assignment
            assert all(type(ads) is tuple for _, ads in config.assignment)


def reference_indices(instance, config):
    """The index form of a valid configuration, resolved from its ids alone (never its stamp)."""
    return tuple(
        (instance.type_index(tid), tuple(instance.ad_index(a) for a in ads)) for tid, ads in config.assignment
    )


def replay(instance, strategy):
    """Budgets left after `strategy`, replayed from zero one segment at a time."""
    remaining = list(instance.budgets)
    for config, dur in strategy.segments:
        adalloc._advance(instance, reference_indices(instance, config), remaining, dur)
    return remaining


def reference_configuration_hold(instance, config, remaining):
    """`configuration_hold` as it was, each alternative built and rated in id form."""
    rem = list(remaining)
    rates = adalloc._spend_rates(instance, adalloc._config_indices(instance, config), rem)
    elapsed = 0.0
    while True:
        dt, hit, _ = adalloc._step(instance, rates, rem, math.inf)
        if not hit:
            return math.inf
        elapsed += dt
        if revenue_rate(instance, best_configuration(instance, rem), rem) > math.fsum(rates.values()):
            return elapsed


def test_best_rate_and_hold_match_the_id_form():
    # The index-form best configuration sums each ad's rate over types in id
    # order (t10 before t2), so every rate is bit-identical to the id form.
    rng = np.random.default_rng(1019)
    for _ in range(300):
        inst = _differential_instance(rng)
        prefix = random_strategy(inst, rng)
        remaining = replay(inst, prefix)
        best = best_configuration(inst, remaining)
        expected = revenue_rate(inst, best, remaining)
        assert FluidRateModel(inst).best_rate(prefix).hex() == expected.hex()
        for config in (best, adalloc.random_configuration(inst, rng)):
            hold = configuration_hold(inst, config, remaining)
            assert hold.hex() == reference_configuration_hold(inst, config, remaining).hex()


def reference_rate_model(instance):
    """The stateless `FluidRateModel`: each query replays its prefix from zero
    and resolves every configuration again."""

    def remaining(prefix):
        return replay(instance, prefix)

    def utility(strategy):
        return math.fsum(b - r for b, r in zip(instance.budgets, remaining(strategy)))

    def rate(config, delta, prefix):
        rem = remaining(prefix)
        cfg_idx = reference_indices(instance, config)
        adalloc._advance(instance, cfg_idx, rem, delta)
        return adalloc._rate(instance, cfg_idx, rem)

    def breakpoints(config, prefix):
        rem, out = remaining(prefix), []
        adalloc._advance(instance, reference_indices(instance, config), rem, math.inf, 0.0, out)
        return tuple(out)

    def best_rate(prefix):
        rem = remaining(prefix)
        return adalloc._rate(instance, adalloc._best(instance, rem), rem)

    def spent(strategy):
        return tuple(b - r for b, r in zip(instance.budgets, remaining(strategy)))

    return {"utility": utility, "rate": rate, "breakpoints": breakpoints, "best_rate": best_rate, "spent": spent}


def _hex(value):
    return tuple(x.hex() for x in value) if isinstance(value, tuple) else value.hex()


def _unstamped(strategy):
    """`strategy` with every configuration rebuilt by `Configuration.of`, which stamps nothing."""
    return TimedSequence(tuple((Configuration.of(dict(c.assignment)), d) for c, d in strategy.segments))


@pytest.mark.parametrize("memo", [3, adalloc.MODEL_MEMO])
def test_rate_model_matches_stateless_replay(memo):
    # Prefixes share segments (B, B + C, windows of B + C), every query kind
    # runs on every prefix, in shuffled order, on two models of one instance
    # interleaved with `evaluate_strategy`.  The configurations are stamped
    # for the instance in draw order (re-interned often with a memo of 3),
    # stamped for an equal twin instance, or not stamped, so answers come
    # from stamps and from validation alike, and all must be the bits of the
    # id-sorted reference.
    rng = np.random.default_rng(1031)
    with mock.patch.object(adalloc, "MODEL_MEMO", memo):
        for _ in range(40):
            inst = _differential_instance(rng)
            twin = replace(inst)
            models, ref = (FluidRateModel(inst), FluidRateModel(inst)), reference_rate_model(inst)
            prefixes = [random_strategy(inst, rng) for _ in range(5)]
            prefixes += [concat(b, c) for b, c in zip(prefixes, prefixes[1:])]
            prefixes += [sample_dominated(p, np.random.default_rng(int(rng.integers(2**31)))) for p in prefixes[5:]]
            prefixes += [_unstamped(p) for p in prefixes[:3]]
            configs = [adalloc.random_configuration(inst, rng) for _ in range(3)]
            configs += [adalloc.random_configuration(twin, rng), Configuration.of(dict(configs[0].assignment))]
            queries = [("utility", (p,)) for p in prefixes] + [("best_rate", (p,)) for p in prefixes]
            queries += [("spent", (p,)) for p in prefixes if not adalloc._past_horizon(inst, p.length)]
            for c in configs:
                queries += [("breakpoints", (c, p)) for p in prefixes]
                queries += [("rate", (c, float(rng.uniform(0.0, inst.horizon)), p)) for p in prefixes]
            for k in rng.permutation(len(queries)):
                name, args = queries[k]
                if name == "spent":
                    got = evaluate_strategy(inst, *args).spent
                else:
                    got = getattr(models[k % 2], name)(*args)
                assert _hex(got) == _hex(ref[name](*args)), (name, args)
            for c in configs:
                assert sorted((j, sorted(ads)) for j, ads in adalloc._config_indices(inst, c)) == sorted(
                    (j, sorted(ads)) for j, ads in reference_indices(inst, c)
                )


def test_configuration_hash_is_the_same_however_it_is_built():
    # random_configuration, the index-form builder `_configuration` and
    # Configuration.of with types and ads in reverse order make equal,
    # hash-equal configurations; a stamp changes neither, nor a copy's hash.
    rng = np.random.default_rng(1037)
    for _ in range(200):
        inst = _differential_instance(rng)
        config = adalloc.random_configuration(inst, rng)
        hash(config)
        built = adalloc._configuration(inst, adalloc._config_indices(inst, config), {})
        canonical = Configuration.of({t: ads[::-1] for t, ads in reversed(config.assignment)})
        assert config == built == canonical
        assert hash(config) == hash(built) == hash(canonical) == hash(replace(config))


def test_rate_model_validates_every_query():
    # Only a stamp of this very instance skips validation, so a bad
    # configuration raises on every query, before and after good ones,
    # whether it is unstamped or stamped for an instance where it is valid.
    inst = adalloc.AdInstance.build(
        [("a1", 1.0), ("a2", 1.0)], [("t1", 0.5), ("t2", 0.5)], {"a1": {"t1": 1.0}, "a2": {"t2": 1.0}}, 1, 2.0
    )
    other = adalloc.AdInstance.build(
        [("a1", 1.0), ("a2", 1.0), ("zz", 1.0)], [("t1", 1.0)], {"a1": {"t1": 1.0}, "a2": {"t1": 2.0}}, 2, 2.0
    )
    good = best_configuration(inst, inst.budgets)
    assert good == Configuration.of({"t1": ("a1",), "t2": ("a2",)})
    assert adalloc._config_indices(inst, good) is good._stamp[1]
    bad = [Configuration.of({"t1": ("zz",)}), Configuration.of({"t1": ("a1", "a2")})]
    bad += [adalloc._configuration(other, ((0, (2,)),), {}), best_configuration(other, other.budgets)]
    assert bad[2:] == bad[:2]
    model = FluidRateModel(inst)
    for _ in range(3):
        for config in bad:
            for query in (
                lambda: model.rate(config, 0.5, TimedSequence(())),
                lambda: model.breakpoints(config, TimedSequence(((good, 0.5),))),
                lambda: model.utility(TimedSequence(((good, 0.5), (config, 0.5)))),
            ):
                with pytest.raises(ValueError):
                    query()
        assert model.rate(good, 0.5, TimedSequence(((good, 0.5),))) == 1.0


def test_a_configuration_stamped_for_another_instance_resolves_by_its_validation():
    # Built for A, a configuration passed with B resolves by B's ids: B with
    # the same ids in another order gets B's indices, and B without one of
    # its ads raises the usual error.
    ads, types = [("a1", 1.0), ("a2", 2.0), ("a3", 3.0)], [("t1", 0.5), ("t2", 0.5)]
    bids = {"a1": {"t1": 1.0, "t2": 3.0}, "a2": {"t1": 2.0}, "a3": {"t1": 3.0, "t2": 1.0}}
    a = adalloc.AdInstance.build(ads, types, bids, 2, 4.0)
    shuffled = adalloc.AdInstance.build(ads[::-1], types[::-1], bids, 2, 4.0)
    config = best_configuration(a, a.budgets)
    assert config._stamp == (a, ((0, (2, 1)), (1, (0, 2))))
    got = adalloc._config_indices(shuffled, config)
    assert got == reference_indices(shuffled, config) == ((1, (1, 0)), (0, (2, 0)))
    assert got != config._stamp[1]
    assert FluidRateModel(shuffled).rate(config, 0.0, TimedSequence(())) == FluidRateModel(a).rate(
        config, 0.0, TimedSequence(())
    )
    lacking = adalloc.AdInstance.build(ads[:2], types, {k: bids[k] for k in ("a1", "a2")}, 2, 4.0)
    with pytest.raises(InstanceError, match="unknown ad id 'a3'"):
        adalloc._config_indices(lacking, config)
    with pytest.raises(InstanceError, match="unknown ad id 'a3'"):
        FluidRateModel(lacking).rate(config, 0.0, TimedSequence(()))


def test_a_stamped_configuration_pickles_as_its_assignment_alone():
    # Forked verify workers pickle violation witnesses: a stamp, which holds
    # the whole instance, must not go with them.  A stamped configuration
    # pickles to the bytes of `Configuration.of` of the same picks, and its
    # loaded copy is equal, repr-equal and resolves against the instance it
    # is given.
    rng = np.random.default_rng(1061)
    for _ in range(100):
        inst = _differential_instance(rng)
        strategy, _ = greedy_allocate(inst)
        stamped = [c for c, _ in strategy.segments] + [adalloc.random_configuration(inst, rng)]
        for config in stamped:
            assert config._stamp[0] is inst
            picks = {inst.type_ids[j]: [inst.ad_ids[i] for i in ads] for j, ads in config._stamp[1]}
            plain = Configuration.of(picks)
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
                data = pickle.dumps(config, protocol)
                assert data == pickle.dumps(plain, protocol)
                loaded = pickle.loads(data)
                assert loaded == config and repr(loaded) == repr(config) and hash(loaded) == hash(config)
                assert loaded._stamp is None
                assert adalloc._config_indices(inst, loaded) == reference_indices(inst, config)


def test_every_entry_point_rejects_a_non_configuration_action():
    # A raw assignment tuple in place of a Configuration: every entry point
    # raises the one ValueError of `_config_indices`, none an AttributeError.
    inst = adalloc.AdInstance.build([("a1", 1.0)], [("t1", 1.0)], {"a1": {"t1": 1.0}}, 1, 2.0)
    raw = (("t1", ("a1",)),)
    strategy = TimedSequence(((raw, 1.0),))
    model = FluidRateModel(inst)
    for query in (
        lambda: evaluate_strategy(inst, strategy),
        lambda: model.utility(strategy),
        lambda: model.rate(raw, 0.5, TimedSequence(())),
        lambda: revenue_rate(inst, raw, [1.0]),
        lambda: marginal_rate(inst, raw, 0.5),
        lambda: configuration_hold(inst, raw, [1.0]),
        lambda: stochsim.simulate_stream(inst, strategy, stochsim.StreamConfig(seed=0, trials=1)),
    ):
        with pytest.raises(ValueError, match="strategy actions must be Configuration values"):
            query()


def _triangular(n):
    """tri(n) of Karp, Vazirani & Vazirani (STOC 1990): ad i (budget 1) bids 1 on types i..n.

    n types of probability 1/n, one slot, horizon n.  The diagonal spends
    every budget, so the optimum is n; the greedy, with ties to the lower
    index, first plays ad 1 on every type.
    """
    ads = [(f"a{i}", 1.0) for i in range(1, n + 1)]
    types = [(f"t{j}", 1.0 / n) for j in range(1, n + 1)]
    bids = {f"a{i}": {f"t{j}": 1.0 for j in range(i, n + 1)} for i in range(1, n + 1)}
    return adalloc.AdInstance.build(ads, types, bids, 1, float(n))


def test_the_continuous_bound_is_tight_on_the_triangular_family():
    # The greedy's ratio on tri(n) falls with n toward 1 - 1/e, so the
    # continuous bound cannot be raised.
    for n in (2, 3):
        assert oracle.lp_opt_fluid(_triangular(n)).value == pytest.approx(n, rel=1e-12)
    ratios = [greedy_allocate(_triangular(n))[1].utility / n for n in (2, 3, 10, 50, 100, 400)]
    assert ratios[:2] == [pytest.approx(0.75, abs=1e-12), pytest.approx(13 / 18, abs=1e-12)]
    assert all(r > CONTINUOUS_RATIO_BOUND for r in ratios)
    assert all(later <= earlier for earlier, later in zip(ratios, ratios[1:]))
    assert ratios[-1] < CONTINUOUS_RATIO_BOUND + 0.001


@pytest.mark.parametrize(
    "query",
    [
        lambda model: model.utility(TimedSequence(((["t1"], 1.0),))),
        lambda model: model.rate(["t1"], 0.5, TimedSequence(())),
        lambda model: model.breakpoints(["t1"], TimedSequence(())),
        lambda model: model.best_rate(TimedSequence(((["t1"], 1.0),))),
    ],
    ids=["utility", "rate", "breakpoints", "best_rate"],
)
def test_model_queries_reject_an_unhashable_action(query):
    # `_config_indices` checks an action before it reads anything of it: a
    # list action gets its ValueError, not a TypeError or an AttributeError.
    inst = adalloc.AdInstance.build([("a1", 1.0)], [("t1", 1.0)], {"a1": {"t1": 1.0}}, 1, 2.0)
    with pytest.raises(ValueError, match="strategy actions must be Configuration values"):
        query(FluidRateModel(inst))


def reference_random_configuration(instance, rng):
    """`random_configuration` as it drew before single picks stopped going through `choice`."""
    assignment = {}
    for tid in instance.type_ids:
        if rng.random() < 0.25:
            continue
        size = int(rng.integers(1, instance.slots + 1))
        size = min(size, instance.num_ads)
        picks = rng.choice(instance.num_ads, size=size, replace=False)
        assignment[tid] = tuple(instance.ad_ids[int(i)] for i in picks)
    return Configuration.of(assignment)


def test_random_configuration_draws_what_the_choice_sampler_drew():
    # Same samples and the same next draw, so every later draw is the same.
    rng = np.random.default_rng(1033)
    for case in range(300):
        m = int(rng.integers(1, 5)) if case % 3 == 0 else int(rng.integers(1, 201))
        n = int(rng.integers(1, 5))
        inst = adalloc.AdInstance.build(
            [(f"a{i}", 1.0) for i in range(m)], [(f"t{j}", 1.0 / n) for j in range(n)], {}, 1 + case % 3, 1.0
        )
        seed = int(rng.integers(2**32))
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(4):
            assert adalloc.random_configuration(inst, new) == reference_random_configuration(inst, old)
        assert new.random() == old.random()


def reference_random_strategy(instance, rng):
    """`random_strategy` through the checking constructors and `reference_random_configuration`."""
    k = int(rng.integers(0, 4))
    if k == 0:
        return TimedSequence(())
    total = instance.horizon * rng.random()
    cuts = sorted(float(c) for c in total * rng.random(k - 1))
    bounds = [0.0, *cuts, total]
    segs = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo > 1e-9 * instance.horizon:
            segs.append((reference_random_configuration(instance, rng), hi - lo))
    return TimedSequence(tuple(segs))


def _sampler_instance(rng):
    """0 to 12 ads and 1 to 12 types with shuffled ids (a10 sorts before a9, t10
    before t2), 1 to 3 slots, some zero budgets and types without bids."""
    m, n = int(rng.integers(0, 13)), int(rng.integers(1, 13))
    ad_ids = [f"a{int(k)}" for k in rng.permutation(m)]
    type_ids = [f"t{int(k)}" for k in rng.permutation(n)]
    budgets = [0.0 if rng.random() < 0.2 else float(rng.uniform(0.1, 5.0)) for _ in ad_ids]
    bids = {a: {t: float(rng.uniform(0.1, 2.0)) for t in type_ids if rng.random() < 0.5} for a in ad_ids}
    return adalloc.AdInstance.build(
        list(zip(ad_ids, budgets)), [(t, 1.0 / n) for t in type_ids], bids, int(rng.integers(1, 4)), 10.0
    )


def _same(got, want):
    """Equal, hash-equal and repr-equal (the form violation witnesses print)."""
    return got == want and hash(got) == hash(want) and repr(got) == repr(want)


@pytest.mark.parametrize("memo", [4, adalloc.MODEL_MEMO])
def test_trusted_samplers_build_what_the_checking_constructors_build(memo):
    # random_configuration and random_strategy build without the checks,
    # through the interned canonical form (a memo of 4 drops it often); the
    # result, its hash, its repr and the next draw must be the checked
    # reference's.
    rng = np.random.default_rng(1051)
    with mock.patch.object(adalloc, "MODEL_MEMO", memo):
        for _ in range(300):
            inst = _sampler_instance(rng)
            seed = int(rng.integers(2**32))
            new, old = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(4):
                assert _same(adalloc.random_configuration(inst, new), reference_random_configuration(inst, old))
                assert _same(random_strategy(inst, new), reference_random_strategy(inst, old))
                assert len(inst._interned) <= memo
            assert new.random() == old.random()


def test_greedy_allocate_tiny_horizon_is_played():
    # The loop's time tolerance is relative to the horizon, so a horizon of
    # 1e-16 is played rather than skipped.
    inst = adalloc.AdInstance.build([("a1", 1e-16)], [("t1", 1.0)], {"a1": {"t1": 1.0}}, 1, 1e-16)
    strat, led = greedy_allocate(inst)
    assert strat.length == 1e-16
    assert led.utility == pytest.approx(1e-16, rel=1e-9)
    # With a budget of 1 the spend, budget minus what is left, resolves only
    # to an ulp of the budget; it must still be spent for the whole horizon.
    inst = adalloc.AdInstance.build([("a1", 1.0)], [("t1", 1.0)], {"a1": {"t1": 1.0}}, 1, 1e-16)
    strat, led = greedy_allocate(inst)
    assert strat.length == 1e-16
    assert abs(led.utility - 1e-16) <= math.ulp(1.0)


def test_ranked_ads_precomputed_outside_fields():
    inst = adalloc.AdInstance.build(
        ads=[("a", 1.0), ("b", 1.0), ("c", 1.0)],
        query_types=[("t1", 0.5), ("t2", 0.5)],
        bids={"a": {"t1": 1.0}, "b": {"t1": 2.0, "t2": 1.0}, "c": {"t1": 1.0}},
        slots=1,
        horizon=1.0,
    )
    assert inst.ranked_ads(0) == (1, 0, 2)
    assert inst.ranked_ads(1) == (1,)
    again = parse_instance(instance_to_json(inst))
    assert again == inst and hash(again) == hash(inst)
    # The sparse build agrees with a dense sort of every column.
    rng = np.random.default_rng(1013)
    for _ in range(100):
        inst = _differential_instance(rng)
        for j in range(inst.num_types):
            dense = sorted((-row[j], i) for i, row in enumerate(inst.bid_matrix) if row[j] > 0.0)
            assert inst.ranked_ads(j) == tuple(i for _, i in dense)


def test_configuration_hold_extends_past_pointless_switch(i0):
    # After a1 exhausts nothing better exists, so the hold never ends.
    c = cfg({"t1": ("a1",)})
    assert configuration_hold(i0, c, i0.budgets) == math.inf


def test_configuration_hold_detects_improvement(i1):
    both = cfg({"t1": ("a1",), "t2": ("a1",)})
    assert configuration_hold(i1, both, i1.budgets) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# structural properties of the fluid utility
# ---------------------------------------------------------------------------

def test_monotone_under_domination(i1):
    model = FluidRateModel(i1)
    gen = lambda rng: random_strategy(i1, rng)
    report = check_nondecreasing(model.sequence_function(), gen, samples=1000, seed=31)
    assert report.ok


def test_per_ad_spend_monotone_under_domination(i1):
    rng = np.random.default_rng(37)
    for k in range(200):
        b = random_strategy(i1, rng)
        a = sample_dominated(b, np.random.default_rng(int(rng.integers(0, 2**31))))
        assert dominates(a, b)
        led_a = evaluate_strategy(i1, a)
        led_b = evaluate_strategy(i1, b)
        for sa, sb in zip(led_a.spent, led_b.spent):
            assert sb >= sa - 1e-9


def test_submodular_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(6):
        inst = random_ad_instance(rng, max_ads=3, max_types=3)
        model = FluidRateModel(inst)
        gen = lambda r: random_strategy(inst, r)
        report = check_submodular(model.sequence_function(), gen, samples=250, seed=43)
        assert report.ok, report.violations[:2]


def test_derivative_props_fixture(i1):
    report = check_derivative_props(FluidRateModel(i1), samples=500, seed=47)
    assert report.ok, report.violations[:2]


class _TwiceTheRate(FluidRateModel):
    def rate(self, config, delta, prefix):
        return 2.0 * super().rate(config, delta, prefix)


class _HalfTheBestRate(FluidRateModel):
    def best_rate(self, prefix):
        return 0.5 * super().best_rate(prefix)


def _rescaled_in_time(instance, s):
    """The same instance in other time units: horizon x s, payments / s."""
    data = instance_to_json(instance)
    data["horizon"] *= s
    for row in data["bids"].values():
        for tid in row:
            row[tid] /= s
    return parse_instance(data)


def test_rate_checks_flag_a_planted_model_at_every_time_scale(i1):
    # At time scale 1e9 every rate is about 1e-9; a tolerance floor of 1
    # would forgive a model that reports twice its rate, or half its best.
    flagged = {}
    for s in (1e-9, 1e-3, 1.0, 1e3, 1e9):
        inst = _rescaled_in_time(i1, s)
        assert check_derivative_props(FluidRateModel(inst), samples=200, seed=3).ok, s
        assert check_rate_gain_bound(FluidRateModel(inst), samples=200, seed=3).ok, s
        flagged[s] = (
            len(check_derivative_props(_TwiceTheRate(inst), samples=200, seed=3).violations),
            len(check_rate_gain_bound(_HalfTheBestRate(inst), samples=200, seed=3).violations),
        )
    assert min(flagged[1.0]) > 0
    assert all(counts == flagged[1.0] for counts in flagged.values()), flagged


def test_rate_model_breakpoints(i0):
    model = FluidRateModel(i0)
    c = cfg({"t1": ("a1",)})
    empty = TimedSequence(())
    assert model.breakpoints(c, empty) == pytest.approx((0.5,), abs=1e-12)
    assert model.rate(c, 0.0, empty) == pytest.approx(2.0)
    assert model.rate(c, 0.6, empty) == 0.0


def test_derivative_matches_active_rate(i1):
    # d/dt of the running utility equals the active configuration's rate.
    strat, led = greedy_allocate(i1)
    model = FluidRateModel(i1)
    for t in (0.2, 0.4, 0.7, 0.9):
        h = 1e-5
        fd = (model.utility(strat.slice(0.0, t + h)) - model.utility(strat.slice(0.0, t - h))) / (
            2 * h
        )
        config = strat.slice(t, t + h).segments[0][0]
        remaining = [b - s for b, s in zip(i1.budgets, evaluate_strategy(i1, strat.slice(0, t)).spent)]
        assert fd == pytest.approx(revenue_rate(i1, config, remaining), rel=1e-6)


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def test_json_roundtrip(i1):
    again = parse_instance(instance_to_json(i1))
    assert again == i1


def test_parse_rejects_bad_probabilities():
    data = instance_to_json(
        adalloc.AdInstance.build(
            ads=[("a1", 1.0)], query_types=[("t1", 1.0)], bids={}, slots=1, horizon=1.0
        )
    )
    data["query_types"][0]["prob"] = 0.9
    with pytest.raises(InstanceError, match="query_types"):
        parse_instance(data)


def test_parse_rejects_missing_fields():
    with pytest.raises(InstanceError, match="ads"):
        parse_instance({"query_types": [], "slots": 1, "horizon": 1.0})


def test_parse_rejects_unknown_bid_ids(i0):
    data = instance_to_json(i0)
    data["bids"]["ghost"] = {"t1": 1.0}
    with pytest.raises(InstanceError, match="ghost"):
        parse_instance(data)


def test_instance_validation():
    with pytest.raises(InstanceError, match="slots"):
        adalloc.AdInstance.build([("a", 1.0)], [("t", 1.0)], {}, 0, 1.0)
    with pytest.raises(InstanceError, match="horizon"):
        adalloc.AdInstance.build([("a", 1.0)], [("t", 1.0)], {}, 1, 0.0)
    with pytest.raises(InstanceError, match="budget"):
        adalloc.AdInstance.build([("a", -1.0)], [("t", 1.0)], {}, 1, 1.0)


@pytest.mark.parametrize(
    "ads, probs, bid, horizon, field",
    [
        ([("a", math.inf)], [("t", 1.0)], 1.0, 1.0, "budget"),
        ([("a", 1.0)], [("t", math.inf)], 1.0, 1.0, "probability"),
        ([("a", 1.0)], [("t", 1.0)], math.inf, 1.0, "bids"),
        ([("a", 1.0)], [("t", 1.0)], math.nan, 1.0, "bids"),
        ([("a", 1.0)], [("t", 1.0)], 1.0, math.inf, "horizon"),
        ([("a", 1.0)], [("t", 1.0)], 1e301, 1.0, "bids"),
    ],
)
def test_instance_requires_finite_values(ads, probs, bid, horizon, field):
    with pytest.raises(InstanceError, match=field):
        adalloc.AdInstance.build(ads, probs, {"a": {"t": bid}}, 1, horizon)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"budgets": (1.0,)}, r"ads: the number of budgets \(1\) must equal the number of ads \(2\)"),
        ({"probs": (0.5, 0.5)}, r"query_types: the number of probabilities \(2\) must equal the number of types \(1\)"),
        ({"bid_matrix": ((1.0,),)}, r"bids: the bid matrix must be num_ads x num_types \(2 x 1\)"),
        ({"bid_matrix": ((1.0,), (1.0, 2.0))}, r"bids: the bid matrix must be num_ads x num_types \(2 x 1\)"),
        ({"bid_matrix": ((1.0,), ())}, r"bids: the bid matrix must be num_ads x num_types \(2 x 1\)"),
    ],
)
def test_instance_rejects_fields_whose_lengths_disagree(changes, message):
    # A short budget tuple would give the greedy's ledger fewer spends than
    # ads, and a short bid row would read as zero bids.
    fields = dict(
        ad_ids=("a", "b"), budgets=(1.0, 1.0), type_ids=("t",), probs=(1.0,),
        bid_matrix=((1.0,), (2.0,)), slots=1, horizon=1.0,
    )
    adalloc.AdInstance(**fields)
    with pytest.raises(InstanceError, match=f"^{message}$"):
        adalloc.AdInstance(**{**fields, **changes})


def _two_faults(bids, slots=1, horizon=2.0):
    return {
        "ads": [{"id": "a1", "budget": 1.0}, {"id": "a2", "budget": 1.0}, {"id": "a3", "budget": 1.0}],
        "query_types": [{"id": "t1", "prob": 0.5}, {"id": "t2", "prob": 0.5}],
        "bids": bids,
        "slots": slots,
        "horizon": horizon,
    }


@pytest.mark.parametrize(
    "data, message",
    [
        # A non-number payment wins over an unknown id listed before it.
        (_two_faults({"ghost": {"t1": 1.0}, "a2": {"t1": "x"}}), "bids: a2/t1: must be a number, got 'x'"),
        (_two_faults({"a3": {"zz": 1.0}, "a1": {"t2": True}}), "bids: a1/t2: must be a number, got True"),
        (_two_faults({"a2": {"t1": 10**400}, "ghost": {"t1": 1.0}}), "bids: a2/t1: int too large to convert to float"),
        # So does a bad slots or horizon; a payment's conversion wins over both.
        (_two_faults({"ghost": {"t1": 1.0}}, slots=1.5), "slots: must be an integer, got 1.5"),
        (_two_faults({"a1": {"zz": 1.0}}, horizon="h"), "horizon: must be a number, got 'h'"),
        (_two_faults({"a1": {"t1": "x"}}, slots="2"), "bids: a1/t1: must be a number, got 'x'"),
        # An unknown id wins over a bad payment, even one listed before it.
        (_two_faults({"a2": {"t1": -1.0}, "ghost": {"t1": 1.0}}), "bids: unknown ad id 'ghost'"),
        (_two_faults({"a1": {"t1": math.nan}, "a3": {"t1": 1.0, "zz": 1.0}}), "bids: unknown type id 'zz' under ad 'a3'"),
        (_two_faults({"a3": {"t2": 1e301}, "ghost": {"t2": 1.0}}), "bids: unknown ad id 'ghost'"),
        # Of two unknown ids, the first in the bids wins.
        (_two_faults({"a3": {"zz": 1.0}, "ghost": {"t1": 1.0}}), "bids: unknown type id 'zz' under ad 'a3'"),
        (_two_faults({"ghost": {"zz": 1.0}, "a1": {"yy": 1.0}}), "bids: unknown ad id 'ghost'"),
        # Of two bad payments, the first by ad index, then by type index.
        (_two_faults({"a3": {"t1": -2.0}, "a1": {"t2": 2e300}}), "bids: expected payment must be in [0, 1e+300], got 2e+300"),
        (_two_faults({"a2": {"t2": math.nan, "t1": -1.0}}), "bids: expected payment must be in [0, 1e+300], got -1.0"),
    ],
)
def test_parse_instance_error_precedence(data, message):
    with pytest.raises(InstanceError) as err:
        parse_instance(data)
    assert str(err.value) == message
