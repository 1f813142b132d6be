"""Fluid allocator: evaluation semantics, greedy behavior, structural checks."""

import dataclasses
import math

import numpy as np
import pytest

from seqsub import adalloc
from seqsub.adalloc import (
    Configuration,
    EMPTY_CONFIGURATION,
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
from seqsub.seqcore import (
    ActionSet,
    TimedSequence,
    check_derivative_props,
    check_nondecreasing,
    check_submodular,
    dominates,
    greedy_continuous,
    sample_dominated,
)

from conftest import random_ad_instance


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
    assert led.spend_of("a1") == pytest.approx(0.5, abs=1e-9)
    assert led.spend_of("a2") == pytest.approx(0.25, abs=1e-9)


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
    assert best.ads_for("t1") == ("a1",)
    assert best.ads_for("t2") == ("a1",)


def test_best_configuration_skips_exhausted_and_zero_bids(i1):
    best = best_configuration(i1, (0.0, 0.5))
    assert best.as_dict() == {"t1": ("a2",)}


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
    assert config.ads_for("t1") == ("a1",)
    assert dur == pytest.approx(1.0, abs=1e-12)
    assert led.utility == pytest.approx(1.0, abs=1e-12)


def test_greedy_switches_once(i1):
    strat, led = greedy_allocate(i1)
    assert len(strat.segments) == 2
    assert strat.segments[0][1] == pytest.approx(0.5, abs=1e-9)
    assert strat.segments[1][0].as_dict() == {"t1": ("a2",)}
    assert led.utility == pytest.approx(0.75, abs=1e-9)


def test_greedy_zero_bids():
    inst = adalloc.AdInstance.build(
        ads=[("a1", 1.0)], query_types=[("t1", 1.0)], bids={}, slots=1, horizon=1.0
    )
    strat, led = greedy_allocate(inst)
    assert led.utility == 0.0
    assert len(strat.segments) == 1
    assert strat.segments[0][0] == EMPTY_CONFIGURATION
    assert strat.length == pytest.approx(1.0, abs=1e-12)


def test_greedy_segment_bound_random():
    rng = np.random.default_rng(29)
    for _ in range(40):
        inst = random_ad_instance(rng)
        strat, led = greedy_allocate(inst)
        assert len(strat.segments) <= inst.num_ads + 1
        assert strat.length == pytest.approx(inst.horizon, abs=1e-12)


def test_greedy_allocate_matches_paper_reference():
    # greedy_continuous over every configuration is the paper's algorithm verbatim.
    rng = np.random.default_rng(53)
    for _ in range(300):
        inst = random_ad_instance(rng, max_ads=3, max_types=3)
        strat, led = greedy_allocate(inst)
        actions = ActionSet(adalloc.enumerate_configurations(inst))
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
            scaled = dataclasses.replace(
                inst,
                budgets=tuple(b * f for b in inst.budgets),
                bid_matrix=tuple(tuple(p * f for p in row) for row in inst.bid_matrix),
            )
            s_strat, s_led = greedy_allocate(scaled)
            assert s_led.utility == pytest.approx(led.utility * f, rel=1e-9)
            assert len(s_strat.segments) == len(strat.segments)


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
        a = sample_dominated(b, int(rng.integers(0, 2**31)))
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
        report = check_submodular(model.sequence_function(), gen, gen, samples=250, seed=43)
        assert report.ok, report.violations[:2]


def test_derivative_props_fixture(i1):
    report = check_derivative_props(FluidRateModel(i1), samples=500, seed=47)
    assert report.ok, report.violations[:2]


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
        config = strat.action_at(t)
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
