"""Query rewriting: single-type allocator, plan evaluation, nested greedy."""

import math

import numpy as np
import pytest

from seqsub import adalloc, qrewrite
from seqsub.adalloc import InstanceError
from seqsub.qrewrite import (
    PartialAllocation,
    Rewrite,
    RewriteInstance,
    best_rewrite_set,
    evaluate_plan,
    greedy_rewrite,
    parse_rewrite_instance,
    plan_function,
    random_plan,
    single_type_allocate,
)
from seqsub.seqcore import check_nondecreasing, check_submodular

from conftest import random_rewrite_instance


# ---------------------------------------------------------------------------
# single-type allocator
# ---------------------------------------------------------------------------

def test_single_type_cap_binds(i3k1):
    base = i3k1.base
    led = single_type_allocate(base, "t1", {base.ad_index("a1")}, (0.4, 0.0))
    assert led.spent == pytest.approx((0.4, 0.0), abs=1e-9)


def test_single_type_replacement(i3k1):
    base = i3k1.base
    allowed = {base.ad_index("a1"), base.ad_index("a2")}
    led = single_type_allocate(base, "t1", allowed, base.budgets)
    assert led.spent == pytest.approx((0.4, 0.3), abs=1e-9)
    assert led.utility == pytest.approx(0.7, abs=1e-9)


def test_single_type_no_candidates(i3k1):
    led = single_type_allocate(i3k1.base, "t1", set(), i3k1.base.budgets)
    assert led.utility == 0.0


def test_single_type_unknown_type(i3k1):
    with pytest.raises(InstanceError):
        single_type_allocate(i3k1.base, "nope", {i3k1.base.ad_index("a1")}, i3k1.base.budgets)


def test_single_type_parallel_slots():
    inst = adalloc.AdInstance.build(
        ads=[("a1", 0.2), ("a2", 10.0), ("a3", 10.0)],
        query_types=[("t1", 1.0)],
        bids={"a1": {"t1": 1.0}, "a2": {"t1": 0.5}, "a3": {"t1": 0.25}},
        slots=2,
        horizon=1.0,
    )
    led = single_type_allocate(inst, "t1", set(range(inst.num_ads)), inst.budgets)
    # a1 and a2 run together; a3 takes over a1's slot when it caps out at t=0.2.
    assert led.spent == pytest.approx((0.2, 0.5, 0.25 * 0.8), abs=1e-9)


def test_single_type_spends_tiny_budget():
    # Exhaustion is relative to the ad's budget, as in the fluid event loop.
    inst = adalloc.AdInstance.build(
        ads=[("a1", 1e-13)], query_types=[("t1", 1.0)], bids={"a1": {"t1": 1e-13}}, slots=1, horizon=2.0
    )
    assert single_type_allocate(inst, "t1", {0}, inst.budgets).utility == 1e-13
    rw = RewriteInstance(inst, (Rewrite("r1", ("a1",)),), 1)
    assert greedy_rewrite(rw)[1] == 1e-13


# ---------------------------------------------------------------------------
# plan evaluation
# ---------------------------------------------------------------------------

def test_plan_single_rewrite(i3k2):
    plan = [PartialAllocation("t1", ("r2",), i3k2.base.budgets)]
    total, remaining = evaluate_plan(i3k2, plan)
    assert total == pytest.approx(0.5, abs=1e-9)
    assert remaining == pytest.approx((0.4, 0.5), abs=1e-9)


def test_plan_empty(i3k2):
    total, remaining = evaluate_plan(i3k2, [])
    assert total == 0.0
    assert remaining == i3k2.base.budgets


def test_plan_both_rewrites(i3k2):
    plan = [PartialAllocation("t1", ("r1", "r2"), i3k2.base.budgets)]
    total, _ = evaluate_plan(i3k2, plan)
    assert total == pytest.approx(0.7, abs=1e-9)


def test_plan_duplicate_types_allowed(i3k2):
    caps = i3k2.base.budgets
    plan = [PartialAllocation("t1", ("r1",), caps), PartialAllocation("t1", ("r2",), caps)]
    total, _ = evaluate_plan(i3k2, plan)
    assert total == pytest.approx(0.9, abs=1e-9)  # 0.4 then 0.5 from the untouched a2


def test_plan_unknown_rewrite_id(i3k2):
    plan = [PartialAllocation("t1", ("r1", "r9"), i3k2.base.budgets)]
    with pytest.raises(InstanceError, match="'r9'"):
        evaluate_plan(i3k2, plan)


def test_plan_respects_global_budgets():
    rng = np.random.default_rng(53)
    for _ in range(20):
        inst = random_rewrite_instance(rng)
        plan = random_plan(inst, rng)
        total, remaining = evaluate_plan(inst, plan)
        for rem, b in zip(remaining, inst.base.budgets):
            assert -1e-9 <= rem <= b + 1e-9
        assert total == pytest.approx(math.fsum(inst.base.budgets) - math.fsum(remaining), abs=1e-6)


# ---------------------------------------------------------------------------
# nested greedy
# ---------------------------------------------------------------------------

def test_greedy_k1_prefers_slow_big_ad(i3k1):
    plan, utility = greedy_rewrite(i3k1)
    assert utility == pytest.approx(0.5, abs=1e-9)
    assert [pa.query_type for pa in plan.items] == ["t1"]
    assert plan.items[0].rewrites == ("r2",)


def test_greedy_k2_reaches_optimum(i3k2):
    plan, utility = greedy_rewrite(i3k2)
    assert utility == pytest.approx(0.7, abs=1e-9)
    assert set(plan.items[0].rewrites) == {"r1", "r2"}


def test_greedy_records_consumption(i3k2):
    plan, utility = greedy_rewrite(i3k2)
    # Replaying the plan through the evaluator reproduces the same utility.
    total, _ = evaluate_plan(i3k2, plan)
    assert total == pytest.approx(utility, abs=1e-9)
    assert math.fsum(plan.items[0].caps) == pytest.approx(utility, abs=1e-9)


def test_greedy_covers_all_types_even_when_worthless():
    base = adalloc.AdInstance.build(
        ads=[("a1", 1.0)],
        query_types=[("t1", 0.5), ("t2", 0.5)],
        bids={},
        slots=1,
        horizon=1.0,
    )
    inst = RewriteInstance(base, (Rewrite("r1", ("a1",)),), 1)
    plan, utility = greedy_rewrite(inst)
    assert utility == 0.0
    assert sorted(pa.query_type for pa in plan.items) == ["t1", "t2"]


def test_greedy_warns_on_oversized_k(i3k1):
    inst = RewriteInstance(i3k1.base, i3k1.rewrites, 5)
    with pytest.warns(UserWarning, match="clamping"):
        plan, utility = greedy_rewrite(inst)
    assert utility == pytest.approx(0.7, abs=1e-9)


def test_inner_greedy_marginal_premise():
    # Replay each plan tuple: every chosen rewrite must beat the unchosen ones.
    rng = np.random.default_rng(59)
    for _ in range(10):
        inst = random_rewrite_instance(rng)
        plan, _ = greedy_rewrite(inst)
        remaining = list(inst.base.budgets)
        for pa in plan.items:
            chosen: list = []
            for rid in pa.rewrites:
                val = qrewrite._tuple_value(inst, pa.query_type, [*chosen, rid], remaining).utility
                for other in inst.rewrites:
                    if other.id in chosen or other.id == rid:
                        continue
                    alt = qrewrite._tuple_value(
                        inst, pa.query_type, [*chosen, other.id], remaining
                    ).utility
                    assert val >= alt - 1e-9
                chosen.append(rid)
            spent = qrewrite._tuple_value(inst, pa.query_type, chosen, remaining).spent
            remaining = [r - s for r, s in zip(remaining, spent)]


def test_outer_greedy_picks_best_type():
    rng = np.random.default_rng(61)
    for _ in range(10):
        inst = random_rewrite_instance(rng)
        plan, _ = greedy_rewrite(inst)
        remaining = list(inst.base.budgets)
        pending = list(inst.base.type_ids)
        for pa in plan.items:
            _, picked_val = best_rewrite_set(inst, pa.query_type, remaining)
            for tid in pending:
                _, val = best_rewrite_set(inst, tid, remaining)
                assert picked_val >= val - 1e-9
            spent = qrewrite._tuple_value(inst, pa.query_type, pa.rewrites, remaining).spent
            remaining = [r - s for r, s in zip(remaining, spent)]
            pending.remove(pa.query_type)


# ---------------------------------------------------------------------------
# plan utility is a well-behaved sequence function
# ---------------------------------------------------------------------------

def test_plan_function_monotone_and_submodular(i3k2):
    u = plan_function(i3k2)
    gen = lambda rng: random_plan(i3k2, rng)
    assert check_nondecreasing(u, gen, samples=500, seed=67).ok
    assert check_submodular(u, gen, gen, samples=500, seed=71).ok


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

def test_parse_rewrite_instance_roundtrip(i3k2):
    data = adalloc.instance_to_json(i3k2.base)
    data["rewrites"] = [{"id": r.id, "ads": list(r.ads)} for r in i3k2.rewrites]
    data["k"] = 2
    parsed = parse_rewrite_instance(data)
    assert parsed == i3k2


def test_parse_rejects_bad_k(i3k2):
    data = adalloc.instance_to_json(i3k2.base)
    data["rewrites"] = [{"id": "r1", "ads": ["a1"]}]
    data["k"] = 0
    with pytest.raises(InstanceError, match="k"):
        parse_rewrite_instance(data)


def test_parse_rejects_empty_rewrite_ads(i3k2):
    data = adalloc.instance_to_json(i3k2.base)
    data["rewrites"] = [{"id": "r1", "ads": []}]
    data["k"] = 1
    with pytest.raises(InstanceError, match="empty ad set"):
        parse_rewrite_instance(data)


def test_rewrite_naming_unknown_ad_rejected(i3k2):
    rewrites = (Rewrite("r1", ("a1",)), Rewrite("r2", ("a2", "a7")))
    with pytest.raises(InstanceError, match="'a7'"):
        RewriteInstance(i3k2.base, rewrites, 1)
