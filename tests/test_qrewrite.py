"""Query rewriting: single-type allocator, plan evaluation, nested greedy."""

import math
import warnings

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
from seqsub.seqcore import DiscreteSequence, check_nondecreasing, check_submodular

from conftest import random_rewrite_instance


# ---------------------------------------------------------------------------
# single-type allocator
# ---------------------------------------------------------------------------

def test_single_type_cap_binds(i3k1):
    base = i3k1.base
    spend = single_type_allocate(base, "t1", {base.ad_index("a1")}, (0.4, 0.0))
    assert spend == pytest.approx({base.ad_index("a1"): 0.4}, abs=1e-9)


def test_single_type_replacement(i3k1):
    base = i3k1.base
    allowed = {base.ad_index("a1"), base.ad_index("a2")}
    spend = single_type_allocate(base, "t1", allowed, base.budgets)
    assert spend == pytest.approx({base.ad_index("a1"): 0.4, base.ad_index("a2"): 0.3}, abs=1e-9)
    assert math.fsum(spend.values()) == pytest.approx(0.7, abs=1e-9)


def test_single_type_no_candidates(i3k1):
    spend = single_type_allocate(i3k1.base, "t1", set(), i3k1.base.budgets)
    assert spend == {}
    assert math.fsum(spend.values()) == 0.0


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
    spend = single_type_allocate(inst, "t1", set(range(inst.num_ads)), inst.budgets)
    # a1 and a2 run together; a3 takes over a1's slot when it caps out at t=0.2.
    assert spend == pytest.approx({0: 0.2, 1: 0.5, 2: 0.25 * 0.8}, abs=1e-9)


def test_single_type_spends_tiny_budget():
    # Exhaustion is relative to the ad's budget, as in the fluid event loop.
    inst = adalloc.AdInstance.build(
        ads=[("a1", 1e-13)], query_types=[("t1", 1.0)], bids={"a1": {"t1": 1e-13}}, slots=1, horizon=2.0
    )
    assert math.fsum(single_type_allocate(inst, "t1", {0}, inst.budgets).values()) == 1e-13
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


def _step_spend(instance, type_id, rewrite_ids, remaining):
    return single_type_allocate(instance.base, type_id, instance.reachable_ads(rewrite_ids), remaining)


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
                val = math.fsum(_step_spend(inst, pa.query_type, [*chosen, rid], remaining).values())
                for other in inst.rewrites:
                    if other.id in chosen or other.id == rid:
                        continue
                    alt = math.fsum(
                        _step_spend(inst, pa.query_type, [*chosen, other.id], remaining).values()
                    )
                    assert val >= alt - 1e-9
                chosen.append(rid)
            spent = _step_spend(inst, pa.query_type, chosen, remaining)
            remaining = [r - spent.get(i, 0.0) for i, r in enumerate(remaining)]


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
            spent = _step_spend(inst, pa.query_type, pa.rewrites, remaining)
            remaining = [r - spent.get(i, 0.0) for i, r in enumerate(remaining)]
            pending.remove(pa.query_type)


def reference_single_type_allocate(instance, type_id, allowed, caps):
    """Spend and utility of `single_type_allocate` as it was: it skipped
    unallowed ads one by one and summed the spend of every ad."""
    j = instance.type_index(type_id)
    qj = instance.probs[j]
    horizon = instance.horizon
    spent = [0.0] * instance.num_ads
    time_left = instance.slots * horizon
    for i in instance.ranked_ads(j):
        if time_left <= 0.0:
            break
        if i not in allowed:
            continue
        rate = qj * instance.bid_matrix[i][j]
        cap = caps[i]
        if rate == 0.0 or cap <= adalloc.EXHAUSTED * instance.budgets[i]:
            continue
        need = cap / rate
        run = min(horizon, need, time_left)
        spent[i] = cap if run == need else rate * run
        time_left -= run
    return tuple(spent), math.fsum(spent)


def reference_best_rewrite_set(instance, type_id, remaining):
    """The inner greedy as it was: every trial unions the ads of all its rewrites again."""

    def value(rewrite_ids):
        allowed = instance.reachable_ads(rewrite_ids)
        return reference_single_type_allocate(instance.base, type_id, allowed, remaining)[1]

    chosen: list = []
    for _ in range(min(instance.max_rewrites, len(instance.rewrites))):
        candidates = (r.id for r in instance.rewrites if r.id not in chosen)
        chosen.append(max(candidates, key=lambda rid: value([*chosen, rid])))
    return tuple(chosen), value(chosen) if chosen else 0.0


def reference_greedy_rewrite(instance):
    base = instance.base
    remaining = list(base.budgets)
    pending = list(base.type_ids)
    allocations, total = [], 0.0
    while pending:
        best_type, best_set, _ = max(
            ((tid, *reference_best_rewrite_set(instance, tid, remaining)) for tid in pending),
            key=lambda entry: entry[2],
        )
        allowed = instance.reachable_ads(best_set)
        spent, utility = reference_single_type_allocate(base, best_type, allowed, list(remaining))
        for i, x in enumerate(spent):
            remaining[i] -= x
            if remaining[i] <= adalloc.EXHAUSTED * base.budgets[i]:
                remaining[i] = 0.0
        allocations.append(PartialAllocation(best_type, best_set, spent))
        total += utility
        pending.remove(best_type)
    return DiscreteSequence(tuple(allocations)), total


def _tied_rewrite_instance(rng):
    """Small instance with tied payments and budgets, repeated rewrite ad sets, often k >= rewrites."""
    m, n, n_rw = int(rng.integers(1, 9)), int(rng.integers(1, 6)), int(rng.integers(1, 7))
    budgets = [(f"a{i}", float(rng.choice([0.0, 0.5, 1.0, 2.0]))) for i in range(m)]
    bids = {
        f"a{i}": {f"t{j}": float(rng.choice([0.25, 0.5, 1.0])) for j in range(n) if rng.random() < 0.6}
        for i in range(m)
    }
    base = adalloc.AdInstance.build(
        budgets, [(f"t{j}", 1.0 / n) for j in range(n)], bids, int(rng.integers(1, 3)), float(rng.choice([0.5, 2.0]))
    )
    rewrites = []
    for r in range(n_rw):
        if rewrites and rng.random() < 0.3:
            ads = rewrites[int(rng.integers(len(rewrites)))].ads
        else:
            ads = tuple(f"a{int(i)}" for i in sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)))
        rewrites.append(Rewrite(f"r{r}", ads))
    return RewriteInstance(base, tuple(rewrites), int(rng.integers(1, n_rw + 3)))


def test_greedy_rewrite_matches_the_reunioning_inner_loop():
    rng = np.random.default_rng(1039)
    for _ in range(320):
        inst = _tied_rewrite_instance(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # k may exceed the rewrites
            assert greedy_rewrite(inst) == reference_greedy_rewrite(inst)
        caps = [float(rng.uniform(0.0, b)) for b in inst.base.budgets]
        for tid in inst.base.type_ids:
            assert best_rewrite_set(inst, tid, caps) == reference_best_rewrite_set(inst, tid, caps)


def eager_rewrite_calls(n_types, n_rewrites, k):
    """`single_type_allocate` calls of the eager nested greedy (`reference_greedy_rewrite`'s loop).

    Each outer round reruns the inner greedy for every pending type, each of
    its trials and its final set one call, then pays the winner with one more.
    """
    per_type = sum(n_rewrites - s for s in range(min(k, n_rewrites))) + 1
    return sum(p * per_type + 1 for p in range(1, n_types + 1))


def _count_calls(monkeypatch, run):
    calls = []
    original = qrewrite.single_type_allocate
    monkeypatch.setattr(qrewrite, "single_type_allocate", lambda *a: calls.append(1) or original(*a))
    result = run()
    monkeypatch.undo()
    return result, len(calls)


def _sparse_rewrite_instance(rng):
    """3-8 types, bid density at most 0.4, tied payments and budgets, zero budgets, repeated
    rewrite ad sets, rewrites that reach only ads no type ranks, and k often >= rewrites."""
    m, n, n_rw = int(rng.integers(3, 11)), int(rng.integers(3, 9)), int(rng.integers(1, 8))
    density = float(rng.choice([0.1, 0.2, 0.3, 0.4]))
    budgets = [(f"a{i}", float(rng.choice([0.0, 0.5, 1.0, 2.0]))) for i in range(m)]
    bids = {
        f"a{i}": {f"t{j}": float(rng.choice([0.25, 0.5, 1.0])) for j in range(n) if rng.random() < density}
        for i in range(m)
    }
    base = adalloc.AdInstance.build(
        budgets, [(f"t{j}", 1.0 / n) for j in range(n)], bids, int(rng.integers(1, 3)), float(rng.choice([0.5, 2.0]))
    )
    unranked = [f"a{i}" for i in range(m) if not bids[f"a{i}"]]
    rewrites = []
    for r in range(n_rw):
        draw = rng.random()
        if rewrites and draw < 0.2:
            ads = rewrites[int(rng.integers(len(rewrites)))].ads
        elif unranked and draw < 0.35:
            ads = tuple(unranked[: int(rng.integers(1, len(unranked) + 1))])
        else:
            ads = tuple(f"a{int(i)}" for i in sorted(rng.choice(m, size=int(rng.integers(1, 4)), replace=False)))
        rewrites.append(Rewrite(f"r{r}", ads))
    return RewriteInstance(base, tuple(rewrites), int(rng.integers(1, n_rw + 3)))


def test_greedy_rewrite_keeps_untouched_inner_results(monkeypatch):
    # The outer loop reruns a type's inner greedy only after a step paid an ad the type ranks;
    # on sparse instances that must skip calls and still pick what the eager loop picks.
    rng = np.random.default_rng(2207)
    fewer = 0
    for _ in range(320):
        inst = _sparse_rewrite_instance(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # k may exceed the rewrites
            result, calls = _count_calls(monkeypatch, lambda: greedy_rewrite(inst))
            assert result == reference_greedy_rewrite(inst)
        eager = eager_rewrite_calls(inst.base.num_types, len(inst.rewrites), inst.max_rewrites)
        assert calls <= eager
        fewer += calls < eager
    assert fewer >= 160


@pytest.mark.parametrize("n_types,n_rewrites,k", [(1, 1, 1), (3, 6, 2), (4, 3, 5), (6, 5, 3)])
def test_greedy_rewrite_makes_the_eager_count_when_every_type_ranks_every_ad(monkeypatch, n_types, n_rewrites, k):
    # Every step pays some ad (budgets far above what a horizon can spend), and every type ranks
    # it, so no inner result survives a round: the call count is the eager loop's.
    rng = np.random.default_rng(n_types * 100 + n_rewrites * 10 + k)
    m = 6
    base = adalloc.AdInstance.build(
        [(f"a{i}", 100.0) for i in range(m)],
        [(f"t{j}", 1.0 / n_types) for j in range(n_types)],
        {f"a{i}": {f"t{j}": float(rng.uniform(0.1, 2.0)) for j in range(n_types)} for i in range(m)},
        1,
        1.0,
    )
    rewrites = tuple(
        Rewrite(f"r{r}", tuple(f"a{int(i)}" for i in sorted(rng.choice(m, size=2, replace=False))))
        for r in range(n_rewrites)
    )
    inst = RewriteInstance(base, rewrites, k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        (plan, _), calls = _count_calls(monkeypatch, lambda: greedy_rewrite(inst))
    assert all(any(pa.caps) for pa in plan.items)
    assert calls == eager_rewrite_calls(n_types, n_rewrites, k)


def reference_random_plan(instance, rng):
    """`random_plan` as it drew before single picks stopped going through `choice`."""
    base = instance.base
    k = int(rng.integers(0, 5))
    items = []
    for _ in range(k):
        tid = base.type_ids[int(rng.integers(0, base.num_types))]
        n_rw = int(rng.integers(0, min(instance.max_rewrites, len(instance.rewrites)) + 1))
        picks = ()
        if n_rw and instance.rewrites:
            idx = rng.choice(len(instance.rewrites), size=n_rw, replace=False)
            picks = tuple(instance.rewrites[int(i)].id for i in sorted(idx))
        caps = tuple(float(rng.uniform(0.0, b)) if b > 0 else 0.0 for b in base.budgets)
        items.append(PartialAllocation(tid, picks, caps))
    return DiscreteSequence(tuple(items))


def test_random_plan_draws_what_the_choice_sampler_drew():
    # Same plans and the same next draw, so every later draw is the same.
    rng = np.random.default_rng(1049)
    for case in range(300):
        m = int(rng.integers(1, 201))
        n_rw = int(rng.integers(1, 13)) if case % 2 else int(rng.integers(1, 3))
        base = adalloc.AdInstance.build(
            [(f"a{i}", float(rng.choice([0.0, 1.0]))) for i in range(m)], [("t0", 1.0)], {}, 1 + case % 3, 1.0
        )
        rewrites = tuple(Rewrite(f"r{r}", (f"a{r % m}",)) for r in range(n_rw))
        inst = RewriteInstance(base, rewrites, int(rng.integers(1, 4)))
        seed = int(rng.integers(2**32))
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert random_plan(inst, new) == reference_random_plan(inst, old)
        assert new.random() == old.random()


def test_trusted_random_plan_builds_what_the_checking_constructors_build():
    # One random(n) for the caps and unchecked steps: the plan, its hash, its
    # repr and the next draw must be the checked reference's.  Ids sort
    # unlike their index order (a10 before a9), there may be no ads and no
    # rewrites, some budgets are zero, slots run 1 to 3, and k may reach or
    # pass the number of rewrites.
    rng = np.random.default_rng(1057)
    for _ in range(300):
        m, n, n_rw = int(rng.integers(0, 13)), int(rng.integers(1, 13)), int(rng.integers(0, 7))
        ad_ids = [f"a{int(k)}" for k in rng.permutation(m)]
        base = adalloc.AdInstance.build(
            [(a, 0.0 if rng.random() < 0.25 else float(rng.uniform(0.1, 5.0))) for a in ad_ids],
            [(f"t{int(k)}", 1.0 / n) for k in rng.permutation(n)], {}, int(rng.integers(1, 4)), 1.0,
        )
        rewrites = []
        for r in range(n_rw if m else 0):
            picks = rng.choice(m, int(rng.integers(1, m + 1)), replace=False)
            rewrites.append(Rewrite(f"r{r}", tuple(ad_ids[int(i)] for i in picks)))
        inst = RewriteInstance(base, tuple(rewrites), int(rng.integers(1, n_rw + 3)))
        seed = int(rng.integers(2**32))
        new, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got, want = random_plan(inst, new), reference_random_plan(inst, old)
            assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert new.random() == old.random()


# ---------------------------------------------------------------------------
# plan utility is a well-behaved sequence function
# ---------------------------------------------------------------------------

def test_plan_function_monotone_and_submodular(i3k2):
    u = plan_function(i3k2)
    gen = lambda rng: random_plan(i3k2, rng)
    assert check_nondecreasing(u, gen, samples=500, seed=67).ok
    assert check_submodular(u, gen, samples=500, seed=71).ok


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
