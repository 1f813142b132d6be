"""Query rewriting: pick up to k rewrites per query type to maximize ad revenue.

Each rewrite unlocks a small set of ads; a query type can only be served by
ads reachable through its chosen rewrites.  A plan is a
`seqcore.DiscreteSequence` of partial allocations (query type, rewrite set,
per-ad spend caps), the same type `plan_function` hands to the generic
property checkers; evaluating a plan runs the single-type fluid allocator
tuple by tuple against the global budgets.  `greedy_rewrite` nests two
greedy loops: an inner one that grows the rewrite set of each candidate type
one best rewrite at a time, and an outer one that appends the type with the
largest marginal utility.  The outer loop keeps each pending type's inner
result until a step pays an ad that type ranks: a type's value reads the
budgets of its ranked ads only, and a step changes only the budgets it paid.
"""

from __future__ import annotations

import math
import warnings
from typing import AbstractSet, Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple

from .adalloc import AdInstance, InstanceError, parse_instance
from .adalloc import _draw_distinct, _identifier, _integer
from .seqcore import DiscreteSequence, Frozen, SequenceFunction, Stream, unchecked


class Rewrite(Frozen):
    id: str
    ads: Tuple[str, ...]


class RewriteInstance(Frozen):
    base: AdInstance
    rewrites: Tuple[Rewrite, ...]
    max_rewrites: int  # per query type

    def __post_init__(self):
        ids = [r.id for r in self.rewrites]
        if len(set(ids)) != len(ids):
            raise InstanceError("rewrites: duplicate rewrite id")
        ad_sets = {}
        for r in self.rewrites:
            if not r.ads:
                raise InstanceError(f"rewrites: rewrite {r.id!r} has an empty ad set")
            ad_sets[r.id] = frozenset(self.base.ad_index(ad) for ad in r.ads)
        if self.max_rewrites < 1:
            raise InstanceError(f"k: must be >= 1, got {self.max_rewrites}")
        object.__setattr__(self, "_ad_sets", ad_sets)
        object.__setattr__(self, "_limit", min(self.max_rewrites, len(self.rewrites)))  # rewrites per type

    def reachable_ads(self, rewrite_ids: Iterable[str]) -> FrozenSet[int]:
        """Indices, in the base instance's ad order, of the ads the rewrites unlock."""
        try:
            return frozenset().union(*(self._ad_sets[rid] for rid in rewrite_ids))
        except KeyError as exc:
            raise InstanceError(f"unknown rewrite id {exc.args[0]!r}") from None


class PartialAllocation(Frozen):
    """One plan step: serve `query_type` through `rewrites`, capped per ad.

    `caps` aligns with the base instance's ad order.
    """

    query_type: str
    rewrites: Tuple[str, ...]
    caps: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "rewrites", tuple(self.rewrites))
        object.__setattr__(self, "caps", tuple(float(c) for c in self.caps))
        if len(set(self.rewrites)) != len(self.rewrites):
            raise ValueError("duplicate rewrite in a partial allocation")
        for c in self.caps:
            if not c >= 0.0:
                raise ValueError(f"caps must be >= 0, got {c}")


def single_type_allocate(
    instance: AdInstance, type_id: str, allowed: AbstractSet[int], caps: Sequence[float]
) -> Dict[int, float]:
    """Optimal fluid allocation of one query type over the instance's horizon.

    Allowed ads are granted running time in decreasing payment order (ties to
    lower ad index): each gets what it needs to hit its cap, truncated by the
    horizon and by the shared budget of `slots * horizon` ad-time.  Any such
    time allotment is realizable by a wrap-around schedule over the slots, so
    the spend it yields is the best possible extraction for a lone query
    type.  With one slot this is exactly "run the best ad, replace it with
    the next best when its cap runs out".

    `allowed` holds ad indices and `caps` per-ad spend limits, both in the
    instance's ad order.  An ad whose rate is 0.0 (probability times payment
    underflowed) spends nothing, as in the fluid event loop.  Returns the
    spend of each ad that pays, by ad index in payment order; the utility is
    the `math.fsum` of its values.
    """
    if len(caps) != len(instance.ad_ids):
        raise ValueError(f"budget vector has {len(caps)} entries for {instance.num_ads} ads")
    j = instance._type_index.get(type_id)
    if j is None:
        j = instance.type_index(type_id)  # raises InstanceError
    qj = instance.probs[j]
    bids, floors, horizon = instance.bid_matrix, instance._floors, instance.horizon
    paid: Dict[int, float] = {}
    time_left = instance.slots * horizon
    for i in filter(allowed.__contains__, instance._ranking[j]):
        if time_left <= 0.0:
            break
        rate = qj * bids[i][j]
        cap = caps[i]
        if rate == 0.0 or cap <= floors[i]:
            continue
        need = cap / rate
        run = min(horizon, need, time_left)
        paid[i] = cap if run == need else rate * run
        time_left -= run
    return paid


def evaluate_plan(
    instance: RewriteInstance, plan
) -> Tuple[float, Tuple[float, ...]]:
    """Utility of a plan and the remaining global budgets after running it.

    Accepts a DiscreteSequence of PartialAllocation items or any iterable of
    them.  Repeated query types are legal here (the utility is defined on
    arbitrary sequences); the optimizer never emits them.
    """
    items = plan.items if isinstance(plan, DiscreteSequence) else tuple(plan)
    remaining = list(instance.base.budgets)
    total = 0.0
    for pa in items:
        total += math.fsum(_apply(instance, remaining, pa.query_type, pa.rewrites, pa.caps).values())
    return total, tuple(remaining)


def _apply(
    instance: RewriteInstance, remaining: list, type_id: str, rewrites: Sequence[str], caps: Sequence[float]
) -> Dict[int, float]:
    """Run one plan step, capped per ad by `caps` and by `remaining`; charge what it paid to `remaining`."""
    capped = [min(r, c) for r, c in zip(remaining, caps)]
    paid = single_type_allocate(instance.base, type_id, instance.reachable_ads(rewrites), capped)
    floors = instance.base._floors
    for i, spent in paid.items():
        left = remaining[i] - spent
        remaining[i] = 0.0 if left <= floors[i] else left
    return paid


def best_rewrite_set(
    instance: RewriteInstance, type_id: str, remaining: Sequence[float]
) -> Tuple[Tuple[str, ...], float]:
    """Grow a rewrite set one best rewrite at a time, up to the per-type limit.

    Marginal utilities are measured with the current remaining budgets as
    caps; ties go to input order.  Because the single-type value is monotone
    and has diminishing gains in the rewrite set, this inner greedy is within
    1 - 1/e of the best possible rewrite set for the type.  The ads the
    chosen rewrites reach grow with each pick, so a trial unions one more
    rewrite's ads into them.  Every trial, and the final value, is one
    `single_type_allocate` call.
    """
    base, ad_sets, fsum = instance.base, instance._ad_sets, math.fsum
    chosen: list = []
    reach: FrozenSet[int] = frozenset()
    for _ in range(instance._limit):
        best, best_value = None, 0.0
        for rid, ads in ad_sets.items():
            if rid in chosen:
                continue
            value = fsum(single_type_allocate(base, type_id, reach | ads, remaining).values())
            if best is None or value > best_value:  # the first of equal values wins, as with max
                best, best_value = rid, value
        chosen.append(best)
        reach |= ad_sets[best]
    value = fsum(single_type_allocate(base, type_id, reach, remaining).values()) if chosen else 0.0
    return tuple(chosen), value


def greedy_rewrite(instance: RewriteInstance) -> Tuple[DiscreteSequence, float]:
    """Assign rewrite sets type by type, always appending the best candidate.

    Each outer round appends the unassigned type whose inner greedy
    (`best_rewrite_set`) is worth most; the recorded caps are exactly the
    budgets that step consumed, and the global budgets shrink by the same
    amount.  Ties in both loops go to input order.  A type's inner result is
    kept across rounds and rerun only after a step pays one of its ranked
    ads.  This is exact: `single_type_allocate` reads the caps of the type's
    ranked ads only, and `_apply` changes `remaining` only at the keys of the
    `paid` it returns, so a kept result equals what a rerun would return.
    """
    if instance._limit < instance.max_rewrites:
        warnings.warn(
            f"k={instance.max_rewrites} exceeds the {len(instance.rewrites)} available rewrites; clamping",
            stacklevel=2,
        )
    base = instance.base
    remaining = list(base.budgets)
    pending = list(base.type_ids)
    ranked = dict(zip(base.type_ids, base._ranking))
    inner: Dict[str, Tuple[Tuple[str, ...], float]] = {}  # best_rewrite_set of a pending type
    allocations: list = []
    total = 0.0
    while pending:
        for tid in pending:
            if tid not in inner:
                inner[tid] = best_rewrite_set(instance, tid, remaining)
        best_type = max(pending, key=lambda tid: inner[tid][1])
        best_set = inner.pop(best_type)[0]
        paid = _apply(instance, remaining, best_type, best_set, remaining)
        caps = [paid.get(i, 0.0) for i in range(base.num_ads)]
        allocations.append(PartialAllocation(best_type, best_set, caps))
        total += math.fsum(paid.values())
        pending.remove(best_type)
        for tid in pending:
            if not paid.keys().isdisjoint(ranked[tid]):
                del inner[tid]
    return DiscreteSequence(tuple(allocations)), total


def plan_function(instance: RewriteInstance) -> SequenceFunction:
    """Plan utility as a discrete sequence function over partial allocations."""
    total_budget = math.fsum(instance.base.budgets)
    return SequenceFunction("discrete", lambda seq: evaluate_plan(instance, seq)[0], total_budget)


def random_plan(instance: RewriteInstance, rng: Stream) -> DiscreteSequence:
    """Random plan of zero to four steps: random types, rewrite subsets and caps.

    Caps are budgets times uniforms, one for each positive budget; the
    plan and its steps are built unchecked.
    """
    base = instance.base
    funded = [(i, b) for i, b in enumerate(base.budgets) if b > 0]
    k = rng.integers(0, 5)
    items = []
    for _ in range(k):
        tid = base.type_ids[rng.integers(0, base.num_types)]
        n_rw = rng.integers(0, instance._limit + 1)
        picks: Tuple[str, ...] = ()
        if n_rw:
            idx = _draw_distinct(rng, len(instance.rewrites), n_rw)
            picks = tuple(instance.rewrites[i].id for i in sorted(idx))
        caps = [0.0] * len(base.budgets)
        for i, b in funded:
            caps[i] = b * rng.random()
        items.append(unchecked(PartialAllocation, query_type=tid, rewrites=picks, caps=tuple(caps)))
    return unchecked(DiscreteSequence, items=tuple(items), actions=None)


# ---------------------------------------------------------------------------
# JSON schema (extends the ad instance schema)
# ---------------------------------------------------------------------------

def parse_rewrite_instance(data: Mapping) -> RewriteInstance:
    """Parse the extended schema: base fields plus {"rewrites": [...], "k": int}."""
    base = parse_instance(data)
    if "rewrites" not in data:
        raise InstanceError("rewrites: missing required field")
    if "k" not in data:
        raise InstanceError("k: missing required field")
    if not isinstance(data["rewrites"], (list, tuple)):
        raise InstanceError("rewrites: must be a list of objects")
    rewrites = []
    for entry in data["rewrites"]:
        if not isinstance(entry, Mapping) or "id" not in entry or "ads" not in entry:
            raise InstanceError("rewrites: each entry needs 'id' and 'ads'")
        rid = _identifier("rewrites: id", entry["id"])
        if not isinstance(entry["ads"], (list, tuple)):
            raise InstanceError(f"rewrites: ads of {rid!r} must be a list of ad ids")
        ads = tuple(_identifier(f"rewrites: ads of {rid!r}", a) for a in entry["ads"])
        rewrites.append(Rewrite(rid, ads))
    k = _integer("k", data["k"])
    return RewriteInstance(base=base, rewrites=tuple(rewrites), max_rewrites=k)

