"""Query rewriting: pick up to k rewrites per query type to maximize ad revenue.

Each rewrite unlocks a small set of ads; a query type can only be served by
ads reachable through its chosen rewrites.  A plan is a
`seqcore.DiscreteSequence` of partial allocations (query type, rewrite set,
per-ad spend caps), the same type `plan_function` hands to the generic
property checkers; evaluating a plan runs the single-type fluid allocator
tuple by tuple against the global budgets.  `greedy_rewrite` nests two
greedy loops: an inner one that grows the rewrite set of each candidate type
one best rewrite at a time, and an outer one that appends the type with the
largest marginal utility.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, Iterable, Mapping, Sequence, Tuple

import numpy as np

from .adalloc import EXHAUSTED, AdInstance, InstanceError, SpendLedger, parse_instance
from .adalloc import _integer
from .seqcore import DiscreteSequence, SequenceFunction


@dataclass(frozen=True)
class Rewrite:
    id: str
    ads: Tuple[str, ...]


@dataclass(frozen=True)
class RewriteInstance:
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

    def reachable_ads(self, rewrite_ids: Iterable[str]) -> FrozenSet[int]:
        """Indices, in the base instance's ad order, of the ads the rewrites unlock."""
        try:
            return frozenset().union(*(self._ad_sets[rid] for rid in rewrite_ids))
        except KeyError as exc:
            raise InstanceError(f"unknown rewrite id {exc.args[0]!r}") from None


@dataclass(frozen=True)
class PartialAllocation:
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
) -> SpendLedger:
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
    underflowed) spends nothing, as in the fluid event loop.  The ledger
    fixes spend per ad, not a schedule, so its `breakpoints` are empty.
    """
    if len(caps) != instance.num_ads:
        raise ValueError(f"budget vector has {len(caps)} entries for {instance.num_ads} ads")
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
        if rate == 0.0 or cap <= EXHAUSTED:
            continue
        need = cap / rate
        run = min(horizon, need, time_left)
        spent[i] = cap if run == need else rate * run
        time_left -= run
    return SpendLedger(instance.ad_ids, tuple(spent), math.fsum(spent), ())


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
        caps_eff = [min(r, c) for r, c in zip(remaining, pa.caps)]
        ledger = _tuple_value(instance, pa.query_type, pa.rewrites, caps_eff)
        _charge(remaining, ledger.spent)
        total += ledger.utility
    return total, tuple(remaining)


def _tuple_value(
    instance: RewriteInstance, type_id: str, rewrite_ids: Sequence[str], remaining: Sequence[float]
) -> SpendLedger:
    allowed = instance.reachable_ads(rewrite_ids)
    return single_type_allocate(instance.base, type_id, allowed, remaining)


def _charge(remaining: list, spent: Sequence[float]) -> None:
    """Deduct one step's spend from the global budgets, clamping at EXHAUSTED."""
    for i, s in enumerate(spent):
        remaining[i] -= s
        if remaining[i] <= EXHAUSTED:
            remaining[i] = 0.0


def best_rewrite_set(
    instance: RewriteInstance, type_id: str, remaining: Sequence[float]
) -> Tuple[Tuple[str, ...], float]:
    """Grow a rewrite set one best rewrite at a time, up to the per-type limit.

    Marginal utilities are measured with the current remaining budgets as
    caps; ties go to input order.  Because the single-type value is monotone
    and has diminishing gains in the rewrite set, this inner greedy is within
    1 - 1/e of the best possible rewrite set for the type.
    """

    def value(rewrite_ids) -> float:
        return _tuple_value(instance, type_id, rewrite_ids, remaining).utility

    chosen: list = []
    for _ in range(min(instance.max_rewrites, len(instance.rewrites))):
        candidates = (r.id for r in instance.rewrites if r.id not in chosen)
        chosen.append(max(candidates, key=lambda rid: value([*chosen, rid])))
    return tuple(chosen), value(chosen) if chosen else 0.0


def greedy_rewrite(instance: RewriteInstance) -> Tuple[DiscreteSequence, float]:
    """Assign rewrite sets type by type, always appending the best candidate.

    Each outer round runs the inner greedy of `best_rewrite_set` for every
    unassigned type and appends the winner; the recorded caps are exactly the
    budgets that step consumed, and the global budgets shrink by the same
    amount.  Ties in both loops go to input order.
    """
    if instance.max_rewrites > len(instance.rewrites):
        warnings.warn(
            f"k={instance.max_rewrites} exceeds the {len(instance.rewrites)} available rewrites; clamping",
            stacklevel=2,
        )
    base = instance.base
    remaining = list(base.budgets)
    pending = list(base.type_ids)
    allocations: list = []
    total = 0.0
    while pending:
        best_type, best_set, _ = max(
            ((tid, *best_rewrite_set(instance, tid, remaining)) for tid in pending),
            key=lambda entry: entry[2],
        )
        ledger = _tuple_value(instance, best_type, best_set, remaining)
        allocations.append(PartialAllocation(best_type, best_set, ledger.spent))
        _charge(remaining, ledger.spent)
        total += ledger.utility
        pending.remove(best_type)
    return DiscreteSequence(tuple(allocations)), total


def plan_function(instance: RewriteInstance) -> SequenceFunction:
    """Plan utility as a discrete sequence function over partial allocations."""
    return SequenceFunction("discrete", lambda seq: evaluate_plan(instance, seq)[0])


def random_plan(instance: RewriteInstance, rng: np.random.Generator) -> DiscreteSequence:
    """Random plan of zero to four steps: random types, rewrite subsets and caps."""
    base = instance.base
    k = int(rng.integers(0, 5))
    items = []
    for _ in range(k):
        tid = base.type_ids[int(rng.integers(0, base.num_types))]
        n_rw = int(rng.integers(0, min(instance.max_rewrites, len(instance.rewrites)) + 1))
        picks: Tuple[str, ...] = ()
        if n_rw and instance.rewrites:
            idx = rng.choice(len(instance.rewrites), size=n_rw, replace=False)
            picks = tuple(instance.rewrites[int(i)].id for i in sorted(idx))
        caps = tuple(float(rng.uniform(0.0, b)) if b > 0 else 0.0 for b in base.budgets)
        items.append(PartialAllocation(tid, picks, caps))
    return DiscreteSequence(tuple(items))


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
        if not isinstance(entry["ads"], (list, tuple)):
            raise InstanceError(f"rewrites: ads of {entry['id']!r} must be a list of ad ids")
        rewrites.append(Rewrite(str(entry["id"]), tuple(str(a) for a in entry["ads"])))
    k = _integer("k", data["k"])
    return RewriteInstance(base=base, rewrites=tuple(rewrites), max_rewrites=k)


def plan_to_json(instance: RewriteInstance, plan: DiscreteSequence) -> list:
    base = instance.base
    out = []
    for pa in plan.items:
        out.append(
            {
                "type": pa.query_type,
                "rewrites": list(pa.rewrites),
                "consumed": {
                    ad: cap for ad, cap in zip(base.ad_ids, pa.caps) if cap > 0.0
                },
            }
        )
    return out
