"""Budgeted ad allocation in the fluid (virtual-time) model.

An instance has ads with budgets, query types with arrival probabilities,
per-pair expected payments, a slot count, and a horizon measured in expected
queries.  A configuration assigns at most `slots` ads to each query type; a
strategy is a timed sequence of configurations.  Evaluation is deterministic
and event-driven: within a segment each assigned ad spends at its expected
rate until its budget runs out, at which point its rate drops to zero while
the configuration itself stays fixed.  `greedy_allocate` plays the
highest-rate configuration and reconsiders only when an exhaustion makes a
strictly better one available, so it changes configuration at most once per
ad.  It is index-native and does work in proportion to what each event
changes: it keeps each type's top-`slots` live ads and a cursor past the
dead prefix of the type's ranking, re-picks after an exhaustion only the
types whose pick held the spent-out ad, and sums again only the rates of the
ads whose set of picking types changed.  Public functions take id-keyed
`Configuration` values; the kernel works on (type index, ad indices) pairs,
which a configuration built from them carries, with its instance, as its
stamp.  `FluidRateModel`, the model `verify` checks, replays each query's
prefix from the full budgets.  The generic `seqcore.greedy_continuous`
driven by `incremental_oracle` (prefixes replayed the same way) over
`enumerate_configurations` is the paper-faithful form of the same greedy,
kept as the test reference for `greedy_allocate`.
"""

from __future__ import annotations

import math
from itertools import combinations, compress, islice, product
from operator import itemgetter
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from .seqcore import Frozen, SequenceFunction, Stream, TimedSequence, unchecked

# Remaining budget at or below this fraction of the ad's budget is treated as
# exhausted (a float residue guard, relative so that it holds at every scale).
EXHAUSTED = 1e-12
# Input limits: more slots than this overflow islice (a sampler's slot count
# draw, `Stream.integers`, takes up to 2^32 values), and a larger total budget
# or payment lets sums of spend or of spend rates overflow to infinity.
MAX_SLOTS = 2**31 - 1
MAX_AMOUNT = 1e300
# Random configurations an instance interns before its memo is dropped whole.
MODEL_MEMO = 256
# 2^1074: a sum of `_units` counts divided by this is the float nearest the sum.
_UNIT = 1 << 1074
_first, _second = itemgetter(0), itemgetter(1)


class InstanceError(ValueError):
    """Invalid instance data; the message names the offending field."""


class SizeGuardError(RuntimeError):
    """An oracle was asked for more work than its guard allows."""


class AdInstance(Frozen):
    """Immutable problem data; bids are stored as an ads x types matrix."""

    ad_ids: Tuple[str, ...]
    budgets: Tuple[float, ...]
    type_ids: Tuple[str, ...]
    probs: Tuple[float, ...]
    bid_matrix: Tuple[Tuple[float, ...], ...]
    slots: int
    horizon: float

    def __post_init__(self):
        m, n = len(self.ad_ids), len(self.type_ids)
        if len(self.budgets) != m:
            raise InstanceError(f"ads: the number of budgets ({len(self.budgets)}) must equal the number of ads ({m})")
        if len(self.probs) != n:
            raise InstanceError(
                f"query_types: the number of probabilities ({len(self.probs)}) must equal the number of types ({n})"
            )
        if len(self.bid_matrix) != m or any(len(row) != n for row in self.bid_matrix):
            raise InstanceError(f"bids: the bid matrix must be num_ads x num_types ({m} x {n})")
        if len(set(self.ad_ids)) != m:
            raise InstanceError("ads: duplicate ad id")
        if len(set(self.type_ids)) != n:
            raise InstanceError("query_types: duplicate type id")
        for ad, b in zip(self.ad_ids, self.budgets):
            if not 0.0 <= b < math.inf:
                raise InstanceError(f"ads: budget of {ad!r} must be finite and >= 0, got {b}")
        if sum(self.budgets) > MAX_AMOUNT:
            raise InstanceError(f"ads: total budget {sum(self.budgets)} exceeds {MAX_AMOUNT}")
        for q, tid in zip(self.probs, self.type_ids):
            # One above 1, beyond the sum's tolerance, fails the sum too; huge ones would overflow it.
            if not 0.0 <= q <= 1.0 + 1e-9:
                raise InstanceError(f"query_types: probability of {tid!r} must be in [0, 1], got {q}")
        if abs(math.fsum(self.probs) - 1.0) > 1e-9:
            raise InstanceError(
                f"query_types: probabilities sum to {math.fsum(self.probs)!r}, expected 1 within 1e-9"
            )
        columns = range(n)
        by_bid: list = [[] for _ in columns]
        for i, row in enumerate(self.bid_matrix):
            # Zero payments are valid and unranked; compress skips them at C speed.
            for j in compress(columns, row):
                p = row[j]
                if not 0.0 <= p <= MAX_AMOUNT:
                    raise InstanceError(
                        f"bids: expected payment must be in [0, {MAX_AMOUNT}], got {p}"
                    )
                by_bid[j].append((p, i))
        if not 1 <= self.slots <= MAX_SLOTS:
            raise InstanceError(f"slots: must be between 1 and {MAX_SLOTS}, got {self.slots}")
        if not 0.0 < self.horizon < math.inf:
            raise InstanceError(f"horizon: must be finite and > 0, got {self.horizon}")
        # Remaining budget at or below an ad's floor counts as exhausted.
        object.__setattr__(self, "_floors", tuple(EXHAUSTED * b for b in self.budgets))
        object.__setattr__(self, "_ad_index", {a: i for i, a in enumerate(self.ad_ids)})
        object.__setattr__(self, "_type_index", {t: j for j, t in enumerate(self.type_ids)})
        # By decreasing payment; the sort is stable, so ties keep the lower ad index first.
        ranking = (map(_second, sorted(c, key=_first, reverse=True)) for c in by_bid)
        object.__setattr__(self, "_ranking", tuple(map(tuple, ranking)))
        # Canonical type order (by id): per-ad rates are summed over types in this order.
        object.__setattr__(self, "_order", tuple(sorted(columns, key=self.type_ids.__getitem__)))
        object.__setattr__(self, "_interned", {})  # random_configuration's, by index form

    @classmethod
    def build(
        cls,
        ads: Sequence[Tuple[str, float]],
        query_types: Sequence[Tuple[str, float]],
        bids: Mapping[str, Mapping[str, float]],
        slots: int,
        horizon: float,
    ) -> "AdInstance":
        """Assemble an instance from id-keyed data; missing bids mean zero.

        One pass over `bids` converts each payment and fills the dense rows.
        A value that is not a number is reported first, then one of `slots`
        or `horizon`, then the first unknown ad or type id.
        """
        ad_ids = tuple(a for a, _ in ads)
        type_ids = tuple(t for t, _ in query_types)
        ad_index = {a: i for i, a in enumerate(ad_ids)}
        type_index = {t: j for j, t in enumerate(type_ids)}
        rows = [[0.0] * len(type_ids) for _ in ad_ids]
        unknown = None  # the first unknown id's message
        for ad, row in bids.items():
            i = ad_index.get(ad)
            if i is None:
                unknown = unknown or f"bids: unknown ad id {ad!r}"
            dense = rows[i] if unknown is None else None
            for tid, p in row.items():
                if type(p) is not float:  # a JSON float is one already
                    p = _convert(f"bids: {ad}/{tid}", float, p)
                j = type_index.get(tid)
                if j is None:
                    unknown = unknown or f"bids: unknown type id {tid!r} under ad {ad!r}"
                elif unknown is None:
                    dense[j] = p
        slots = _integer("slots", slots)
        horizon = _convert("horizon", float, horizon)
        if unknown is not None:
            raise InstanceError(unknown)
        return cls(
            ad_ids=ad_ids,
            budgets=tuple(float(b) for _, b in ads),
            type_ids=type_ids,
            probs=tuple(float(q) for _, q in query_types),
            bid_matrix=tuple(map(tuple, rows)),
            slots=slots,
            horizon=horizon,
        )

    @property
    def num_ads(self) -> int:
        return len(self.ad_ids)

    @property
    def num_types(self) -> int:
        return len(self.type_ids)

    def ad_index(self, ad_id: str) -> int:
        try:
            return self._ad_index[ad_id]
        except KeyError:
            raise InstanceError(f"unknown ad id {ad_id!r}") from None

    def type_index(self, type_id: str) -> int:
        try:
            return self._type_index[type_id]
        except KeyError:
            raise InstanceError(f"unknown type id {type_id!r}") from None

    def ranked_ads(self, j: int) -> Tuple[int, ...]:
        """Positive-bid ads of type `j` by decreasing payment, ties to lower ad index."""
        return self._ranking[j]


class Configuration(Frozen):
    """Assignment of at most `slots` ads per query type.

    Canonical form: types sorted by id, empty assignments dropped, ads within
    a type sorted by id (the assignment is a set; revenue ignores order).
    """

    assignment: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    _stamp = None  # (instance, index form) from `_configuration`; not a field, and never pickled

    def __post_init__(self):
        canon = []
        for tid, ads in sorted(self.assignment):
            ads = tuple(sorted(ads))
            if len(set(ads)) != len(ads):
                raise ValueError(f"duplicate ad in assignment for type {tid!r}")
            if ads:
                canon.append((tid, ads))
        object.__setattr__(self, "assignment", tuple(canon))

    def __getstate__(self) -> dict:  # a stamp would pickle its whole instance
        return {"assignment": self.assignment}

    @classmethod
    def of(cls, mapping: Mapping[str, Iterable[str]]) -> "Configuration":
        return cls(tuple((t, tuple(a)) for t, a in mapping.items()))

    def is_empty(self) -> bool:
        return not self.assignment


# A strategy is a TimedSequence whose actions are Configuration values.
AllocationStrategy = TimedSequence


class SpendLedger(Frozen):
    """Per-ad spend of an evaluated strategy, plus rate-change times.

    `spent` has one entry per ad, in the instance's ad order, and `utility`
    is their `math.fsum`.  `breakpoints` are the interior times at which
    some ad's spend rate changes.
    """

    ad_ids: Tuple[str, ...]
    spent: Tuple[float, ...]
    utility: float
    breakpoints: Tuple[float, ...]


def _config_indices(instance: AdInstance, config: Configuration) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """Index form of a configuration, validated; types keep their canonical (id-sorted) order.

    The only check that actions are `Configuration` values.  One stamped for
    this very instance returns its stamp, whose ads within a type may be in
    ranking or draw order (no result depends on it); any other is validated.
    """
    if not isinstance(config, Configuration):
        raise ValueError("strategy actions must be Configuration values")
    stamp = config._stamp
    if stamp is not None and stamp[0] is instance:
        return stamp[1]
    out = []
    for tid, ads in config.assignment:
        j = instance.type_index(tid)
        idx = tuple(instance.ad_index(a) for a in ads)
        if len(idx) > instance.slots:
            raise ValueError(
                f"type {tid!r} assigns {len(idx)} ads, more than {instance.slots} slots"
            )
        out.append((j, idx))
    return tuple(out)


def _configuration(instance: AdInstance, cfg_idx, names: dict) -> Configuration:
    """The id form of an index-form configuration of nonempty picks, types in canonical order.

    It is `==`, and hash-equal, to `Configuration.of` of the same picks without
    its canonicalising sort: `names` caches each pick's id form, ads sorted by id.
    Its stamp, `(instance, cfg_idx)`, is what `_config_indices` returns for it.
    """
    assignment = []
    for pick in cfg_idx:
        name = names.get(pick)
        if name is None:
            j, ads = pick
            name = names[pick] = (instance.type_ids[j], tuple(sorted(map(instance.ad_ids.__getitem__, ads))))
        assignment.append(name)
    assignment = tuple(assignment)
    return unchecked(Configuration, assignment=assignment, _stamp=(instance, cfg_idx))


def _spend_rates(instance: AdInstance, cfg_idx, remaining: Sequence[float]) -> Dict[int, float]:
    """Spend rate of each assigned, unexhausted ad, summed over types in `cfg_idx` order."""
    probs, bids, floors = instance.probs, instance.bid_matrix, instance._floors
    rates: Dict[int, float] = {}
    for j, ads in cfg_idx:
        qj = probs[j]
        for i in ads:
            if remaining[i] > floors[i]:
                rates[i] = rates.get(i, 0.0) + qj * bids[i][j]
    return rates


def _step(instance: AdInstance, rates: Dict[int, float], remaining: list, limit: float) -> Tuple[float, bool, list]:
    """Run a configuration until its next budget exhaustion or for `limit`, whichever is first.

    `rates` is the configuration's `_spend_rates`.  Mutates `remaining`,
    clamping spent-out budgets to zero, and drops those ads from `rates`.
    Returns the time run, whether it stopped on an exhaustion, and the ads
    dropped.  The ads that set the step's length always run out, even where
    `rem / rate` underflowed to 0.0, so every exhaustion step drops at least one.
    """
    floors = instance._floors
    tau = min((remaining[i] / rate for i, rate in rates.items() if rate > 0.0), default=math.inf)
    hit = tau < limit
    dt = tau if hit else limit
    gone = []
    for i, rate in rates.items():
        if rate > 0.0:
            left = remaining[i] - rate * dt
            if left <= floors[i] or (hit and remaining[i] / rate == tau):
                left = 0.0
                gone.append(i)
            remaining[i] = left
    for i in gone:
        del rates[i]
    return dt, hit, gone


def _advance(
    instance: AdInstance,
    cfg_idx,
    remaining: list,
    duration: float,
    t0: float = 0.0,
    events: Optional[list] = None,
) -> Dict[int, float]:
    """Run one configuration for `duration`, stepping through exhaustion events.

    Mutates `remaining`; appends absolute event times to `events`.  Returns
    the configuration's `_spend_rates` at the end, kept up to date by `_step`.
    """
    rates = _spend_rates(instance, cfg_idx, remaining)
    done = 0.0
    while duration - done > 0.0:
        dt, hit, _ = _step(instance, rates, remaining, duration - done)
        if not hit:
            break
        done += dt
        if events is not None:
            events.append(t0 + done)
    return rates


def _budget_vector(instance: AdInstance, remaining) -> list:
    vec = [float(v) for v in remaining]
    if len(vec) != instance.num_ads:
        raise ValueError(f"budget vector has {len(vec)} entries for {instance.num_ads} ads")
    return vec


def _rate(instance: AdInstance, cfg_idx, remaining: Sequence[float]) -> float:
    """Revenue rate of an index-form configuration; `fsum` makes it independent of ad order."""
    return math.fsum(_spend_rates(instance, cfg_idx, remaining).values())


def revenue_rate(instance: AdInstance, config: Configuration, remaining) -> float:
    """Instantaneous expected revenue of a configuration given remaining budgets."""
    rem = _budget_vector(instance, remaining)
    for v in rem:
        if v < 0.0:
            raise ValueError("remaining budgets must be >= 0")
    return _rate(instance, _config_indices(instance, config), rem)


def _past_horizon(instance: AdInstance, length: float) -> bool:
    """Whether a strategy of this length overruns the horizon by more than rounding.

    The slack is relative above a unit horizon: summed segment durations of a
    long horizon can land an ulp past it.
    """
    return length > instance.horizon + 1e-9 * max(1.0, instance.horizon)


def evaluate_strategy(instance: AdInstance, strategy: AllocationStrategy) -> SpendLedger:
    """Fluid evaluation of a strategy: per-ad spend, total utility, breakpoints."""
    total = strategy.length
    if _past_horizon(instance, total):
        raise ValueError(f"strategy length {total} exceeds horizon {instance.horizon}")
    return _ledger(instance, [(_config_indices(instance, c), dur) for c, dur in strategy.segments], total)


def _ledger(instance: AdInstance, segments: Sequence, total: float) -> SpendLedger:
    """Replay index-form segments of total length `total` into a ledger.

    Event times within `slack` of the end, or of the previous breakpoint,
    are dropped; the slack is 1e-12, relative below a unit length so that a
    short strategy keeps its breakpoints.
    """
    remaining = list(instance.budgets)
    events: list = []
    t = 0.0
    for cfg_idx, dur in segments:
        _advance(instance, cfg_idx, remaining, dur, t, events)
        t += dur
        events.append(t)
    spent = tuple(b - r for b, r in zip(instance.budgets, remaining))
    slack = 1e-12 * min(1.0, total)
    interior = sorted(x for x in events if x < total - slack)
    breakpoints: list = []
    for x in interior:
        if not breakpoints or x - breakpoints[-1] > slack:
            breakpoints.append(x)
    return SpendLedger(instance.ad_ids, spent, math.fsum(spent), tuple(breakpoints))


def _replay(instance: AdInstance, strategy: AllocationStrategy) -> list:
    """Budgets left after `strategy`, replayed from the full budgets with no horizon cap."""
    remaining = list(instance.budgets)
    for config, duration in strategy.segments:
        _advance(instance, _config_indices(instance, config), remaining, duration)
    return remaining


def marginal_rate(
    instance: AdInstance,
    config: Configuration,
    delta: float,
    prefix: Optional[AllocationStrategy] = None,
) -> float:
    """Rate at which `config` adds utility after running for `delta` past `prefix`.

    Right-limit convention: an ad exhausting exactly at the queried offset
    contributes nothing.  A one-query `FluidRateModel`.
    """
    return FluidRateModel(instance).rate(config, delta, prefix if prefix is not None else TimedSequence(()))


def _top_ads(instance: AdInstance, j: int, remaining: Sequence[float]) -> Tuple[int, ...]:
    """Top-`slots` unexhausted positive-bid ads of type `j`, in ranking order."""
    live = (i for i in instance.ranked_ads(j) if remaining[i] > instance._floors[i])
    return tuple(islice(live, instance.slots))


def _best(instance: AdInstance, remaining: Sequence[float]):
    """Index form of the best configuration, types in canonical order, empty ones dropped."""
    return tuple((j, ads) for j in instance._order if (ads := _top_ads(instance, j, remaining)))


def best_configuration(instance: AdInstance, remaining) -> Configuration:
    """Top-`slots` unexhausted positive-bid ads per type; ties to lower ad index."""
    return _configuration(instance, _best(instance, _budget_vector(instance, remaining)), {})


def _units(d: float) -> int:
    """The finite float `d` exactly, as a count of 2^-1074, the smallest subnormal."""
    n, den = d.as_integer_ratio()
    return n << 1075 - den.bit_length()


def greedy_allocate(instance: AdInstance) -> Tuple[AllocationStrategy, SpendLedger]:
    """Play the best configuration, switching only when a strictly better one appears.

    Switches can only happen when an assigned ad exhausts, so the strategy
    has at most one configuration change per ad.  Every step but the last
    retires an ad, so there are at most `num_ads + 1` steps.  If everything
    exhausts early the last configuration simply idles out the horizon.
    Types run in canonical (id-sorted) order, so every per-ad rate and every
    `fsum` comparison is the one the id form gives.

    Each event does work in proportion to what it changes.  Exhaustion is
    permanent, so each type keeps a cursor past the dead prefix of its
    ranking, and only the types whose pick held an ad that `_step` reports
    retired re-pick.  Each ad keeps the set of types that pick it, and only
    the ads whose set changed get their rate in the best configuration summed
    again, over their types in canonical order from 0.0, as `_spend_rates` does.
    """
    horizon, slots = instance.horizon, instance.slots
    probs, bids, floors = instance.probs, instance.bid_matrix, instance._floors
    order = instance._order  # per-type state below is indexed by canonical position
    ranked = [instance._ranking[j] for j in order]
    remaining = list(instance.budgets)
    cursor = [0] * len(order)
    picks: list = [None] * len(order)  # (type index, ads) at each position, None where no ad is live
    pickers = [set() for _ in remaining]  # positions of the types whose pick holds the ad
    best_rates: Dict[int, float] = {}  # `_spend_rates` of `best`, kept up to date per ad
    stale = range(len(order))  # positions to re-pick
    segs: list = []
    exact = 0  # the durations in `segs`, summed exactly in units of 2^-1074
    elapsed = 0.0
    current, rates, best = None, {}, ()
    while horizon - elapsed > 1e-15 * horizon:
        if stale:
            changed = set()
            for k in stale:
                ads, c = ranked[k], cursor[k]
                while c < len(ads) and remaining[ads[c]] <= floors[ads[c]]:
                    c += 1
                cursor[k] = c
                pick, nxt = ads[c : c + 1], c + 1
                while len(pick) < slots and nxt < len(ads):
                    if remaining[ads[nxt]] > floors[ads[nxt]]:
                        pick += (ads[nxt],)
                    nxt += 1
                old = picks[k][1] if picks[k] else ()
                for i in old:
                    if i not in pick:
                        pickers[i].discard(k)
                        changed.add(i)
                for i in pick:
                    if i not in old:
                        pickers[i].add(k)
                        changed.add(i)
                picks[k] = (order[k], pick) if pick else None
            for i in changed:
                if pickers[i]:
                    rate = 0.0
                    for k in sorted(pickers[i]):
                        j = order[k]
                        rate += probs[j] * bids[i][j]
                    best_rates[i] = rate
                else:
                    del best_rates[i]
            best = tuple(filter(None, picks))
        if current is None or math.fsum(best_rates.values()) > math.fsum(rates.values()):
            current, rates = best, dict(best_rates)
        dt, hit, gone = _step(instance, rates, remaining, horizon - elapsed)
        if segs and segs[-1][0] == current:
            exact -= _units(segs[-1][1])
            segs[-1][1] += dt
            exact += _units(segs[-1][1])
        elif dt > 0.0:
            segs.append([current, dt])
            exact += _units(dt)
        elapsed = exact / _UNIT  # correctly rounded, as `math.fsum(durations)` is
        if not hit:
            break
        stale = set().union(*(pickers[i] for i in gone))
    names: dict = {}
    named = tuple((_configuration(instance, c, names), d) for c, d in segs)
    strategy = unchecked(TimedSequence, segments=named)
    return strategy, _ledger(instance, segs, elapsed)


def configuration_hold(instance: AdInstance, config: Configuration, remaining) -> float:
    """How long `config` stays at least as good as every other configuration.

    Simulates forward through the exhaustions of the assigned ads and returns
    the first offset at which some other configuration becomes strictly
    better, or infinity when that never happens.  Part of the paper-faithful
    test reference for `greedy_allocate` (see `incremental_oracle`).
    """
    rem = _budget_vector(instance, remaining)
    rates = _spend_rates(instance, _config_indices(instance, config), rem)
    elapsed = 0.0
    while True:
        dt, hit, _ = _step(instance, rates, rem, math.inf)
        if not hit:
            return math.inf
        elapsed += dt
        if _rate(instance, _best(instance, rem), rem) > math.fsum(rates.values()):
            return elapsed


def incremental_oracle(instance: AdInstance):
    """Rate oracle for the generic continuous greedy driver.

    Returns `oracle(prefix, config) -> (rate, hold)` where `hold` is how long
    the configuration keeps satisfying the driver's best-choice condition;
    each prefix is replayed from the full budgets.  With
    `enumerate_configurations` as the action set this is the paper-faithful
    test reference for `greedy_allocate`, not a production path.
    """
    def oracle(prefix: AllocationStrategy, config: Configuration) -> Tuple[float, float]:
        remaining = _replay(instance, prefix)
        rate = _rate(instance, _config_indices(instance, config), remaining)
        return rate, configuration_hold(instance, config, remaining)

    return oracle


def enumerate_configurations(instance: AdInstance) -> Tuple[Configuration, ...]:
    """All configurations over positive-bid ads, ordered for deterministic ties.

    Per-type options are subsets of size at most `slots`, smaller subsets
    first, lexicographic by ad index within a size; the cross product runs
    with the first type as the slowest axis.  Part of the paper-faithful
    test reference for `greedy_allocate`.
    """
    per_type = []
    for j, tid in enumerate(instance.type_ids):
        ads = [i for i in range(instance.num_ads) if instance.bid_matrix[i][j] > 0.0]
        options = [()]
        for size in range(1, min(instance.slots, len(ads)) + 1):
            options.extend(combinations(ads, size))
        per_type.append((tid, options))
    count = 1
    for _, options in per_type:
        count *= len(options)
    if count > 10**5:
        raise ValueError(f"{count} configurations exceed the cap of 10^5")
    configs = []
    for combo in product(*(options for _, options in per_type)):
        assignment = {}
        for (tid, _), chosen in zip(per_type, combo):
            if chosen:
                assignment[tid] = tuple(instance.ad_ids[i] for i in chosen)
        configs.append(Configuration.of(assignment))
    return tuple(configs)


def _draw_distinct(rng: Stream, n: int, size: int) -> Tuple[int, ...]:
    """`size` distinct values of range(n), drawn as `Generator.choice(n, size, replace=False)` draws them.

    Above 10,000 values and more than n // 50 picks, `choice` shuffles the
    tail of range(n); otherwise it picks by Floyd's algorithm and shuffles
    the picks.  Either way each swap or pick is one `rng.integers` draw.  A
    test pins this to `choice`.
    """
    if size == 1:  # Floyd's one pick, with nothing to shuffle
        return (rng.integers(0, n),)
    if n > 10_000 and size > n // 50:
        picks, last = list(range(n)), max(n - size, 1)
    else:
        picks, seen, last = [], set(), 1
        for j in range(n - size, n):
            value = rng.integers(0, j + 1)
            value = j if value in seen else value
            seen.add(value)
            picks.append(value)
    for i in range(len(picks) - 1, last - 1, -1):
        j = rng.integers(0, i + 1)
        picks[i], picks[j] = picks[j], picks[i]
    return tuple(picks[len(picks) - size :])


def random_configuration(instance: AdInstance, rng: Stream) -> Configuration:
    """Each type, in instance order, stays empty with probability 1/4, else gets 1 to `slots` distinct ads.

    Equal to `Configuration.of` of the draws; built in canonical form, stamped,
    and interned per instance by index form (MODEL_MEMO entries).
    """
    slots, n = instance.slots, instance.num_ads
    drawn = [()] * instance.num_types
    for j in range(len(drawn)):
        if rng.random() < 0.25:
            continue
        drawn[j] = _draw_distinct(rng, n, min(rng.integers(1, slots + 1), n))
    cfg_idx = tuple((j, drawn[j]) for j in instance._order if drawn[j])
    interned = instance._interned
    config = interned.get(cfg_idx)
    if config is None:
        if len(interned) >= MODEL_MEMO:
            interned.clear()
        config = interned[cfg_idx] = _configuration(instance, cfg_idx, {})
    return config


def random_strategy(instance: AdInstance, rng: Stream) -> AllocationStrategy:
    """Random strategy of zero to three segments, total length within the horizon."""
    k = rng.integers(0, 4)
    if k == 0:
        return unchecked(TimedSequence, segments=())
    total = instance.horizon * rng.random()
    cuts = sorted([total * rng.random() for _ in range(k - 1)])
    bounds = [0.0, *cuts, total]
    segs = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo > 1e-9 * instance.horizon:
            segs.append((random_configuration(instance, rng), hi - lo))
    return unchecked(TimedSequence, segments=tuple(segs))


class FluidRateModel:
    """Rate/breakpoint view of the fluid dynamics, for derivative checks.

    `utility` replays any strategy with no horizon cap: utilities of
    arbitrary prefixes are well defined, the horizon only constrains the
    optimization problem.  Random prefixes stay within the horizon.  `scale`,
    the total budget, is the utility's typical magnitude.

    Every query replays its prefix from the full budgets (`_replay`).  It
    keeps no cache: the random configurations it draws are stamped with their
    index form and interned by the instance (`random_configuration`).
    """

    def __init__(self, instance: AdInstance):
        self.instance = instance
        self.scale = math.fsum(instance.budgets)

    def utility(self, strategy: AllocationStrategy) -> float:
        remaining = _replay(self.instance, strategy)
        return math.fsum(b - r for b, r in zip(self.instance.budgets, remaining))

    def sequence_function(self) -> SequenceFunction:
        return SequenceFunction("continuous", self.utility, self.scale)

    def rate(self, config: Configuration, delta: float, prefix: AllocationStrategy) -> float:
        """Rate of `config` after running for `delta` past `prefix` (see `marginal_rate`)."""
        if delta < 0.0:
            raise ValueError("delta must be >= 0")
        cfg_idx = _config_indices(self.instance, config)
        return math.fsum(_advance(self.instance, cfg_idx, _replay(self.instance, prefix), delta).values())

    def breakpoints(self, config: Configuration, prefix: AllocationStrategy) -> Tuple[float, ...]:
        """Offsets at which the rate of `config` after `prefix` jumps."""
        remaining = _replay(self.instance, prefix)
        out: list = []
        _advance(self.instance, _config_indices(self.instance, config), remaining, math.inf, 0.0, out)
        return tuple(out)

    def best_rate(self, prefix: AllocationStrategy) -> float:
        remaining = _replay(self.instance, prefix)
        return _rate(self.instance, _best(self.instance, remaining), remaining)

    def random_prefix(self, rng: Stream) -> AllocationStrategy:
        return random_strategy(self.instance, rng)

    def random_action(self, rng: Stream) -> Configuration:
        return random_configuration(self.instance, rng)


# ---------------------------------------------------------------------------
# JSON instance schema
# ---------------------------------------------------------------------------

def _convert(field: str, kind, value):
    """`kind(value)`, reporting a failed conversion as an error in `field`."""
    if isinstance(value, (bool, str)):  # int() and float() take both; a JSON number is neither
        raise InstanceError(f"{field}: must be a number, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"{field}: {exc}") from None


def _integer(field: str, value) -> int:
    """An integral JSON number; a fractional part is an error in `field`."""
    if isinstance(value, float) and not value.is_integer():
        raise InstanceError(f"{field}: must be an integer, got {value!r}")
    return _convert(field, int, value)


def _identifier(field: str, value) -> str:
    """A JSON string id; any other JSON value is an error in `field`."""
    if not isinstance(value, str):
        raise InstanceError(f"{field}: must be a string, got {value!r}")
    return value


def _entries(data: Mapping, key: str, value_key: str) -> list:
    """(id, float value) pairs of a list-of-objects field such as "ads"."""
    entries = data[key]
    if not isinstance(entries, (list, tuple)):
        raise InstanceError(f"{key}: must be a list of objects")
    out = []
    for entry in entries:
        if not isinstance(entry, Mapping) or "id" not in entry or value_key not in entry:
            raise InstanceError(f"{key}: each entry needs 'id' and {value_key!r}")
        ident = _identifier(f"{key}: id", entry["id"])
        out.append((ident, _convert(f"{key}: {value_key} of {ident!r}", float, entry[value_key])))
    return out


def parse_instance(data: Mapping) -> AdInstance:
    """Build an instance from the JSON schema, naming the bad field on error.

    Schema: {"ads": [{"id", "budget"}], "query_types": [{"id", "prob"}],
    "bids": {ad_id: {type_id: payment}}, "slots": int, "horizon": num}.
    Missing bid entries mean a zero payment.  Every malformed value raises
    `InstanceError`.
    """
    if not isinstance(data, Mapping):
        raise InstanceError("instance: must be an object")
    for key in ("ads", "query_types", "slots", "horizon"):
        if key not in data:
            raise InstanceError(f"{key}: missing required field")
    ads = _entries(data, "ads", "budget")
    query_types = _entries(data, "query_types", "prob")
    bids = data.get("bids", {})
    if not isinstance(bids, Mapping) or not all(isinstance(row, Mapping) for row in bids.values()):
        raise InstanceError("bids: must be an object keyed by ad id, then by type id")
    return AdInstance.build(ads, query_types, bids, data["slots"], data["horizon"])


def instance_to_json(instance: AdInstance) -> dict:
    bids: Dict[str, Dict[str, float]] = {}
    for i, ad in enumerate(instance.ad_ids):
        row = {
            tid: instance.bid_matrix[i][j]
            for j, tid in enumerate(instance.type_ids)
            if instance.bid_matrix[i][j] > 0.0
        }
        if row:
            bids[ad] = row
    return {
        "ads": [{"id": a, "budget": b} for a, b in zip(instance.ad_ids, instance.budgets)],
        "query_types": [{"id": t, "prob": q} for t, q in zip(instance.type_ids, instance.probs)],
        "bids": bids,
        "slots": instance.slots,
        "horizon": instance.horizon,
    }
