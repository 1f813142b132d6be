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
ad.  The generic `seqcore.greedy_continuous` driven by `incremental_oracle`
over `enumerate_configurations` is the paper-faithful form of the same
greedy; it is kept as the test reference for `greedy_allocate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice, product
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from .seqcore import SequenceFunction, TimedSequence

# Remaining budget at or below this is treated as exhausted (float residue guard).
EXHAUSTED = 1e-12
# Input limits: more slots than this overflow islice and numpy's int64 draws,
# and a larger total budget or payment lets sums of spend or of spend rates
# overflow to infinity.
MAX_SLOTS = 2**31 - 1
MAX_AMOUNT = 1e300


class InstanceError(ValueError):
    """Invalid instance data; the message names the offending field."""


@dataclass(frozen=True)
class AdInstance:
    """Immutable problem data; bids are stored as an ads x types matrix."""

    ad_ids: Tuple[str, ...]
    budgets: Tuple[float, ...]
    type_ids: Tuple[str, ...]
    probs: Tuple[float, ...]
    bid_matrix: Tuple[Tuple[float, ...], ...]
    slots: int
    horizon: float

    def __post_init__(self):
        if len(set(self.ad_ids)) != len(self.ad_ids):
            raise InstanceError("ads: duplicate ad id")
        if len(set(self.type_ids)) != len(self.type_ids):
            raise InstanceError("query_types: duplicate type id")
        for ad, b in zip(self.ad_ids, self.budgets):
            if not 0.0 <= b < math.inf:
                raise InstanceError(f"ads: budget of {ad!r} must be finite and >= 0, got {b}")
        if sum(self.budgets) > MAX_AMOUNT:
            raise InstanceError(f"ads: total budget {sum(self.budgets)} exceeds {MAX_AMOUNT}")
        for q, tid in zip(self.probs, self.type_ids):
            if not 0.0 <= q < math.inf:
                raise InstanceError(f"query_types: probability of {tid!r} must be finite and >= 0")
        if abs(math.fsum(self.probs) - 1.0) > 1e-9:
            raise InstanceError(
                f"query_types: probabilities sum to {math.fsum(self.probs)!r}, expected 1 within 1e-9"
            )
        for row in self.bid_matrix:
            for p in row:
                if not 0.0 <= p <= MAX_AMOUNT:
                    raise InstanceError(
                        f"bids: expected payment must be in [0, {MAX_AMOUNT}], got {p}"
                    )
        if not 1 <= self.slots <= MAX_SLOTS:
            raise InstanceError(f"slots: must be between 1 and {MAX_SLOTS}, got {self.slots}")
        if not 0.0 < self.horizon < math.inf:
            raise InstanceError(f"horizon: must be finite and > 0, got {self.horizon}")
        object.__setattr__(self, "_ad_index", {a: i for i, a in enumerate(self.ad_ids)})
        object.__setattr__(self, "_type_index", {t: j for j, t in enumerate(self.type_ids)})
        ranking = []
        for j in range(len(self.type_ids)):
            by_bid = sorted((-row[j], i) for i, row in enumerate(self.bid_matrix) if row[j] > 0.0)
            ranking.append(tuple(i for _, i in by_bid))
        object.__setattr__(self, "_ranking", tuple(ranking))

    @classmethod
    def build(
        cls,
        ads: Sequence[Tuple[str, float]],
        query_types: Sequence[Tuple[str, float]],
        bids: Mapping[str, Mapping[str, float]],
        slots: int,
        horizon: float,
    ) -> "AdInstance":
        """Assemble an instance from id-keyed data; missing bids mean zero."""
        ad_ids = tuple(a for a, _ in ads)
        type_ids = tuple(t for t, _ in query_types)
        for ad in bids:
            if ad not in ad_ids:
                raise InstanceError(f"bids: unknown ad id {ad!r}")
            for tid in bids[ad]:
                if tid not in type_ids:
                    raise InstanceError(f"bids: unknown type id {tid!r} under ad {ad!r}")
        matrix = tuple(
            tuple(float(bids.get(ad, {}).get(tid, 0.0)) for tid in type_ids) for ad in ad_ids
        )
        return cls(
            ad_ids=ad_ids,
            budgets=tuple(float(b) for _, b in ads),
            type_ids=type_ids,
            probs=tuple(float(q) for _, q in query_types),
            bid_matrix=matrix,
            slots=int(slots),
            horizon=float(horizon),
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


@dataclass(frozen=True)
class Configuration:
    """Assignment of at most `slots` ads per query type.

    Canonical form: types sorted by id, empty assignments dropped, ads within
    a type sorted by id (the assignment is a set; revenue ignores order).
    """

    assignment: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()

    def __post_init__(self):
        canon = []
        for tid, ads in sorted(self.assignment):
            ads = tuple(sorted(ads))
            if len(set(ads)) != len(ads):
                raise ValueError(f"duplicate ad in assignment for type {tid!r}")
            if ads:
                canon.append((tid, ads))
        object.__setattr__(self, "assignment", tuple(canon))

    @classmethod
    def of(cls, mapping: Mapping[str, Iterable[str]]) -> "Configuration":
        return cls(tuple((t, tuple(a)) for t, a in mapping.items()))

    def ads_for(self, type_id: str) -> Tuple[str, ...]:
        for tid, ads in self.assignment:
            if tid == type_id:
                return ads
        return ()

    def as_dict(self) -> Dict[str, Tuple[str, ...]]:
        return {t: ads for t, ads in self.assignment}

    def is_empty(self) -> bool:
        return not self.assignment


EMPTY_CONFIGURATION = Configuration(())

# A strategy is a TimedSequence whose actions are Configuration values.
AllocationStrategy = TimedSequence


@dataclass(frozen=True)
class SpendLedger:
    """Per-ad spend of an evaluated strategy, plus rate-change times.

    `breakpoints` are the interior times at which some ad's spend rate
    changes.  Ledgers from `qrewrite.single_type_allocate` fix spend per ad
    but no schedule, so they carry none.
    """

    ad_ids: Tuple[str, ...]
    spent: Tuple[float, ...]
    utility: float
    breakpoints: Tuple[float, ...]

    def spend_of(self, ad_id: str) -> float:
        return self.spent[self.ad_ids.index(ad_id)]


def _config_indices(instance: AdInstance, config: Configuration) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """Index form of a configuration, validated against the instance."""
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


def _spend_rates(instance: AdInstance, cfg_idx, remaining: Sequence[float]) -> list:
    """Per-ad spend rates under a configuration; exhausted ads spend nothing."""
    rates = [0.0] * instance.num_ads
    for j, ads in cfg_idx:
        qj = instance.probs[j]
        for i in ads:
            if remaining[i] > EXHAUSTED:
                rates[i] += qj * instance.bid_matrix[i][j]
    return rates


def _step(instance: AdInstance, cfg_idx, remaining: list, limit: float) -> Tuple[float, bool]:
    """Run a configuration until its next budget exhaustion or for `limit`, whichever is first.

    Mutates `remaining`, clamping spent-out budgets to zero.  Returns the time
    run and whether the step stopped on an exhaustion.
    """
    rates = _spend_rates(instance, cfg_idx, remaining)
    tau = min((rem / rate for rem, rate in zip(remaining, rates) if rate > 0.0), default=math.inf)
    hit = tau < limit
    dt = tau if hit else limit
    for i, rate in enumerate(rates):
        if rate > 0.0:
            remaining[i] -= rate * dt
            if remaining[i] <= EXHAUSTED:
                remaining[i] = 0.0
    return dt, hit


def _advance(
    instance: AdInstance,
    cfg_idx,
    remaining: list,
    duration: float,
    t0: float = 0.0,
    events: Optional[list] = None,
) -> None:
    """Run one configuration for `duration`, stepping through exhaustion events.

    Mutates `remaining`; appends absolute event times to `events`.
    """
    done = 0.0
    while duration - done > 0.0:
        dt, hit = _step(instance, cfg_idx, remaining, duration - done)
        if not hit:
            return
        done += dt
        if events is not None:
            events.append(t0 + done)


def _budget_vector(instance: AdInstance, remaining) -> list:
    vec = [float(v) for v in remaining]
    if len(vec) != instance.num_ads:
        raise ValueError(f"budget vector has {len(vec)} entries for {instance.num_ads} ads")
    return vec


def revenue_rate(instance: AdInstance, config: Configuration, remaining) -> float:
    """Instantaneous expected revenue of a configuration given remaining budgets."""
    rem = _budget_vector(instance, remaining)
    for v in rem:
        if v < 0.0:
            raise ValueError("remaining budgets must be >= 0")
    return math.fsum(_spend_rates(instance, _config_indices(instance, config), rem))


def evaluate_strategy(instance: AdInstance, strategy: AllocationStrategy) -> SpendLedger:
    """Fluid evaluation of a strategy: per-ad spend, total utility, breakpoints."""
    total = strategy.length
    if total > instance.horizon + 1e-9:
        raise ValueError(
            f"strategy length {total} exceeds horizon {instance.horizon}"
        )
    events: list = []
    remaining = _remaining_after(instance, strategy, events)
    spent = tuple(b - r for b, r in zip(instance.budgets, remaining))
    interior = sorted(x for x in events if x < total - 1e-12)
    breakpoints: list = []
    for x in interior:
        if not breakpoints or x - breakpoints[-1] > 1e-12:
            breakpoints.append(x)
    return SpendLedger(instance.ad_ids, spent, math.fsum(spent), tuple(breakpoints))


def _remaining_after(
    instance: AdInstance, prefix: Optional[AllocationStrategy], events: Optional[list] = None
) -> list:
    """Budgets left after replaying `prefix`; exhaustion and segment-end times go to `events`."""
    remaining = list(instance.budgets)
    if prefix is not None:
        t = 0.0
        for config, dur in prefix.segments:
            if not isinstance(config, Configuration):
                raise ValueError("strategy actions must be Configuration values")
            _advance(instance, _config_indices(instance, config), remaining, dur, t, events)
            t += dur
            if events is not None:
                events.append(t)
    return remaining


def marginal_rate(
    instance: AdInstance,
    config: Configuration,
    delta: float,
    prefix: Optional[AllocationStrategy] = None,
) -> float:
    """Rate at which `config` adds utility after running for `delta` past `prefix`.

    Right-limit convention: an ad exhausting exactly at the queried offset
    contributes nothing.
    """
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    remaining = _remaining_after(instance, prefix)
    cfg_idx = _config_indices(instance, config)
    _advance(instance, cfg_idx, remaining, delta)
    return math.fsum(_spend_rates(instance, cfg_idx, remaining))


def best_configuration(instance: AdInstance, remaining) -> Configuration:
    """Top-`slots` unexhausted positive-bid ads per type; ties to lower ad index."""
    rem = _budget_vector(instance, remaining)
    assignment = {}
    for j, tid in enumerate(instance.type_ids):
        live = (i for i in instance.ranked_ads(j) if rem[i] > EXHAUSTED)
        chosen = tuple(islice(live, instance.slots))
        if chosen:
            assignment[tid] = tuple(instance.ad_ids[i] for i in chosen)
    return Configuration.of(assignment)


def greedy_allocate(instance: AdInstance) -> Tuple[AllocationStrategy, SpendLedger]:
    """Play the best configuration, switching only when a strictly better one appears.

    Switches can only happen when an assigned ad exhausts, so the strategy
    has at most one configuration change per ad.  If everything exhausts
    early the last configuration simply idles out the horizon.
    """
    remaining = list(instance.budgets)
    segs: list = []
    elapsed = 0.0
    current: Optional[Configuration] = None
    horizon = instance.horizon
    while horizon - elapsed > 1e-15:
        best = best_configuration(instance, remaining)
        if current is None or revenue_rate(instance, best, remaining) > revenue_rate(
            instance, current, remaining
        ):
            current = best
        dt, _ = _step(instance, _config_indices(instance, current), remaining, horizon - elapsed)
        if segs and segs[-1][0] == current:
            segs[-1][1] += dt
        else:
            segs.append([current, dt])
        elapsed = math.fsum(d for _, d in segs)
    strategy = TimedSequence(tuple((c, d) for c, d in segs))
    return strategy, evaluate_strategy(instance, strategy)


def configuration_hold(instance: AdInstance, config: Configuration, remaining) -> float:
    """How long `config` stays at least as good as every other configuration.

    Simulates forward through the exhaustions of the assigned ads and returns
    the first offset at which some other configuration becomes strictly
    better, or infinity when that never happens.  Part of the paper-faithful
    test reference for `greedy_allocate` (see `incremental_oracle`).
    """
    rem = _budget_vector(instance, remaining)
    cfg_idx = _config_indices(instance, config)
    elapsed = 0.0
    while True:
        dt, hit = _step(instance, cfg_idx, rem, math.inf)
        if not hit:
            return math.inf
        elapsed += dt
        r_here = math.fsum(_spend_rates(instance, cfg_idx, rem))
        alt = best_configuration(instance, rem)
        if revenue_rate(instance, alt, rem) > r_here:
            return elapsed


def incremental_oracle(instance: AdInstance):
    """Rate oracle for the generic continuous greedy driver.

    Returns `oracle(prefix, config) -> (rate, hold)` where `hold` is how long
    the configuration keeps satisfying the driver's best-choice condition.
    With `enumerate_configurations` as the action set this is the
    paper-faithful test reference for `greedy_allocate`, not a production path.
    """

    def oracle(prefix: AllocationStrategy, config: Configuration) -> Tuple[float, float]:
        remaining = _remaining_after(instance, prefix)
        rate = math.fsum(_spend_rates(instance, _config_indices(instance, config), remaining))
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


def random_configuration(instance: AdInstance, rng: np.random.Generator) -> Configuration:
    assignment = {}
    for tid in instance.type_ids:
        if rng.random() < 0.25:
            continue
        size = int(rng.integers(1, instance.slots + 1))
        size = min(size, instance.num_ads)
        picks = rng.choice(instance.num_ads, size=size, replace=False)
        assignment[tid] = tuple(instance.ad_ids[int(i)] for i in picks)
    return Configuration.of(assignment)


def random_strategy(instance: AdInstance, rng: np.random.Generator) -> AllocationStrategy:
    """Random strategy of zero to three segments, total length within the horizon."""
    k = int(rng.integers(0, 4))
    if k == 0:
        return TimedSequence(())
    total = float(rng.uniform(0.0, instance.horizon))
    cuts = sorted(float(x) for x in rng.uniform(0.0, total, size=k - 1))
    bounds = [0.0, *cuts, total]
    segs = []
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo > 1e-9:
            segs.append((random_configuration(instance, rng), hi - lo))
    return TimedSequence(tuple(segs))


class FluidRateModel:
    """Rate/breakpoint view of the fluid dynamics, for derivative checks.

    `utility` replays any strategy with no horizon cap: utilities of
    arbitrary prefixes are well defined, the horizon only constrains the
    optimization problem.  Random prefixes stay within the horizon.
    """

    def __init__(self, instance: AdInstance):
        self.instance = instance

    def utility(self, strategy: AllocationStrategy) -> float:
        remaining = _remaining_after(self.instance, strategy)
        return math.fsum(b - r for b, r in zip(self.instance.budgets, remaining))

    def sequence_function(self) -> SequenceFunction:
        return SequenceFunction("continuous", self.utility)

    def rate(self, config: Configuration, delta: float, prefix: AllocationStrategy) -> float:
        return marginal_rate(self.instance, config, delta, prefix)

    def breakpoints(self, config: Configuration, prefix: AllocationStrategy) -> Tuple[float, ...]:
        """Offsets at which the rate of `config` after `prefix` jumps."""
        remaining = _remaining_after(self.instance, prefix)
        out: list = []
        _advance(self.instance, _config_indices(self.instance, config), remaining, math.inf, 0.0, out)
        return tuple(out)

    def best_rate(self, prefix: AllocationStrategy) -> float:
        remaining = _remaining_after(self.instance, prefix)
        return revenue_rate(self.instance, best_configuration(self.instance, remaining), remaining)

    def random_prefix(self, rng: np.random.Generator) -> AllocationStrategy:
        return random_strategy(self.instance, rng)

    def random_action(self, rng: np.random.Generator) -> Configuration:
        return random_configuration(self.instance, rng)


# ---------------------------------------------------------------------------
# JSON instance schema
# ---------------------------------------------------------------------------

def _convert(field: str, kind, value):
    """`kind(value)`, reporting a failed conversion as an error in `field`."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceError(f"{field}: {exc}") from None


def _integer(field: str, value) -> int:
    """An integral JSON number; a boolean or a fractional part is an error in `field`."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InstanceError(f"{field}: must be an integer, got {value!r}")
    return _convert(field, int, value)


def _entries(data: Mapping, key: str, value_key: str) -> list:
    """(id, float value) pairs of a list-of-objects field such as "ads"."""
    entries = data[key]
    if not isinstance(entries, (list, tuple)):
        raise InstanceError(f"{key}: must be a list of objects")
    out = []
    for entry in entries:
        if not isinstance(entry, Mapping) or "id" not in entry or value_key not in entry:
            raise InstanceError(f"{key}: each entry needs 'id' and {value_key!r}")
        ident = str(entry["id"])
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
    bids = {
        ad: {tid: _convert(f"bids: {ad}/{tid}", float, p) for tid, p in row.items()}
        for ad, row in bids.items()
    }
    slots = _integer("slots", data["slots"])
    horizon = _convert("horizon", float, data["horizon"])
    return AdInstance.build(ads, query_types, bids, slots, horizon)


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
