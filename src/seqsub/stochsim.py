"""Monte Carlo query streams for validating the fluid model.

Queries arrive one per unit of virtual time: a run of Q queries spans the
horizon, query n landing at time n * T / Q.  Types are drawn i.i.d. from the
instance distribution, each shown ad pays min(payment, its remaining
budget), and trial t draws from the stream of
`numpy.random.default_rng([seed, t])`: one PCG64 is set to each trial's
state from `seqcore._pcg64_states`, the substreams `verify` draws from.
numpy is the `seqsub[simulate]` extra.

No Python code runs per query.  For each trial the shown (ad, payment)
pairs of all queries are gathered from per-(segment, type) slot tables and
taken from the budgets by `np.subtract.at`, one update at a time in index,
so query, order (an empty slot's 0.0 lands in a spare entry past the last
ad); each ad's remaining budget is the left fold ((b - p1) - p2) - ...,
clamped once at zero.  That is exact, not an approximation of the
query-by-query rule "skip if rem <= 0, else rem - min(pay, rem)": while
every payment is below the remaining budget both compute the same
differences, the first payment p >= rem leaves the rule at 0.0 for good
and the fold at rem - p <= 0.0, and subtracting more payments p >= 0.0
never makes a float larger, so the clamp gives 0.0 there too.  The fold
runs over blocks of queries that show at most `FOLD_BLOCK` pairs (or of
one query), each ad's unclamped value carried from block to block, which
is the same left fold in memory bounded by the block, not by the queries.

Query types are what `Generator.choice(n, size, p=p)` draws from the same
`Generator.random` doubles, drawn block by block; a guide table (Chen &
Asau 1974; Devroye 1986, III.2.4) narrows each search to one bucket.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Tuple

import numpy as np

from .adalloc import (
    AdInstance,
    AllocationStrategy,
    InstanceError,
    _config_indices,
    _past_horizon,
    evaluate_strategy,
)
from .seqcore import Frozen, _pcg64_states

# Largest per-trial query count; a run holds 8 bytes a query for the first
# table row of each query, after a set-up peak of 16 while the query times
# are held too (160 MB at the cap).
MAX_QUERIES = 10**7
# Shown (ad, payment) pairs per block of the fold: FOLD_BLOCK // width
# queries (at least one) when configurations show up to `width` ads a type.
# At peak a block holds about 32 bytes a query in the type draw and 10 a
# pair in the fold (a narrow ad index and a payment), so at most 2.1 MB.
FOLD_BLOCK = 2**16
# Buckets of the type draw's guide table; a power of two, so u * _BUCKETS is exact.
_BUCKETS = 2**12


class StreamConfig(Frozen):
    """Simulation parameters; every check on them is made here, for every caller."""

    seed: int
    trials: int
    query_count: Optional[int] = None  # defaults to round(horizon)

    def __post_init__(self):
        if self.trials < 1:
            raise InstanceError(f"trials: must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise InstanceError(f"seed: must be >= 0, got {self.seed}")
        if self.query_count is not None and self.query_count < 1:
            raise InstanceError(f"query_count: must be >= 1, got {self.query_count}")

    def queries(self, instance: AdInstance) -> int:
        """Queries per trial on `instance`: `query_count`, else the rounded horizon; at most MAX_QUERIES."""
        queries = round(instance.horizon) if self.query_count is None else self.query_count
        if queries < 1:
            raise InstanceError(f"horizon: {instance.horizon} rounds to 0 queries per trial; set query_count")
        if queries > MAX_QUERIES and self.query_count is None:
            raise InstanceError(
                f"horizon: {instance.horizon} rounds to more than {MAX_QUERIES} queries per trial; set query_count")
        if queries > MAX_QUERIES:
            raise InstanceError(f"query_count: {queries} queries per trial exceed the limit of {MAX_QUERIES}")
        return queries


class SimResult(Frozen):
    revenues: Tuple[float, ...]
    mean: float
    std: float
    fluid_utility: float


def _slot_tables(instance: AdInstance, strategy: AllocationStrategy):
    """Segment end times, and the ads each (segment, type) cell shows.

    Row `s * num_types + j` of the tables holds, slot by slot, the index
    and the payment of each ad segment s shows to type j; the rows of the
    extra segment `len(strategy.segments)` serve queries past the strategy's
    end.  An empty slot holds ad index `num_ads`, which names no ad.
    """
    ends = []
    shown = []
    t = 0.0
    for config, dur in strategy.segments:
        t += dur
        ends.append(t)
        shown.append(dict(_config_indices(instance, config)))
    width = max((len(ads) for row in shown for ads in row.values()), default=0)
    n_ads, n_types = instance.num_ads, instance.num_types
    # The narrowest index type, which only saves memory; `num_ads` names the fold's spare entry.
    ad_tab = np.full(((len(shown) + 1) * n_types, width), n_ads, dtype=np.min_scalar_type(n_ads))
    pay_tab = np.zeros(ad_tab.shape)
    for s, row in enumerate(shown):
        for j, ads in row.items():
            ad_tab[s * n_types + j, : len(ads)] = ads
            pay_tab[s * n_types + j, : len(ads)] = [instance.bid_matrix[i][j] for i in ads]
    return np.asarray(ends, dtype=float), ad_tab, pay_tab


def _guide_table(probs: np.ndarray):
    """`choice`'s cdf for `probs`, padded with infinities, each bucket's first answer, and the search rounds.

    The answer for u in bucket b, [b, b + 1) / _BUCKETS, lies in first[b] + [0, 2^rounds).
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    edges = np.searchsorted(cdf, np.arange(_BUCKETS + 1) / _BUCKETS, side="right")
    rounds = int(np.diff(edges).max()).bit_length()
    return np.concatenate((cdf, np.full(2**rounds, np.inf))), edges[:-1], rounds


def _draw_types(table, u: np.ndarray) -> np.ndarray:
    """What `choice` draws from the uniforms `u`, `cdf.searchsorted(u, side="right")`.

    A branchless binary search: every cdf entry before `drawn` is <= u, and
    a step is taken when the entry it would pass is <= u too.
    """
    cdf, first, rounds = table
    drawn = first[(u * _BUCKETS).astype(np.intp)]
    for r in reversed(range(rounds)):
        step = 1 << r
        drawn += (cdf[drawn + (step - 1)] <= u) * step
    return drawn


def simulate_stream(
    instance: AdInstance, strategy: AllocationStrategy, config: StreamConfig
) -> SimResult:
    """Simulate i.i.d. query arrivals against a fixed strategy.

    Deterministic in the seed: trial t draws from `default_rng([seed, t])`,
    and trials are reduced in index order.
    """
    if _past_horizon(instance, strategy.length):
        raise ValueError("strategy length exceeds horizon")
    queries = config.queries(instance)
    probs = np.asarray(instance.probs, dtype=float)
    table = _guide_table(probs / probs.sum())
    ends, ad_tab, pay_tab = _slot_tables(instance, strategy)
    times = np.arange(queries, dtype=float) * (instance.horizon / queries)
    first_cell = np.searchsorted(ends, times, side="right") * instance.num_types
    del times  # only the first cells are kept across trials
    start = np.asarray(instance.budgets + (0.0,), dtype=float)
    step = max(1, FOLD_BLOCK // max(1, ad_tab.shape[1]))
    revenues = []
    bit_generator = np.random.PCG64()  # its state is replaced before every trial
    rng = np.random.Generator(bit_generator)
    for state, inc in _pcg64_states(config.seed, range(config.trials)):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        folds = start.copy()
        for lo in range(0, queries, step):
            block = first_cell[lo : lo + step]
            block = block + _draw_types(table, rng.random(len(block)))
            ads = np.take(ad_tab, block, axis=0).ravel()
            np.subtract.at(folds, ads, np.take(pay_tab, block, axis=0).ravel())
        remaining = np.maximum(folds[:-1], 0.0)
        revenues.append(math.fsum(b - r for b, r in zip(instance.budgets, remaining.tolist())))
    mean = math.fsum(revenues) / len(revenues)
    std = statistics.stdev(revenues) if len(revenues) > 1 else 0.0
    fluid = evaluate_strategy(instance, strategy).utility
    return SimResult(tuple(revenues), mean, std, fluid)


def scale_instance(instance: AdInstance, factor: float) -> AdInstance:
    """Shrink payments by `factor` and stretch the horizon to match.

    Budgets are unchanged, so the fluid utility of the rescaled greedy
    strategy is invariant while per-query payments become small relative to
    budgets.
    """
    if not factor > 0.0:
        raise ValueError("scale factor must be > 0")
    return AdInstance(
        ad_ids=instance.ad_ids,
        budgets=instance.budgets,
        type_ids=instance.type_ids,
        probs=instance.probs,
        bid_matrix=tuple(tuple(p / factor for p in row) for row in instance.bid_matrix),
        slots=instance.slots,
        horizon=instance.horizon * factor,
    )
