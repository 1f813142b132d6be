"""Monte Carlo stream simulator vs the fluid evaluator."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqsub import adalloc, seqcore, stochsim
from seqsub.adalloc import _config_indices
from seqsub.stochsim import (
    StreamConfig,
    scale_instance,
    simulate_stream,
)
from seqsub.seqcore import TimedSequence

from conftest import replace


def deterministic_instance():
    # One type with probability 1: the stream has no randomness at all.
    return adalloc.AdInstance.build(
        ads=[("a1", 1.0)],
        query_types=[("t1", 1.0)],
        bids={"a1": {"t1": 0.002}},
        slots=1,
        horizon=1000.0,
    )


def test_deterministic_single_type_matches_fluid_exactly():
    inst = deterministic_instance()
    strategy, ledger = adalloc.greedy_allocate(inst)
    result = simulate_stream(inst, strategy, StreamConfig(seed=7, trials=1))
    assert result.revenues == (1.0,)
    assert result.mean == result.fluid_utility == 1.0
    assert result.std == 0.0


def test_empty_strategy_earns_nothing(i1):
    result = simulate_stream(i1, TimedSequence(()), StreamConfig(seed=1, trials=5))
    assert result.revenues == (0.0,) * 5


def test_simulation_is_deterministic(i1):
    scaled = scale_instance(i1, 50.0)
    strategy, _ = adalloc.greedy_allocate(scaled)
    r1 = simulate_stream(scaled, strategy, StreamConfig(seed=11, trials=20))
    r2 = simulate_stream(scaled, strategy, StreamConfig(seed=11, trials=20))
    assert r1.revenues == r2.revenues
    r3 = simulate_stream(scaled, strategy, StreamConfig(seed=12, trials=20))
    assert r3.revenues != r1.revenues


def test_revenue_never_exceeds_total_budget():
    rng = np.random.default_rng(3)
    from conftest import random_ad_instance

    for _ in range(10):
        inst = random_ad_instance(rng)
        inst = scale_instance(inst, 10.0)
        strategy, _ = adalloc.greedy_allocate(inst)
        result = simulate_stream(inst, strategy, StreamConfig(seed=5, trials=10))
        cap = math.fsum(inst.budgets)
        for rev in result.revenues:
            assert rev <= cap + 1e-9


def test_expected_per_query_payment_matches_rate():
    # Huge budgets: no exhaustion, so mean revenue is queries * per-query rate.
    inst = adalloc.AdInstance.build(
        ads=[("a1", 1000.0), ("a2", 1000.0)],
        query_types=[("t1", 0.25), ("t2", 0.75)],
        bids={"a1": {"t1": 1.0}, "a2": {"t2": 0.5}},
        slots=1,
        horizon=100.0,
    )
    strategy, _ = adalloc.greedy_allocate(inst)
    config = strategy.segments[0][0]
    rate = adalloc.revenue_rate(inst, config, inst.budgets)
    result = simulate_stream(inst, strategy, StreamConfig(seed=19, trials=1500))
    expected = rate * inst.horizon
    sigma = result.std / math.sqrt(len(result.revenues))
    assert abs(result.mean - expected) <= 3.0 * sigma


def test_query_count_validation(i1):
    # StreamConfig checks every parameter, for library callers as for the
    # CLI, and names the field; InstanceError is a ValueError.
    for kwargs, field in (({"trials": 0}, "trials"), ({"seed": -1}, "seed"), ({"query_count": 0}, "query_count")):
        with pytest.raises(adalloc.InstanceError, match=f"^{field}: "):
            StreamConfig(**{"seed": 1, "trials": 1, **kwargs})
    short = adalloc.AdInstance.build(
        ads=[("a1", 1.0)], query_types=[("t1", 1.0)], bids={"a1": {"t1": 1.0}},
        slots=1, horizon=0.4,
    )
    strategy, _ = adalloc.greedy_allocate(short)
    with pytest.raises(adalloc.InstanceError, match="^horizon: "):
        simulate_stream(short, strategy, StreamConfig(seed=1, trials=1))
    # MAX_QUERIES binds library callers too, whether the count is given or is the horizon's.
    strategy, _ = adalloc.greedy_allocate(i1)
    too_many = StreamConfig(seed=0, trials=1, query_count=stochsim.MAX_QUERIES + 1)
    with pytest.raises(adalloc.InstanceError, match="^query_count: "):
        simulate_stream(i1, strategy, too_many)
    long = replace(i1, horizon=stochsim.MAX_QUERIES + 1.0)
    with pytest.raises(adalloc.InstanceError, match="^horizon: "):
        simulate_stream(long, TimedSequence(()), StreamConfig(seed=0, trials=1))
    assert StreamConfig(seed=0, trials=1, query_count=stochsim.MAX_QUERIES).queries(i1) == stochsim.MAX_QUERIES
    assert StreamConfig(seed=0, trials=1).queries(replace(i1, horizon=2.6)) == 3


def test_long_horizon_greedy_strategy_simulates():
    # Its segment durations sum to an ulp past the horizon of 6.3e11.
    from conftest import random_ad_instance

    inst = random_ad_instance(np.random.default_rng(298), max_ads=6, max_types=4, max_slots=3, max_pairs=24)
    inst = replace(inst, horizon=inst.horizon * 1e12)
    strategy, ledger = adalloc.greedy_allocate(inst)
    assert strategy.length > inst.horizon
    result = simulate_stream(inst, strategy, StreamConfig(seed=3, trials=2, query_count=500))
    assert result.fluid_utility == ledger.utility


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1e-3, 1e6))
def test_scale_instance_keeps_greedy_utility(seed, factor):
    from conftest import random_ad_instance

    inst = random_ad_instance(np.random.default_rng(seed), max_ads=6, max_types=4, max_slots=3, max_pairs=24)
    scaled = scale_instance(inst, factor)
    utility = adalloc.evaluate_strategy(inst, adalloc.greedy_allocate(inst)[0]).utility
    scaled_utility = adalloc.evaluate_strategy(scaled, adalloc.greedy_allocate(scaled)[0]).utility
    assert scaled_utility == pytest.approx(utility, rel=1e-9)


# ---------------------------------------------------------------------------
# Differential test: the per-ad fold against the query-by-query loop it replaced
# ---------------------------------------------------------------------------


def _segment_tables(instance, strategy):
    """Per-segment lookup: type index -> ((ad index, payment), ...)."""
    ends = []
    tables = []
    t = 0.0
    for config, dur in strategy.segments:
        t += dur
        ends.append(t)
        cfg_idx = _config_indices(instance, config)
        tables.append({j: tuple((i, instance.bid_matrix[i][j]) for i in ads) for j, ads in cfg_idx})
    return np.asarray(ends, dtype=float), tables


def reference_revenues(instance, strategy, config):
    """Per-trial revenues, one query at a time: the reference for `simulate_stream`."""
    queries = config.query_count if config.query_count is not None else round(instance.horizon)
    probs = np.asarray(instance.probs, dtype=float)
    probs = probs / probs.sum()
    ends, tables = _segment_tables(instance, strategy)
    times = np.arange(queries, dtype=float) * (instance.horizon / queries)
    seg_of = np.searchsorted(ends, times, side="right")
    n_segs = len(tables)
    revenues = []
    for trial in range(config.trials):
        rng = np.random.default_rng([config.seed, trial])
        types = rng.choice(len(probs), size=queries, p=probs)
        remaining = list(instance.budgets)
        for n in range(queries):
            si = seg_of[n]
            if si >= n_segs:
                continue
            shown = tables[si].get(int(types[n]))
            if not shown:
                continue
            for i, pay in shown:
                rem = remaining[i]
                if rem > 0.0:
                    remaining[i] = rem - (pay if pay < rem else rem)
        revenues.append(math.fsum(b - r for b, r in zip(instance.budgets, remaining)))
    return tuple(revenues)


def _stream_case(rng):
    """A random instance, strategy and stream config, small enough for the reference loop.

    Payments and budgets are often multiples of 1/8, so a payment meets the
    remaining budget exactly; budgets may be zero, types may have no bids,
    `slots` may reach the number of ads, and the probabilities are off from
    summing to 1 by up to the 1e-9 the instance accepts.
    """
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 5))
    slots = int(rng.integers(1, m + 2))
    dyadic = rng.random() < 0.5
    budgets = rng.integers(0, 17, m) / 8.0 if dyadic else rng.uniform(0.0, 3.0, m)
    q = rng.dirichlet(np.ones(n)) * (1.0 + rng.uniform(-4e-10, 4e-10, n))
    bids = {}
    for i in range(m):
        row = {}
        for j in range(n):
            if rng.random() < 0.6:
                row[f"t{j}"] = float(rng.integers(1, 9) / 8.0 if dyadic else rng.uniform(0.01, 1.0))
        bids[f"a{i}"] = row
    horizon = float(rng.uniform(5.0, 120.0))
    inst = adalloc.AdInstance.build(
        [(f"a{i}", float(b)) for i, b in enumerate(budgets)],
        [(f"t{j}", float(q[j])) for j in range(n)],
        bids,
        slots,
        horizon,
    )
    if rng.random() < 0.4:
        strategy, _ = adalloc.greedy_allocate(inst)
    else:
        # Random configurations (zero bids included) over part of the horizon.
        segments = []
        for _ in range(int(rng.integers(0, 5))):
            assignment = {}
            for j in range(n):
                size = int(rng.integers(0, min(slots, m) + 1))
                picks = rng.choice(m, size=size, replace=False)
                assignment[f"t{j}"] = tuple(f"a{int(i)}" for i in picks)
            segments.append((adalloc.Configuration.of(assignment), float(rng.uniform(0.5, horizon / 4))))
        strategy = TimedSequence(tuple(segments))
    queries = None if rng.random() < 0.3 else int(rng.integers(1, 150))
    config = StreamConfig(seed=int(rng.integers(0, 2**31)), trials=int(rng.integers(1, 41)), query_count=queries)
    return inst, strategy, config


def test_fold_matches_query_loop_on_random_streams():
    rng = np.random.default_rng(2024)
    for k in range(320):
        inst, strategy, config = _stream_case(rng)
        expected = reference_revenues(inst, strategy, config)
        assert simulate_stream(inst, strategy, config).revenues == expected
        # Small blocks carry each ad's fold across block boundaries.
        with mock.patch.object(stochsim, "FOLD_BLOCK", (2, 7, 40)[k % 3]):
            assert simulate_stream(inst, strategy, config).revenues == expected
    # Trials from seqcore.SUBSTREAM_BLOCK on take their states from a second
    # hashed block, and seeds of two and three 32-bit words hash more words.
    inst = adalloc.AdInstance.build(
        ads=[("a1", 0.5), ("a2", 0.4)],
        query_types=[("t1", 0.3), ("t2", 0.7)],
        bids={"a1": {"t1": 0.25, "t2": 0.1}, "a2": {"t2": 0.15}},
        slots=2,
        horizon=4.0,
    )
    strategy, _ = adalloc.greedy_allocate(inst)
    for seed in (9, 2**32, 2**64 + 3):
        config = StreamConfig(seed=seed, trials=seqcore.SUBSTREAM_BLOCK + 6)
        revenues = simulate_stream(inst, strategy, config).revenues
        assert revenues == reference_revenues(inst, strategy, config)
        assert len(set(revenues[seqcore.SUBSTREAM_BLOCK - 3 :])) > 1


def test_fold_memory_does_not_grow_with_slots():
    # One trial of 1e6 queries showing 8 ads each, then one of 2e5 showing
    # 64.  Folding all 8e6 shown pairs at once peaked near 240 MB, and
    # blocks of a fixed query count near 150 MB at 64 slots; blocks of
    # FOLD_BLOCK pairs keep the peak near the trial's per-query arrays.
    for n, queries, bound in ((8, 10**6, 64e6), (64, 2 * 10**5, 32e6)):
        inst = adalloc.AdInstance.build(
            [(f"a{i}", 1e9) for i in range(n)],
            [("t1", 0.5), ("t2", 0.5)],
            {f"a{i}": {"t1": 1.0, "t2": 0.5} for i in range(n)},
            n,
            float(queries),
        )
        shown = [f"a{i}" for i in range(n)]
        strategy = TimedSequence(((adalloc.Configuration.of({"t1": shown, "t2": shown}), float(queries)),))
        tracemalloc.start()
        try:
            result = simulate_stream(inst, strategy, StreamConfig(seed=0, trials=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.revenues[0] == pytest.approx(0.75 * n * queries, rel=1e-2), n
        assert peak < bound, (n, peak)


def test_set_up_peak_is_16_bytes_a_query():
    # MAX_QUERIES's memory comment: the query times and the first table rows,
    # 8 bytes a query each, are the peak of one trial at one slot.
    queries = 10**6
    inst = adalloc.AdInstance.build(
        [("a1", 1e9)], [("t1", 0.5), ("t2", 0.5)], {"a1": {"t1": 1.0, "t2": 0.5}}, 1, float(queries)
    )
    strategy = TimedSequence(((adalloc.Configuration.of({"t1": ["a1"], "t2": ["a1"]}), float(queries)),))
    tracemalloc.start()
    try:
        simulate_stream(inst, strategy, StreamConfig(seed=0, trials=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 17 * queries, peak


def test_fold_matches_query_loop_when_payment_meets_budget():
    # 0.25 and 0.5 reach the budget exactly.  0.1 leaves 0.09999999999999998
    # of 0.3 after two queries, so the third payment exceeds what is left
    # and takes only that.
    inst = adalloc.AdInstance.build(
        ads=[("a1", 1.0), ("a2", 1.0), ("a3", 0.3)],
        query_types=[("t1", 1.0)],
        bids={"a1": {"t1": 0.25}, "a2": {"t1": 0.5}, "a3": {"t1": 0.1}},
        slots=3,
        horizon=10.0,
    )
    strategy = TimedSequence(((adalloc.Configuration.of({"t1": ("a1", "a2", "a3")}), 10.0),))
    for queries in (2, 3, 4, 5, 10):
        config = StreamConfig(seed=0, trials=1, query_count=queries)
        result = simulate_stream(inst, strategy, config)
        assert result.revenues == reference_revenues(inst, strategy, config)
    assert simulate_stream(inst, strategy, StreamConfig(seed=0, trials=1)).revenues == (2.3,)


def test_fold_is_left_to_right_in_query_order():
    # 500 queries pay 1e-17, under half an ulp of 1.0, so each leaves the
    # budget at 1.0; then up to three pay 0.25 each.  Taken in query order
    # the remainder is exactly 1.0 - 0.25 * k; summing the payments first
    # would take about 2.5e-15 more.
    inst = adalloc.AdInstance.build(
        ads=[("a1", 1.0)],
        query_types=[("t1", 0.5), ("t2", 0.5)],
        bids={"a1": {"t1": 1e-17, "t2": 0.25}},
        slots=1,
        horizon=503.0,
    )
    strategy = TimedSequence(
        (
            (adalloc.Configuration.of({"t1": ("a1",)}), 500.0),
            (adalloc.Configuration.of({"t2": ("a1",)}), 3.0),
        )
    )
    config = StreamConfig(seed=5, trials=12)
    expected = reference_revenues(inst, strategy, config)
    assert all(r in (0.0, 0.25, 0.5, 0.75) for r in expected) and len(set(expected)) > 1
    for block in (stochsim.FOLD_BLOCK, 2):
        with mock.patch.object(stochsim, "FOLD_BLOCK", block):
            assert simulate_stream(inst, strategy, config).revenues == expected


def test_fold_matches_query_loop_at_every_slot_table_width():
    # The empty marker `num_ads`, the fold's spare entry, is 255, 256 or
    # 300: at and past the largest 8-bit ad index.  Configurations leave
    # some slots empty and show the last ads as well as the first.
    rng = np.random.default_rng(24)
    for m in (255, 256, 300):
        inst = adalloc.AdInstance.build(
            [(f"a{i}", float(rng.integers(0, 49)) / 8.0) for i in range(m)],
            [("t0", 0.4), ("t1", 0.6)],
            {f"a{i}": {f"t{j}": float(rng.integers(1, 5)) / 8.0 for j in range(2)} for i in range(m)},
            3,
            200.0,
        )
        segments = []
        for _ in range(4):
            assignment = {}
            for j in range(2):
                picks = rng.choice(m - 1, size=int(rng.integers(0, 4)), replace=False)
                if len(picks) and rng.random() < 0.5:
                    picks[0] = m - 1
                assignment[f"t{j}"] = tuple(f"a{int(i)}" for i in picks)
            segments.append((adalloc.Configuration.of(assignment), 45.0))
        strategy = TimedSequence(tuple(segments))
        config = StreamConfig(seed=m, trials=4)
        assert simulate_stream(inst, strategy, config).revenues == reference_revenues(inst, strategy, config)


# ---------------------------------------------------------------------------
# Differential test: the guide-table type draw against Generator.choice
# ---------------------------------------------------------------------------


def _draw_case(rng, k):
    """Probabilities of one of five kinds; all but the dyadic ones sum to 1 only within 4e-10."""
    n = int(rng.integers(1, 60))
    kind = k % 5
    if kind == 0:  # one type
        p = np.ones(1)
    elif kind == 1:  # zero-probability types among the others
        p = rng.dirichlet(np.ones(n))
        p[rng.random(n) < 0.4] = 0.0
        p[int(rng.integers(0, n))] += 0.5
    elif kind == 2:  # tiny probabilities clustered in one bucket of the guide table
        tiny = int(rng.integers(2, 300))
        p = np.concatenate((rng.dirichlet(np.ones(n)), rng.uniform(0.0, 2.0**-20, tiny)))
        p = np.roll(p, int(rng.integers(0, len(p))))
    elif kind == 3:  # dyadic, so cdf entries fall on bucket edges
        p = rng.integers(0, 9, n) / 2.0 ** rng.integers(12, 16, n)
        p[-1] = 1.0 - p[:-1].sum()
        return p
    else:
        p = rng.dirichlet(np.ones(n) * rng.choice((0.05, 1.0)))
    p = p / p.sum()
    return p * (1.0 + rng.uniform(-4e-10, 4e-10, len(p)))


def test_guide_table_draw_matches_choice():
    rng = np.random.default_rng(1974)
    rounds = set()
    for k in range(400):
        p = _draw_case(rng, k)
        size = int(rng.integers(1, 5000))
        seed = int(rng.integers(0, 2**31))
        reference = np.random.default_rng(seed)
        expected = reference.choice(len(p), size=size, p=p)
        table = stochsim._guide_table(p)
        rounds.add(table[2])
        stream = np.random.default_rng(seed)
        cuts = np.sort(rng.integers(0, size + 1, int(rng.integers(0, 4))))
        drawn = [stochsim._draw_types(table, stream.random(n)) for n in np.diff([0, *cuts, size])]
        assert np.array_equal(np.concatenate(drawn), expected)
        assert stream.random() == reference.random()
        # Uniforms on and next to every cdf entry and bucket edge, which a
        # stream of random doubles almost never hits: choice's rule is
        # searchsorted(side="right") on its cdf.
        cdf = p.cumsum()
        cdf /= cdf[-1]
        marks = np.concatenate((cdf, np.arange(stochsim._BUCKETS) / stochsim._BUCKETS))
        edges = np.concatenate((marks, np.nextafter(marks, 0.0), np.nextafter(marks, 1.0)))
        edges = edges[(edges >= 0.0) & (edges < 1.0)]
        assert np.array_equal(stochsim._draw_types(table, edges), cdf.searchsorted(edges, side="right"))
    assert {1, 2, 3, 4} <= rounds and max(rounds) >= 8
