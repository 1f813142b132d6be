"""Monte Carlo query streams for validating the fluid model.

Queries arrive one per unit of virtual time: a run of Q queries spans the
horizon, query n landing at time n * T / Q.  Types are drawn i.i.d. from the
instance distribution, each shown ad pays min(payment, its remaining
budget), and every trial is reproducible from (seed, trial index).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .adalloc import AdInstance, AllocationStrategy, _config_indices, evaluate_strategy, greedy_allocate

RNG_NAME = "numpy-pcg64"
# Largest per-trial query count the CLI accepts.  A run holds several arrays
# of this length (arrival times, segment of each time, drawn types), so the
# cap keeps one run to a few hundred MB instead of a MemoryError.
MAX_QUERIES = 10**7


@dataclass(frozen=True)
class StreamConfig:
    seed: int
    trials: int
    query_count: Optional[int] = None  # defaults to round(horizon)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.query_count is not None and self.query_count < 1:
            raise ValueError("query_count must be >= 1")


@dataclass(frozen=True)
class SimResult:
    revenues: Tuple[float, ...]
    mean: float
    std: float
    fluid_utility: float

    def to_json(self, include_per_trial: bool = False) -> dict:
        out = {
            "mean": self.mean,
            "std": self.std,
            "fluid": self.fluid_utility,
            "trials": len(self.revenues),
            "rng": RNG_NAME,
        }
        if include_per_trial:
            out["per_trial"] = list(self.revenues)
        return out


def _segment_tables(instance: AdInstance, strategy: AllocationStrategy):
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


def simulate_stream(
    instance: AdInstance, strategy: AllocationStrategy, config: StreamConfig
) -> SimResult:
    """Simulate i.i.d. query arrivals against a fixed strategy.

    Deterministic in the seed: trial t uses the substream (seed, t), and
    trials are reduced in index order.
    """
    if strategy.length > instance.horizon + 1e-9:
        raise ValueError("strategy length exceeds horizon")
    queries = config.query_count if config.query_count is not None else round(instance.horizon)
    if queries < 1:
        raise ValueError("query_count must be >= 1")
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


@dataclass(frozen=True)
class ConvergenceRow:
    scale: float
    mean: float
    std: float
    fluid: float
    rel_gap: float


def convergence_report(
    instance: AdInstance,
    scales: Sequence[float] = (1, 10, 100, 1000),
    trials: int = 200,
    seed: int = 0,
) -> Tuple[ConvergenceRow, ...]:
    """Monte Carlo vs fluid gap of the greedy strategy across payment scales."""
    rows = []
    for scale in scales:
        scaled = scale_instance(instance, float(scale))
        strategy, _ = greedy_allocate(scaled)
        result = simulate_stream(scaled, strategy, StreamConfig(seed=seed, trials=trials))
        if result.fluid_utility > 0.0:
            gap = abs(result.mean - result.fluid_utility) / result.fluid_utility
        else:
            gap = 0.0 if result.mean == 0.0 else math.inf
        rows.append(ConvergenceRow(float(scale), result.mean, result.std, result.fluid_utility, gap))
    return tuple(rows)
