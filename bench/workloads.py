"""Seeded workload generators for the seqsub benchmark.

Every generator is stdlib-only and byte-deterministic in (workload, seed):
it draws from `random.Random("<workload>:<seed>")` and writes key-sorted
JSON.  The program under test only ever sees the generated files and the
CLI flags listed in `Workload.commands`.

Each generator asserts the shape its workload exists for (enough
exhaustion events, enough segments, the oracle size guard and a fixed
number of rewrite-oracle LP solves, enough `single_type_allocate` work),
so a drift in the generator cannot quietly make a workload trivial, nor
make its cost swing from seed to seed.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

# Remaining budget at or below this is exhausted; mirrors the fluid model.
_EXHAUSTED = 1e-12

ALLOC_EVENTS = 64            # exhaustions before the alloc-large horizon
ALLOC_MIN_EVENTS = 50        # shape guard on the allocate report
STREAM_MIN_SEGMENTS = 20
STREAM_MIN_EXHAUSTED_FRAC = 0.4
STREAM_TRIALS = 300
STREAM_QUERIES = 10_000
REWRITE_MIN_STA_CALLS = 50_000
CERTIFY_MAX_PAIRS = 12       # the LP oracle's size guard
CERTIFY_UNIONS = 3           # maximal per-type ad unions: 3**3 LP solves in the rewrite oracle
CERTIFY_SAMPLES = 1200
MAX_ATTEMPTS = 50


INSTANCE = "{instance}"


class ShapeError(AssertionError):
    """A generated instance lacks the property its workload exists for."""


@dataclass
class Workload:
    name: str
    seed: int
    instance: dict                         # the one instance file all commands read
    commands: List[Tuple[str, List[str]]]  # (label, seqsub argv); INSTANCE marks the file
    sizes: dict = field(default_factory=dict)

    def argv(self, label: str, instance_path: Path) -> List[str]:
        argv = dict(self.commands)[label]
        return [str(instance_path) if a == INSTANCE else a for a in argv]


def dumps(data: dict) -> bytes:
    return (json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n").encode()


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------

def _probs(rng: random.Random, n_types: int) -> List[dict]:
    weights = [rng.uniform(0.5, 1.5) for _ in range(n_types)]
    total = math.fsum(weights)
    return [{"id": f"t{j}", "prob": w / total} for j, w in enumerate(weights)]


def _ad_instance(
    rng: random.Random,
    n_ads: int,
    n_types: int,
    density: float,
    bid_range: Tuple[float, float],
    budget_range: Tuple[float, float],
    slots: int,
    horizon: float,
    digits: int = 4,
) -> dict:
    types = _probs(rng, n_types)
    ads = [{"id": f"a{i}", "budget": round(rng.uniform(*budget_range), digits)} for i in range(n_ads)]
    bids = {}
    for i in range(n_ads):
        row = {
            f"t{j}": round(rng.uniform(*bid_range), digits)
            for j in range(n_types)
            if rng.random() < density
        }
        if row:
            bids[f"a{i}"] = row
    return {"ads": ads, "query_types": types, "bids": bids, "slots": slots, "horizon": horizon}


def greedy_exhaustions(
    data: dict, max_events: int, horizon: float = math.inf
) -> Tuple[List[float], int]:
    """Exhaustion times of the greedy fluid allocation, and its segment count.

    An independent, stdlib-only model of the greedy the program runs: every
    type shows its top-`slots` unexhausted positive-bid ads (ties to the
    lower ad index) and the configuration changes only at exhaustions that
    bring a new ad on show.  Stops after `max_events` exhaustions or at
    `horizon`.  The generators use it to size instances by event count, because the
    program's cost follows events rather than ads.
    """
    ad_ids = [a["id"] for a in data["ads"]]
    index = {a: i for i, a in enumerate(ad_ids)}
    remaining = [float(a["budget"]) for a in data["ads"]]
    slots = int(data["slots"])
    orders = []
    for t in data["query_types"]:
        cands = [
            (float(row[t["id"]]), index[ad])
            for ad, row in data["bids"].items()
            if float(row.get(t["id"], 0.0)) > 0.0
        ]
        cands.sort(key=lambda c: (-c[0], c[1]))
        orders.append((float(t["prob"]), cands))
    times: List[float] = []
    segments = 0
    shown_before: set = set()
    clock = 0.0
    while len(times) < max_events:
        rates: Dict[int, float] = {}
        shown_now = set()
        for j, (q, cands) in enumerate(orders):
            shown = 0
            for bid, i in cands:
                if shown == slots:
                    break
                if remaining[i] > _EXHAUSTED:
                    rates[i] = rates.get(i, 0.0) + q * bid
                    shown_now.add((j, i))
                    shown += 1
        if shown_now - shown_before:
            segments += 1
        shown_before = shown_now
        live = [(remaining[i] / r, i) for i, r in rates.items() if r > 0.0]
        if not live:
            break
        tau = min(t for t, _ in live)
        if clock + tau >= horizon:
            break
        for i, r in rates.items():
            remaining[i] -= r * tau
            if remaining[i] <= _EXHAUSTED:
                remaining[i] = 0.0
        clock += tau
        times.append(clock)
    return times, segments


def _attempts(workload: str, seed: int):
    for attempt in range(MAX_ATTEMPTS):
        yield attempt, random.Random(f"{workload}:{seed}:{attempt}")
    raise ShapeError(f"{workload}: no instance with the required shape in {MAX_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def alloc_large(seed: int) -> Workload:
    """1000 ads x 200 types, 2 slots, ~10% bids; horizon set after the 64th exhaustion."""
    for attempt, rng in _attempts("alloc-large", seed):
        data = _ad_instance(rng, 1000, 200, 0.10, (0.1, 1.0), (0.05, 0.5), 2, 1.0)
        times, _ = greedy_exhaustions(data, ALLOC_EVENTS + 1)
        if len(times) == ALLOC_EVENTS + 1:
            break
    # Midway between two events, so float noise cannot move an event across it.
    data["horizon"] = (times[ALLOC_EVENTS - 1] + times[ALLOC_EVENTS]) / 2.0
    bids = sum(len(r) for r in data["bids"].values())
    return Workload(
        "alloc-large",
        seed,
        data,
        [("allocate", ["allocate", "--instance", INSTANCE])],
        {"ads": 1000, "types": 200, "slots": 2, "bids": bids, "horizon": data["horizon"],
         "events": ALLOC_EVENTS, "attempt": attempt},
    )


def stream_sim(seed: int) -> Workload:
    """50 ads x 20 types, payments 0.01-0.1, budgets 10-80, 300 trials x 10k queries."""
    n_ads, n_types = 50, 20
    for attempt, rng in _attempts("stream-sim", seed):
        data = _ad_instance(rng, n_ads, n_types, 0.3, (0.01, 0.1), (10.0, 80.0), 2, float(STREAM_QUERIES))
        times, segments = greedy_exhaustions(data, n_ads, data["horizon"])
        exhausted = len(times)  # event times; coincident exhaustions have probability zero
        if segments >= STREAM_MIN_SEGMENTS and exhausted >= STREAM_MIN_EXHAUSTED_FRAC * n_ads:
            break
    sim_seed = seed % (2**31)
    return Workload(
        "stream-sim",
        seed,
        data,
        [(
            "simulate",
            ["simulate", "--instance", INSTANCE, "--trials", str(STREAM_TRIALS),
             "--queries", str(STREAM_QUERIES), "--seed", str(sim_seed)],
        )],
        {"ads": n_ads, "types": n_types, "slots": 2, "trials": STREAM_TRIALS, "queries": STREAM_QUERIES,
         "segments": segments, "exhausted": exhausted, "sim_seed": sim_seed, "attempt": attempt},
    )


def eager_rewrite_calls(n_types: int, n_rewrites: int, k: int) -> int:
    """`single_type_allocate` calls made by the eager nested greedy rewrite.

    Each outer round runs the inner greedy for every pending type
    (sum over steps s < k of (R - s) trials, plus one final evaluation)
    and then evaluates the winner once.
    """
    k = min(k, n_rewrites)
    per_type = sum(n_rewrites - s for s in range(k)) + 1
    return sum(p * per_type + 1 for p in range(1, n_types + 1))


def rewrite_medium(seed: int) -> Workload:
    """160 ads / 28 types / 70 rewrites of 6 ads each, k=3, 1 slot."""
    n_ads, n_types, n_rewrites, k = 160, 28, 70, 3
    calls = eager_rewrite_calls(n_types, n_rewrites, k)
    if calls <= REWRITE_MIN_STA_CALLS:
        raise ShapeError(f"rewrite-medium: {calls} single_type_allocate calls, need > {REWRITE_MIN_STA_CALLS}")
    rng = random.Random(f"rewrite-medium:{seed}")
    data = _ad_instance(rng, n_ads, n_types, 0.3, (0.1, 1.0), (0.5, 5.0), 1, 10.0)
    data["rewrites"] = [
        {"id": f"r{r}", "ads": [f"a{i}" for i in sorted(rng.sample(range(n_ads), 6))]}
        for r in range(n_rewrites)
    ]
    data["k"] = k
    return Workload(
        "rewrite-medium",
        seed,
        data,
        [("rewrite", ["rewrite", "--instance", INSTANCE])],
        {"ads": n_ads, "types": n_types, "rewrites": n_rewrites, "k": k, "slots": 1,
         "eager_single_type_allocate_calls": calls},
    )


def maximal_unions(rewrites: List[dict], k: int) -> List[frozenset]:
    """Ad sets reachable with at most k rewrites that no other reachable set contains.

    The rewrite oracle solves one LP per combination of these across types,
    so their count fixes its work.
    """
    reach = {
        frozenset(a for r in combo for a in r["ads"])
        for size in range(k + 1)
        for combo in itertools.combinations(rewrites, size)
    }
    return [ads for ads in reach if not any(ads < other for other in reach)]


def certify_small(seed: int) -> Workload:
    """4 ads x 3 types (12 pairs, the LP guard), 6 rewrites, k=2: checks and both oracles."""
    n_ads, n_types, k = 4, 3, 2
    if n_ads * n_types > CERTIFY_MAX_PAIRS:
        raise ShapeError(f"certify-small: {n_ads * n_types} pairs exceed the oracle guard")
    for attempt, rng in _attempts("certify-small", seed):
        data = _ad_instance(rng, n_ads, n_types, 1.0, (0.2, 1.0), (0.2, 1.0), 1, 2.0)
        data["rewrites"] = [
            {"id": f"r{r}", "ads": [f"a{i}" for i in sorted(rng.sample(range(n_ads), rng.randint(1, 2)))]}
            for r in range(6)
        ]
        if len(maximal_unions(data["rewrites"], k)) == CERTIFY_UNIONS:
            break
    data["k"] = k
    check_seed = seed % (2**31)
    return Workload(
        "certify-small",
        seed,
        data,
        [
            ("verify", ["verify", "--instance", INSTANCE, "--checks", "mono,submod,deriv,lemma1",
                        "--samples", str(CERTIFY_SAMPLES), "--seed", str(check_seed)]),
            ("allocate-oracle", ["allocate", "--instance", INSTANCE, "--oracle"]),
            ("rewrite-oracle", ["rewrite", "--instance", INSTANCE, "--oracle"]),
        ],
        {"ads": n_ads, "types": n_types, "pairs": n_ads * n_types, "rewrites": 6, "k": k,
         "maximal_unions": CERTIFY_UNIONS, "samples": CERTIFY_SAMPLES, "check_seed": check_seed,
         "attempt": attempt},
    )


# One generator per part: an instance and the commands that run on it.
GENERATORS: Dict[str, Callable[[int], Workload]] = {
    "alloc-large": alloc_large,
    "rewrite-medium": rewrite_medium,
    "stream-sim": stream_sim,
    "certify-small": certify_small,
}

# The benchmark's workloads: each iteration runs the commands of every part
# in turn.  Two long workloads measure more steadily on a shared host than
# four short ones; each part keeps its own instance file, shape guards and
# reference digests.  A part's name also works as a workload on its own.
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "alloc-stream": ("alloc-large", "stream-sim"),
    "rewrite-certify": ("rewrite-medium", "certify-small"),
}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)


def parts_of(workload: str, seed: int) -> List[Workload]:
    return [generate(part, seed) for part in WORKLOADS.get(workload, (workload,))]


def report_guard(workload: str, label: str, report: dict) -> None:
    """Shape guards that need the program's own output."""
    if workload == "alloc-large" and label == "allocate":
        events = len(report["outputs"].get("breakpoints", ()))
        if events < ALLOC_MIN_EVENTS:
            raise ShapeError(f"alloc-large: {events} events in the report, need >= {ALLOC_MIN_EVENTS}")


def seeds_of(spec: str) -> Sequence[int]:
    """Parse '0-31' or '1,5,9' into seeds."""
    out: List[int] = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out
