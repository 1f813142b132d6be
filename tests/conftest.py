"""Shared fixtures: the four worked instances and random instance generators."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from seqsub import adalloc, oracle, qrewrite


def make_i0() -> adalloc.AdInstance:
    """One ad, one type: rate 2 against budget 1 over a unit horizon."""
    return adalloc.AdInstance.build(
        ads=[("a1", 1.0)],
        query_types=[("t1", 1.0)],
        bids={"a1": {"t1": 2.0}},
        slots=1,
        horizon=1.0,
    )


def make_i1() -> adalloc.AdInstance:
    """Two ads, two types; the greedy play exhausts a1 halfway and switches."""
    return adalloc.AdInstance.build(
        ads=[("a1", 0.5), ("a2", 0.5)],
        query_types=[("t1", 0.5), ("t2", 0.5)],
        bids={"a1": {"t1": 1.0, "t2": 1.0}, "a2": {"t1": 1.0}},
        slots=1,
        horizon=1.0,
    )


def make_i2():
    """Weighted-coverage fixture over three actions and three unit elements."""
    return oracle.make_coverage_fixture(
        covers={"s1": {1, 2}, "s2": {2, 3}, "s3": {3}},
        weights={1: 1.0, 2: 1.0, 3: 1.0},
    )


def make_i3(k: int) -> qrewrite.RewriteInstance:
    """Single-type rewrite fixture: r1 unlocks a fast small ad, r2 a slow big one."""
    base = adalloc.AdInstance.build(
        ads=[("a1", 0.4), ("a2", 1.0)],
        query_types=[("t1", 1.0)],
        bids={"a1": {"t1": 1.0}, "a2": {"t1": 0.5}},
        slots=1,
        horizon=1.0,
    )
    rewrites = (qrewrite.Rewrite("r1", ("a1",)), qrewrite.Rewrite("r2", ("a2",)))
    return qrewrite.RewriteInstance(base, rewrites, k)


@pytest.fixture
def i0():
    return make_i0()


@pytest.fixture
def i1():
    return make_i1()


@pytest.fixture
def i2():
    return make_i2()


@pytest.fixture
def i3k1():
    return make_i3(1)


@pytest.fixture
def i3k2():
    return make_i3(2)


def random_ad_instance(
    rng: np.random.Generator,
    max_ads: int = 4,
    max_types: int = 4,
    max_slots: int = 2,
    max_pairs: int = 12,
) -> adalloc.AdInstance:
    m = int(rng.integers(1, max_ads + 1))
    n = int(rng.integers(1, min(max_types, max_pairs // m) + 1))
    d = int(rng.integers(1, max_slots + 1))
    ads = [(f"a{i}", float(rng.uniform(0.05, 1.0))) for i in range(m)]
    q = rng.dirichlet(np.ones(n))
    query_types = [(f"t{j}", float(q[j])) for j in range(n)]
    bids = {}
    for i in range(m):
        row = {f"t{j}": float(rng.uniform(0.1, 2.0)) for j in range(n) if rng.random() < 0.8}
        if row:
            bids[f"a{i}"] = row
    horizon = float(rng.uniform(0.5, 2.0))
    return adalloc.AdInstance.build(ads, query_types, bids, d, horizon)


def random_rewrite_instance(
    rng: np.random.Generator,
    max_ads: int = 4,
    max_types: int = 3,
    max_rewrites: int = 4,
    max_k: int = 2,
) -> qrewrite.RewriteInstance:
    base = random_ad_instance(rng, max_ads=max_ads, max_types=max_types)
    m = base.num_ads
    n_rw = int(rng.integers(1, max_rewrites + 1))
    rewrites = []
    for r in range(n_rw):
        size = int(rng.integers(1, m + 1))
        picks = rng.choice(m, size=size, replace=False)
        rewrites.append(qrewrite.Rewrite(f"r{r}", tuple(f"a{int(i)}" for i in sorted(picks))))
    k = min(int(rng.integers(1, max_k + 1)), n_rw)
    return qrewrite.RewriteInstance(base, tuple(rewrites), k)


def random_coverage(rng: np.random.Generator, max_actions: int = 5, max_elements: int = 6):
    n_actions = int(rng.integers(1, max_actions + 1))
    n_elements = int(rng.integers(1, max_elements + 1))
    weights = {e: float(rng.uniform(0.0, 1.0)) for e in range(n_elements)}
    covers = {}
    for a in range(n_actions):
        mask = rng.random(n_elements) < 0.5
        covers[f"s{a}"] = {e for e in range(n_elements) if mask[e]}
    return oracle.make_coverage_fixture(covers, weights)


def probe_env() -> dict:
    """The environment of a probe process: this checkout's `src` first on the path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# A check splits its samples over forked workers only where it may run on more than one CPU.
needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="a check runs its samples inline on one CPU",
)
