"""Exact oracles: brute force, rational LP, rewrite enumeration, fixtures."""

import math
from fractions import Fraction

import numpy as np
import pytest

from seqsub import adalloc, oracle, qrewrite
from seqsub.adalloc import evaluate_strategy, random_strategy
from seqsub.oracle import (
    SizeGuardError,
    brute_force_discrete,
    brute_force_rewrite_opt,
    lp_opt_fluid,
    make_coverage_fixture,
)
from seqsub.qrewrite import single_type_allocate
from seqsub.seqcore import DiscreteSequence

from conftest import random_ad_instance, replace


# ---------------------------------------------------------------------------
# coverage fixtures
# ---------------------------------------------------------------------------

def test_coverage_values(i2):
    u, actions = i2
    assert u(DiscreteSequence(("s1",), actions)) == pytest.approx(2.0)
    assert u(DiscreteSequence((), actions)) == 0.0
    assert u(DiscreteSequence(("s1", "s1"), actions)) == pytest.approx(2.0)


def test_coverage_rejects_bad_input():
    with pytest.raises(ValueError, match="negative weight"):
        make_coverage_fixture({"s": {1}}, {1: -0.5})
    with pytest.raises(ValueError, match="unknown element"):
        make_coverage_fixture({"s": {2}}, {1: 1.0})


# ---------------------------------------------------------------------------
# brute-force discrete
# ---------------------------------------------------------------------------

def test_brute_force_coverage(i2):
    u, actions = i2
    res = brute_force_discrete(u, actions, 2)
    assert res.value == pytest.approx(3.0)
    assert res.witness.items == ("s1", "s2")  # lexicographically first optimum
    assert u(res.witness) == res.value


def test_brute_force_witness_reevaluates():
    rng = np.random.default_rng(83)
    for _ in range(10):
        from conftest import random_coverage

        u, actions = random_coverage(rng)
        res = brute_force_discrete(u, actions, int(rng.integers(0, 4)))
        assert u(res.witness) == res.value


def test_brute_force_zero_horizon(i2):
    u, actions = i2
    res = brute_force_discrete(u, actions, 0)
    assert res.value == 0.0
    assert res.witness.is_empty()


def test_brute_force_single_action():
    u, actions = make_coverage_fixture({"s": {1}}, {1: 2.5})
    res = brute_force_discrete(u, actions, 3)
    assert res.value == pytest.approx(2.5)
    assert res.witness.items == ("s", "s", "s")


def test_brute_force_guard():
    u, actions = make_coverage_fixture({f"s{i}": {i} for i in range(12)}, {i: 1.0 for i in range(12)})
    with pytest.raises(SizeGuardError, match="10"):
        brute_force_discrete(u, actions, 8)


# ---------------------------------------------------------------------------
# exact LP
# ---------------------------------------------------------------------------

def test_lp_single_pair(i0):
    res = lp_opt_fluid(i0)
    assert res.exact_value == Fraction(1)
    assert res.witness == {("a1", "t1"): pytest.approx(1.0)}


def test_lp_two_ads(i1):
    res = lp_opt_fluid(i1)
    assert res.exact_value == Fraction(1)
    assert res.witness[("a1", "t2")] == pytest.approx(0.5)
    assert res.witness[("a2", "t1")] == pytest.approx(0.5)


def test_lp_zero_budgets(i1):
    zero = adalloc.AdInstance(
        ad_ids=i1.ad_ids,
        budgets=(0.0, 0.0),
        type_ids=i1.type_ids,
        probs=i1.probs,
        bid_matrix=i1.bid_matrix,
        slots=i1.slots,
        horizon=i1.horizon,
    )
    assert lp_opt_fluid(zero).value == 0.0


def test_lp_pair_capacity_binds():
    # Two slots but a single ad: the pair cap keeps the optimum at q*p*T.
    inst = adalloc.AdInstance.build(
        ads=[("a1", 10.0)],
        query_types=[("t1", 1.0)],
        bids={"a1": {"t1": 1.0}},
        slots=2,
        horizon=1.0,
    )
    res = lp_opt_fluid(inst)
    assert res.exact_value == Fraction(1)
    strategy, ledger = adalloc.greedy_allocate(inst)
    assert ledger.utility <= res.value + 1e-9


def reference_simplex_max(c, a_rows, b, ties_to_larger=False):
    """The dense tableau simplex that `_simplex_max` replaced: a pivot rewrites every entry.

    Bland's rule breaks a ratio tie toward the smaller basis index;
    `ties_to_larger` breaks it the other way, for the test that pins the rule.
    """
    m = len(a_rows)
    n = len(c)
    width = n + m + 1
    tableau = []
    for i in range(m):
        row = list(a_rows[i]) + [Fraction(0)] * m + [b[i]]
        row[n + i] = Fraction(1)
        tableau.append(row)
    cost = [-cj for cj in c] + [Fraction(0)] * (m + 1)
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(width - 1) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best_ratio = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and (basis[i] > basis[leave]) == ties_to_larger
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise RuntimeError("LP is unbounded; guards should prevent this")
        pivot = tableau[leave][enter]
        tableau[leave] = [x / pivot for x in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], tableau[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tableau[leave])]
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    return cost[-1], x


def _tied_lp(rng):
    """A bounded LP with many zeros and ties: coefficients and right-hand sides from a few values."""
    n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    values = [Fraction(0)] * 4 + [Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)]
    a_rows = [[values[int(rng.integers(len(values)))] for _ in range(n)] for _ in range(m)]
    a_rows.append([Fraction(1)] * n)
    b = [Fraction(int(rng.integers(0, 4))) for _ in range(m + 1)]
    c = [Fraction(int(rng.integers(-1, 3)), int(rng.integers(1, 3))) for _ in range(n)]
    return c, a_rows, b


def test_sparse_simplex_matches_the_dense_tableau():
    # Zero right-hand sides and repeated values make ratio ties, so Bland's
    # rule decides many pivots; the value and the witness must be exact.
    rng = np.random.default_rng(1051)
    for _ in range(400):
        c, a_rows, b = _tied_lp(rng)
        assert oracle._simplex_max(c, a_rows, b) == reference_simplex_max(c, a_rows, b)


def _transport_lp(rng):
    """max of the total flow over a small bipartite graph, each pair capped at 1.

    Like `lp_opt_fluid`'s LP, a pair lies in one ad row, one type row and its
    own cap row, all with unit coefficients; every maximum flow is optimal, so
    the vertex found depends on which tied row leaves at each pivot.
    """
    m, n = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    pairs = [(i, j) for i in range(m) for j in range(n)]
    a_rows = [[Fraction(int(pi == i)) for pi, _ in pairs] for i in range(m)]
    a_rows += [[Fraction(int(pj == j)) for _, pj in pairs] for j in range(n)]
    a_rows += [[Fraction(int(k == col)) for col in range(len(pairs))] for k in range(len(pairs))]
    b = [Fraction(int(rng.integers(1, 3))) for _ in range(m + n)] + [Fraction(1)] * len(pairs)
    return [Fraction(1)] * len(pairs), a_rows, b


def test_sparse_simplex_breaks_ratio_ties_by_blands_rule():
    # On LPs with many optimal vertices the leaving rule picks the witness:
    # breaking ties toward the larger basis index ends elsewhere on most of
    # them, so only Bland's rule gives the reference's witness.
    rng = np.random.default_rng(1063)
    other = 0
    for _ in range(200):
        c, a_rows, b = _transport_lp(rng)
        want = reference_simplex_max(c, a_rows, b)
        assert oracle._simplex_max(c, a_rows, b) == want
        flipped = reference_simplex_max(c, a_rows, b, ties_to_larger=True)
        assert flipped[0] == want[0]
        other += flipped[1] != want[1]
    assert other >= 80


def test_sparse_simplex_takes_ints_and_mixed_entries():
    # Twice a tied LP is an integer LP; given as ints, or with every other
    # entry of each row a Fraction, it solves exactly as in Fractions.
    rng = np.random.default_rng(1061)
    doubled = lambda row: [int(2 * v) for v in row]
    mixed = lambda row: [Fraction(v) if k % 2 else v for k, v in enumerate(row)]
    exact = lambda row: [Fraction(v) for v in row]
    for _ in range(200):
        c, a_rows, b = _tied_lp(rng)
        c, a_rows, b = doubled(c), [doubled(row) for row in a_rows], doubled(b)
        want = reference_simplex_max(exact(c), [exact(row) for row in a_rows], exact(b))
        for entries in (list, mixed):
            value, x = oracle._simplex_max(entries(c), [entries(row) for row in a_rows], entries(b))
            assert (value, x) == want
            assert type(value) is Fraction and all(type(v) is Fraction for v in x)


def reference_lp_opt_fluid(instance, allowed_pairs=None):
    """The LP in spends that `lp_opt_fluid` replaced, on the dense Fraction tableau.

    Variables are per-pair spends z[ad, type]; a type's display row weighs
    each spend by 1 / p and a pair's cap is q * p * H.
    """
    allowed = None if allowed_pairs is None else set(allowed_pairs)
    pairs = [
        (i, j)
        for i in range(instance.num_ads)
        for j in range(instance.num_types)
        if instance.bid_matrix[i][j] > 0.0
        and (allowed is None or (instance.ad_ids[i], instance.type_ids[j]) in allowed)
    ]
    if not pairs:
        return oracle.OptResult(0.0, {}, Fraction(0))
    budgets = [Fraction(b) for b in instance.budgets]
    probs = [Fraction(q) for q in instance.probs]
    bids = [[Fraction(p) for p in row] for row in instance.bid_matrix]
    horizon = Fraction(instance.horizon)
    slots = Fraction(instance.slots)
    nv = len(pairs)
    a_rows, b_vec = [], []
    for i in range(instance.num_ads):
        cols = [Fraction(1) if pi == i else Fraction(0) for pi, _ in pairs]
        if any(cols):
            a_rows.append(cols)
            b_vec.append(budgets[i])
    for j in range(instance.num_types):
        cols = [Fraction(1) / bids[pi][pj] if pj == j else Fraction(0) for pi, pj in pairs]
        if any(cols):
            a_rows.append(cols)
            b_vec.append(slots * probs[j] * horizon)
    for k, (i, j) in enumerate(pairs):
        cols = [Fraction(0)] * nv
        cols[k] = Fraction(1)
        a_rows.append(cols)
        b_vec.append(probs[j] * bids[i][j] * horizon)
    value, x = reference_simplex_max([Fraction(1)] * nv, a_rows, b_vec)
    spend = {
        (instance.ad_ids[i], instance.type_ids[j]): float(x[k])
        for k, (i, j) in enumerate(pairs)
        if x[k] > 0
    }
    return oracle.OptResult(float(value), spend, value)


def _edge_ad_instance(rng, case):
    """A valid instance of at most 12 pairs whose amounts come from one of four regimes.

    Case 0 draws from a few values, so bids and ratios tie; case 1 from
    (0.05, 2); case 2 mixes subnormal and normal amounts; case 3 puts
    budgets, bids and the horizon near 1e300.  Budgets are zero, bids are
    zero and types have probability zero at random.
    """
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 12 // m + 1))
    tiny = [5e-324, 2.5e-320, 1e-310, 2.2250738585072014e-308, 0.5]
    huge = [1e300 / 8, 3e299, 1e299, 7.5e298]

    def amount():
        if case == 0:
            return [0.25, 0.5, 1.0, 2.0][int(rng.integers(4))]
        if case == 1:
            return float(rng.uniform(0.05, 2.0))
        if case == 2:
            return tiny[int(rng.integers(len(tiny)))] * float(rng.integers(1, 4))
        return huge[int(rng.integers(len(huge)))] * float(rng.uniform(0.5, 1.0))

    ads = [(f"a{i}", 0.0 if rng.random() < 0.15 else amount()) for i in range(m)]
    weights = [0.0 if rng.random() < 0.25 else float(rng.integers(1, 4)) for _ in range(n)]
    weights[int(rng.integers(n))] = 1.0
    query_types = [(f"t{j}", w / sum(weights)) for j, w in enumerate(weights)]
    bids = {f"a{i}": {f"t{j}": amount() for j in range(n) if rng.random() < 0.75} for i in range(m)}
    horizon = {0: 1.0, 1: float(rng.uniform(0.5, 4.0)), 2: tiny[int(rng.integers(len(tiny)))], 3: 1e300}[case]
    slots = int(rng.integers(1, 4))
    return adalloc.AdInstance.build(ads, query_types, bids, slots, horizon)


def test_time_variable_lp_matches_the_spend_lp():
    # The LP in time variables x = z / p makes the pivots of the LP in spends
    # z, so its value and witness are equal, not close, on every regime.
    rng = np.random.default_rng(1069)
    for trial in range(320):
        inst = _edge_ad_instance(rng, trial % 4)
        allowed = None
        if trial % 3 == 0:
            allowed = [(a, t) for a in inst.ad_ids for t in inst.type_ids if rng.random() < 0.6]
        got, want = lp_opt_fluid(inst, allowed), reference_lp_opt_fluid(inst, allowed)
        assert got.exact_value == want.exact_value, trial
        assert got.value == want.value and got.witness == want.witness, trial


def test_lp_guard():
    inst = adalloc.AdInstance.build(
        ads=[(f"a{i}", 1.0) for i in range(4)],
        query_types=[(f"t{j}", 0.25) for j in range(4)],
        bids={},
        slots=1,
        horizon=1.0,
    )
    with pytest.raises(SizeGuardError, match="16"):
        lp_opt_fluid(inst)


def test_lp_upper_bounds_every_strategy():
    rng = np.random.default_rng(73)
    for _ in range(15):
        inst = random_ad_instance(rng)
        opt = lp_opt_fluid(inst)
        for _ in range(10):
            led = evaluate_strategy(inst, random_strategy(inst, rng))
            assert opt.value >= led.utility - 1e-9


def test_lp_scaling_covariance(i1):
    base = lp_opt_fluid(i1).exact_value
    for factor in (0.5, 2.0, 4.0):  # exact in binary floating point
        scaled = adalloc.AdInstance(
            ad_ids=i1.ad_ids,
            budgets=tuple(b * factor for b in i1.budgets),
            type_ids=i1.type_ids,
            probs=i1.probs,
            bid_matrix=tuple(tuple(p * factor for p in row) for row in i1.bid_matrix),
            slots=i1.slots,
            horizon=i1.horizon,
        )
        assert lp_opt_fluid(scaled).exact_value == base * Fraction(factor)


def test_lp_matches_single_type_allocator():
    rng = np.random.default_rng(79)
    for trial in range(45):
        inst = random_ad_instance(rng, max_types=1)
        tid = inst.type_ids[0]
        if trial < 15:
            allowed, caps = set(inst.ad_ids), inst.budgets
        else:
            # Restricted ad sets and caps below the budgets: the LP of the
            # instance with caps as budgets, over the allowed pairs only.
            allowed = {a for a in inst.ad_ids if rng.random() < 0.6}
            caps = tuple(float(rng.uniform(0.0, b)) for b in inst.budgets)
        spend = single_type_allocate(inst, tid, {inst.ad_index(a) for a in allowed}, caps)
        capped = replace(inst, budgets=caps)
        expected = lp_opt_fluid(capped, [(a, tid) for a in allowed]).value
        assert expected == pytest.approx(math.fsum(spend.values()), abs=1e-9)


def test_lp_witness_spend_is_feasible(i1):
    res = lp_opt_fluid(i1)
    per_ad = {}
    for (ad, _), z in res.witness.items():
        per_ad[ad] = per_ad.get(ad, 0.0) + z
    for ad, total in per_ad.items():
        assert total <= i1.budgets[i1.ad_index(ad)] + 1e-9
    assert sum(res.witness.values()) == pytest.approx(res.value, abs=1e-9)


# ---------------------------------------------------------------------------
# rewrite enumeration
# ---------------------------------------------------------------------------

def test_rewrite_opt_small(i3k1, i3k2):
    res1 = brute_force_rewrite_opt(i3k1)
    assert res1.value == pytest.approx(0.5, abs=1e-12)
    assert res1.witness["rewrites"]["t1"] == ["r2"]
    res2 = brute_force_rewrite_opt(i3k2)
    assert res2.value == pytest.approx(0.7, abs=1e-12)
    assert sorted(res2.witness["rewrites"]["t1"]) == ["r1", "r2"]


def test_rewrite_opt_unrestricted_when_k_large(i3k2):
    inst = qrewrite.RewriteInstance(i3k2.base, i3k2.rewrites, 2)
    assert brute_force_rewrite_opt(inst).exact_value == lp_opt_fluid(i3k2.base).exact_value


def test_rewrite_opt_guard(i3k2):
    base = adalloc.AdInstance.build(
        ads=[("a1", 1.0)],
        query_types=[(f"t{j}", 1.0 / 12) for j in range(12)],
        bids={},
        slots=1,
        horizon=1.0,
    )
    rewrites = tuple(qrewrite.Rewrite(f"r{i}", ("a1",)) for i in range(4))
    inst = qrewrite.RewriteInstance(base, rewrites, 2)
    with pytest.raises(SizeGuardError):
        brute_force_rewrite_opt(inst)
