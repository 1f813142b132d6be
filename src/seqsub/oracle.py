"""Exact small-instance baselines: brute force, a rational-arithmetic LP, and
coverage fixtures.

Everything here is an oracle, not a heuristic: size guards fail loudly with
the measured size rather than approximating, and the LP runs entirely in
exact rational arithmetic so ratio assertions never hinge on solver
tolerances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from .adalloc import AdInstance, SizeGuardError
from .qrewrite import RewriteInstance
from .seqcore import ActionSet, DiscreteSequence, SequenceFunction


@dataclass(frozen=True)
class OptResult:
    """An exact optimum with a witness that re-evaluates to it."""

    value: float
    witness: object
    exact_value: Optional[Fraction] = None


# ---------------------------------------------------------------------------
# Coverage fixtures: monotone submodular by construction
# ---------------------------------------------------------------------------

def make_coverage_fixture(
    covers: Mapping[Hashable, Iterable[Hashable]],
    weights: Mapping[Hashable, float],
) -> Tuple[SequenceFunction, ActionSet]:
    """Weighted-coverage utility over discrete sequences.

    u(A) is the total weight of the union of the element sets covered by the
    actions appearing in A; duplicates and order are ignored, so the function
    is non-decreasing and has diminishing gains by construction.
    """
    for elem, w in weights.items():
        if w < 0.0:
            raise ValueError(f"negative weight {w} for element {elem!r}")
    cover_sets = {}
    for action, elems in covers.items():
        elems = frozenset(elems)
        for e in elems:
            if e not in weights:
                raise ValueError(f"action {action!r} covers unknown element {e!r}")
        cover_sets[action] = elems

    def utility(seq: DiscreteSequence) -> float:
        covered: Set[Hashable] = set()
        for s in seq.items:
            covered |= cover_sets[s]
        return math.fsum(weights[e] for e in covered)

    return SequenceFunction("discrete", utility), ActionSet(tuple(cover_sets))


# ---------------------------------------------------------------------------
# Brute-force sequence optimum
# ---------------------------------------------------------------------------

def brute_force_discrete(u: SequenceFunction, actions: ActionSet, horizon: int) -> OptResult:
    """Exhaustive maximum over all sequences of length exactly `horizon`.

    Ties go to the lexicographically first sequence in action-set order.
    Guarded at |S| ** T <= 10**6 candidates.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    size = len(actions) ** horizon
    if size > 10**6:
        raise SizeGuardError(f"brute force would enumerate {size} sequences (cap 10^6)")
    sequences = (DiscreteSequence(c, actions) for c in itertools.product(actions.actions, repeat=horizon))
    best_seq, best_val = max(((seq, u(seq)) for seq in sequences), key=lambda entry: entry[1])
    return OptResult(best_val, best_seq)


# ---------------------------------------------------------------------------
# Exact simplex (maximize c.x, A x <= b, x >= 0, b >= 0)
# ---------------------------------------------------------------------------

def _simplex_max(
    c: List[Fraction], a_rows: List[List[Fraction]], b: List[Fraction]
) -> Tuple[Fraction, List[Fraction]]:
    """Tableau simplex in Fractions with Bland's rule, pivoting sparsely.

    All right-hand sides must be non-negative so the slack basis is feasible;
    the problems solved here are always bounded, but unboundedness raises.
    A pivot normalises the pivot row's nonzero entries and subtracts only
    those columns from the other rows: in exact arithmetic `x - f * 0` is
    `x`, so every entry, pivot and witness is the dense tableau's.
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
                    ratio == best_ratio and basis[i] < basis[leave]
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise RuntimeError("LP is unbounded; guards should prevent this")
        pivot_row = tableau[leave]
        pivot = pivot_row[enter]
        nonzero = [(j, x / pivot) for j, x in enumerate(pivot_row) if x]
        for j, x in nonzero:
            pivot_row[j] = x
        for row in (*tableau, cost):
            f = row[enter]
            if f and row is not pivot_row:
                for j, x in nonzero:
                    row[j] -= f * x
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][-1]
    return cost[-1], x


def lp_opt_fluid(
    instance: AdInstance,
    allowed_pairs: Optional[Iterable[Tuple[str, str]]] = None,
) -> OptResult:
    """Exact optimum of the fluid allocation problem, by linear program.

    Variables are per-pair spends z[ad, type] over allowed pairs with a
    positive payment.  Constraints: per-ad budgets, per-type display capacity
    (at most `slots` ads shown per arriving query), and the per-pair cap that
    one ad occupies at most one slot of a type at a time.  The optimum both
    upper-bounds every strategy restricted to the allowed pairs and is
    achievable by one, so it is the exact offline fluid optimum.  Solved in
    rational arithmetic; guarded at num_ads * num_types <= 12.
    """
    size = instance.num_ads * instance.num_types
    if size > 12:
        raise SizeGuardError(f"LP oracle limited to 12 ad/type pairs, instance has {size}")
    allowed = None if allowed_pairs is None else set(allowed_pairs)
    pairs = [
        (i, j)
        for i in range(instance.num_ads)
        for j in range(instance.num_types)
        if instance.bid_matrix[i][j] > 0.0
        and (allowed is None or (instance.ad_ids[i], instance.type_ids[j]) in allowed)
    ]
    if not pairs:
        return OptResult(0.0, {}, Fraction(0))
    budgets = [Fraction(b) for b in instance.budgets]
    probs = [Fraction(q) for q in instance.probs]
    bids = [[Fraction(p) for p in row] for row in instance.bid_matrix]
    horizon = Fraction(instance.horizon)
    slots = Fraction(instance.slots)
    nv = len(pairs)
    a_rows: List[List[Fraction]] = []
    b_vec: List[Fraction] = []
    for i in range(instance.num_ads):
        cols = [Fraction(1) if pi == i else Fraction(0) for pi, _ in pairs]
        if any(cols):
            a_rows.append(cols)
            b_vec.append(budgets[i])
    for j in range(instance.num_types):
        cols = [
            Fraction(1) / bids[pi][pj] if pj == j else Fraction(0) for pi, pj in pairs
        ]
        if any(cols):
            a_rows.append(cols)
            b_vec.append(slots * probs[j] * horizon)
    for k, (i, j) in enumerate(pairs):
        cols = [Fraction(0)] * nv
        cols[k] = Fraction(1)
        a_rows.append(cols)
        b_vec.append(probs[j] * bids[i][j] * horizon)
    value, x = _simplex_max([Fraction(1)] * nv, a_rows, b_vec)
    spend = {
        (instance.ad_ids[i], instance.type_ids[j]): float(x[k])
        for k, (i, j) in enumerate(pairs)
        if x[k] > 0
    }
    return OptResult(float(value), spend, value)


# ---------------------------------------------------------------------------
# Rewrite assignment optimum
# ---------------------------------------------------------------------------

def brute_force_rewrite_opt(instance: RewriteInstance) -> OptResult:
    """Exact best assignment of at most k rewrites per type.

    Enumerates rewrite subsets per type and takes the LP optimum restricted
    to the reachable (ad, type) pairs.  Since the LP value is monotone in the
    allowed set, only maximal per-type ad unions need solving: one LP per
    combination of them across types.  The unions of one type are distinct
    and every pair names its type, so no two combinations share a pair set.
    Guarded at 10**5 raw assignments.
    """
    base = instance.base
    n_rewrites, k = len(instance.rewrites), instance._limit
    per_type_raw = sum(math.comb(n_rewrites, c) for c in range(k + 1))
    raw_count = per_type_raw ** base.num_types
    if raw_count > 10**5:
        raise SizeGuardError(
            f"rewrite oracle would enumerate {raw_count} assignments (cap 10^5)"
        )
    # Distinct maximal ad-index unions per type, keeping the first subset achieving each.
    rewrite_ids = [r.id for r in instance.rewrites]
    seen: Dict[FrozenSet[int], Tuple[str, ...]] = {}
    for size in range(k + 1):
        for ids in itertools.combinations(rewrite_ids, size):
            seen.setdefault(instance.reachable_ads(ids), ids)
    maximal = [
        (ads, ids)
        for ads, ids in seen.items()
        if not any(ads < other for other in seen if other != ads)
    ]
    best_val: Optional[Fraction] = None
    best_witness = None
    for combo in itertools.product(maximal, repeat=base.num_types):
        pairs = [(base.ad_ids[i], tid) for (ads, _), tid in zip(combo, base.type_ids) for i in ads]
        res = lp_opt_fluid(base, pairs)
        if best_val is None or res.exact_value > best_val:
            best_val = res.exact_value
            best_witness = {
                "rewrites": {tid: list(ids) for (_, ids), tid in zip(combo, base.type_ids)},
                "spend": res.witness,
            }
    return OptResult(float(best_val), best_witness, best_val)
