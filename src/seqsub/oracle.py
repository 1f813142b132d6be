"""Exact small-instance baselines: brute force, an exact LP, and coverage
fixtures.

Everything here is an oracle, not a heuristic: size guards fail loudly with
the measured size rather than approximating, and the LP is exact, so ratio
assertions never hinge on solver tolerances.  It pivots on rows of integers
over one denominator, in time variables whose coefficients are floats' exact
binary values; its pivots, value and witness are those of the dense
`Fraction` tableau of the LP in spends.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, Iterable, List, Mapping, Optional, Set, Tuple, Union

from .adalloc import AdInstance, SizeGuardError
from .seqcore import ActionSet, DiscreteSequence, Frozen, SequenceFunction

if TYPE_CHECKING:  # an annotation only: allocate --oracle needs no qrewrite
    from .qrewrite import RewriteInstance

# An LP entry, taken at its exact value.
Number = Union[int, float, Fraction]


class OptResult(Frozen):
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

def _integer_row(values: Iterable[Number]) -> Tuple[List[int], int]:
    """Integer numerators of `values`, each at its exact value, over their least common denominator."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _simplex_max(
    c: List[Number], a_rows: List[List[Number]], b: List[Number]
) -> Tuple[Fraction, List[Fraction]]:
    """Exact tableau simplex with Bland's rule, pivoting sparsely on integer rows.

    Entries may be ints, Fractions or floats, each taken at its exact value.
    All right-hand sides must be non-negative so the slack basis is feasible;
    the problems solved here are always bounded, but unboundedness raises.
    Each row, the cost row too, is integer numerators over one positive
    denominator in lowest terms.  The ratio test cross-multiplies, as a
    row's denominator cancels.  A pivot makes the pivot entry the pivot
    row's denominator.  Any other row r with entry f in the entering column
    becomes (r * pivot - f * pivot_row) / g over its denominator times
    pivot / g, where g = gcd(f, pivot); the subtraction touches only the
    pivot row's nonzero columns, and one gcd then reduces the row.  Each
    row is exactly the dense Fraction tableau's, so the pivots, the value
    and the witness are too.
    """
    m = len(a_rows)
    n = len(c)
    rows: List[List[int]] = []
    dens: List[int] = []
    for i in range(m):
        nums, den = _integer_row([*a_rows[i], b[i]])
        row = nums[:n] + [0] * m + nums[n:]
        row[n + i] = den
        rows.append(row)
        dens.append(den)
    nums, den = _integer_row(c)
    cost = [-x for x in nums] + [0] * (m + 1)
    rows.append(cost)  # rows[m]: it enters no ratio test and holds no basic variable
    dens.append(den)
    basis = [n + i for i in range(m)]
    while True:
        enter = next((j for j in range(n + m) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                rhs = rows[i][-1]
                if leave is not None:
                    # rhs / coeff against best_rhs / best_coeff; both coefficients are positive.
                    order = rhs * best_coeff - best_rhs * coeff
                    if order > 0 or (order == 0 and basis[i] > basis[leave]):
                        continue
                leave, best_rhs, best_coeff = i, rhs, coeff
        if leave is None:
            raise RuntimeError("LP is unbounded; guards should prevent this")
        pivot_row = rows[leave]
        # Over the pivot it is still in lowest terms: its basic column held its old denominator.
        pivot = dens[leave] = best_coeff
        nonzero = [(j, y) for j, y in enumerate(pivot_row) if y]
        for i, row in enumerate(rows):
            f = row[enter]
            if f and i != leave:
                g = math.gcd(f, pivot)
                scale, f = pivot // g, f // g
                if scale != 1:
                    row[:] = [x * scale for x in row]
                for j, y in nonzero:
                    row[j] -= f * y
                den = dens[i] * scale
                g = math.gcd(den, *row)
                if g != 1:
                    row[:] = [x // g for x in row]
                    den //= g
                dens[i] = den
        basis[leave] = enter
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = Fraction(rows[i][-1], dens[i])
    return Fraction(cost[-1], dens[m]), x


def lp_opt_fluid(
    instance: AdInstance,
    allowed_pairs: Optional[Iterable[Tuple[str, str]]] = None,
) -> OptResult:
    """Exact optimum of the fluid allocation problem, by linear program.

    The witness is the per-pair spend z[ad, type] over allowed pairs with a
    positive payment p.  Constraints: per-ad budgets, per-type display
    capacity (at most `slots` ads shown per arriving query), and the per-pair
    cap that one ad occupies at most one slot of a type at a time.  The
    optimum both upper-bounds every strategy restricted to the allowed pairs
    and is achievable by one, so it is the exact offline fluid optimum.
    Guarded at num_ads * num_types <= 12.

    It is solved in time variables x = z / p: max sum p x subject to
    sum_type p x <= budget, sum_ad x <= slots * q * H and x <= q * H, each
    type's rows multiplied by the denominator of q * H, so every entry is a
    float or an integer.  This scales the spend LP's columns and cap rows by
    positive constants, which keeps every reduced cost's sign and scales
    each entering column's ratios alike: Bland's rule makes the same pivots,
    the value is the same, and z = p x is the same witness.
    """
    size = instance.num_ads * instance.num_types
    if size > 12:
        raise SizeGuardError(f"LP oracle limited to 12 ad/type pairs, instance has {size}")
    allowed = None if allowed_pairs is None else set(allowed_pairs)
    bids = instance.bid_matrix
    pairs = [
        (i, j)
        for i in range(instance.num_ads)
        for j in range(instance.num_types)
        if bids[i][j] > 0.0
        and (allowed is None or (instance.ad_ids[i], instance.type_ids[j]) in allowed)
    ]
    if not pairs:
        return OptResult(0.0, {}, Fraction(0))
    nv = len(pairs)
    a_rows: List[List[Number]] = []
    b_vec: List[Number] = []
    for i in range(instance.num_ads):
        cols = [bids[pi][pj] if pi == i else 0 for pi, pj in pairs]
        if any(cols):
            a_rows.append(cols)
            b_vec.append(instance.budgets[i])
    # Each type's q * H exactly, as (numerator, denominator).
    h_num, h_den = instance.horizon.as_integer_ratio()
    served = [(n * h_num, d * h_den) for n, d in (q.as_integer_ratio() for q in instance.probs)]
    for j, (qh, scale) in enumerate(served):
        cols = [scale if pj == j else 0 for _, pj in pairs]
        if any(cols):
            a_rows.append(cols)
            b_vec.append(instance.slots * qh)
    for k, (_, j) in enumerate(pairs):
        cols = [0] * nv
        cols[k] = served[j][1]
        a_rows.append(cols)
        b_vec.append(served[j][0])
    value, x = _simplex_max([bids[i][j] for i, j in pairs], a_rows, b_vec)
    spend = {
        (instance.ad_ids[i], instance.type_ids[j]): float(x[k] * Fraction(bids[i][j]))
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
