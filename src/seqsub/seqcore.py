"""Algebra of action sequences, greedy maximization drivers, and property checkers.

Utilities here are defined on ordered sequences of actions rather than on
sets: the value of an action may depend on what ran before it.  Sequences
come in two flavors, index-based (`DiscreteSequence`) and duration-based
(`TimedSequence`).  `greedy_discrete` and `greedy_continuous` build a
sequence step by step from an incremental oracle; the guarantee they carry
(a constant fraction of the optimum) holds whenever the utility is
non-decreasing under domination and has diminishing marginal gains.  The
`check_*` functions sample randomized witnesses against exactly those
structural properties and report any violation they find.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, Tuple

import numpy as np

# Tolerance for inequality checks on utilities, relative to their magnitude
# once that exceeds 1 (see `_exceeds`); also the duration slack of
# `dominates` and `equivalent`.
DEFAULT_TOL = 1e-9
# Relative tolerance of the finite-difference check on marginal rates.
FD_REL_TOL = 1e-6
# Blocks shorter than this (for discrete ones: empty) are skipped by the
# single-step gain bounds.
MIN_LENGTH = 1e-6
# Tolerance for duration bookkeeping on timed sequences.
LENGTH_TOL = 1e-12


class MismatchedActionSets(ValueError):
    """Raised when combining sequences built over different action sets."""


class SegmentCapExceeded(RuntimeError):
    """Raised when the continuous greedy driver exceeds its segment budget."""


@dataclass(frozen=True)
class ActionSet:
    """Finite ordered pool of actions; the order fixes all greedy tie-breaks."""

    actions: Tuple[Hashable, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        if not self.actions:
            raise ValueError("action set must not be empty")
        if len(set(self.actions)) != len(self.actions):
            raise ValueError("action identifiers must be unique")

    def __iter__(self):
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __contains__(self, action: Hashable) -> bool:
        return action in self.actions

    def index(self, action: Hashable) -> int:
        return self.actions.index(action)


@dataclass(frozen=True)
class DiscreteSequence:
    """Ordered list of actions; length counts items.

    `actions` is optional: when given, membership is validated and guards
    against concatenating sequences from different pools.
    """

    items: Tuple[Hashable, ...] = ()
    actions: Optional[ActionSet] = None

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        if self.actions is not None:
            for it in self.items:
                if it not in self.actions:
                    raise ValueError(f"item {it!r} not in action set")

    @property
    def length(self) -> int:
        return len(self.items)

    def is_empty(self) -> bool:
        return not self.items

    def slice(self, x: float, y: float) -> "DiscreteSequence":
        """Portion with 1-based positions in [x, y], clamped to the sequence."""
        k = len(self.items)
        lo = max(1, math.ceil(x))
        hi = min(k, math.floor(y))
        if lo > hi:
            return DiscreteSequence((), self.actions)
        return DiscreteSequence(self.items[lo - 1 : hi], self.actions)


@dataclass(frozen=True)
class TimedSequence:
    """Ordered (action, duration) segments; length is total duration.

    Durations are strictly positive; the empty sequence is allowed.
    """

    segments: Tuple[Tuple[Hashable, float], ...] = ()
    actions: Optional[ActionSet] = None

    def __post_init__(self):
        segs = tuple((a, float(d)) for a, d in self.segments)
        object.__setattr__(self, "segments", segs)
        for a, d in segs:
            if not d > 0.0:
                raise ValueError(f"segment duration must be positive, got {d}")
            if self.actions is not None and a not in self.actions:
                raise ValueError(f"action {a!r} not in action set")

    @property
    def length(self) -> float:
        return math.fsum(d for _, d in self.segments)

    def is_empty(self) -> bool:
        return not self.segments

    def action_at(self, t: float) -> Optional[Hashable]:
        """Action active at time t, or None when t is outside [0, length)."""
        if t < 0.0:
            return None
        start = 0.0
        for a, d in self.segments:
            if t < start + d:
                return a
            start += d
        return None

    def slice(self, x: float, y: float) -> "TimedSequence":
        """Portion covering [x, y) of the timeline, empty when disjoint."""
        lo = max(float(x), 0.0)
        hi = min(float(y), self.length)
        if hi <= lo:
            return TimedSequence((), self.actions)
        out = []
        start = 0.0
        for a, d in self.segments:
            end = start + d
            a0 = max(start, lo)
            b0 = min(end, hi)
            if b0 > a0:
                out.append((a, b0 - a0))
            start = end
            if start >= hi:
                break
        return TimedSequence(tuple(out), self.actions)

    def canonical(self) -> "TimedSequence":
        """Merge adjacent segments holding the same action."""
        merged: list = []
        for a, d in self.segments:
            if merged and merged[-1][0] == a:
                merged[-1][1] += d
            else:
                merged.append([a, d])
        return TimedSequence(tuple((a, d) for a, d in merged), self.actions)


SequenceLike = DiscreteSequence | TimedSequence


def _merge_action_sets(a: Optional[ActionSet], b: Optional[ActionSet]) -> Optional[ActionSet]:
    if a is None:
        return b
    if b is None or a == b:
        return a
    raise MismatchedActionSets("sequences were built over different action sets")


def concat(a: SequenceLike, b: SequenceLike) -> SequenceLike:
    """Concatenation: the items/segments of `a` followed by those of `b`."""
    if type(a) is not type(b):
        raise TypeError("cannot concatenate sequences of different kinds")
    acts = _merge_action_sets(a.actions, b.actions)
    if isinstance(a, DiscreteSequence):
        return DiscreteSequence(a.items + b.items, acts)
    return TimedSequence(a.segments + b.segments, acts)


def equivalent(a: SequenceLike, b: SequenceLike) -> bool:
    """Pointwise equality of the functions the two sequences represent."""
    if type(a) is not type(b):
        return False
    if isinstance(a, DiscreteSequence):
        return a.items == b.items
    ca, cb = a.canonical().segments, b.canonical().segments
    if abs(math.fsum(d for _, d in ca) - math.fsum(d for _, d in cb)) > DEFAULT_TOL:
        return False
    i = j = 0
    ra = ca[0][1] if ca else 0.0
    rb = cb[0][1] if cb else 0.0
    while i < len(ca) and j < len(cb):
        if ca[i][0] != cb[j][0]:
            return False
        take = min(ra, rb)
        ra -= take
        rb -= take
        if ra <= DEFAULT_TOL:
            i += 1
            ra = ca[i][1] if i < len(ca) else 0.0
        if rb <= DEFAULT_TOL:
            j += 1
            rb = cb[j][1] if j < len(cb) else 0.0
    return i >= len(ca) and j >= len(cb)


def dominates(a: SequenceLike, b: SequenceLike) -> bool:
    """True when `a` can be obtained by cutting parts out of `b`."""
    if type(a) is not type(b):
        raise TypeError("cannot compare sequences of different kinds")
    if isinstance(a, DiscreteSequence):
        it = iter(b.items)
        return all(x in it for x in a.items)  # order-preserving subsequence
    need = list(a.canonical().segments)
    have = list(b.canonical().segments)
    i = j = 0
    ra = need[0][1] if need else 0.0
    rb = have[0][1] if have else 0.0
    while i < len(need):
        if ra <= DEFAULT_TOL:
            i += 1
            ra = need[i][1] if i < len(need) else 0.0
            continue
        if j >= len(have):
            return False
        if need[i][0] == have[j][0] and rb > DEFAULT_TOL:
            take = min(ra, rb)
            ra -= take
            rb -= take
        else:
            j += 1
            rb = have[j][1] if j < len(have) else 0.0
    return True


def sample_dominated(b: SequenceLike, rng_seed: int) -> SequenceLike:
    """Random sequence dominated by `b`, deterministic in the seed.

    Discrete sequences get a uniformly random subsequence; timed sequences
    get a concatenation of up to three disjoint, ordered windows of `b`.
    """
    rng = np.random.default_rng(rng_seed)
    return _sample_dominated(b, rng)


def _sample_dominated(b: SequenceLike, rng: np.random.Generator) -> SequenceLike:
    if isinstance(b, DiscreteSequence):
        keep = rng.random(len(b.items)) < 0.5
        return DiscreteSequence(tuple(x for x, k in zip(b.items, keep) if k), b.actions)
    total = b.length
    m = int(rng.integers(0, 4))  # zero to three windows
    if m == 0 or total <= 0.0:
        return TimedSequence((), b.actions)
    cuts = sorted(float(x) for x in rng.uniform(0.0, total, size=2 * m))
    out = TimedSequence((), b.actions)
    for lo, hi in zip(cuts[0::2], cuts[1::2]):
        out = concat(out, b.slice(lo, hi))
    return out


@dataclass(frozen=True)
class SequenceFunction:
    """Deterministic, side-effect-free evaluator mapping a sequence to a utility."""

    kind: str
    fn: Callable[[SequenceLike], float]

    def __post_init__(self):
        if self.kind not in ("discrete", "continuous"):
            raise ValueError(f"unknown sequence function kind {self.kind!r}")

    def __call__(self, seq: SequenceLike) -> float:
        return float(self.fn(seq))


def marginal_value(u: SequenceFunction, b: SequenceLike, a: SequenceLike) -> float:
    """Value added by appending `b` after `a`: u(a + b) - u(a)."""
    return u(concat(a, b)) - u(a)


# ---------------------------------------------------------------------------
# Greedy drivers
# ---------------------------------------------------------------------------

def exact_argmax(u: SequenceFunction, prefix: DiscreteSequence, actions: ActionSet) -> Hashable:
    """Action with the largest marginal gain after `prefix`; first wins ties."""
    base = u(prefix)
    return max(actions, key=lambda s: u(concat(prefix, DiscreteSequence((s,), actions))) - base)


def greedy_discrete(
    u: SequenceFunction,
    actions: ActionSet,
    horizon: int,
    oracle: Optional[Callable[[SequenceFunction, DiscreteSequence, ActionSet], Hashable]] = None,
) -> DiscreteSequence:
    """Build a sequence of exactly `horizon` actions by successive argmax appends.

    `oracle(u, prefix, actions)` supplies the next action; the default is the
    exact argmax with ties broken by action-set order.  An oracle whose pick
    always achieves at least `alpha` times the best marginal gain degrades the
    greedy guarantee from 1 - 1/e to 1 - e**-alpha.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    if u.kind != "discrete":
        raise ValueError("greedy_discrete needs a discrete sequence function")
    pick = oracle or exact_argmax
    prefix = DiscreteSequence((), actions)
    for _ in range(horizon):
        s = pick(u, prefix, actions)
        prefix = concat(prefix, DiscreteSequence((s,), actions))
    return prefix


def greedy_continuous(
    rate_oracle: Callable[[TimedSequence, Hashable], Tuple[float, float]],
    actions: ActionSet,
    horizon: float,
    max_segments: Optional[int] = None,
) -> TimedSequence:
    """Build a timed sequence of total duration `horizon` from a rate oracle.

    `rate_oracle(prefix, action)` returns `(rate, hold)`: the instantaneous
    marginal rate of appending `action` after `prefix`, and a duration for
    which the chosen action is guaranteed to stay the best.  Each step
    appends the highest-rate action (ties to action-set order) for
    `min(hold, remaining horizon)`.  It is not guaranteed to terminate
    for adversarial oracles, so it aborts once `max_segments`
    (default 10 * len(actions)) segments have been emitted.  `adalloc` uses
    it only as the paper-faithful test reference for `greedy_allocate`.
    """
    if horizon < 0.0:
        raise ValueError("horizon must be non-negative")
    if max_segments is None:
        max_segments = 10 * len(actions)
    segs: list = []
    elapsed = 0.0
    while horizon - elapsed > LENGTH_TOL:
        prefix = TimedSequence(tuple(segs))
        best, _, best_hold = max(
            ((a, *rate_oracle(prefix, a)) for a in actions), key=lambda entry: entry[1]
        )
        if not best_hold > 0.0:
            raise ValueError(f"oracle returned non-positive hold {best_hold} for {best!r}")
        if len(segs) >= max_segments:
            raise SegmentCapExceeded(f"driver exceeded {max_segments} segments before the horizon")
        remaining = horizon - elapsed
        segs.append((best, remaining if best_hold >= remaining else best_hold))
        elapsed = math.fsum(d for _, d in segs)
    return TimedSequence(tuple(segs))


# ---------------------------------------------------------------------------
# Property checkers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One failed inequality: `lhs` should not beat `rhs` by more than the tolerance."""

    check: str
    lhs: float
    rhs: float
    gap: float
    witness: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CheckReport:
    check: str
    samples_tested: int
    violations: Tuple[Violation, ...] = ()
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def _exceeds(lhs: float, rhs: float) -> bool:
    """True when `lhs` beats `rhs` by more than DEFAULT_TOL * max(1, |lhs|, |rhs|)."""
    return lhs - rhs > DEFAULT_TOL * max(1.0, abs(lhs), abs(rhs))


def _violations(check: str, lhs: float, rhs: float, witness: dict) -> list:
    """`[Violation]` when `lhs` exceeds `rhs`, else `[]`."""
    return [Violation(check, lhs, rhs, lhs - rhs, witness)] if _exceeds(lhs, rhs) else []


def _run_samples(
    check: str,
    samples: int,
    seed: int,
    body: Callable[[np.random.Generator], Optional[list]],
    violations: Tuple[Violation, ...] = (),
    details: Optional[dict] = None,
) -> CheckReport:
    """Run `body` on the per-sample substreams (seed, 0), (seed, 1), ...

    Substreams make samples order-independent and reproducible.  `body`
    returns the sample's violations, or None when it skipped the sample,
    which then does not count as tested.  `violations` found before the
    loop come first in the report.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    found = list(violations)
    tested = 0
    for i in range(samples):
        result = body(np.random.default_rng([seed, i]))
        if result is not None:
            tested += 1
            found.extend(result)
    return CheckReport(check, tested, tuple(found), details or {})


def check_nondecreasing(
    u: SequenceFunction,
    sample_b: Callable[[np.random.Generator], SequenceLike],
    samples: int,
    seed: int = 0,
) -> CheckReport:
    """Sample B, cut a dominated A out of it, and require u(A) <= u(B).

    Also anchors u at zero on the empty sequence.
    """
    empty = DiscreteSequence(()) if u.kind == "discrete" else TimedSequence(())
    v0 = u(empty)
    first = ()
    if _exceeds(abs(v0), 0.0):
        first = (Violation("empty_value", v0, 0.0, abs(v0), {"sequence": empty}),)

    def body(rng):
        b = sample_b(rng)
        a = _sample_dominated(b, rng)
        return _violations("nondecreasing", u(a), u(b), {"a": a, "b": b})

    return _run_samples("nondecreasing", samples, seed, body, first)


def check_submodular(
    u: SequenceFunction,
    sample_b: Callable[[np.random.Generator], SequenceLike],
    sample_c: Callable[[np.random.Generator], SequenceLike],
    samples: int,
    seed: int = 0,
) -> CheckReport:
    """Sample (B, C) and A dominated by B; require u(C|A) >= u(C|B)."""

    def body(rng):
        b = sample_b(rng)
        c = sample_c(rng)
        a = _sample_dominated(b, rng)
        gain_a = marginal_value(u, c, a)
        gain_b = marginal_value(u, c, b)
        return _violations("submodular", gain_b, gain_a, {"a": a, "b": b, "c": c})

    return _run_samples("submodular", samples, seed, body)


def _draw_smooth(rng: np.random.Generator, lo: float, hi: float, breakpoints, margin: float):
    """Uniform draw in [lo, hi] at least `margin` away from every breakpoint."""
    for _ in range(200):
        x = float(rng.uniform(lo, hi))
        if all(abs(x - b) > margin for b in breakpoints):
            return x
    return None


def check_derivative_props(model, samples: int, seed: int = 0) -> CheckReport:
    """Check the marginal-rate contract of a continuous model at smooth offsets.

    `model` must expose:

      random_prefix(rng) -> TimedSequence
      random_action(rng) -> action
      utility(seq) -> float
      rate(action, delta, prefix) -> float
      breakpoints(action, prefix) -> iterable of offsets where the rate jumps

    Per sample, with B a random prefix, A cut out of B and s a random action,
    the checker asserts (away from the reported breakpoints):

      * rate(s, d | A) >= rate(s, d | B),
      * rate is non-increasing in the offset d, and
      * rate matches the centered finite difference of utility(A + (s, d))
        within FD_REL_TOL.
    """
    if getattr(model, "breakpoints", None) is None:
        raise TypeError("model must report breakpoints for each queried prefix")
    counts = {"fd_points": 0, "monotonicity_pairs": 0}

    def body(rng):
        found = []
        b = model.random_prefix(rng)
        a = _sample_dominated(b, rng)
        s = model.random_action(rng)
        bps_a = tuple(model.breakpoints(s, a))
        bps_b = tuple(model.breakpoints(s, b))
        hi = 1.25 * max((*bps_a, *bps_b, 0.0)) + 0.5
        margin = 1e-3
        d = _draw_smooth(rng, margin, hi, bps_a + bps_b, margin)
        if d is not None:
            ra = model.rate(s, d, a)
            rb = model.rate(s, d, b)
            found += _violations("rate_domination", rb, ra, {"a": a, "b": b, "s": s, "delta": d})
        d1 = _draw_smooth(rng, margin, hi, bps_a, margin)
        d2 = _draw_smooth(rng, margin, hi, bps_a, margin)
        if d1 is not None and d2 is not None:
            counts["monotonicity_pairs"] += 1
            d1, d2 = min(d1, d2), max(d1, d2)
            r1 = model.rate(s, d1, a)
            r2 = model.rate(s, d2, a)
            found += _violations("rate_nonincreasing", r2, r1, {"a": a, "s": s, "d1": d1, "d2": d2})
        d0 = _draw_smooth(rng, margin, hi, bps_a, margin)
        if d0 is not None:
            counts["fd_points"] += 1
            gap = min((abs(d0 - x) for x in bps_a), default=d0)
            h = min(1e-4, min(gap, d0) / 4.0)
            hold = lambda delta: model.utility(concat(a, TimedSequence(((s, delta),))))
            fd = (hold(d0 + h) - hold(d0 - h)) / (2.0 * h)
            r0 = model.rate(s, d0, a)
            err = abs(fd - r0)
            if err > FD_REL_TOL * max(1.0, abs(r0)):
                witness = {"a": a, "s": s, "delta": d0}
                found.append(Violation("rate_finite_difference", fd, r0, err, witness))
        return found

    return _run_samples("derivative", samples, seed, body, details=counts)


def _gain_bound(check: str, utility, best_step, sample, samples: int, seed: int) -> CheckReport:
    """Lemma 1: the best single step after A must reach the gain per unit length of any block B.

    A and B are both drawn with `sample`; B shorter than MIN_LENGTH is skipped.
    """

    def body(rng):
        a = sample(rng)
        b = sample(rng)
        if b.length < MIN_LENGTH:
            return None
        per_unit = (utility(concat(a, b)) - utility(a)) / b.length
        return _violations(check, per_unit, best_step(a), {"a": a, "b": b})

    return _run_samples(check, samples, seed, body)


def check_step_gain_bound(
    u: SequenceFunction,
    actions: ActionSet,
    sample: Callable[[np.random.Generator], DiscreteSequence],
    samples: int,
    seed: int = 0,
) -> CheckReport:
    """Best single-step gain after A must reach the per-item average gain of any block B."""
    def best_step(a):
        return max(marginal_value(u, DiscreteSequence((s,), actions), a) for s in actions)

    return _gain_bound("step_gain_bound", u, best_step, sample, samples, seed)


def check_rate_gain_bound(model, samples: int, seed: int = 0) -> CheckReport:
    """Best instantaneous rate after A must reach the per-time average gain of any block B.

    `model` provides random_prefix, utility and best_rate (the maximum of
    rate(s, 0, prefix) over all actions).
    """
    return _gain_bound(
        "rate_gain_bound", model.utility, model.best_rate, model.random_prefix, samples, seed
    )


def random_discrete_sequence(
    actions: ActionSet, rng: np.random.Generator, max_len: int = 6
) -> DiscreteSequence:
    """Uniform-length random sequence over an action set (repeats allowed)."""
    k = int(rng.integers(0, max_len + 1))
    pool = actions.actions
    items = tuple(pool[int(rng.integers(0, len(pool)))] for _ in range(k))
    return DiscreteSequence(items, actions)
