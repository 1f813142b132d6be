"""Algebra of action sequences, greedy maximization drivers, and property checkers.

Utilities here are defined on ordered sequences of actions rather than on
sets: the value of an action may depend on what ran before it.  Sequences
come in two flavors, index-based (`DiscreteSequence`) and duration-based
(`TimedSequence`).  One relation orders them: `dominates(a, b)` holds when
`a` can be cut out of `b`, and `equivalent` is domination both ways.
`greedy_discrete` and `greedy_continuous` build a sequence step by step
from an incremental oracle; the guarantee they carry (a constant fraction
of the optimum) holds whenever the utility is non-decreasing under
domination and has diminishing marginal gains.  The `check_*` functions
sample randomized witnesses against exactly those structural properties
and report any violation they find.  Sample i draws from `Stream`, a
pure-Python PCG64 that makes the draws of numpy's `default_rng([seed, i])`;
this module holds no numpy code.
"""

from __future__ import annotations

import math
import operator
import os
import sys
from array import array
from typing import Callable, Hashable, Optional, Tuple

# Tolerance for inequality checks, relative to the larger of the values
# compared and the check's scale (see `_exceeds`); also the relative duration
# slack of `dominates`, and so of `equivalent`.
DEFAULT_TOL = 1e-9
# Relative tolerance of the finite-difference check on marginal rates.
FD_REL_TOL = 1e-6
# Rounding that a difference of two utilities may carry, as a fraction of the
# utility's scale: the fluid model resolves spend only to an ulp of each
# budget, and each step of the difference rounds it again (2**7 ulps in all).
# Below the smallest normal float an ulp stops shrinking, so a smaller scale
# counts as that one (see `_utility_rounding`).
UTILITY_ROUNDING = 2**-45
# Blocks no longer than this fraction of the sample's total length (for
# discrete ones: empty blocks) are skipped by the single-step gain bounds.
MIN_LENGTH = 1e-6
# Fewest samples a check hands each process; below twice this, it runs inline.
# A fork costs about 3.5 ms, and 128 samples of the cheapest check about 7 ms.
MIN_WORKER_SAMPLES = 128
# Substream seeds hashed at once; a power of two, so a block's indices differ in their low word only.
SUBSTREAM_BLOCK = 2**10
_MASK32, _MASK64, _MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
# numpy's SeedSequence hash constants, and PCG64's 128-bit LCG multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645


def unchecked(cls, **fields):
    """A frozen `cls` holding `fields`, which are already in its checked form; `__post_init__` is skipped."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


class Frozen:
    """Base of the value types, which behave as frozen dataclasses; `dataclasses` cost each CLI start 25-35 ms.

    Fields are the annotated class attributes, in order, with their values as defaults (a dict copied per instance).
    """

    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        self.__dict__.update(zip(self._fields, self._bind(args, kwargs)))
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Each field's value, in order, from a call's arguments and the defaults."""
        rest = cls._fields[len(args):]
        missing = [name for name in rest if name not in kwargs and not hasattr(cls, name)]
        if len(args) > len(cls._fields) or not kwargs.keys() <= set(rest) or missing:
            raise TypeError(f"{cls.__name__}() takes {cls._fields}: too many, unknown, repeated or missing arguments")
        values = list(args)
        for name in rest:
            default = getattr(cls, name, None)  # the class attribute
            values.append(kwargs[name] if name in kwargs else dict(default) if isinstance(default, dict) else default)
        return values

    def __post_init__(self):
        """Check and normalise the fields; `unchecked` skips it."""

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._astuple() == other._astuple() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class MismatchedActionSets(ValueError):
    """Raised when combining sequences built over different action sets."""


class SegmentCapExceeded(RuntimeError):
    """Raised when the continuous greedy driver exceeds its segment budget."""


class ActionSet(Frozen):
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


class DiscreteSequence(Frozen):
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


class TimedSequence(Frozen):
    """Ordered (action, duration) segments; length is total duration.

    Durations are strictly positive; the empty sequence is allowed.
    """

    segments: Tuple[Tuple[Hashable, float], ...] = ()

    def __post_init__(self):
        segs = tuple((a, float(d)) for a, d in self.segments)
        object.__setattr__(self, "segments", segs)
        for _, d in segs:
            if not d > 0.0:
                raise ValueError(f"segment duration must be positive, got {d}")

    @property
    def length(self) -> float:
        return math.fsum(d for _, d in self.segments)

    def is_empty(self) -> bool:
        return not self.segments

    def slice(self, x: float, y: float) -> "TimedSequence":
        """Portion covering [x, y) of the timeline, empty when disjoint."""
        lo = max(float(x), 0.0)
        hi = min(float(y), self.length)
        if hi <= lo:
            return unchecked(TimedSequence, segments=())
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
        return unchecked(TimedSequence, segments=tuple(out))

    def canonical(self) -> "TimedSequence":
        """Merge adjacent segments holding the same action."""
        merged: list = []
        for a, d in self.segments:
            if merged and merged[-1][0] == a:
                merged[-1][1] += d
            else:
                merged.append([a, d])
        return TimedSequence(tuple((a, d) for a, d in merged))


SequenceLike = DiscreteSequence | TimedSequence


def concat(a: SequenceLike, b: SequenceLike) -> SequenceLike:
    """Concatenation: the items/segments of `a` followed by those of `b`."""
    if type(a) is not type(b):
        raise TypeError("cannot concatenate sequences of different kinds")
    if isinstance(a, TimedSequence):
        return unchecked(TimedSequence, segments=a.segments + b.segments)
    if a.actions is not None and b.actions is not None and a.actions != b.actions:
        raise MismatchedActionSets("sequences were built over different action sets")
    if (a.actions is None) != (b.actions is None):  # check the items of one against the other's action set
        return DiscreteSequence(a.items + b.items, a.actions or b.actions)
    return unchecked(DiscreteSequence, items=a.items + b.items, actions=a.actions)


def equivalent(a: SequenceLike, b: SequenceLike) -> bool:
    """Whether each sequence dominates the other: the same function up to the duration slack."""
    return type(a) is type(b) and dominates(a, b) and dominates(b, a)


def dominates(a: SequenceLike, b: SequenceLike) -> bool:
    """True when `a` can be obtained by cutting parts out of `b`.

    Timed sequences are walked segment by segment, with a duration slack
    per segment of DEFAULT_TOL times the longer sequence's length, capped at
    DEFAULT_TOL: relative at time scales below 1, so that tiny sequences
    still differ.
    """
    if type(a) is not type(b):
        raise TypeError("cannot compare sequences of different kinds")
    if isinstance(a, DiscreteSequence):
        it = iter(b.items)
        return all(x in it for x in a.items)  # order-preserving subsequence
    need, have = a.segments, b.segments
    slack = DEFAULT_TOL * min(1.0, max(a.length, b.length))
    i = j = 0
    ra = need[0][1] if need else 0.0
    rb = have[0][1] if have else 0.0
    while i < len(need):
        if ra <= slack:
            i += 1
            ra = need[i][1] if i < len(need) else 0.0
            continue
        if j >= len(have):
            return False
        if need[i][0] == have[j][0] and rb > slack:
            take = min(ra, rb)
            ra -= take
            rb -= take
        else:
            j += 1
            rb = have[j][1] if j < len(have) else 0.0
    return True


def sample_dominated(b: SequenceLike, rng: Stream) -> SequenceLike:
    """Random sequence dominated by `b`, drawn from `rng`.

    Discrete sequences get a uniformly random subsequence; timed sequences
    get a concatenation of up to three disjoint, ordered windows of `b`.
    """
    if isinstance(b, DiscreteSequence):
        return unchecked(DiscreteSequence, items=tuple(x for x in b.items if rng.random() < 0.5), actions=b.actions)
    total = b.length
    m = rng.integers(0, 4)  # zero to three windows
    out = unchecked(TimedSequence, segments=())
    if m == 0 or total <= 0.0:
        return out
    cuts = sorted([total * rng.random() for _ in range(2 * m)])
    for lo, hi in zip(cuts[0::2], cuts[1::2]):
        out = concat(out, b.slice(lo, hi))
    return out


class SequenceFunction(Frozen):
    """Deterministic, side-effect-free evaluator mapping a sequence to a utility.

    `scale` is the utility's typical magnitude, the floor of the checkers'
    tolerance (see `_exceeds`).
    """

    kind: str
    fn: Callable[[SequenceLike], float]
    scale: float = 1.0

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
) -> TimedSequence:
    """Build a timed sequence of total duration `horizon` from a rate oracle.

    `rate_oracle(prefix, action)` returns `(rate, hold)`: the instantaneous
    marginal rate of appending `action` after `prefix`, and a duration for
    which the chosen action is guaranteed to stay the best.  Each step
    appends the highest-rate action (ties to action-set order) for
    `min(hold, remaining horizon)`, until at most `1e-15 * horizon` remains
    (the relative stop rule of `greedy_allocate`).  It is not guaranteed to
    terminate for adversarial oracles, so it raises `SegmentCapExceeded`
    rather than emit more than `10 * len(actions)` segments.  `adalloc` uses
    it only as the paper-faithful test reference for `greedy_allocate`.
    """
    if horizon < 0.0:
        raise ValueError("horizon must be non-negative")
    cap = 10 * len(actions)
    segs: list = []
    elapsed = 0.0
    while horizon - elapsed > 1e-15 * horizon:
        prefix = TimedSequence(tuple(segs))
        best, _, best_hold = max(
            ((a, *rate_oracle(prefix, a)) for a in actions), key=lambda entry: entry[1]
        )
        if not best_hold > 0.0:
            raise ValueError(f"oracle returned non-positive hold {best_hold} for {best!r}")
        if len(segs) >= cap:
            raise SegmentCapExceeded(f"driver exceeded {cap} segments before the horizon")
        remaining = horizon - elapsed
        segs.append((best, remaining if best_hold >= remaining else best_hold))
        elapsed = math.fsum(d for _, d in segs)
    return TimedSequence(tuple(segs))


# ---------------------------------------------------------------------------
# Property checkers
# ---------------------------------------------------------------------------

class Violation(Frozen):
    """One failed inequality: `lhs` should not beat `rhs` by more than the tolerance."""

    check: str
    lhs: float
    rhs: float
    gap: float
    witness: dict = {}


class CheckReport(Frozen):
    check: str
    samples_tested: int
    violations: Tuple[Violation, ...] = ()
    details: dict = {}

    @property
    def ok(self) -> bool:
        return not self.violations


def _exceeds(lhs: float, rhs: float, floor: float, rounding: float = 0.0) -> bool:
    """True when `lhs` beats `rhs` by more than DEFAULT_TOL * max(floor, |lhs|, |rhs|) + rounding.

    Utility checks pass the utility's `scale`; rate checks pass the model's
    largest rate, and `rounding` where a rate is a utility difference over a length.
    """
    return lhs - rhs > DEFAULT_TOL * max(floor, abs(lhs), abs(rhs)) + rounding


def _utility_rounding(scale: float) -> float:
    """The rounding a utility difference at `scale` may carry: UTILITY_ROUNDING * scale.

    It is at least 2**7 ulps of a subnormal (2**-1067), the resolution of a
    subnormal budget's spend.
    """
    return UTILITY_ROUNDING * max(scale, sys.float_info.min)


def _violations(check: str, lhs: float, rhs: float, witness: dict, floor: float, rounding=0.0) -> list:
    """`[Violation]` when `lhs` exceeds `rhs`, else `[]`."""
    return [Violation(check, lhs, rhs, lhs - rhs, witness)] if _exceeds(lhs, rhs, floor, rounding) else []


def _words(n: int) -> list:
    """The 32-bit words of `n`, low first, as SeedSequence splits an entropy integer."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    return [n >> shift & _MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


class Stream:
    """One PCG64 stream (O'Neill 2014) that draws as numpy's `Generator(PCG64)` does.

    It has the two draws the samplers make.  `random()` is
    `Generator.random()`.  `integers(low, high)` is
    `Generator.integers(low, high)` for ranges of at most 2^32 values:
    Lemire's multiply-and-reject method (ACM TOMACS 2019) on 32-bit words.
    Each 64-bit output serves two 32-bit draws, its low half first; the high
    half waits, as PCG64's `next_uint32` buffers it, and `random` neither
    uses nor clears it.  A test pins both draws to numpy's.
    """

    __slots__ = ("state", "inc", "half")

    def __init__(self, state: int, inc: int):
        self.state, self.inc, self.half = state, inc, None

    def random(self) -> float:
        """A double in [0, 1): the top 53 bits of the next 64-bit output, scaled."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high); a one-value range draws nothing."""
        span = high - low
        if not 1 < span <= 2**32:
            if span == 1:
                return low
            raise ValueError(f"integers draws from 1 to 2^32 values, not [{low}, {high})")
        while True:
            word = self.half
            if word is None:
                x = self._next64()
                word, self.half = x & _MASK32, x >> 32
            else:
                self.half = None
            m = word * span
            left = m & _MASK32
            if left >= span or left >= (2**32 - span) % span:  # else the draw is biased: reject it
                return low + (m >> 32)

    def _next64(self) -> int:
        """Step the 128-bit LCG and return its XSL-RR output: the halves xored, rotated by the top 6 bits."""
        s = self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        x, r = (s >> 64 ^ s) & _MASK64, s >> 122
        return (x >> r | x << 64 - r) & _MASK64


def _pcg64_states(seed: int, indices: range):
    """PCG64's (state, inc) for each i of the consecutive `indices`, as `default_rng([seed, i])` sets them.

    numpy's SeedSequence hashes the 32-bit words of [seed, i] in uint32
    arithmetic: a pool of 4 words filled, each pool word and each later word
    mixed into every other, 8 words hashed out and paired.  A block of up
    to SUBSTREAM_BLOCK indices is hashed at once: each word of the hash is
    one Python int holding the block's words in 64-bit lanes, where the
    product of two 32-bit words fits, so a lane-wise multiply is one
    multiply and a mask.  Each seed becomes a PCG64 state as PCG's
    `srandom` makes it (O'Neill 2014): initstate from words 0-1, increment
    `(initseq << 1) | 1` from words 2-3, then two LCG steps.  Negative
    seeds and indices raise ValueError.
    """
    seed_words = _words(operator.index(seed))
    lo = indices.start
    while lo < indices.stop:
        hi = min(indices.stop, (lo // SUBSTREAM_BLOCK + 1) * SUBSTREAM_BLOCK)
        ones = int.from_bytes(array("Q", [1]) * (hi - lo), sys.byteorder)
        low32, two32, const = ones * _MASK32, ones << 32, [_INIT_A]

        def hashmix(value, mult=_MULT_A):
            value ^= const[0] * ones
            const[0] = const[0] * mult & _MASK32
            value = value * const[0] & low32
            return (value ^ value >> 16) & low32

        def mix(x, y):
            value = ((x * _MIX_L & low32) + two32 - (y * _MIX_R & low32)) & low32
            return (value ^ value >> 16) & low32

        entropy = [w * ones for w in seed_words + _words(lo)]
        first = lo & _MASK32  # the block's indices differ in their low word only
        entropy[len(seed_words)] = int.from_bytes(array("Q", range(first, first + hi - lo)), sys.byteorder)
        pool = [hashmix(entropy[k] if k < len(entropy) else 0) for k in range(4)]
        for src in range(max(4, len(entropy))):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src] if src < 4 else entropy[src]))
        const[0] = _INIT_B
        out = [hashmix(pool[k % 4], _MULT_B) for k in range(8)]
        size = 8 * (hi - lo)
        words = [array("Q", (out[k] | out[k + 1] << 32).to_bytes(size, sys.byteorder)) for k in range(0, 8, 2)]
        for w0, w1, w2, w3 in zip(*words):
            inc = ((w2 << 65) | (w3 << 1) | 1) & _MASK128
            yield (((w0 << 64 | w1) + inc) * _PCG_MULT + inc) & _MASK128, inc
        lo = hi


def _workers(samples: int) -> int:
    """How many processes share a check's samples.

    One per CPU this process may run on, each with at least
    MIN_WORKER_SAMPLES samples; but only one unless this process can fork
    and has a single thread, since forking a threaded one can deadlock the
    child.
    """
    most = samples // MIN_WORKER_SAMPLES
    if most < 2 or not hasattr(os, "fork"):
        return 1
    try:
        if len(os.listdir("/proc/self/task")) != 1:
            return 1
        return min(len(os.sched_getaffinity(0)), most)
    except (OSError, AttributeError):  # no /proc, or no affinity call on this platform
        return 1


def _run_chunk(seed: int, indices: range, body) -> tuple:
    """`body` on the `Stream` of each sample in `indices`: (samples tested, violations)."""
    found: list = []
    tested = 0
    for state, inc in _pcg64_states(seed, indices):
        result = body(Stream(state, inc))
        if result is not None:
            tested += 1
            found.extend(result)
    return tested, found


def _fork_chunk(seed: int, indices: range, body, details: dict) -> tuple:
    """Run `_run_chunk` in a forked worker; return its pid and the read end of its pipe.

    The worker sends `(tested, violations, details delta)`, or the exception
    it raised, pickled, and always ends with `os._exit`.
    """
    import pickle  # on the fork path only: the CLI's start would pay for it on every command

    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    try:
        os.close(read)
        start = dict(details)
        try:
            tested, found = _run_chunk(seed, indices, body)
            result = (tested, found, {key: value - start.get(key, 0) for key, value in details.items()})
        except BaseException as exc:
            result = exc
        payload = pickle.dumps(result)  # if this raises, the worker sends nothing: see `_collect`
        with os.fdopen(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _collect(pid: int, read: int):
    """A worker's result, or the exception it raised or died of; the worker is reaped."""
    import pickle

    with os.fdopen(read, "rb") as pipe:
        payload = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if not payload:
        return ChildProcessError(f"sample worker {pid} sent no result (exit code {code})")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        return exc


def _run_samples(
    check: str,
    samples: int,
    seed: int,
    body: Callable[[Stream], Optional[list]],
    violations: Tuple[Violation, ...] = (),
    details: Optional[dict] = None,
) -> CheckReport:
    """Run `body` on sample i's `Stream`, where `default_rng([seed, i])` starts, for i = 0, 1, ...

    Per-sample streams make samples order-independent and reproducible.  `body`
    returns the sample's violations, or None when it skipped the sample,
    which then does not count as tested.  `violations` found before the
    loop come first in the report.  `body` may count into `details`.

    The samples run in `_workers(samples)` contiguous chunks: this process
    runs the first and a forked worker each other one, or runs that chunk
    too where the fork fails (a process or memory limit).  The chunks are
    merged in order (tested counts and `details` counts summed, violations
    concatenated), and the first exception in sample order is raised, so
    the report is the same for any number of workers.  Every worker is
    reaped before this returns or raises.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    details = {} if details is None else details
    count = _workers(samples)
    chunks = [range(k * samples // count, (k + 1) * samples // count) for k in range(count)]
    jobs: list = [chunks[0]]  # per chunk: its range, run here, or its forked worker's (pid, read end)
    found, tested = list(violations), 0
    try:
        for chunk in chunks[1:]:
            try:
                jobs.append(_fork_chunk(seed, chunk, body, details))
            except OSError:
                jobs.append(chunk)
        while jobs:
            job = jobs.pop(0)
            result = (*_run_chunk(seed, job, body), {}) if isinstance(job, range) else _collect(*job)
            if isinstance(result, BaseException):
                raise result
            more_tested, more, delta = result
            tested += more_tested
            found.extend(more)
            for key, value in delta.items():
                details[key] += value
    finally:
        for job in jobs:
            if not isinstance(job, range):
                _collect(*job)
    return CheckReport(check, tested, tuple(found), details)


def check_nondecreasing(
    u: SequenceFunction,
    sample_b: Callable[[Stream], SequenceLike],
    samples: int,
    seed: int = 0,
) -> CheckReport:
    """Sample B, cut a dominated A out of it, and require u(A) <= u(B).

    Also anchors u at zero on the empty sequence.
    """
    empty = DiscreteSequence(()) if u.kind == "discrete" else TimedSequence(())
    v0 = u(empty)
    first = ()
    if _exceeds(abs(v0), 0.0, u.scale):
        first = (Violation("empty_value", v0, 0.0, abs(v0), {"sequence": empty}),)

    def body(rng):
        b = sample_b(rng)
        a = sample_dominated(b, rng)
        return _violations("nondecreasing", u(a), u(b), {"a": a, "b": b}, u.scale)

    return _run_samples("nondecreasing", samples, seed, body, first)


def check_submodular(
    u: SequenceFunction,
    sample: Callable[[Stream], SequenceLike],
    samples: int,
    seed: int = 0,
) -> CheckReport:
    """Sample B, then C, then A dominated by B; require u(C|A) >= u(C|B)."""

    def body(rng):
        b = sample(rng)
        c = sample(rng)
        a = sample_dominated(b, rng)
        gain_a = marginal_value(u, c, a)
        gain_b = marginal_value(u, c, b)
        return _violations("submodular", gain_b, gain_a, {"a": a, "b": b, "c": c}, u.scale)

    return _run_samples("submodular", samples, seed, body)


def _draw_smooth(rng: Stream, lo: float, hi: float, breakpoints, margin: float):
    """Uniform draw in [lo, hi] at least `margin` away from every breakpoint."""
    for _ in range(200):
        x = lo + (hi - lo) * rng.random()
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
      best_rate(prefix) -> float, the largest rate of any action after prefix
      scale (optional) -> the utility's typical magnitude, 0 if absent

    Per sample, with B a random prefix, A cut out of B and s a random action,
    the checker asserts (away from the reported breakpoints):

      * rate(s, d | A) >= rate(s, d | B),
      * rate is non-increasing in the offset d, and
      * rate matches the centered finite difference of utility(A + (s, d))
        within FD_REL_TOL.

    Rates are compared relative to max(R, |rates compared|), where R is the
    model's largest rate, `best_rate` of the empty prefix: R bounds every
    rate, and it scales with the model, so a model rescaled in time is held
    to the same relative tolerance.  The finite difference may also miss
    by the rounding of its utility difference, `_utility_rounding(scale)` / 2h.
    """
    if getattr(model, "breakpoints", None) is None:
        raise TypeError("model must report breakpoints for each queried prefix")
    counts = {"fd_points": 0, "monotonicity_pairs": 0}
    floor = model.best_rate(TimedSequence(()))  # the rate checks' scale, R
    rounding = _utility_rounding(getattr(model, "scale", 0.0))

    def body(rng):
        found = []
        b = model.random_prefix(rng)
        a = sample_dominated(b, rng)
        s = model.random_action(rng)
        bps_a = tuple(model.breakpoints(s, a))
        bps_b = tuple(model.breakpoints(s, b))
        top = max((*bps_a, *bps_b, 0.0))
        # Offsets, margin and step scale with the breakpoints, so a model
        # rescaled in time is probed at the same relative offsets, and the
        # rounding error of the finite difference stays below R's tolerance.
        unit = top if top > 0.0 else 1.0
        hi = min(1.25 * top + 0.5 * unit, sys.float_info.max)
        margin = 1e-3 * unit
        d = _draw_smooth(rng, margin, hi, bps_a + bps_b, margin)
        if d is not None:
            ra = model.rate(s, d, a)
            rb = model.rate(s, d, b)
            found += _violations("rate_domination", rb, ra, {"a": a, "b": b, "s": s, "delta": d}, floor)
        d1 = _draw_smooth(rng, margin, hi, bps_a, margin)
        d2 = _draw_smooth(rng, margin, hi, bps_a, margin)
        if d1 is not None and d2 is not None:
            counts["monotonicity_pairs"] += 1
            d1, d2 = min(d1, d2), max(d1, d2)
            r1 = model.rate(s, d1, a)
            r2 = model.rate(s, d2, a)
            found += _violations("rate_nonincreasing", r2, r1, {"a": a, "s": s, "d1": d1, "d2": d2}, floor)
        d0 = _draw_smooth(rng, margin, hi, bps_a, margin)
        if d0 is not None:
            gap = min((abs(d0 - x) for x in bps_a), default=d0)
            h = min(1e-4 * unit, min(gap, d0) / 4.0)
            if not h > 0.0:  # at subnormal time scales the step can underflow to 0
                return found
            counts["fd_points"] += 1
            hold = lambda delta: model.utility(concat(a, unchecked(TimedSequence, segments=((s, delta),))))
            fd = (hold(d0 + h) - hold(d0 - h)) / (2.0 * h)
            r0 = model.rate(s, d0, a)
            err = abs(fd - r0)
            if err > FD_REL_TOL * max(floor, abs(r0)) + rounding / (2.0 * h):
                witness = {"a": a, "s": s, "delta": d0}
                found.append(Violation("rate_finite_difference", fd, r0, err, witness))
        return found

    return _run_samples("derivative", samples, seed, body, details=counts)


def _gain_bound(
    check: str, utility, best_step, sample, samples: int, seed: int, floor: float, scale: float
) -> CheckReport:
    """Lemma 1: the best single step after A must reach the gain per unit length of any block B.

    A and B are both drawn with `sample`; B is skipped when no longer than
    MIN_LENGTH times the length of A + B (so always when empty).  `floor`
    is the tolerance floor of `_exceeds`; the gain per unit may also miss by
    its utility difference's rounding, `_utility_rounding(scale)` / length of B.
    """
    rounding = _utility_rounding(scale)

    def body(rng):
        a = sample(rng)
        b = sample(rng)
        if b.length <= MIN_LENGTH * (a.length + b.length):
            return None
        per_unit = (utility(concat(a, b)) - utility(a)) / b.length
        return _violations(check, per_unit, best_step(a), {"a": a, "b": b}, floor, rounding / b.length)

    return _run_samples(check, samples, seed, body)


def check_step_gain_bound(
    u: SequenceFunction,
    actions: ActionSet,
    sample: Callable[[Stream], DiscreteSequence],
    samples: int,
    seed: int = 0,
) -> CheckReport:
    """Best single-step gain after A must reach the per-item average gain of any block B."""
    def best_step(a):
        return max(marginal_value(u, DiscreteSequence((s,), actions), a) for s in actions)

    return _gain_bound("step_gain_bound", u, best_step, sample, samples, seed, u.scale, u.scale)


def check_rate_gain_bound(model, samples: int, seed: int = 0) -> CheckReport:
    """Best instantaneous rate after A must reach the per-time average gain of any block B.

    `model` provides random_prefix, utility and best_rate (the maximum of
    rate(s, 0, prefix) over all actions), and optionally `scale`.  As in
    `check_derivative_props`, rates are compared relative to at least the
    model's largest rate.
    """
    floor, scale = model.best_rate(TimedSequence(())), getattr(model, "scale", 0.0)
    return _gain_bound(
        "rate_gain_bound", model.utility, model.best_rate, model.random_prefix, samples, seed, floor, scale
    )


def random_discrete_sequence(
    actions: ActionSet, rng: Stream, max_len: int = 6
) -> DiscreteSequence:
    """Uniform-length random sequence over an action set (repeats allowed)."""
    k = rng.integers(0, max_len + 1)
    pool = actions.actions
    items = tuple(pool[rng.integers(0, len(pool))] for _ in range(k))
    return unchecked(DiscreteSequence, items=items, actions=actions)
