"""The value types on `seqcore.Frozen` behave as the frozen dataclasses they replaced."""

import dataclasses
import pickle
from fractions import Fraction

import pytest

from seqsub.adalloc import AdInstance, Configuration, SpendLedger
from seqsub.oracle import OptResult
from seqsub.qrewrite import PartialAllocation, Rewrite, RewriteInstance
from seqsub.seqcore import (
    ActionSet,
    CheckReport,
    DiscreteSequence,
    Frozen,
    SequenceFunction,
    TimedSequence,
    Violation,
)
from seqsub.stochsim import SimResult, StreamConfig

from conftest import make_i1, make_i3

I1, I3 = make_i1(), make_i3(2)
AD_FIELDS = [tuple(getattr(inst, name) for name in AdInstance._fields) for inst in (I1, I3.base)]
VIOLATION = Violation("nondecreasing", 1.0, 0.5, 0.5, {"a": DiscreteSequence(("s1",))})

# Per type: the arguments of two unequal values, all fields given.
CASES = [
    (ActionSet, (("s1", "s2"),), (["s2", "s1"],)),
    (DiscreteSequence, (["s1", "s2"], ActionSet(("s1", "s2"))), (("s1",), None)),
    (TimedSequence, ((("s", 1), ("t", 0.5)),), ((("s", 1.0),),)),
    (SequenceFunction, ("discrete", len, 2.0), ("continuous", len, 2.0)),
    (Violation, ("nondecreasing", 1.0, 0.5, 0.5, {"a": DiscreteSequence(("s1",))}), ("submodular", 1.0, 0.5, 0.5, {})),
    (CheckReport, ("nondecreasing", 3, (VIOLATION,), {"fd_points": 2}), ("nondecreasing", 3, (), {})),
    (AdInstance, *AD_FIELDS),
    (Configuration, ((("t2", ("a2",)), ("t1", ["a2", "a1"])),), ((("t1", ("a1",)),),)),
    (SpendLedger, (("a1", "a2"), (0.5, 0.25), 0.75, (0.5,)), (("a1", "a2"), (0.5, 0.25), 0.75, ())),
    (Rewrite, ("r1", ("a1", "a2")), ("r2", ("a1", "a2"))),
    (RewriteInstance, (I3.base, I3.rewrites, 2), (I3.base, I3.rewrites, 1)),
    (PartialAllocation, ("t1", ["r1"], (0.5, 0)), ("t1", ("r1", "r2"), (0.5, 0.0))),
    (OptResult, (1.5, ("a1", 0.75), Fraction(3, 2)), (1.5, ("a1", 0.75), None)),
    (StreamConfig, (7, 10, 100), (7, 10, None)),
    (SimResult, ((1.0, 2.0), 1.5, 0.5, 1.4), ((1.0,), 1.0, 0.0, 1.4)),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def twin_of(cls):
    """`cls` as a frozen dataclass: the same class body, without the `Frozen` base."""
    body = {key: value for key, value in vars(cls).items() if key not in ("_fields", "__dict__", "__weakref__")}
    for name in cls._fields:
        if isinstance(body.get(name), dict):
            body[name] = dataclasses.field(default_factory=dict)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))


def _hash(value):
    try:
        return hash(value)
    except TypeError as exc:  # a dict field
        return str(exc)


def _outcome(build, args, kwargs) -> str:
    """The repr of `build(*args, **kwargs)`, or the name of the exception it raised."""
    try:
        return repr(build(*args, **kwargs))
    except (TypeError, ValueError) as exc:
        return type(exc).__name__


def test_every_value_type_is_covered():
    assert {cls for cls, _, _ in CASES} == set(Frozen.__subclasses__()) and len(CASES) == 15


@pytest.mark.parametrize("cls, args, other", CASES, ids=IDS)
def test_value_semantics_match_a_frozen_dataclass(cls, args, other):
    twin = twin_of(cls)
    value, same, different = cls(*args), cls(*args), cls(*other)
    want, want_different = twin(*args), twin(*other)
    assert [f.name for f in dataclasses.fields(twin)] == list(cls._fields)
    assert repr(value) == repr(want) and repr(different) == repr(want_different)
    assert _hash(value) == _hash(want) == _hash(same) and _hash(different) == _hash(want_different)
    assert (value == same, value != same, value == different, value != different) == (True, False, False, True)
    assert (want == twin(*args), want == want_different) == (True, False)
    # Another class never compares equal, the twin included: both sides return NotImplemented.
    for stranger in (want, object(), args):
        assert value.__eq__(stranger) is NotImplemented and want.__eq__(value) is NotImplemented
        assert not value == stranger and value != stranger
    # The constructor binds positions, keywords and defaults as the dataclass's
    # does, and refuses what it refuses.
    calls = [((*args[:count],), dict(zip(cls._fields[count:], args[count:]))) for count in range(len(args) + 1)]
    calls += [((*args, None), {}), (args[:-1], {}), ((), {})]
    calls += [(args, {"no_such_field": 1}), (args, {cls._fields[0]: 1})]
    for call_args, call_kwargs in calls:
        assert _outcome(cls, call_args, call_kwargs) == _outcome(twin, call_args, call_kwargs)
    assert _outcome(cls, args, {cls._fields[0]: 1}) == "TypeError"


@pytest.mark.parametrize("cls, args, other", CASES, ids=IDS)
def test_values_pickle_as_a_frozen_dataclass_does(cls, args, other):
    twin = twin_of(cls)
    value, want = cls(*args), twin(*args)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        got, expected = value.__reduce_ex__(protocol), want.__reduce_ex__(protocol)
        assert got[1] == (cls,) and expected[1] == (twin,)
        assert (got[0], *got[2:]) == (expected[0], *expected[2:])
        loaded = pickle.loads(pickle.dumps(value, protocol))
        assert type(loaded) is cls and loaded == value and repr(loaded) == repr(value)
        assert _hash(loaded) == _hash(value)


@pytest.mark.parametrize("cls, args, other", CASES, ids=IDS)
def test_values_refuse_assignment_and_deletion(cls, args, other):
    for value in (cls(*args), twin_of(cls)(*args)):
        for name in (cls._fields[0], "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == repr(twin_of(cls)(*args))


def test_default_dicts_are_not_shared():
    a, b = Violation("mono", 1.0, 0.0, 1.0), Violation("mono", 1.0, 0.0, 1.0)
    assert a.witness == b.witness == {} and a.witness is not b.witness
    a.witness["x"] = 1
    assert b.witness == {} and Violation("mono", 1.0, 0.0, 1.0).witness == {}
    c, d = CheckReport("mono", 0), CheckReport("mono", 0)
    assert c.details == d.details == {} and c.details is not d.details


def test_plan_repr_is_pinned():
    # verify writes witnesses with repr; no planted-violation report holds a
    # plan, so its format is pinned here.
    plan = DiscreteSequence((PartialAllocation("t1", ["r1", "r2"], (0.5, 0)), PartialAllocation("t2", (), ())))
    assert repr(plan) == (
        "DiscreteSequence(items=(PartialAllocation(query_type='t1', rewrites=('r1', 'r2'), caps=(0.5, 0.0)), "
        "PartialAllocation(query_type='t2', rewrites=(), caps=())), actions=None)"
    )
