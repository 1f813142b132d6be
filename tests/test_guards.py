"""Library entry points refuse bad arguments with a message that names the problem."""

import pytest

from seqsub import adalloc, oracle, qrewrite, seqcore, stochsim
from seqsub.adalloc import Configuration, InstanceError
from seqsub.seqcore import ActionSet, DiscreteSequence, SequenceFunction, TimedSequence

from conftest import make_i1, make_i3

I1 = make_i1()
A1 = Configuration.of({"t1": ("a1",)})
ACTIONS = ActionSet(("s1", "s2"))
DISCRETE = SequenceFunction("discrete", lambda s: float(len(s.items)))
CONTINUOUS = SequenceFunction("continuous", lambda s: s.length)


def _many_configurations():
    """3 ads on each of 6 types with 3 slots: 8 options per type, 8^6 configurations."""
    types = [f"t{j}" for j in range(6)]
    return adalloc.AdInstance.build(
        [(f"a{i}", 1.0) for i in range(3)],
        [(t, 1.0 / 6) for t in types],
        {f"a{i}": {t: 1.0 for t in types} for i in range(3)},
        3,
        1.0,
    )


GUARDS = [
    ("repeated-ad", lambda: Configuration.of({"t": ("a", "a")}), ValueError, "duplicate ad in assignment for type 't'"),
    ("budget-vector-length", lambda: adalloc.revenue_rate(I1, A1, [0.5]), ValueError, "budget vector has 1 entries for 2 ads"),
    ("negative-budget", lambda: adalloc.revenue_rate(I1, A1, [-1.0, 0.5]), ValueError, "remaining budgets must be >= 0"),
    ("configuration-cap", lambda: adalloc.enumerate_configurations(_many_configurations()), ValueError,
     "262144 configurations exceed the cap of 10\\^5"),
    ("instance-not-object", lambda: adalloc.parse_instance([1, 2]), InstanceError, "instance: must be an object"),
    ("caps-length", lambda: qrewrite.single_type_allocate(make_i3(1).base, "t1", {0}, [1.0]), ValueError,
     "budget vector has 1 entries for 2 ads"),
    ("repeated-rewrite", lambda: qrewrite.PartialAllocation("t1", ("r1", "r1"), (1.0, 1.0)), ValueError,
     "duplicate rewrite in a partial allocation"),
    ("negative-cap", lambda: qrewrite.PartialAllocation("t1", ("r1",), (-1.0,)), ValueError, "caps must be >= 0"),
    ("dominates-kinds", lambda: seqcore.dominates(DiscreteSequence(("s1",)), TimedSequence(())), TypeError,
     "cannot compare sequences of different kinds"),
    ("unknown-kind", lambda: SequenceFunction("fluid", len), ValueError, "unknown sequence function kind 'fluid'"),
    ("greedy-discrete-kind", lambda: seqcore.greedy_discrete(CONTINUOUS, ACTIONS, 1), ValueError,
     "greedy_discrete needs a discrete sequence function"),
    ("greedy-continuous-horizon", lambda: seqcore.greedy_continuous(None, ACTIONS, -1.0), ValueError,
     "horizon must be non-negative"),
    ("brute-force-horizon", lambda: oracle.brute_force_discrete(DISCRETE, ACTIONS, -1), ValueError,
     "horizon must be non-negative"),
    ("overlong-strategy", lambda: stochsim.simulate_stream(I1, TimedSequence(((A1, 2.0),)), stochsim.StreamConfig(0, 1)),
     ValueError, "strategy length exceeds horizon"),
    ("scale-factor", lambda: stochsim.scale_instance(I1, 0.0), ValueError, "scale factor must be > 0"),
]


@pytest.mark.parametrize("call, error, message", [g[1:] for g in GUARDS], ids=[g[0] for g in GUARDS])
def test_bad_arguments_raise_naming_the_problem(call, error, message):
    with pytest.raises(error, match=f"^{message}"):
        call()


def test_nonzero_empty_value_is_reported_first():
    # u(empty) = 1 and u shrinks as the sequence grows: the empty value comes
    # ahead of the sampled violations.
    u = SequenceFunction("discrete", lambda s: 1.0 - len(s.items))
    report = seqcore.check_nondecreasing(u, lambda rng: DiscreteSequence(("s1", "s2", "s1")), 20)
    checks = [v.check for v in report.violations]
    assert checks[0] == "empty_value" and checks.count("empty_value") == 1
    assert "nondecreasing" in checks[1:]
