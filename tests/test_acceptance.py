"""Acceptance gate: one test per shipping criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines.  Every tolerance and runtime bound is pinned here.
"""

import json
import math
import time

import numpy as np

from seqsub import adalloc, oracle, qrewrite, seqcore, stochsim
from seqsub.cli import main as cli_main
from seqsub.seqcore import DiscreteSequence

from conftest import (
    make_i1,
    make_i3,
    random_ad_instance,
    random_coverage,
    random_rewrite_instance,
)

RATIO_CONTINUOUS = 1.0 - math.exp(-1.0)          # ~0.6321
RATIO_HALF_ORACLE = 1.0 - math.exp(-0.5)          # ~0.3935
RATIO_REWRITE = 1.0 - math.exp(-(1.0 - 1.0 / math.e))  # ~0.4685


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {state}{suffix}")
    assert ok, f"criterion {num} {name} failed: {detail}"


def _half_quality_oracle(u, prefix, actions):
    """Any action whose marginal reaches half the best one; picks the last such."""
    gains = [
        (s, seqcore.marginal_value(u, DiscreteSequence((s,), actions), prefix))
        for s in actions
    ]
    threshold = 0.5 * max(g for _, g in gains)
    eligible = [s for s, g in gains if g >= threshold]
    return eligible[-1]


def test_criterion_01_discrete_greedy_ratio():
    started = time.monotonic()
    rng = np.random.default_rng(101)
    worst_exact = worst_half = 1.0
    fixtures = 0
    while fixtures < 200:
        u, actions = random_coverage(rng)
        horizon = int(rng.integers(1, 5))
        opt = oracle.brute_force_discrete(u, actions, horizon)
        exact = u(seqcore.greedy_discrete(u, actions, horizon))
        assert exact >= (1.0 - 1.0 / math.e) * opt.value - 1e-9
        half = u(seqcore.greedy_discrete(u, actions, horizon, oracle=_half_quality_oracle))
        assert half >= RATIO_HALF_ORACLE * opt.value - 1e-9
        if opt.value > 1e-9:
            worst_exact = min(worst_exact, exact / opt.value)
            worst_half = min(worst_half, half / opt.value)
        fixtures += 1
    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    _verdict(
        1,
        "discrete greedy ratio",
        ok,
        f"{fixtures} fixtures, worst exact {worst_exact:.4f} >= {1 - 1/math.e:.4f},"
        f" worst half-oracle {worst_half:.4f} >= {RATIO_HALF_ORACLE:.4f}, {elapsed:.1f}s",
    )


def _criterion_2_instances():
    rng = np.random.default_rng(202)
    return [random_ad_instance(rng) for _ in range(100)]


def test_criterion_02_continuous_greedy_ratio():
    started = time.monotonic()
    worst = 1.0
    for inst in _criterion_2_instances():
        strategy, ledger = adalloc.greedy_allocate(inst)
        opt = oracle.lp_opt_fluid(inst)
        assert ledger.utility >= RATIO_CONTINUOUS * opt.value - 1e-9
        assert ledger.utility <= opt.value + 1e-9
        if opt.value > 1e-9:
            worst = min(worst, ledger.utility / opt.value)
    elapsed = time.monotonic() - started
    ok = elapsed < 60.0
    _verdict(
        2,
        "continuous greedy ratio vs exact LP",
        ok,
        f"100 instances, worst ratio {worst:.4f} >= {RATIO_CONTINUOUS:.4f}, {elapsed:.1f}s",
    )


def test_criterion_03_worked_instance():
    i1 = make_i1()
    strategy, ledger = adalloc.greedy_allocate(i1)
    opt = oracle.lp_opt_fluid(i1)
    checks = [
        abs(ledger.utility - 0.75) <= 1e-9,
        abs(opt.value - 1.0) <= 1e-12,
        ledger.utility / opt.value >= 0.6321,
        len(strategy.segments) == 2,
        abs(strategy.segments[0][1] - 0.5) <= 1e-9,
    ]
    _verdict(
        3,
        "worked two-ad instance",
        all(checks),
        f"utility {ledger.utility}, optimum {opt.value}, "
        f"segments {len(strategy.segments)}, switch {strategy.segments[0][1]}",
    )


def test_criterion_04_condition_suite():
    started = time.monotonic()
    rng = np.random.default_rng(404)
    mono_samples = submod_samples = violations = 0
    instances = 0
    for _ in range(14):
        inst = random_ad_instance(rng, max_ads=3, max_types=3)
        model = adalloc.FluidRateModel(inst)
        u = model.sequence_function()
        gen = lambda r, inst=inst: adalloc.random_strategy(inst, r)
        seed = int(rng.integers(0, 2**31))
        mono = seqcore.check_nondecreasing(u, gen, samples=500, seed=seed)
        submod = seqcore.check_submodular(u, gen, samples=500, seed=seed + 1)
        mono_samples += mono.samples_tested
        submod_samples += submod.samples_tested
        violations += len(mono.violations) + len(submod.violations)
        instances += 1
    for _ in range(10):
        inst = random_rewrite_instance(rng)
        u = qrewrite.plan_function(inst)
        gen = lambda r, inst=inst: qrewrite.random_plan(inst, r)
        seed = int(rng.integers(0, 2**31))
        mono = seqcore.check_nondecreasing(u, gen, samples=350, seed=seed)
        submod = seqcore.check_submodular(u, gen, samples=350, seed=seed + 1)
        mono_samples += mono.samples_tested
        submod_samples += submod.samples_tested
        violations += len(mono.violations) + len(submod.violations)
        instances += 1
    elapsed = time.monotonic() - started
    ok = (
        violations == 0
        and mono_samples >= 10_000
        and submod_samples >= 10_000
        and instances >= 20
        and elapsed < 120.0
    )
    _verdict(
        4,
        "monotone/submodular condition suite",
        ok,
        f"{instances} instances, {mono_samples}+{submod_samples} samples,"
        f" {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_05_derivative_suite():
    started = time.monotonic()
    rng = np.random.default_rng(505)
    fd_points = pairs = violations = 0
    for _ in range(5):
        inst = random_ad_instance(rng, max_ads=3, max_types=3)
        model = adalloc.FluidRateModel(inst)
        report = seqcore.check_derivative_props(
            model, samples=250, seed=int(rng.integers(0, 2**31))
        )
        fd_points += report.details["fd_points"]
        pairs += report.details["monotonicity_pairs"]
        violations += len(report.violations)
    elapsed = time.monotonic() - started
    ok = violations == 0 and fd_points >= 1000 and pairs >= 1000
    _verdict(
        5,
        "derivative suite (finite differences, monotone rates)",
        ok,
        f"{fd_points} smooth points, {pairs} monotonicity pairs,"
        f" {violations} violations, {elapsed:.1f}s",
    )


def test_criterion_06_single_step_gain_bounds():
    rng = np.random.default_rng(606)
    tested_discrete = 0
    for _ in range(25):
        u, actions = random_coverage(rng)
        gen = lambda r, actions=actions: seqcore.random_discrete_sequence(actions, r)
        report = seqcore.check_step_gain_bound(
            u, actions, gen, samples=50, seed=int(rng.integers(0, 2**31))
        )
        assert report.ok, report.violations[:2]
        tested_discrete += report.samples_tested
    tested_continuous = 0
    for _ in range(5):
        inst = random_ad_instance(rng, max_ads=3, max_types=3)
        model = adalloc.FluidRateModel(inst)
        report = seqcore.check_rate_gain_bound(
            model, samples=300, seed=int(rng.integers(0, 2**31))
        )
        assert report.ok, report.violations[:2]
        tested_continuous += report.samples_tested
    ok = tested_discrete >= 1000 and tested_continuous >= 1000
    _verdict(
        6,
        "single-step gain bounds (discrete and rate form)",
        ok,
        f"{tested_discrete} discrete pairs, {tested_continuous} continuous pairs",
    )


def test_criterion_07_configuration_change_bound():
    worst = 0
    for inst in _criterion_2_instances():
        strategy, _ = adalloc.greedy_allocate(inst)
        changes = len(strategy.segments) - 1
        assert changes <= inst.num_ads
        worst = max(worst, changes)
    _verdict(
        7,
        "at most one configuration change per ad",
        True,
        f"max changes {worst} across 100 instances",
    )


def test_criterion_08_rewrite_ratio():
    started = time.monotonic()
    rng = np.random.default_rng(808)
    worst = 1.0
    for _ in range(100):
        inst = random_rewrite_instance(rng)
        _, utility = qrewrite.greedy_rewrite(inst)
        opt = oracle.brute_force_rewrite_opt(inst)
        assert utility >= RATIO_REWRITE * opt.value - 1e-6
        assert utility <= opt.value + 1e-6
        if opt.value > 1e-9:
            worst = min(worst, utility / opt.value)
    elapsed = time.monotonic() - started
    ok = elapsed < 120.0
    _verdict(
        8,
        "rewrite greedy ratio vs enumeration",
        ok,
        f"100 instances, worst ratio {worst:.4f} >= {RATIO_REWRITE:.4f}, {elapsed:.1f}s",
    )


def test_criterion_09_fluid_stochastic_agreement():
    started = time.monotonic()
    scaled = stochsim.scale_instance(make_i1(), 1000.0)
    strategy, _ = adalloc.greedy_allocate(scaled)
    result = stochsim.simulate_stream(
        scaled, strategy, stochsim.StreamConfig(seed=42, trials=1000)
    )
    gap = abs(result.mean - result.fluid_utility) / result.fluid_utility
    deterministic = adalloc.AdInstance.build(
        ads=[("a1", 1.0)],
        query_types=[("t1", 1.0)],
        bids={"a1": {"t1": 0.002}},
        slots=1,
        horizon=1000.0,
    )
    det_strategy, _ = adalloc.greedy_allocate(deterministic)
    det = stochsim.simulate_stream(
        deterministic, det_strategy, stochsim.StreamConfig(seed=7, trials=1)
    )
    elapsed = time.monotonic() - started
    ok = gap < 0.02 and det.mean == det.fluid_utility and elapsed < 60.0
    _verdict(
        9,
        "stochastic stream tracks the fluid value",
        ok,
        f"relative gap {gap:.5f} < 0.02, deterministic exact match {det.mean == det.fluid_utility},"
        f" {elapsed:.1f}s",
    )


def test_criterion_10_cli_determinism(tmp_path):
    i1_path = tmp_path / "i1.json"
    i1_path.write_text(json.dumps(adalloc.instance_to_json(make_i1())))
    i3 = make_i3(2)
    rw = adalloc.instance_to_json(i3.base)
    rw["rewrites"] = [{"id": r.id, "ads": list(r.ads)} for r in i3.rewrites]
    rw["k"] = 2
    rw_path = tmp_path / "i3.json"
    rw_path.write_text(json.dumps(rw))
    commands = [
        ["allocate", "--instance", str(i1_path), "--oracle"],
        ["rewrite", "--instance", str(rw_path), "--oracle"],
        ["simulate", "--instance", str(i1_path), "--trials", "40", "--seed", "9", "--per-trial"],
        ["verify", "--instance", str(i1_path), "--samples", "60", "--seed", "4"],
    ]
    identical = True
    for idx, args in enumerate(commands):
        out1 = tmp_path / f"cmd{idx}_run1.json"
        out2 = tmp_path / f"cmd{idx}_run2.json"
        assert cli_main([*args, "--out", str(out1)]) == 0
        assert cli_main([*args, "--out", str(out2)]) == 0
        identical = identical and out1.read_bytes() == out2.read_bytes()
    _verdict(10, "byte-identical CLI reports", identical, f"{len(commands)} commands, two runs each")
