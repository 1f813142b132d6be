"""Command-line surface: run the allocators, the simulator and the checkers
against JSON instances and emit deterministic reports.

Commands:

  seqsub allocate --instance ad.json [--oracle] [--out report.json]
  seqsub rewrite  --instance rw.json [--oracle] [--out report.json]
  seqsub simulate --instance ad.json --trials N --seed S [--queries Q]
  seqsub verify   --instance ad.json --checks mono,submod,deriv,lemma1
                  --samples N --seed S

Reports are key-sorted JSON, byte-identical across runs with the same inputs
and seeds; wall-clock timing goes to stderr only.  Exit codes: 0 success,
1 property violation, 2 input error, 3 oracle size guard.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import adalloc, oracle, qrewrite, seqcore, stochsim
from .adalloc import InstanceError
from .oracle import SizeGuardError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

CHECK_NAMES = ("mono", "submod", "deriv", "lemma1")
CONTINUOUS_RATIO_BOUND = 1.0 - math.exp(-1.0)
REWRITE_RATIO_BOUND = 1.0 - math.exp(-(1.0 - 1.0 / math.e))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_json(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise InstanceError(f"instance: cannot read {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InstanceError(f"instance: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InstanceError("instance: the top level must be a JSON object")
    return data


def _strategy_json(strategy) -> list:
    return [
        {"config": {t: list(ads) for t, ads in config.assignment}, "duration": dur}
        for config, dur in strategy.segments
    ]


def _emit(args, params: dict, outputs: dict) -> None:
    """Write the report envelope for one command run to `--out` or stdout."""
    report = {
        "command": args.command,
        "instance_sha256": _digest(Path(args.instance)),
        "params": params,
        "outputs": outputs,
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_allocate(args) -> int:
    instance = adalloc.parse_instance(_load_json(Path(args.instance)))
    strategy, ledger = adalloc.greedy_allocate(instance)
    outputs: Dict[str, object] = {
        "utility": ledger.utility,
        "strategy": _strategy_json(strategy),
        "breakpoints": list(ledger.breakpoints),
        "spend": {ad: s for ad, s in zip(ledger.ad_ids, ledger.spent) if s > 0.0},
        "segments": len(strategy.segments),
    }
    if args.oracle:
        opt = oracle.lp_opt_fluid(instance)
        outputs["optimum"] = opt.value
        outputs["ratio"] = ledger.utility / opt.value if opt.value > 0.0 else 1.0
        outputs["ratio_bound"] = CONTINUOUS_RATIO_BOUND
        outputs["optimum_spend"] = {f"{ad}/{tid}": z for (ad, tid), z in opt.witness.items()}
    _emit(args, {"oracle": bool(args.oracle)}, outputs)
    return EXIT_OK


def cmd_rewrite(args) -> int:
    instance = qrewrite.parse_rewrite_instance(_load_json(Path(args.instance)))
    plan, utility = qrewrite.greedy_rewrite(instance)
    outputs: Dict[str, object] = {
        "utility": utility,
        "plan": qrewrite.plan_to_json(instance, plan),
        "duplicate_types": plan.has_duplicate_types,
    }
    if args.oracle:
        opt = oracle.brute_force_rewrite_opt(instance)
        outputs["optimum"] = opt.value
        outputs["ratio"] = utility / opt.value if opt.value > 0.0 else 1.0
        outputs["ratio_bound"] = REWRITE_RATIO_BOUND
    _emit(args, {"oracle": bool(args.oracle)}, outputs)
    return EXIT_OK


def cmd_simulate(args) -> int:
    instance = adalloc.parse_instance(_load_json(Path(args.instance)))
    if args.trials < 1:
        raise InstanceError(f"trials: must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise InstanceError(f"seed: must be >= 0, got {args.seed}")
    if args.queries is not None and args.queries < 1:
        raise InstanceError(f"queries: must be >= 1, got {args.queries}")
    if args.queries is None and round(instance.horizon) < 1:
        raise InstanceError(
            f"horizon: {instance.horizon} rounds to 0 queries per trial; pass --queries"
        )
    strategy, _ = adalloc.greedy_allocate(instance)
    cfg = stochsim.StreamConfig(seed=args.seed, trials=args.trials, query_count=args.queries)
    result = stochsim.simulate_stream(instance, strategy, cfg)
    outputs = result.to_json(include_per_trial=args.per_trial)
    outputs["seed"] = args.seed
    params = {
        "queries": args.queries,
        "per_trial": bool(args.per_trial),
        "seed": args.seed,
        "trials": args.trials,
    }
    _emit(args, params, outputs)
    return EXIT_OK


def _violation_json(v: seqcore.Violation) -> dict:
    return {
        "check": v.check,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "gap": v.gap,
        "witness": {k: repr(x) for k, x in sorted(v.witness.items())},
    }


def _run_checks(
    instance: adalloc.AdInstance,
    rewrite_instance: Optional[qrewrite.RewriteInstance],
    checks: List[str],
    samples: int,
    seed: int,
    planted: bool,
) -> List[seqcore.CheckReport]:
    model = adalloc.FluidRateModel(instance)
    utility = model.sequence_function()
    if planted:
        # Negative control: a deliberately decreasing utility the checkers must catch.
        utility = seqcore.SequenceFunction("continuous", lambda seq: -seq.length)
    sample_strategy = lambda rng: adalloc.random_strategy(instance, rng)
    reports: List[seqcore.CheckReport] = []
    if "mono" in checks:
        reports.append(
            seqcore.check_nondecreasing(utility, sample_strategy, samples, seed=seed)
        )
        if rewrite_instance is not None:
            reports.append(
                seqcore.check_nondecreasing(
                    qrewrite.plan_function(rewrite_instance),
                    lambda rng: qrewrite.random_plan(rewrite_instance, rng),
                    samples,
                    seed=seed + 1,
                )
            )
    if "submod" in checks:
        reports.append(
            seqcore.check_submodular(
                utility, sample_strategy, sample_strategy, samples, seed=seed + 2
            )
        )
        if rewrite_instance is not None:
            gen = lambda rng: qrewrite.random_plan(rewrite_instance, rng)
            reports.append(
                seqcore.check_submodular(
                    qrewrite.plan_function(rewrite_instance), gen, gen, samples, seed=seed + 3
                )
            )
    if "deriv" in checks:
        reports.append(seqcore.check_derivative_props(model, samples, seed=seed + 4))
    if "lemma1" in checks:
        reports.append(seqcore.check_rate_gain_bound(model, samples, seed=seed + 5))
    return reports


def cmd_verify(args) -> int:
    data = _load_json(Path(args.instance))
    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in checks:
        if c not in CHECK_NAMES:
            raise InstanceError(f"checks: unknown check name {c!r} (expected {','.join(CHECK_NAMES)})")
    if not checks:
        raise InstanceError("checks: at least one check name is required")
    if args.samples < 1:
        raise InstanceError(f"samples: must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise InstanceError(f"seed: must be >= 0, got {args.seed}")
    rewrite_instance = None
    if "rewrites" in data:
        rewrite_instance = qrewrite.parse_rewrite_instance(data)
        instance = rewrite_instance.base
    else:
        instance = adalloc.parse_instance(data)
    reports = _run_checks(
        instance, rewrite_instance, checks, args.samples, args.seed, args.planted_violation
    )
    total_violations = sum(len(r.violations) for r in reports)
    outputs = {
        "reports": [
            {
                "check": r.check,
                "samples_tested": r.samples_tested,
                "violations": [_violation_json(v) for v in r.violations],
            }
            for r in reports
        ],
        "violations": total_violations,
    }
    _emit(args, {"checks": checks, "samples": args.samples, "seed": args.seed}, outputs)
    return EXIT_OK if total_violations == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqsub",
        description="Greedy sequence maximization: ad allocation, query rewriting, simulation, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("allocate", help="run the greedy fluid allocator")
    p.add_argument("--instance", required=True, help="ad instance JSON file")
    p.add_argument("--out", help="report path (stdout when omitted)")
    p.add_argument("--oracle", action="store_true", help="also solve the exact LP optimum")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("rewrite", help="run the greedy query-rewriting optimizer")
    p.add_argument("--instance", required=True, help="rewrite instance JSON file")
    p.add_argument("--out", help="report path (stdout when omitted)")
    p.add_argument("--oracle", action="store_true", help="also enumerate the exact optimum")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("simulate", help="Monte Carlo query stream vs the fluid utility")
    p.add_argument("--instance", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--queries", type=int, default=None, help="queries per trial (default round(horizon))")
    p.add_argument("--per-trial", action="store_true", help="include per-trial revenues in the report")
    p.add_argument("--out", help="report path (stdout when omitted)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="sample the structural properties the guarantees rely on")
    p.add_argument("--instance", required=True)
    p.add_argument("--checks", default=",".join(CHECK_NAMES), help="comma list: mono,submod,deriv,lemma1")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="report path (stdout when omitted)")
    p.add_argument("--planted-violation", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code = args.func(args)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    print(f"{args.command} finished in {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


def entry() -> None:
    raise SystemExit(main())
