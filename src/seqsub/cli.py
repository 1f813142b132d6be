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
import functools
import hashlib
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import adalloc, qrewrite, seqcore
from .adalloc import InstanceError, SizeGuardError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_GUARD = 3

CHECK_NAMES = ("mono", "submod", "deriv", "lemma1")
CONTINUOUS_RATIO_BOUND = 1.0 - math.exp(-1.0)
REWRITE_RATIO_BOUND = 1.0 - math.exp(-(1.0 - 1.0 / math.e))
# How json writes the floats whose repr is not JSON.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _load_json(path: Path) -> Tuple[dict, str]:
    """The instance file's JSON object and the sha256 of the bytes it was parsed from.

    `json.loads` detects UTF-8, -16 or -32 (with or without a byte-order
    mark) from the bytes, so the parse does not depend on the host locale.
    """
    try:
        raw = path.read_bytes()
        data = json.loads(raw)
    except OSError as exc:
        raise InstanceError(f"instance: cannot read {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InstanceError(f"instance: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InstanceError("instance: the top level must be a JSON object")
    return data, hashlib.sha256(raw).hexdigest()


def _strategy_json(strategy) -> list:
    return [
        {"config": {t: list(ads) for t, ads in config.assignment}, "duration": dur}
        for config, dur in strategy.segments
    ]


def _write(value, out: list, indent: str) -> None:
    """Append `value` to `out` as `json.dumps(value, sort_keys=True, indent=2)` writes it.

    `indent` opens a line at the value's depth.  This is the dispatch of json's
    pure-Python indenting encoder, with its C string escaper; a non-str key or
    a non-JSON type raises `TypeError`.
    """
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        out.append(_NON_FINITE.get(text, text))
    elif isinstance(value, (list, tuple)):
        inner, sep = indent + "  ", "["
        for item in value:
            out.append(sep + inner)
            sep = ","
            _write(item, out, inner)
        out.append(indent + "]" if value else "[]")
    elif isinstance(value, dict):
        inner, sep = indent + "  ", "{"
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + inner + encode_basestring_ascii(key) + ": ")
            sep = ","
            _write(value[key], out, inner)
        out.append(indent + "}" if value else "{}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(args, digest: str, params: dict, outputs: dict) -> None:
    """Write the report envelope for one command run to `--out` or stdout."""
    report = {
        "command": args.command,
        "instance_sha256": digest,
        "params": params,
        "outputs": outputs,
    }
    out: list = []
    _write(report, out, "\n")
    text = "".join(out) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise InstanceError(f"out: cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def cmd_allocate(args) -> int:
    data, digest = _load_json(Path(args.instance))
    instance = adalloc.parse_instance(data)
    strategy, ledger = adalloc.greedy_allocate(instance)
    outputs: Dict[str, object] = {
        "utility": ledger.utility,
        "strategy": _strategy_json(strategy),
        "breakpoints": list(ledger.breakpoints),
        "spend": {ad: s for ad, s in zip(ledger.ad_ids, ledger.spent) if s > 0.0},
        "segments": len(strategy.segments),
    }
    if args.oracle:
        from . import oracle  # loads fractions and decimal, which the greedy never needs
        opt = oracle.lp_opt_fluid(instance)
        outputs["optimum"] = opt.value
        outputs["ratio"] = ledger.utility / opt.value if opt.value > 0.0 else 1.0
        outputs["ratio_bound"] = CONTINUOUS_RATIO_BOUND
        outputs["optimum_spend"] = {f"{ad}/{tid}": z for (ad, tid), z in opt.witness.items()}
    _emit(args, digest, {"oracle": bool(args.oracle)}, outputs)
    return EXIT_OK


def cmd_rewrite(args) -> int:
    data, digest = _load_json(Path(args.instance))
    instance = qrewrite.parse_rewrite_instance(data)
    plan, utility = qrewrite.greedy_rewrite(instance)
    types = [pa.query_type for pa in plan.items]
    outputs: Dict[str, object] = {
        "utility": utility,
        "plan": qrewrite.plan_to_json(instance, plan),
        "duplicate_types": len(set(types)) != len(types),
    }
    if args.oracle:
        from . import oracle
        opt = oracle.brute_force_rewrite_opt(instance)
        outputs["optimum"] = opt.value
        outputs["ratio"] = utility / opt.value if opt.value > 0.0 else 1.0
        outputs["ratio_bound"] = REWRITE_RATIO_BOUND
    _emit(args, digest, {"oracle": bool(args.oracle)}, outputs)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import stochsim  # loads numpy, which no other command needs
    data, digest = _load_json(Path(args.instance))
    instance = adalloc.parse_instance(data)
    cfg = stochsim.StreamConfig(seed=args.seed, trials=args.trials, query_count=args.queries)
    cfg.queries(instance)  # rejects a bad count before any work is done
    strategy, _ = adalloc.greedy_allocate(instance)
    result = stochsim.simulate_stream(instance, strategy, cfg)
    outputs = result.to_json(include_per_trial=args.per_trial)
    outputs["seed"] = args.seed
    params = {
        "queries": args.queries,
        "per_trial": bool(args.per_trial),
        "seed": args.seed,
        "trials": args.trials,
    }
    _emit(args, digest, params, outputs)
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
        # Negative control: a decreasing utility the checkers must catch, scaled like its lengths.
        utility = seqcore.SequenceFunction("continuous", lambda seq: -seq.length, instance.horizon)
    # (utility, sampler) pairs; each check and pair keeps its own seed in seed..seed+5.
    pairs = [(utility, model.random_prefix)]
    if rewrite_instance is not None:
        plans = functools.partial(qrewrite.random_plan, rewrite_instance)
        pairs.append((qrewrite.plan_function(rewrite_instance), plans))
    reports: List[seqcore.CheckReport] = []
    if "mono" in checks:
        for k, (u, sample) in enumerate(pairs):
            reports.append(seqcore.check_nondecreasing(u, sample, samples, seed=seed + k))
    if "submod" in checks:
        for k, (u, sample) in enumerate(pairs):
            reports.append(seqcore.check_submodular(u, sample, sample, samples, seed=seed + 2 + k))
    if "deriv" in checks:
        reports.append(seqcore.check_derivative_props(model, samples, seed=seed + 4))
    if "lemma1" in checks:
        reports.append(seqcore.check_rate_gain_bound(model, samples, seed=seed + 5))
    return reports


def cmd_verify(args) -> int:
    data, digest = _load_json(Path(args.instance))
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
    _emit(args, digest, {"checks": checks, "samples": args.samples, "seed": args.seed}, outputs)
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
