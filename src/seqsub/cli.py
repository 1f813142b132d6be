"""Command-line surface: run the allocators, the simulator and the checkers
against JSON instances and emit deterministic reports.

Commands:

  seqsub allocate --instance ad.json [--oracle] [--out report.json]
  seqsub rewrite  --instance rw.json [--oracle] [--out report.json]
  seqsub simulate --instance ad.json --trials N --seed S [--queries Q]
  seqsub verify   --instance ad.json --checks mono,submod,deriv,lemma1
                  --samples N --seed S

Commands are pure: each `cmd_*` maps the parsed arguments and the instance's
JSON object to the report's params, its outputs and its exit code.  `main`
owns the file I/O, stdout and stderr, and the exit codes of errors.

Reports are one line of key-sorted JSON from json's C encoder (pipe one
through `python -m json.tool` to pretty-print it), byte-identical across runs
with the same inputs and seeds.  stderr gets only `error:` and `warning:`
lines and the wall-clock `finished in` line.  Exit codes: 0 success, 1
property violation, 2 input error (also a report that cannot be written, or
`simulate` without numpy, the `seqsub[simulate]` extra), 3 oracle size guard.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import json
import math
import os
import sys
import time
import warnings
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
    except (ValueError, RecursionError) as exc:  # also too many digits, or nesting too deep
        raise InstanceError(f"instance: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InstanceError("instance: the top level must be a JSON object")
    return data, hashlib.sha256(raw).hexdigest()


def _emit(args, digest: str, params: dict, outputs: dict) -> None:
    """Write the report envelope for one command run to `--out` or stdout."""
    report = {
        "command": args.command,
        "instance_sha256": digest,
        "params": params,
        "outputs": outputs,
    }
    text = json.dumps(report, sort_keys=True) + "\n"
    try:
        if args.out:
            Path(args.out).write_text(text)
        elif sys.stdout is None:  # the process started with fd 1 closed
            raise InstanceError("out: cannot write stdout: file descriptor 1 is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:  # a full disk, a missing directory, or a closed pipe
        raise InstanceError(f"out: cannot write {args.out or 'stdout'}: {exc.strerror}") from None


def _oracle_fields(optimum: float, utility: float, bound: float) -> dict:
    """The report fields that set the greedy's utility against the exact optimum."""
    return {"optimum": optimum, "ratio": utility / optimum if optimum > 0.0 else 1.0, "ratio_bound": bound}


def cmd_allocate(args, data: dict) -> Tuple[dict, dict, int]:
    instance = adalloc.parse_instance(data)
    strategy, ledger = adalloc.greedy_allocate(instance)
    outputs: Dict[str, object] = {
        "utility": ledger.utility,
        "strategy": [
            {"config": {t: list(ads) for t, ads in config.assignment}, "duration": dur}
            for config, dur in strategy.segments
        ],
        "breakpoints": list(ledger.breakpoints),
        "spend": {ad: s for ad, s in zip(ledger.ad_ids, ledger.spent) if s > 0.0},
        "segments": len(strategy.segments),
    }
    if args.oracle:
        from . import oracle  # loads fractions and decimal, which the greedy never needs
        opt = oracle.lp_opt_fluid(instance)
        outputs.update(_oracle_fields(opt.value, ledger.utility, CONTINUOUS_RATIO_BOUND))
        outputs["optimum_spend"] = {f"{ad}/{tid}": z for (ad, tid), z in opt.witness.items()}
    return {"oracle": bool(args.oracle)}, outputs, EXIT_OK


def cmd_rewrite(args, data: dict) -> Tuple[dict, dict, int]:
    instance = qrewrite.parse_rewrite_instance(data)
    plan, utility = qrewrite.greedy_rewrite(instance)
    types = [pa.query_type for pa in plan.items]
    outputs: Dict[str, object] = {
        "utility": utility,
        "plan": [
            {
                "type": pa.query_type,
                "rewrites": list(pa.rewrites),
                "consumed": {ad: cap for ad, cap in zip(instance.base.ad_ids, pa.caps) if cap > 0.0},
            }
            for pa in plan.items
        ],
        "duplicate_types": len(set(types)) != len(types),
    }
    if args.oracle:
        from . import oracle
        outputs.update(_oracle_fields(oracle.brute_force_rewrite_opt(instance).value, utility, REWRITE_RATIO_BOUND))
    return {"oracle": bool(args.oracle)}, outputs, EXIT_OK


def cmd_simulate(args, data: dict) -> Tuple[dict, dict, int]:
    try:
        from . import stochsim  # loads numpy, which no other command needs
    except ImportError as exc:
        if exc.name != "numpy":
            raise
        raise InstanceError("simulate needs numpy: pip install 'seqsub[simulate]'") from None
    instance = adalloc.parse_instance(data)
    cfg = stochsim.StreamConfig(seed=args.seed, trials=args.trials, query_count=args.queries)
    cfg.queries(instance)  # rejects a bad count before any work is done
    strategy, _ = adalloc.greedy_allocate(instance)
    result = stochsim.simulate_stream(instance, strategy, cfg)
    outputs = {
        "mean": result.mean,
        "std": result.std,
        "fluid": result.fluid_utility,
        "trials": len(result.revenues),
        "rng": "numpy-pcg64",
        "seed": args.seed,
    }
    if args.per_trial:
        outputs["per_trial"] = list(result.revenues)
    params = {
        "queries": args.queries,
        "per_trial": bool(args.per_trial),
        "seed": args.seed,
        "trials": args.trials,
    }
    return params, outputs, EXIT_OK


def _violation_json(v: seqcore.Violation) -> dict:
    return {
        "check": v.check,
        "lhs": v.lhs,
        "rhs": v.rhs,
        "gap": v.gap,
        "witness": {k: repr(x) for k, x in sorted(v.witness.items())},
    }


def cmd_verify(args, data: dict) -> Tuple[dict, dict, int]:
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
    model = adalloc.FluidRateModel(instance)
    utility = model.sequence_function()
    if args.planted_violation:
        # Negative control: a decreasing utility the checkers must catch, scaled like its lengths.
        utility = seqcore.SequenceFunction("continuous", lambda seq: -seq.length, instance.horizon)
    # (utility, sampler) pairs; each check and pair keeps its own seed in seed..seed+5.
    pairs = [(utility, model.random_prefix)]
    if rewrite_instance is not None:
        plans = functools.partial(qrewrite.random_plan, rewrite_instance)
        pairs.append((qrewrite.plan_function(rewrite_instance), plans))
    samples, seed = args.samples, args.seed
    reports: List[seqcore.CheckReport] = []
    if "mono" in checks:
        for k, (u, sample) in enumerate(pairs):
            reports.append(seqcore.check_nondecreasing(u, sample, samples, seed=seed + k))
    if "submod" in checks:
        for k, (u, sample) in enumerate(pairs):
            reports.append(seqcore.check_submodular(u, sample, samples, seed=seed + 2 + k))
    if "deriv" in checks:
        reports.append(seqcore.check_derivative_props(model, samples, seed=seed + 4))
    if "lemma1" in checks:
        reports.append(seqcore.check_rate_gain_bound(model, samples, seed=seed + 5))
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
    params = {"checks": checks, "samples": samples, "seed": seed}
    return params, outputs, EXIT_OK if total_violations == 0 else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqsub",
        description="Greedy sequence maximization: ad allocation, query rewriting, simulation, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--instance", required=True, help="instance JSON file")
    files.add_argument("--out", help="report path (stdout when omitted)")

    p = sub.add_parser("allocate", parents=[files], help="run the greedy fluid allocator")
    p.add_argument("--oracle", action="store_true", help="also solve the exact LP optimum")
    p.set_defaults(func=cmd_allocate)

    p = sub.add_parser("rewrite", parents=[files], help="run the greedy query-rewriting optimizer")
    p.add_argument("--oracle", action="store_true", help="also enumerate the exact optimum")
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("simulate", parents=[files], help="Monte Carlo query stream vs the fluid utility")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--queries", type=int, default=None, help="queries per trial (default round(horizon)); "
                   "each pays in full, so mean runs at queries/horizon times fluid's arrival rate")
    p.add_argument("--per-trial", action="store_true", help="include per-trial revenues in the report")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[files], help="sample the structural properties the guarantees rely on")
    p.add_argument("--checks", default=",".join(CHECK_NAMES), help="comma list: mono,submod,deriv,lemma1")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--planted-violation", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)
    return parser


def _note(line: str) -> None:
    """Write `line` to stderr if it can be written there; no report or exit code depends on it."""
    with contextlib.suppress(OSError):  # a read-only or otherwise unwritable fd 2
        if sys.stderr is not None:  # None if fd 2 was closed at start: `print` would write to stdout
            print(line, file=sys.stderr)  # stderr writes through to fd 2 line by line


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        data, digest = _load_json(Path(args.instance))
        params, outputs, code = args.func(args, data)
        _emit(args, digest, params, outputs)
    except (InstanceError, SizeGuardError) as exc:
        _note(f"error: {exc}")
        return EXIT_GUARD if isinstance(exc, SizeGuardError) else EXIT_INPUT
    _note(f"{args.command} finished in {time.monotonic() - started:.3f}s")
    return code


def entry() -> None:
    """The process entry of `seqsub` and `python -m seqsub`.

    No command makes a BLAS call, so the numpy that `simulate` imports gets no
    idle BLAS thread, unless the caller set OMP_ or OPENBLAS_NUM_THREADS.
    A run makes only a fixed handful of cyclic garbage whatever its input, so
    the cycle collector is off, and once `main` returns the process flushes
    stdout (stderr writes through) and ends with `os._exit`, skipping the
    interpreter's teardown.  An exception out of `main`, argparse's exit too,
    takes the normal path.  Each warning, such as `greedy_rewrite`'s on a
    clamped k, is noted as one `warning:` line, not Python's file path and
    source line.  `main` changes none of these, as tests and library callers need.
    """
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    gc.disable()
    warnings.showwarning = lambda message, *_, **__: _note(f"warning: {message}")
    code = main()
    try:
        if sys.stdout is not None:  # None when the process started with fd 1 closed
            sys.stdout.flush()
    except OSError:  # only where `_emit` failed to flush the report, and has said so
        code = EXIT_INPUT
    os._exit(code)
