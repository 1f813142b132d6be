"""Run one seqsub CLI command in-process with spans around each layer.

    PYTHONPATH=src python3 bench/tracer.py --spans SPANS.json -- allocate --instance ad.json --out r.json

The public layer functions listed in `TARGETS` are wrapped by patching the
module attributes (and every other `seqsub` module that imported the same
object), so calls made inside the package are caught too.  Spans are kept
in memory as [name, start, end, parent index, attrs] and written out once,
when the command has finished.  The exit code is the command's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import types
from typing import Callable, List, Optional

from seqsub import adalloc, cli, oracle, qrewrite, seqcore, stochsim

Attrs = Optional[Callable[[tuple, dict, object], dict]]


def _greedy_attrs(args, kwargs, result) -> dict:
    strategy, ledger = result
    return {"events": len(ledger.breakpoints), "segments": len(strategy.segments)}


def _sim_attrs(args, kwargs, result) -> dict:
    instance, _, config = args
    queries = config.query_count if config.query_count is not None else round(instance.horizon)
    fluid = result.fluid_utility
    gap = abs(result.mean - fluid) / fluid if fluid > 0.0 else 0.0
    return {"queries": len(result.revenues) * queries, "fluid_gap": gap}


def _check_attrs(args, kwargs, result) -> dict:
    return {"samples_tested": result.samples_tested}


# (owner, attribute, span name, attrs).  Public functions only, so that
# private helpers can change without breaking a span.
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "cmd_allocate", "cli.cmd_allocate", None),
    (cli, "cmd_rewrite", "cli.cmd_rewrite", None),
    (cli, "cmd_simulate", "cli.cmd_simulate", None),
    (cli, "cmd_verify", "cli.cmd_verify", None),
    (adalloc, "parse_instance", "cli.load.parse_instance", None),
    (qrewrite, "parse_rewrite_instance", "cli.load.parse_rewrite_instance", None),
    (adalloc, "greedy_allocate", "adalloc.greedy_allocate", _greedy_attrs),
    (adalloc, "best_configuration", "adalloc.best_configuration", None),
    (adalloc, "revenue_rate", "adalloc.revenue_rate", None),
    (adalloc, "evaluate_strategy", "adalloc.evaluate_strategy", None),
    (adalloc, "marginal_rate", "adalloc.marginal_rate", None),
    (adalloc.FluidRateModel, "utility", "adalloc.utility", None),
    (adalloc.FluidRateModel, "breakpoints", "adalloc.breakpoints", None),
    (qrewrite, "greedy_rewrite", "qrewrite.greedy_rewrite", None),
    (qrewrite, "best_rewrite_set", "qrewrite.best_rewrite_set", None),
    (qrewrite, "single_type_allocate", "qrewrite.single_type_allocate", None),
    (qrewrite, "evaluate_plan", "qrewrite.evaluate_plan", None),
    (stochsim, "simulate_stream", "stochsim.simulate_stream", _sim_attrs),
    (seqcore, "check_nondecreasing", "seqcore.check_nondecreasing", _check_attrs),
    (seqcore, "check_submodular", "seqcore.check_submodular", _check_attrs),
    (seqcore, "check_derivative_props", "seqcore.check_derivative_props", _check_attrs),
    (seqcore, "check_rate_gain_bound", "seqcore.check_rate_gain_bound", _check_attrs),
    (seqcore.SequenceFunction, "__call__", "seqcore.utility", None),
    (oracle, "lp_opt_fluid", "oracle.lp_opt_fluid", None),
    (oracle, "brute_force_rewrite_opt", "oracle.brute_force_rewrite_opt", None),
]


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []

    def wrap(self, fn: Callable, name: str, attrs: Attrs) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if attrs is not None:
                spans[idx][4] = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "seqsub" or n.startswith("seqsub.")]
        for owner, attr, name, attrs in TARGETS:
            original = getattr(owner, attr)
            wrapped = self.wrap(original, name, attrs)
            setattr(owner, attr, wrapped)
            # Re-bind names other modules imported with `from ... import`.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        # JSON load and emit inside the CLI, through a copy of the json module.
        proxy = types.ModuleType("json")
        proxy.__dict__.update(json.__dict__)
        proxy.loads = self.wrap(json.loads, "cli.load.json_loads", None)
        proxy.dumps = self.wrap(json.dumps, "cli.emit.json_dumps", None)
        cli.json = proxy

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the seqsub arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(command)
    finally:
        tracer.write(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
