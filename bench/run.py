"""Benchmark of the seqsub CLI: seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload alloc-stream --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 60      # every workload in turn

Run from the repository root; the program is imported from `src/`.

A workload is one or more parts (workloads.WORKLOADS), each an instance
file and the `seqsub` commands that run on it.  Load model: a closed loop
with one client.  Each iteration runs every part's commands one after
another, each as a fresh `python -m seqsub` process (PYTHONPATH=src,
report written with `--out`), and iterations repeat for about `--seconds`
(at least `MIN_ITERATIONS`).  Every report is checked (see checks.py); a
failed check counts in `failed`.

`--trace 0` reports the end-to-end metrics over the run's iterations:

  wall_norm_s  wall_s at the reference host speed (below; trimmed mean)
  cpu_norm_s   cpu_s at the reference host speed (below; trimmed mean)
  setup_s      wall time of a process that only starts Python and imports
               seqsub.cli: median of SETUP_PER_ITERATION such processes
               before each iteration (and one before the first)
  peak_rss_mb  largest max RSS among the iteration's processes (median; the
               kernel counts the parent's resident set at fork into a
               child's max RSS, so this process never imports the program)

and prints, without reporting them as metrics:

  wall_s       summed wall time of the iteration's commands
  cpu_s        summed user+sys CPU of those processes (os.wait4)
  host_probe_s wall time of the host probe, `python -c "import numpy"`

On a shared host the speed of the same work moves between levels up to
1.6x apart, in phases of tens of seconds, and the import time of a fresh
process follows those levels.  So a host probe, which runs no code of the
program, runs before the first iteration and after each one, and an
iteration's times are scaled by HOST_PROBE_REF_S over the mean of the
probes on either side of it (its CPU time by the probes' CPU time): the
seconds it would take on a host where the probe takes HOST_PROBE_REF_S.
A change to the program moves these as it moves the raw times; a change
of host speed mostly does not.  The trimmed mean drops the fastest and
the slowest tenth of the iterations (at least one of each) and averages
the rest: the median of a run's few iterations jumps between speed
levels, while the trimmed mean averages them and still ignores a lone
outlier.

`failed_frac` (failed commands / commands attempted) is printed on its
own line; the result line carries it as `failed` and `attempted`.

`--trace 1` alternates untraced iterations with traced ones, which run
each command through tracer.py, and reports per-layer self times and
counts from the traced iterations, plus the tracing overhead (traced
minus untraced wall time).

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics.  Run metadata, quartiles and sample counts go to the
lines before it and to `.bench_out/<workload>-seed<seed>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_ITERATIONS = 3
SETUP_PER_ITERATION = 1  # set-up probes run before each iteration, spread over the run
HOST_PROBE = "import numpy"  # host speed probe: the bulk of a CLI start, none of the program
HOST_PROBE_REF_S = 0.25  # probe time of the reference host that the *_norm_s metrics assume
CHILD_TIMEOUT_S = 120.0
RUN_BUDGET_S = 165.0  # stop starting iterations so that a run ends within 180 s

END_TO_END = {"wall_norm_s": "s", "cpu_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
INFO = {"wall_s": "s", "cpu_s": "s", "host_probe_s": "s"}  # printed, not reported

CHECKS = ("check_nondecreasing", "check_submodular", "check_derivative_props", "check_rate_gain_bound")
LAYERS = ("cli", "adalloc", "qrewrite", "stochsim", "seqcore", "oracle")


def per_layer_units() -> Dict[str, str]:
    units = {
        "cli.load_parse_s": "s",
        "cli.emit_s": "s",
        "adalloc.greedy_allocate_s": "s",
        "adalloc.best_configuration_s": "s",
        "adalloc.best_configuration_calls": "count",
        "adalloc.revenue_rate_s": "s",
        "adalloc.revenue_rate_calls": "count",
        "adalloc.evaluate_strategy_s": "s",
        "adalloc.events": "count",
        "adalloc.segments": "count",
        "adalloc.utility_calls": "count",
        "adalloc.us_per_utility_call": "us",
        "adalloc.marginal_rate_calls": "count",
        "adalloc.breakpoints_s": "s",
        "qrewrite.greedy_rewrite_s": "s",
        "qrewrite.best_rewrite_set_calls": "count",
        "qrewrite.single_type_allocate_calls": "count",
        "qrewrite.single_type_allocate_s": "s",
        "qrewrite.us_per_single_type_allocate": "us",
        "qrewrite.evaluate_plan_calls": "count",
        "qrewrite.evaluate_plan_s": "s",
        "stochsim.simulate_stream_s": "s",
        "stochsim.queries_per_s": "1/s",
        "stochsim.fluid_gap": "ratio",
    }
    for check in CHECKS:
        units[f"seqcore.{check}_s"] = "s"
        units[f"seqcore.{check}.us_per_sample"] = "us"
        units[f"seqcore.{check}.samples_tested"] = "count"
    units["seqcore.utility_calls"] = "count"
    units["oracle.lp_opt_fluid_s"] = "s"
    units["oracle.lp_opt_fluid_calls"] = "count"
    units["oracle.brute_force_rewrite_opt_s"] = "s"
    for layer in LAYERS:
        units[f"layer.{layer}_self_s"] = "s"
    units["trace.untraced_wall_s"] = "s"
    units["trace.traced_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()

# Per-layer metrics read straight off one span name: (span, summary key).
SPAN_METRICS = {
    "adalloc.greedy_allocate_s": ("adalloc.greedy_allocate", "self_s"),
    "adalloc.best_configuration_s": ("adalloc.best_configuration", "self_s"),
    "adalloc.best_configuration_calls": ("adalloc.best_configuration", "calls"),
    "adalloc.revenue_rate_s": ("adalloc.revenue_rate", "self_s"),
    "adalloc.revenue_rate_calls": ("adalloc.revenue_rate", "calls"),
    "adalloc.evaluate_strategy_s": ("adalloc.evaluate_strategy", "self_s"),
    "adalloc.events": ("adalloc.greedy_allocate", "events"),
    "adalloc.segments": ("adalloc.greedy_allocate", "segments"),
    "adalloc.utility_calls": ("adalloc.utility", "calls"),
    "adalloc.marginal_rate_calls": ("adalloc.marginal_rate", "calls"),
    "adalloc.breakpoints_s": ("adalloc.breakpoints", "self_s"),
    "qrewrite.greedy_rewrite_s": ("qrewrite.greedy_rewrite", "self_s"),
    "qrewrite.best_rewrite_set_calls": ("qrewrite.best_rewrite_set", "calls"),
    "qrewrite.single_type_allocate_calls": ("qrewrite.single_type_allocate", "calls"),
    "qrewrite.single_type_allocate_s": ("qrewrite.single_type_allocate", "self_s"),
    "qrewrite.evaluate_plan_calls": ("qrewrite.evaluate_plan", "calls"),
    "qrewrite.evaluate_plan_s": ("qrewrite.evaluate_plan", "self_s"),
    "stochsim.simulate_stream_s": ("stochsim.simulate_stream", "self_s"),
    "stochsim.fluid_gap": ("stochsim.simulate_stream", "fluid_gap"),
    "seqcore.utility_calls": ("seqcore.utility", "calls"),
    "oracle.lp_opt_fluid_s": ("oracle.lp_opt_fluid", "self_s"),
    "oracle.lp_opt_fluid_calls": ("oracle.lp_opt_fluid", "calls"),
    "oracle.brute_force_rewrite_opt_s": ("oracle.brute_force_rewrite_opt", "self_s"),
}
for _check in CHECKS:
    SPAN_METRICS[f"seqcore.{_check}_s"] = (f"seqcore.{_check}", "self_s")
    SPAN_METRICS[f"seqcore.{_check}.samples_tested"] = (f"seqcore.{_check}", "samples_tested")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SEQSUB_THREADS", None)  # the program gets files and flags only
    # Children load cached bytecode, as an installed package would, whatever
    # the caller's environment says; the first set-up probe writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: List[str], stderr_path: Path) -> Child:
    """Run one process to completion; kill it after CHILD_TIMEOUT_S."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err)
        old = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def measure_setup(tmp: Path, samples: int) -> List[float]:
    """Wall times of processes that only start Python and import seqsub.cli."""
    walls = []
    for _ in range(samples):
        child = run_child([sys.executable, "-c", "import seqsub.cli"], tmp / "setup.err")
        if child.code != 0:
            raise BenchError(f"importing seqsub.cli failed:\n{(tmp / 'setup.err').read_text()[-2000:]}")
        walls.append(child.wall_s)
    return walls


def probe_host(tmp: Path) -> Child:
    """One run of the host probe, which imports numpy and nothing of the program."""
    child = run_child([sys.executable, "-c", HOST_PROBE], tmp / "probe.err")
    if child.code != 0:
        raise BenchError(f"the host probe failed:\n{(tmp / 'probe.err').read_text()[-2000:]}")
    return child


def normalized(values: List[float], probes: List[float]) -> List[float]:
    """Scale each iteration to the reference host speed by the probes on either side of it."""
    return [v * HOST_PROBE_REF_S / ((before + after) / 2.0)
            for v, before, after in zip(values, probes, probes[1:])]


# ---------------------------------------------------------------------------
# Iterations
# ---------------------------------------------------------------------------

@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    rss_mb: float
    spans: Optional[Dict[str, List[list]]] = None


@dataclass
class Part:
    work: workloads.Workload
    instance: Path
    checker: checks.Checker


def make_parts(name: str, seed: int, tmp: Path, reference: dict) -> List[Part]:
    """Generate the workload's instance files and a checker for each part."""
    parts = []
    for work in workloads.parts_of(name, seed):
        instance = tmp / f"{work.name}.instance.json"
        instance.write_bytes(workloads.dumps(work.instance))
        parts.append(Part(work, instance, checks.Checker(work, instance, reference)))
    return parts


def run_iteration(parts: List[Part], tmp: Path, traced: bool) -> Iteration:
    wall = cpu = rss = 0.0
    spans: Dict[str, List[list]] = {}
    for part in parts:
        for label, _ in part.work.commands:
            key = f"{part.work.name}.{label}"
            out = tmp / f"{key}.json"
            spans_path = tmp / f"{key}.spans.json"
            for stale in (out, spans_path):
                stale.unlink(missing_ok=True)
            argv = part.work.argv(label, part.instance) + ["--out", str(out)]
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans_path), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "seqsub", *argv]
            child = run_child(cmd, tmp / f"{key}.err")
            if not part.checker.record(label, child.code, out):
                tail = (tmp / f"{key}.err").read_text(errors="replace")[-2000:]
                print(f"FAILED {key}: {part.checker.problems[-1]}\n{tail}", file=sys.stderr)
            if traced and spans_path.exists():
                spans[key] = json.loads(spans_path.read_text())["spans"]
            wall += child.wall_s
            cpu += child.cpu_s
            rss = max(rss, child.rss_mb)
    return Iteration(wall, cpu, rss, spans if traced else None)


def summarize(spans: List[list]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, summed attrs.

    A span's self time is its duration minus the durations of its direct
    children, which nest strictly inside it (the program is single-threaded).
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: Dict[str, Dict[str, float]] = {}
    for (name, start, end, _, attrs), inner in zip(spans, child_time):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - inner
        for key, value in (attrs or {}).items():
            row[key] = row.get(key, 0) + value
    return out


def layer_metrics(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration from its span summary."""

    def get(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    def per_call_us(name: str, key: str, count: float) -> float:
        return get(name, key) / count * 1e6 if count else 0.0

    m: Dict[str, float] = {
        "cli.load_parse_s": sum(r["self_s"] for n, r in table.items() if n.startswith("cli.load.")),
        "cli.emit_s": get("cli.emit.json_dumps", "self_s"),
        "adalloc.us_per_utility_call": per_call_us("adalloc.utility", "total_s", get("adalloc.utility", "calls")),
        "qrewrite.us_per_single_type_allocate": per_call_us(
            "qrewrite.single_type_allocate", "self_s", get("qrewrite.single_type_allocate", "calls")),
    }
    for metric, (span, key) in SPAN_METRICS.items():
        m[metric] = get(span, key)
    sim_s = get("stochsim.simulate_stream", "self_s")
    m["stochsim.queries_per_s"] = get("stochsim.simulate_stream", "queries") / sim_s if sim_s else 0.0
    for check in CHECKS:
        span = f"seqcore.{check}"
        m[f"seqcore.{check}.us_per_sample"] = per_call_us(span, "total_s", get(span, "samples_tested"))
    for layer in LAYERS:
        m[f"layer.{layer}_self_s"] = sum(
            r["self_s"] for n, r in table.items() if n.split(".", 1)[0] == layer)
    return m


# ---------------------------------------------------------------------------
# Run
# ---------------------------------------------------------------------------

def trimmed_mean(values: List[float]) -> float:
    """Mean without the lowest and highest tenth (one of each, from 5 values)."""
    cut = max(1, len(values) // 10) if len(values) >= 5 else 0
    kept = sorted(values)[cut:len(values) - cut]
    return statistics.fmean(kept)


def quartiles(values: List[float], trimmed: bool = False) -> Dict[str, float]:
    """Summary of one metric's samples; `value` is what the result line reports."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    value = trimmed_mean(values) if trimmed else median
    return {"value": value, "median": median, "p25": q1, "p75": q3, "n": len(values), "samples": values}


def metadata(name: str, seed: int, parts: List[Part], seconds: float, trace: bool) -> dict:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        sha = lines[1] if top.returncode == 0 and Path(lines[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        sha = "unknown"
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "sizes": {p.work.name: p.work.sizes for p in parts},
        "commands": [f"{p.work.name}.{label}" for p in parts for label, _ in p.work.commands],
        "host_probe": HOST_PROBE,
        "host_probe_ref_s": HOST_PROBE_REF_S,
        # Children inherit this as a floor on their reported max RSS.
        "bench_max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        parts = make_parts(name, seed, tmp, checks.load_reference())
        # Fails fast, before any result, when the program cannot be imported.
        setup = measure_setup(tmp, 1)
        probes: List[Child] = [] if trace else [probe_host(tmp)]
        plain: List[Iteration] = []
        traced: List[Iteration] = []
        t0 = time.perf_counter()
        while True:
            it_start = time.perf_counter()
            if trace:
                plain.append(run_iteration(parts, tmp, traced=False))
                traced.append(run_iteration(parts, tmp, traced=True))
            else:
                setup += measure_setup(tmp, SETUP_PER_ITERATION)
                plain.append(run_iteration(parts, tmp, traced=False))
                probes.append(probe_host(tmp))
            now = time.perf_counter()
            # Stop where the run ends nearest `seconds`: before an iteration
            # that would finish more than half of itself past it.
            enough = len(plain) >= MIN_ITERATIONS and now - t0 + (now - it_start) / 2 >= seconds
            out_of_budget = now - started + (now - it_start) > RUN_BUDGET_S
            if enough or out_of_budget:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    stats: Dict[str, dict] = {}
    info: Dict[str, dict] = {}
    if trace:
        tables = [summarize([s for spans in it.spans.values() for s in spans]) for it in traced]
        per_it = [layer_metrics(t) for t in tables]
        untraced = [it.wall_s for it in plain]
        traced_wall = [it.wall_s for it in traced]
        for metric in PER_LAYER:
            if metric.startswith("trace."):
                continue
            stats[metric] = quartiles([m[metric] for m in per_it])
        stats["trace.untraced_wall_s"] = quartiles(untraced)
        stats["trace.traced_wall_s"] = quartiles(traced_wall)
        stats["trace.overhead_s"] = quartiles([t - u for t, u in zip(traced_wall, untraced)])
        units = PER_LAYER
        detail = {"spans": tables[0], "first_iteration_spans": traced[0].spans}
    else:
        wall = [it.wall_s for it in plain]
        cpu = [it.cpu_s for it in plain]
        stats["wall_norm_s"] = quartiles(normalized(wall, [p.wall_s for p in probes]), trimmed=True)
        stats["cpu_norm_s"] = quartiles(normalized(cpu, [p.cpu_s for p in probes]), trimmed=True)
        stats["setup_s"] = quartiles(setup)
        stats["peak_rss_mb"] = quartiles([it.rss_mb for it in plain])
        units = END_TO_END
        info = {"wall_s": quartiles(wall, trimmed=True), "cpu_s": quartiles(cpu, trimmed=True),
                "host_probe_s": quartiles([p.wall_s for p in probes])}
        detail = {}
    attempted = sum(p.checker.attempted for p in parts)
    failed = sum(p.checker.failed for p in parts)
    return {
        "meta": metadata(name, seed, parts, seconds, trace),
        "stats": stats,
        "info": info,
        "units": {**units, **(INFO if info else {})},
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "reference_checked": all(p.checker.reference_checked for p in parts),
        "problems": [problem for p in parts for problem in p.checker.problems],
        "detail": detail,
    }


def report(result: dict) -> None:
    meta = result["meta"]
    print("meta " + json.dumps(meta, sort_keys=True))
    ref = "checked against reference" if result["reference_checked"] else "no reference digest for this seed"
    print(f"{meta['workload']} seed {meta['seed']}: failed_frac {result['failed_frac']:g} fraction "
          f"({result['failed']} of {result['attempted']} commands failed); {ref}")
    for name, st in {**result["stats"], **result["info"]}.items():
        unit = result["units"][name]
        print(f"  {name:44s} {st['value']:.6g} {unit}  median {st['median']:.6g}  p25 {st['p25']:.6g}  "
              f"p75 {st['p75']:.6g}  n={st['n']}")
    path = OUT_DIR / f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    path.write_text(json.dumps(result, sort_keys=True) + "\n")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": st["value"], "unit": result["units"][n]} for n, st in result["stats"].items()},
    }
    print(json.dumps(line, sort_keys=True), flush=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="seqsub benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, *workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seqsub" / "cli.py").is_file():
        print(f"bench: no seqsub sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload == "all":
        # One process per workload, so that no workload's memory raises the
        # max RSS the next one's children report.
        for name in workloads.WORKLOADS:
            code = subprocess.call([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                    "--seconds", str(args.seconds), "--trace", str(args.trace)])
            if code != 0:
                return code
        return 0
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, workloads.ShapeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
