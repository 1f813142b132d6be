"""Output checks for the benchmark: every seqsub report is verified before
its run counts, and a command that fails any check counts in `failed`.

A command fails on a non-zero exit, an unreadable report, or any of:

* `allocate`: the reported utility differs by more than 1e-9 (relative)
  from `evaluate_strategy` of the reported strategy, re-run in a process
  of the benchmark's own;
* `--oracle`: `ratio` below the paper's bound for that problem;
* `verify`: `violations != 0`;
* `simulate`: relative gap between the Monte Carlo mean and the fluid
  utility above `FLUID_GAP_BOUND`;
* the result fields differ from the reference digest recorded for this
  workload and seed (`reference.json`), or from the first report of the
  same command in this run.

Only the result fields named in `RESULT_FIELDS` enter the digest, so
diagnostic additions to a report (such as an `outputs.stats` block of work
counters) are not failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

import workloads

CONTINUOUS_RATIO_BOUND = 1.0 - math.exp(-1.0)
REWRITE_RATIO_BOUND = 1.0 - math.exp(-(1.0 - 1.0 / math.e))
UTILITY_REL_TOL = 1e-9
# Measured gaps on stream-sim are about 1-1.4% (300 trials x 10k queries):
# the discrete stream exhausts budgets a little later than the fluid model.
FLUID_GAP_BOUND = 0.05

RESULT_FIELDS = {
    "allocate": ("utility", "strategy", "optimum", "ratio"),
    "rewrite": ("utility", "plan", "optimum", "ratio"),
    "simulate": ("mean", "std", "fluid"),
    "verify": ("violations", "reports"),
}
REQUIRED_FIELDS = {
    "allocate": ("utility", "strategy"),
    "rewrite": ("utility", "plan"),
    "simulate": ("mean", "std", "fluid"),
    "verify": ("violations", "reports"),
}
HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
SRC = HERE.parent / "src"


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def result_digest(report: dict) -> str:
    """Digest of the result fields of a report, ignoring everything else."""
    command = report["command"]
    outputs = report["outputs"]
    picked = {k: outputs[k] for k in RESULT_FIELDS[command] if k in outputs}
    if command == "verify":
        picked["reports"] = [
            {k: r[k] for k in ("check", "samples_tested", "violations")} for r in outputs["reports"]
        ]
    text = json.dumps(picked, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _strategy(strategy_json: list):
    from seqsub import adalloc
    from seqsub.seqcore import TimedSequence

    return TimedSequence(
        tuple((adalloc.Configuration.of(seg["config"]), seg["duration"]) for seg in strategy_json)
    )


def semantic_problems(report: dict, instance_data: dict) -> List[str]:
    """Command-specific checks of one report against the instance it ran on."""
    from seqsub import adalloc

    command = report.get("command")
    if command not in RESULT_FIELDS:
        return [f"unknown command {command!r} in report"]
    outputs = report.get("outputs", {})
    missing = [k for k in REQUIRED_FIELDS[command] if k not in outputs]
    if missing:
        return [f"{command}: missing result fields {missing}"]
    problems = []
    if command == "allocate":
        instance = adalloc.parse_instance(instance_data)
        replay = adalloc.evaluate_strategy(instance, _strategy(outputs["strategy"])).utility
        reported = outputs["utility"]
        if abs(replay - reported) > UTILITY_REL_TOL * max(1.0, abs(replay)):
            problems.append(f"allocate: utility {reported!r} but the strategy evaluates to {replay!r}")
    if report.get("params", {}).get("oracle"):
        bound = CONTINUOUS_RATIO_BOUND if command == "allocate" else REWRITE_RATIO_BOUND
        if not outputs.get("ratio", -1.0) >= bound:
            problems.append(f"{command} --oracle: ratio {outputs.get('ratio')!r} below {bound:.6f}")
    if command == "verify" and outputs["violations"] != 0:
        problems.append(f"verify: {outputs['violations']} violations")
    if command == "simulate":
        fluid = outputs["fluid"]
        gap = abs(outputs["mean"] - fluid) / fluid if fluid > 0.0 else math.inf
        if not gap <= FLUID_GAP_BOUND:
            problems.append(f"simulate: fluid gap {gap:.4g} above {FLUID_GAP_BOUND}")
    return problems


def isolated_semantic_problems(report_path: Path, instance_path: Path) -> List[str]:
    """`semantic_problems` in a separate process.

    The benchmark process stays small and never imports the program: a
    child's max RSS as the kernel reports it includes the parent's resident
    set at the time of the fork.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(HERE / "checks.py"), "--instance", str(instance_path), "--report", str(report_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        return [f"output check crashed: {proc.stderr[-1000:]}"]
    return json.loads(proc.stdout)


class Checker:
    """Checks every command of a run and counts attempts and failures.

    The full checks run on the first report of each command; later reports
    of the same command must carry the same result digest.
    """

    def __init__(self, workload: workloads.Workload, instance_path: Path, reference: Optional[dict] = None):
        self.workload = workload
        self.instance_path = instance_path
        self.expected = (reference or {}).get(workload.name, {}).get(str(workload.seed), {})
        self.first: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    @property
    def reference_checked(self) -> bool:
        return bool(self.expected)

    def problems_of(self, label: str, exit_code: int, out_path: Path) -> List[str]:
        if exit_code != 0:
            return [f"{label}: exit code {exit_code}"]
        try:
            report = json.loads(out_path.read_text())
            digest = result_digest(report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{label}: unreadable report ({exc!r})"]
        if label in self.first:
            if digest != self.first[label]:
                return [f"{label}: result differs from the first report of this run"]
            return []
        problems = [f"{label}: {p}" for p in isolated_semantic_problems(out_path, self.instance_path)]
        want = self.expected.get(label)
        if want is not None and digest != want:
            problems.append(f"{label}: result digest {digest[:12]} differs from reference {want[:12]}")
        if not problems:
            workloads.report_guard(self.workload.name, label, report)
            self.first[label] = digest
        return problems

    def record(self, label: str, exit_code: int, out_path: Path) -> bool:
        problems = self.problems_of(label, exit_code, out_path)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="print the semantic problems of one report as JSON")
    parser.add_argument("--instance", required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()
    report = json.loads(Path(args.report).read_text())
    instance = json.loads(Path(args.instance).read_text())
    print(json.dumps(semantic_problems(report, instance)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
