"""Record the reference result digests the benchmark checks reports against.

    python3 bench/record_reference.py --seeds 0-31 [--workload certify-small]

Runs every command of every part (workloads.GENERATORS) once per seed, as the
benchmark does, requires each report to pass the output checks, and
writes the digest of its result fields to bench/reference.json.  Record
again only for a change that is meant to alter results, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workloads


def record(names, seeds) -> dict:
    reference = checks.load_reference()
    run.OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="ref-", dir=run.OUT_DIR))
    try:
        for name in names:
            for seed in seeds:
                [part] = run.make_parts(name, seed, tmp, {})  # no reference: full checks only
                run.run_iteration([part], tmp, traced=False)
                if part.checker.failed:
                    raise SystemExit(f"{name} seed {seed}: {part.checker.problems}")
                reference.setdefault(name, {})[str(seed)] = dict(sorted(part.checker.first.items()))
                print(name, seed, "ok", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 1,5,9")
    parser.add_argument("--workload", action="append", choices=list(workloads.GENERATORS))
    args = parser.parse_args()
    reference = record(args.workload or list(workloads.GENERATORS), workloads.seeds_of(args.seeds))
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
