"""CLI commands: reports, exit codes, determinism."""

import contextlib
import copy
import errno
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seqsub import adalloc, cli, seqcore, stochsim
from seqsub.cli import main

from conftest import make_i1, make_i3, needs_two_cpus, probe_env

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture
def i1_file(tmp_path):
    path = tmp_path / "i1.json"
    path.write_text(json.dumps(adalloc.instance_to_json(make_i1())))
    return path


@pytest.fixture
def i3_file(tmp_path):
    def write(k: int):
        inst = make_i3(k)
        data = adalloc.instance_to_json(inst.base)
        data["rewrites"] = [{"id": r.id, "ads": list(r.ads)} for r in inst.rewrites]
        data["k"] = k
        path = tmp_path / f"i3_k{k}.json"
        path.write_text(json.dumps(data))
        return path

    return write


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


# ---------------------------------------------------------------------------
# allocate
# ---------------------------------------------------------------------------

def test_allocate_with_oracle(i1_file, tmp_path):
    code, report = run(["allocate", "--instance", str(i1_file), "--oracle"], tmp_path)
    assert code == 0
    out = report["outputs"]
    assert out["utility"] == pytest.approx(0.75, abs=1e-9)
    assert out["optimum"] == pytest.approx(1.0, abs=1e-12)
    assert out["ratio"] == pytest.approx(0.75, abs=1e-9)
    assert out["ratio"] >= out["ratio_bound"]
    assert out["segments"] == 2


def test_allocate_single_ad(tmp_path):
    inst = adalloc.AdInstance.build(
        ads=[("a1", 1.0)], query_types=[("t1", 1.0)], bids={"a1": {"t1": 2.0}},
        slots=1, horizon=1.0,
    )
    path = tmp_path / "i0.json"
    path.write_text(json.dumps(adalloc.instance_to_json(inst)))
    code, report = run(["allocate", "--instance", str(path), "--oracle"], tmp_path)
    assert code == 0
    assert report["outputs"]["utility"] == pytest.approx(1.0)
    assert report["outputs"]["ratio"] == pytest.approx(1.0)


def test_allocate_bad_probabilities_exits_2(tmp_path, capsys):
    data = adalloc.instance_to_json(make_i1())
    data["query_types"][0]["prob"] = 0.4  # sums to 0.9
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["allocate", "--instance", str(path)]) == 2
    assert "query_types" in capsys.readouterr().err


def test_allocate_missing_file_exits_2(tmp_path):
    assert main(["allocate", "--instance", str(tmp_path / "absent.json")]) == 2


def test_allocate_unreadable_instance_exits_2(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    assert main(["allocate", "--instance", str(binary)]) == 2
    assert main(["allocate", "--instance", str(tmp_path)]) == 2  # a directory


def _guard_sized(tmp_path) -> Path:
    """An instance of 5 ads x 4 types, past the LP oracle's guard of 12 pairs."""
    inst = adalloc.AdInstance.build(
        ads=[(f"a{i}", 1.0) for i in range(5)],
        query_types=[(f"t{j}", 0.25) for j in range(4)],
        bids={},
        slots=1,
        horizon=1.0,
    )
    path = tmp_path / "big.json"
    path.write_text(json.dumps(adalloc.instance_to_json(inst)))
    return path


def test_allocate_oracle_guard_exits_3(tmp_path):
    path = _guard_sized(tmp_path)
    assert main(["allocate", "--instance", str(path)]) == 0
    assert main(["allocate", "--instance", str(path), "--oracle"]) == 3


# ---------------------------------------------------------------------------
# rewrite
# ---------------------------------------------------------------------------

def test_rewrite_k1(i3_file, tmp_path):
    code, report = run(["rewrite", "--instance", str(i3_file(1)), "--oracle"], tmp_path)
    assert code == 0
    out = report["outputs"]
    assert out["utility"] == pytest.approx(0.5, abs=1e-9)
    assert out["ratio"] == pytest.approx(1.0, abs=1e-9)
    assert out["plan"][0]["rewrites"] == ["r2"]


def test_rewrite_k2(i3_file, tmp_path):
    code, report = run(["rewrite", "--instance", str(i3_file(2)), "--oracle"], tmp_path)
    assert code == 0
    assert report["outputs"]["utility"] == pytest.approx(0.7, abs=1e-9)
    assert report["outputs"]["ratio"] == pytest.approx(1.0, abs=1e-9)


def test_rewrite_underflowing_rate_exits_0(tmp_path):
    # prob * payment of a1 on t2 underflows to 0.0; the ad must spend nothing there.
    data = {
        "ads": [{"id": "a1", "budget": 1.0}],
        "query_types": [{"id": "t1", "prob": 1.0}, {"id": "t2", "prob": 1e-300}],
        "bids": {"a1": {"t1": 1.0, "t2": 1e-300}},
        "slots": 1,
        "horizon": 1.0,
        "rewrites": [{"id": "r1", "ads": ["a1"]}],
        "k": 1,
    }
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(data))
    code, report = run(["rewrite", "--instance", str(path)], tmp_path)
    assert code == 0
    assert report["outputs"]["utility"] == 1.0
    assert main(["allocate", "--instance", str(path), "--out", str(tmp_path / "a.json")]) == 0


def test_rewrite_k_zero_exits_2(i3_file, tmp_path, capsys):
    path = i3_file(1)
    data = json.loads(path.read_text())
    data["k"] = 0
    path.write_text(json.dumps(data))
    assert main(["rewrite", "--instance", str(path)]) == 2
    assert "k" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_deterministic_reports(i1_file, tmp_path):
    args = ["simulate", "--instance", str(i1_file), "--trials", "50", "--seed", "42"]
    code1, _ = run(args, tmp_path, "r1.json")
    code2, _ = run(args, tmp_path, "r2.json")
    assert code1 == code2 == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_simulate_single_type_exact(tmp_path):
    inst = adalloc.AdInstance.build(
        ads=[("a1", 1.0)], query_types=[("t1", 1.0)], bids={"a1": {"t1": 0.002}},
        slots=1, horizon=1000.0,
    )
    path = tmp_path / "det.json"
    path.write_text(json.dumps(adalloc.instance_to_json(inst)))
    code, report = run(
        ["simulate", "--instance", str(path), "--trials", "1", "--seed", "7"], tmp_path
    )
    assert code == 0
    assert report["outputs"]["mean"] == report["outputs"]["fluid"] == 1.0


def test_simulate_queries_scale_the_arrival_rate_not_the_fluid_value(tmp_path):
    # Every query pays in full, so Q queries over horizon T run at Q/T times
    # the fluid arrival rate; `fluid` stays at rate 1.  The budget never
    # binds, so both values are exact.
    inst = adalloc.AdInstance.build(
        ads=[("a1", 1e6)], query_types=[("t1", 1.0)], bids={"a1": {"t1": 1.0}}, slots=1, horizon=100.0
    )
    path = tmp_path / "rate.json"
    path.write_text(json.dumps(adalloc.instance_to_json(inst)))
    for queries, mean in (("100", 100.0), ("200", 200.0)):
        args = ["simulate", "--instance", str(path), "--trials", "3", "--seed", "0", "--queries", queries]
        code, report = run(args, tmp_path)
        assert code == 0
        assert (report["outputs"]["mean"], report["outputs"]["fluid"]) == (mean, 100.0)


def test_simulate_bad_flags_exit_2(i1_file, capsys, monkeypatch):
    # StreamConfig rejects each bad parameter, naming it, before the greedy runs.
    def no_greedy(*args):
        raise AssertionError("greedy_allocate reached")

    monkeypatch.setattr(adalloc, "greedy_allocate", no_greedy)
    for flags, field in (
        (["--trials", "0", "--seed", "1"], "trials"),
        (["--trials", "1", "--seed", "-1"], "seed"),
        (["--trials", "1", "--seed", "1", "--queries", "0"], "query_count"),
        (["--trials", "1", "--seed", "1", "--queries", str(stochsim.MAX_QUERIES + 1)], "query_count"),
    ):
        assert main(["simulate", "--instance", str(i1_file), *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field}: ")


def test_simulate_outputs_with_and_without_per_trial(i1_file, tmp_path):
    # cli shapes the simulate report: a summary, and with --per-trial each
    # trial's revenue in trial order, whose fsum over the trials is the mean.
    args = ["simulate", "--instance", str(i1_file), "--trials", "7", "--seed", "2"]
    summary = {"fluid", "mean", "rng", "seed", "std", "trials"}
    code, report = run(args, tmp_path)
    assert code == 0 and set(report["outputs"]) == summary
    code, report = run([*args, "--per-trial"], tmp_path)
    outputs = report["outputs"]
    assert code == 0 and set(outputs) == summary | {"per_trial"}
    per_trial = outputs["per_trial"]
    assert len(per_trial) == outputs["trials"] == 7 and all(type(r) is float for r in per_trial)
    assert math.fsum(per_trial) / outputs["trials"] == outputs["mean"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_clean_instance_exits_0(i1_file, tmp_path):
    code, report = run(
        ["verify", "--instance", str(i1_file), "--samples", "150", "--seed", "5"], tmp_path
    )
    assert code == 0
    assert report["outputs"]["violations"] == 0
    names = [r["check"] for r in report["outputs"]["reports"]]
    assert names == ["nondecreasing", "submodular", "derivative", "rate_gain_bound"]


def test_verify_rewrite_instance_includes_plan_checks(i3_file, tmp_path):
    code, report = run(
        [
            "verify",
            "--instance",
            str(i3_file(2)),
            "--checks",
            "mono,submod",
            "--samples",
            "100",
            "--seed",
            "3",
        ],
        tmp_path,
    )
    assert code == 0
    assert len(report["outputs"]["reports"]) == 4  # ad + plan for both checks


def test_verify_tolerance_scales_with_the_instance(tmp_path):
    # Budgets and bids x 1e9: an absolute 1e-9 tolerance reads float rounding
    # in utilities of order 1e9 as violations.  At x 1e-12 the tolerance
    # shrinks with the utility's scale, and rounding must still pass.
    for s in (1e9, 1e-12):
        data = json.loads((INSTANCES / "two_ads_two_types.json").read_text())
        for ad in data["ads"]:
            ad["budget"] *= s
        for row in data["bids"].values():
            for tid in row:
                row[tid] *= s
        path = tmp_path / f"scaled_{s}.json"
        path.write_text(json.dumps(data))
        args = ["verify", "--instance", str(path), "--samples", "500", "--seed", "7"]
        code, report = run(args, tmp_path)
        assert report["outputs"]["violations"] == 0, s
        assert code == 0


@pytest.mark.parametrize("budget", [1e5, 1e6, 1e7])
def test_verify_holds_at_large_budgets_in_every_time_unit(budget, tmp_path):
    # Spend resolves only to an ulp of the largest budget, so a gain per unit
    # length carries that rounding over the block's length; at budgets 1e6
    # and 1e7 Lemma 1 read it as 1 and 10 violations, in every time unit.
    data = json.loads((INSTANCES / "two_ads_two_types.json").read_text())
    data["ads"][1]["budget"] = budget
    for s in (1e-6, 1.0, 1e6):
        scaled = copy.deepcopy(data)
        scaled["horizon"] *= s
        for row in scaled["bids"].values():
            for tid in row:
                row[tid] /= s
        path = tmp_path / f"scaled_{s}.json"
        path.write_text(json.dumps(scaled))
        args = ["verify", "--instance", str(path), "--samples", "500", "--seed", "7"]
        code, report = run(args, tmp_path)
        assert report["outputs"]["violations"] == 0, s
        assert code == 0


def test_verify_samples_as_many_at_every_time_scale(tmp_path):
    # Horizon x s and bids / s describe the same instance in other time
    # units, so every check must test as many samples as at s = 1.
    data = json.loads((INSTANCES / "two_ads_two_types.json").read_text())
    tested = {}
    for s in (1.0, 1e-9, 1e-3, 1e9):
        scaled = copy.deepcopy(data)
        scaled["horizon"] *= s
        for row in scaled["bids"].values():
            for tid in row:
                row[tid] /= s
        path = tmp_path / f"scaled_{s}.json"
        path.write_text(json.dumps(scaled))
        args = ["verify", "--instance", str(path), "--samples", "300", "--seed", "3"]
        code, report = run(args, tmp_path)
        assert code == 0
        tested[s] = [(r["check"], r["samples_tested"]) for r in report["outputs"]["reports"]]
    assert tested[1.0][-1] == ("rate_gain_bound", 236)  # empty blocks are still skipped
    for s in (1e-9, 1e-3, 1e9):
        assert tested[s] == tested[1.0], s


def test_allocate_breakpoints_at_every_time_scale(tmp_path):
    # An absolute 1e-12 slack dropped every breakpoint of a horizon below
    # about 1e-12; in units of the horizon they must not move.
    data = json.loads((INSTANCES / "two_ads_two_types.json").read_text())
    found = {}
    for s in (1e-16, 1e-13, 1e-9, 1e-3, 1.0, 1e3, 1e9):
        scaled = copy.deepcopy(data)
        scaled["horizon"] *= s
        for row in scaled["bids"].values():
            for tid in row:
                row[tid] /= s
        path = tmp_path / f"scaled_{s}.json"
        path.write_text(json.dumps(scaled))
        code, report = run(["allocate", "--instance", str(path)], tmp_path)
        assert code == 0
        found[s] = [x / s for x in report["outputs"]["breakpoints"]]
    assert found[1.0] == [0.5]
    for s, breakpoints in found.items():
        assert breakpoints == pytest.approx(found[1.0], rel=1e-12), s


def test_report_digest_is_of_the_bytes_parsed(tmp_path, monkeypatch):
    # CRLF line ends and a non-ASCII id, and the file is replaced right
    # after it is parsed: the digest is of the raw bytes the report came from.
    data = adalloc.instance_to_json(make_i1())
    data["ads"][0]["id"] = "\u00e4d"
    data["bids"] = {"\u00e4d" if ad == "a1" else ad: row for ad, row in data["bids"].items()}
    raw = json.dumps(data, indent=1, ensure_ascii=False).replace("\n", "\r\n").encode()
    path = tmp_path / "crlf.json"
    path.write_bytes(raw)

    def loads_then_replace(text):
        path.write_bytes(b"{}")
        return json.loads(text)

    proxy = types.SimpleNamespace(loads=loads_then_replace, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError)
    monkeypatch.setattr(cli, "json", proxy)
    code, report = run(["allocate", "--instance", str(path)], tmp_path)
    assert code == 0
    assert report["instance_sha256"] == hashlib.sha256(raw).hexdigest()
    assert report["outputs"]["spend"]["\u00e4d"] > 0.0


def test_byte_order_mark_is_accepted(tmp_path):
    # json.loads reads the encoding from the bytes, BOM or not, whatever the host locale.
    raw = (INSTANCES / "two_ads_two_types.json").read_bytes()
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + raw)
    code, report = run(["allocate", "--instance", str(path), "--oracle"], tmp_path, "bom.out")
    _, plain = run(["allocate", "--instance", str(INSTANCES / "two_ads_two_types.json"), "--oracle"], tmp_path)
    assert code == 0
    assert report["outputs"] == plain["outputs"]
    assert report["instance_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_verify_planted_violation_exits_1(i1_file, tmp_path):
    # The planted utility is caught as often with budgets and horizon x 1e-12
    # or x 1e9: a fixed tolerance floor of 1 hid every violation at x 1e-12.
    found = {}
    for s in (1.0, 1e-12, 1e9):
        data = json.loads(i1_file.read_text())
        for ad in data["ads"]:
            ad["budget"] *= s
        data["horizon"] *= s
        path = tmp_path / f"planted_{s}.json"
        path.write_text(json.dumps(data))
        args = ["verify", "--instance", str(path), "--checks", "mono", "--samples", "100", "--seed", "5"]
        code, report = run([*args, "--planted-violation"], tmp_path)
        assert code == 1, s
        found[s] = report["outputs"]["violations"]
        witness = report["outputs"]["reports"][0]["violations"][0]["witness"]
        assert "a" in witness and "b" in witness
    assert found[1.0] > 0
    assert found[1e-12] == found[1e9] == found[1.0]


def test_verify_unknown_check_exits_2(i1_file, capsys):
    assert main(["verify", "--instance", str(i1_file), "--checks", "mono,nope"]) == 2
    assert "nope" in capsys.readouterr().err


def _certify_shaped() -> dict:
    """4 ads x 3 types, 6 rewrites of 1-2 ads and k = 2: the benchmark's certify-small shape."""
    rng = random.Random(19)
    ads = [f"a{i}" for i in range(4)]
    weights = [rng.uniform(0.2, 1.0) for _ in range(3)]
    return {
        "ads": [{"id": ad, "budget": rng.uniform(0.2, 1.0)} for ad in ads],
        "query_types": [{"id": f"t{j}", "prob": w / math.fsum(weights)} for j, w in enumerate(weights)],
        "bids": {ad: {f"t{j}": rng.uniform(0.2, 1.0) for j in range(3)} for ad in ads},
        "slots": 1,
        "horizon": 2.0,
        "rewrites": [{"id": f"r{r}", "ads": sorted(rng.sample(ads, rng.randint(1, 2)))} for r in range(6)],
        "k": 2,
    }


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@needs_two_cpus
@pytest.mark.parametrize("name", ["two_ads_two_types.json", "rewrite_two_paths.json", "certify-shaped"])
def test_verify_reports_do_not_depend_on_the_cpus(name, tmp_path):
    # Pinned to one CPU, verify runs every check inline; with more, each check
    # splits its samples over forked workers.  Reports and exit codes match.
    path = INSTANCES / name
    if name == "certify-shaped":
        path = tmp_path / "certify.json"
        path.write_text(json.dumps(_certify_shaped()))
    samples = str(2 * seqcore.MIN_WORKER_SAMPLES)
    for planted in ([], ["--planted-violation"]):
        runs = []
        for k, preexec in enumerate((_one_cpu, None)):
            out = tmp_path / f"report{k}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "seqsub", "verify", "--instance", str(path), "--samples", samples,
                 "--seed", "11", "--out", str(out), *planted],
                env=probe_env(), preexec_fn=preexec, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode in (0, 1), proc.stderr
            runs.append((proc.returncode, out.read_bytes()))
        assert runs[0] == runs[1], (name, planted)
        assert runs[0][0] == (1 if planted else 0)


# Runs verify without numpy, so in a single-threaded process whose checks
# fork, with `os.fork` refused as a process limit refuses it: on every call,
# on the first call only (so one check runs inline and the others fork), or
# never, pinned to one CPU.
REFUSED_FORK_PROBE = """
import errno, json, os, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from seqsub import cli

out, argv, refuse = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
fork, calls = os.fork, []

def refused_fork():
    calls.append(1)
    if refuse == "every" or (refuse == "first" and len(calls) == 1):
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    return fork()

if refuse == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
os.fork = refused_fork
code = cli.main([*argv, "--out", out])
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps({"code": code, "forks": len(calls), "children_left": left}))
"""


@needs_two_cpus
def test_verify_runs_a_chunk_inline_when_its_fork_fails(tmp_path):
    # A refused fork is no error: that chunk runs in the process itself, and
    # the report and the exit code are those of a run pinned to one CPU.
    for planted in ([], ["--planted-violation"]):
        argv = ["verify", "--instance", str(INSTANCES / "rewrite_two_paths.json"),
                "--samples", str(2 * seqcore.MIN_WORKER_SAMPLES), "--seed", "11", *planted]
        runs = {}
        for refuse in ("pinned", "every", "first"):
            out = tmp_path / f"{refuse}.json"
            proc = subprocess.run([sys.executable, "-c", REFUSED_FORK_PROBE, str(out), json.dumps(argv), refuse],
                                  env=probe_env(), capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout)
            assert result["code"] == (1 if planted else 0) and result["children_left"] is False
            runs[refuse] = (out.read_bytes(), result["forks"])
        assert runs["every"][0] == runs["first"][0] == runs["pinned"][0]
        assert runs["pinned"][1] == 0 and runs["every"][1] == runs["first"][1] == 6  # one fork a check


@pytest.mark.parametrize(
    "command", [["allocate"], ["rewrite"], ["simulate", "--trials", "2", "--seed", "0"], ["verify", "--samples", "5"]],
    ids=lambda command: command[0],
)
def test_unwritable_out_exits_2(command, tmp_path, capsys):
    # A report path that cannot be written is an input error, not a property violation.
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_fuzz_base()))
    for out in (tmp_path / "absent" / "report.json", tmp_path):
        assert main([*command, "--instance", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: out: cannot write {out}: ")


# ---------------------------------------------------------------------------
# malformed input: exit 2 with the field named, never a traceback or a hang
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda d: d["bids"]["a1"].update(t1=float("inf")), "bids"),
        (lambda d: d.update(horizon=float("inf")), "horizon"),
        (lambda d: d["ads"][0].update(budget="x"), "budget"),
        (lambda d: d.update(ads=5), "ads"),
        (lambda d: d["query_types"][0].update(prob=None), "prob"),
        (lambda d: d.update(bids={"a1": ["t1"]}), "bids"),
        (lambda d: d.update(slots=float("inf")), "slots"),
        (lambda d: d.update(slots=1.5), "slots"),
        (lambda d: d.update(slots=True), "slots"),
        (lambda d: d.update(slots=10**30), "slots"),
        (lambda d: [ad.update(budget=1e308) for ad in d["ads"]], "budget"),
        (lambda d: d["bids"]["a1"].update(t1=1.7e308), "bids"),
        # int() and float() take booleans and numeric strings; a number field takes neither.
        (lambda d: d.update(slots="1"), "slots"),
        (lambda d: d["ads"][0].update(budget="0.5"), "budget"),
        (lambda d: d["query_types"][0].update(prob="0.5"), "prob"),
        (lambda d: d["bids"]["a1"].update(t1=True), "bids"),
        (lambda d: d.update(horizon=True), "horizon"),
        (lambda d: d["ads"].append(dict(d["ads"][0])), "ads: duplicate ad id"),
        (lambda d: d["query_types"].append(dict(d["query_types"][0])), "query_types: duplicate type id"),
    ],
    ids=["bid-infinity", "horizon-infinity", "budget-string", "ads-number", "prob-null",
         "bids-row-list", "slots-infinity", "slots-fraction", "slots-boolean", "slots-huge",
         "budgets-near-float-max", "bid-near-float-max", "slots-numeric-string", "budget-numeric-string",
         "prob-numeric-string", "bid-boolean", "horizon-boolean", "duplicate-ad", "duplicate-type"],
)
def test_allocate_malformed_instance_exits_2(edit, field, tmp_path, capsys):
    data = adalloc.instance_to_json(make_i1())
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["allocate", "--instance", str(path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and field in line


def test_top_level_not_an_object_exits_2(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    for command in ("allocate", "rewrite", "simulate", "verify"):
        extra = ["--trials", "1", "--seed", "0"] if command == "simulate" else []
        assert main([command, "--instance", str(path), *extra]) == 2
        assert "instance" in capsys.readouterr().err


def test_rewrite_malformed_rewrites_exit_2(i3_file, capsys):
    path = i3_file(1)
    original = path.read_text()
    malformed = (("rewrites", 5), ("rewrites", [{"id": "r1", "ads": 3}]), ("k", "x"),
                 ("k", 1.9), ("k", True), ("k", "1"))
    for key, value in malformed:
        data = json.loads(original)
        data[key] = value
        path.write_text(json.dumps(data))
        assert main(["rewrite", "--instance", str(path)]) == 2
        assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, edit, flags, message",
    [
        ("rewrite", lambda d: d["rewrites"].append({"id": "r1", "ads": ["a2"]}), [], "rewrites: duplicate rewrite id"),
        ("rewrite", lambda d: d.pop("rewrites"), [], "rewrites: missing required field"),
        ("rewrite", lambda d: d.pop("k"), [], "k: missing required field"),
        ("verify", None, ["--checks", ","], "checks: at least one check name is required"),
        ("verify", None, ["--samples", "0"], "samples: must be >= 1, got 0"),
        ("verify", None, ["--seed", "-1"], "seed: must be >= 0, got -1"),
    ],
    ids=["duplicate-rewrite", "no-rewrites", "no-k", "no-checks", "no-samples", "negative-seed"],
)
def test_rewrite_and_verify_input_errors_exit_2(command, edit, flags, message, tmp_path, capsys):
    data = json.loads((INSTANCES / "rewrite_two_paths.json").read_text())
    if edit:
        edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main([command, "--instance", str(path), *flags, "--out", os.devnull]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


def _rename_ad(data, value):
    data["ads"][0]["id"] = value
    data["bids"][str(value)] = data["bids"].pop("a1")
    data["rewrites"][0]["ads"] = [str(value)]


def _rename_type(data, value):
    data["query_types"][0]["id"] = value
    data["bids"] = {ad: {str(value): p} for ad, row in data["bids"].items() for p in row.values()}


def _rename_rewrite_ad(data, value):
    _rename_ad(data, str(value))
    data["rewrites"][0]["ads"] = [value]


@pytest.mark.parametrize("value", [None, True, 1.5, ["a1"]], ids=["null", "true", "float", "list"])
@pytest.mark.parametrize(
    "rename, field",
    [
        (_rename_ad, "ads: id"),
        (_rename_type, "query_types: id"),
        (lambda data, value: data["rewrites"][0].update(id=value), "rewrites: id"),
        (_rename_rewrite_ad, "rewrites: ads of 'r1'"),
    ],
    ids=["ad", "type", "rewrite", "rewrite-ad"],
)
def test_non_string_ids_exit_2(rename, field, value, tmp_path, capsys):
    # Each edit renames consistently, so str(value) would make a valid instance.
    data = json.loads((INSTANCES / "rewrite_two_paths.json").read_text())
    rename(data, value)
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(data))
    assert main(["rewrite", "--instance", str(path), "--out", os.devnull]) == 2
    assert f"{field}: must be a string" in capsys.readouterr().err


def test_simulate_short_horizon_without_queries_exits_2(tmp_path, capsys):
    data = adalloc.instance_to_json(make_i1())
    data["horizon"] = 0.3
    path = tmp_path / "short.json"
    path.write_text(json.dumps(data))
    assert main(["simulate", "--instance", str(path), "--trials", "1", "--seed", "0"]) == 2
    assert "horizon" in capsys.readouterr().err
    args = ["simulate", "--instance", str(path), "--trials", "1", "--seed", "0", "--queries", "3"]
    assert main([*args, "--out", str(tmp_path / "r.json")]) == 0


def test_simulate_oversized_query_count_exits_2(tmp_path, capsys, monkeypatch):
    # The guard must reject before the simulator builds any per-query array.
    def no_simulation(*args):
        raise AssertionError("simulate_stream reached")

    monkeypatch.setattr(stochsim, "simulate_stream", no_simulation)
    data = adalloc.instance_to_json(make_i1())
    path = tmp_path / "i1.json"
    path.write_text(json.dumps(data))
    args = ["simulate", "--instance", str(path), "--trials", "1", "--seed", "0"]
    assert main([*args, "--queries", "100000000000"]) == 2
    assert "queries" in capsys.readouterr().err
    data["horizon"] = 1e15
    path.write_text(json.dumps(data))
    assert main(args) == 2
    assert "horizon" in capsys.readouterr().err
    # The horizon is named as given, not as the integer it rounds to (301 digits here).
    data["horizon"] = 1e300
    path.write_text(json.dumps(data))
    assert main(args) == 2
    err = capsys.readouterr().err
    limit = stochsim.MAX_QUERIES
    assert err == f"error: horizon: 1e+300 rounds to more than {limit} queries per trial; set query_count\n"
    assert len(err) < 200


# Two budgets and all bids near the float maximum, over a horizon long enough
# to spend them: sums of spend used to overflow in math.fsum.
HUGE_BUDGETS = [
    (("ads", 0, "budget"), 1e308),
    (("ads", 1, "budget"), 1e308),
    (("bids", "a1", "t1"), 1e308),
    (("bids", "a1", "t2"), 1e308),
    (("bids", "a2", "t1"), 1e308),
    (("horizon",), 4.0),
]
HUGE_SLOTS = [(("slots",), 10**30)]
# Probabilities whose sum overflows: its fsum raised OverflowError, a traceback.
HUGE_PROBS = [(("query_types", 0, "prob"), 1e308), (("query_types", 1, "prob"), 1e308)]


def _fuzz_base() -> dict:
    """The two-ad instance with two rewrites, so every command can parse it."""
    data = adalloc.instance_to_json(make_i1())
    data["rewrites"] = [{"id": "r1", "ads": ["a1"]}, {"id": "r2", "ads": ["a2"]}]
    data["k"] = 2
    return data


def _paths(node, prefix=()):
    """Every key path into a JSON document, the root's empty path first."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield from _paths(child, (*prefix, key))


FUZZ_PATHS = [path for path in _paths(_fuzz_base()) if path]
DELETE = object()
FUZZ_VALUES = st.one_of(
    st.sampled_from([DELETE, None, True, "x", [], {}, [1], {"a1": 1}, 0, -1, 2**63, 10**30,
                     1e308, -1e308, 5e-324, 1e-300, 1.5]),
    st.floats(),
    st.integers(),
    st.text(max_size=3),
)
FUZZ_COMMANDS = (
    ["allocate"],
    ["allocate", "--oracle"],
    ["rewrite"],
    ["rewrite", "--oracle"],
    ["simulate", "--trials", "2", "--seed", "0", "--queries", "20"],
)


def _mutate(data: dict, edits) -> dict:
    """Apply (path, value) edits; an edit whose parent no longer exists is skipped."""
    for path, value in edits:
        parent = data
        try:
            for key in path[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[path[-1]]
            else:
                # A copy: the drawn values are shared between examples.
                parent[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            continue
    return data


@pytest.mark.parametrize("edits, field", [(HUGE_SLOTS, "slots"), (HUGE_BUDGETS, "budget")])
def test_size_limits_exit_2_on_every_command(edits, field, tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_mutate(_fuzz_base(), edits)))
    for command in (*FUZZ_COMMANDS, ["verify", "--samples", "5"]):
        assert main([*command, "--instance", str(path)]) == 2
        assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "text", ["[" * 200_000 + "]" * 200_000, '{"slots": ' + "9" * 5000 + "}"], ids=["deep-nesting", "5000-digits"]
)
def test_unparsable_json_exits_2_on_every_command(text, tmp_path, capsys):
    # json.loads raises RecursionError on deep nesting, and a ValueError that
    # is no JSONDecodeError on an integer past Python's digit limit.
    path = tmp_path / "bad.json"
    path.write_text(text)
    for command in (*FUZZ_COMMANDS, ["verify", "--samples", "5"]):
        assert main([*command, "--instance", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: instance: invalid JSON: ")


@pytest.mark.filterwarnings("ignore:k=.*exceeds")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(FUZZ_PATHS), FUZZ_VALUES), min_size=1, max_size=3))
@example(HUGE_SLOTS)
@example(HUGE_BUDGETS)
@example(HUGE_PROBS)
def test_cli_fuzz_exits_0_2_or_3(edits):
    # verify has its own fuzz below: exit 1 (a property violation) is legal there.
    data = _mutate(_fuzz_base(), edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(data))
        for command in FUZZ_COMMANDS:
            argv = [*command, "--instance", str(path), "--out", os.devnull]
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3), (argv, data)


# One ad whose budget lasts to near the float maximum: the derivative check's
# sampling range used to overflow in `rng.uniform`.
NEAR_MAX_EXHAUSTION = [
    (("ads", 1), DELETE),
    (("bids", "a2"), DELETE),
    (("rewrites", 1), DELETE),
    (("ads", 0, "budget"), 1e300),
    (("bids", "a1", "t1"), 6e-9),
    (("bids", "a1", "t2"), 6e-9),
    (("horizon",), 1.7e308),
]


# A subnormal budget: the derivative check's finite-difference step used to
# underflow to 0 and divide by it.
SUBNORMAL_BUDGET = [(("ads", 0, "budget"), 5e-324)]


# A large budget: spend resolves only to an ulp of it, and Lemma 1 divides a
# utility difference by the block's length; that rounding read as a violation.
LARGE_BUDGET = [(("ads", 1, "budget"), 3931934)]


# One ad whose exhaustion time, budget over rate, overflows: with no
# breakpoint the finite-difference step is 1e-4, and the spend over it falls
# below an ulp of the budget; that rounding read as a violation.
OVERFLOWING_EXHAUSTION = [
    (("ads", 1), DELETE),
    (("bids", "a2"), DELETE),
    (("rewrites", 1), DELETE),
    (("query_types", 1), DELETE),
    (("query_types", 0, "prob"), 1.0),
    (("bids", "a1", "t2"), DELETE),
    (("ads", 0, "budget"), 1.0),
    (("bids", "a1", "t1"), 1e-310),
]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(FUZZ_PATHS), FUZZ_VALUES), min_size=1, max_size=3))
@example(HUGE_SLOTS)
@example(HUGE_BUDGETS)
@example(HUGE_PROBS)
@example(NEAR_MAX_EXHAUSTION)
@example(SUBNORMAL_BUDGET)
@example(LARGE_BUDGET)
@example(OVERFLOWING_EXHAUSTION)
def test_cli_fuzz_verify_exits_0_to_3(edits):
    # Exit 1 reports a property violation, which the fluid model cannot
    # have: a valid instance exits 0, a bad one 2 or 3.  The planted
    # violation, which must exit 1, is tested on its own.
    data = _mutate(_fuzz_base(), edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(data))
        argv = ["verify", "--samples", "20", "--instance", str(path), "--out", os.devnull]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, data)
        assert "Traceback" not in err.getvalue()


# Positive floats from the smallest subnormal to 1e300, over every decade.
MAGNITUDES = st.one_of(
    st.builds(lambda mantissa, exponent: mantissa * 10.0**exponent,
              st.floats(1.0, 9.999), st.integers(-300, 299)),
    st.floats(5e-324, 2.2250738585072014e-308),
    st.sampled_from([5e-324, 1e-310, 1e-300, 1.0, 1e300]),
)


@st.composite
def valid_instances(draw) -> dict:
    """An instance every command parses: budgets, bids, probabilities and
    horizon across magnitudes, subnormals included, and sometimes rewrites."""
    ads = [f"a{i}" for i in range(draw(st.integers(1, 3)))]
    types = [f"t{j}" for j in range(draw(st.integers(1, 3)))]
    rest = [min(draw(MAGNITUDES), 1.0 / len(types)) for _ in types[1:]]
    data = {
        # Each budget at most a third of the total budget the parser allows.
        "ads": [{"id": ad, "budget": min(draw(MAGNITUDES), adalloc.MAX_AMOUNT / 3)} for ad in ads],
        "query_types": [{"id": t, "prob": p} for t, p in zip(types, [1.0 - math.fsum(rest), *rest])],
        "bids": {ad: {t: draw(MAGNITUDES) for t in types if draw(st.booleans())} for ad in ads},
        "slots": draw(st.sampled_from([1, 1, 2, 3, adalloc.MAX_SLOTS])),
        "horizon": draw(MAGNITUDES),
    }
    if draw(st.booleans()):
        data["rewrites"] = [
            {"id": f"r{r}", "ads": draw(st.lists(st.sampled_from(ads), min_size=1, max_size=len(ads), unique=True))}
            for r in range(draw(st.integers(1, 3)))
        ]
        data["k"] = draw(st.integers(1, 3))
    return data


# A subnormal budget: a spend of less than one ulp of it rounds to 0, so the
# finite difference read 0 against a positive rate, a violation.
SUBNORMAL_SPEND = {
    "ads": [{"id": "a0", "budget": 5e-324}],
    "query_types": [{"id": "t0", "prob": 0.5}, {"id": "t1", "prob": 0.5}],
    "bids": {"a0": {"t1": 1e-300}},
    "slots": 1,
    "horizon": 1.5052431942160866e-125,
}
SUBNORMAL_RATE = {
    "ads": [{"id": "a0", "budget": 1e-323}, {"id": "a1", "budget": 5e-324}],
    "query_types": [{"id": "t0", "prob": 1.0}, {"id": "t1", "prob": 2.2250738585072014e-308}],
    "bids": {"a0": {}, "a1": {"t0": 5e-324, "t1": 3.957574771979827e-309}},
    "slots": 1,
    "horizon": 2.2250738585072014e-308,
}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(valid_instances())
@example(SUBNORMAL_SPEND)
@example(SUBNORMAL_RATE)
def test_cli_fuzz_verify_valid_instances_exit_0_or_3(data):
    # The edits above mostly make input errors; these draws are valid, so
    # each reaches the checkers, which must find no violation in the fluid
    # model or the plan utility at any magnitude.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(data))
        argv = ["verify", "--samples", "20", "--instance", str(path), "--out", os.devnull]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 3), (err.getvalue(), data)
        assert "Traceback" not in err.getvalue()


NUMPY_PROBE = """
import sys
from seqsub import cli

ad, rewrite, out = sys.argv[1:]
loaded = ["numpy" in sys.modules]
for args in (
    ["allocate", "--instance", ad],
    ["allocate", "--instance", ad, "--oracle"],
    ["rewrite", "--instance", rewrite],
    ["rewrite", "--instance", rewrite, "--oracle"],
    ["verify", "--instance", ad, "--samples", "20"],
    ["verify", "--instance", rewrite, "--samples", "20"],
):
    assert cli.main([*args, "--out", out]) == 0, args
    loaded.append("numpy" in sys.modules)
assert cli.main(["simulate", "--instance", ad, "--trials", "3", "--seed", "1", "--out", out]) == 0
print(loaded, "numpy" in sys.modules)
"""


def test_only_simulate_loads_numpy(tmp_path):
    # numpy's import is most of a process start; commands that draw no
    # vectors of random numbers must not pay it.
    ad, rewrite = INSTANCES / "two_ads_two_types.json", INSTANCES / "rewrite_two_paths.json"
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, str(ad), str(rewrite), str(tmp_path / "r.json")],
        env=probe_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False, False, False, False, False, False] True"


def _entry_env() -> dict:
    """A probe's environment with stdout block-buffered when it is a pipe, as it is by default."""
    return {k: v for k, v in probe_env().items() if k != "PYTHONUNBUFFERED"}


ENTRY_PROBE = """
import os
from seqsub import cli

def main():
    import numpy
    print(len(os.listdir("/proc/self/task")), os.environ["OMP_NUM_THREADS"])
    return 0

cli.main = main
cli.entry()
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="threads are counted in /proc")
@pytest.mark.parametrize("omp", [None, "2"])
def test_entry_imports_numpy_without_a_blas_thread(omp):
    # The process entry keeps numpy's idle BLAS worker from starting, unless
    # the caller set a thread count; main, which tests call, sets nothing.
    # The probe's main prints to a pipe and entry ends with os._exit, so the
    # line arrives only because entry flushes stdout first.
    env = {k: v for k, v in _entry_env().items() if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    if omp is not None:
        env["OMP_NUM_THREADS"] = omp
    proc = subprocess.run([sys.executable, "-c", ENTRY_PROBE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    threads, value = proc.stdout.split()
    if omp is None:
        assert (threads, value) == ("1", "1")
    else:
        assert value == omp


def _malformed(tmp_path) -> Path:
    path = tmp_path / "malformed.json"
    data = _fuzz_base()
    data["slots"] = 1.5
    path.write_text(json.dumps(data))
    return path


ENTRY_CASES = [  # (argv, the exit code that main returns or argparse exits with)
    (["allocate", "--instance", str(INSTANCES / "two_ads_two_types.json"), "--oracle"], 0),
    (["rewrite", "--instance", str(INSTANCES / "rewrite_two_paths.json"), "--oracle"], 0),
    (["simulate", "--instance", str(INSTANCES / "two_ads_two_types.json"), "--trials", "50", "--seed", "3"], 0),
    (["verify", "--instance", str(INSTANCES / "rewrite_two_paths.json"), "--samples", "50"], 0),
    # Its report is 112,367 bytes, more than a pipe's 64 KiB buffer holds.
    (["verify", "--instance", str(INSTANCES / "two_ads_two_types.json"), "--checks", "mono",
      "--samples", "300", "--planted-violation"], 1),
    (["allocate", "--instance", "{malformed}"], 2),
    (["allocate", "--oracle"], 2),  # argparse: --instance is required
    (["allocate", "--instance", "{guard}", "--oracle"], 3),
]
ENTRY_IDS = ["allocate", "rewrite", "simulate", "verify", "planted-over-64KiB", "malformed", "argparse", "guard"]


def _in_process(argv):
    """What cli.main writes to stdout and stderr, and its exit code, in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue().encode(), err.getvalue()


def _messages(stderr: str) -> list:
    """stderr without the run's wall-clock timing line."""
    return [line for line in stderr.splitlines() if " finished in " not in line]


@pytest.mark.parametrize("argv, code", ENTRY_CASES, ids=ENTRY_IDS)
def test_module_entry_writes_what_main_writes(argv, code, tmp_path):
    # python -m seqsub runs cli.entry, which turns the cycle collector off and
    # ends with os._exit; its reports, on stdout or --out, its messages and
    # its exit codes are those of cli.main run in this process.
    argv = [a.format(malformed=_malformed(tmp_path), guard=_guard_sized(tmp_path)) for a in argv]
    for to_file in (False, True):
        main_out, entry_out = tmp_path / f"main{to_file}.json", tmp_path / f"entry{to_file}.json"
        with_out = lambda path: [*argv, "--out", str(path)] if to_file else argv
        want = _in_process(with_out(main_out))
        assert want[0] == code and gc.isenabled()
        assert bool(want[1]) == (code < 2 and not to_file)
        proc = subprocess.run([sys.executable, "-m", "seqsub", *with_out(entry_out)],
                              env=_entry_env(), capture_output=True, timeout=120)
        assert (proc.returncode, proc.stdout) == want[:2], proc.stderr
        assert _messages(proc.stderr.decode()) == _messages(want[2])
        if to_file and code < 2:
            assert entry_out.read_bytes() == main_out.read_bytes()


@pytest.mark.parametrize("argv, over_64kib", [(ENTRY_CASES[0][0], False), (ENTRY_CASES[4][0], True)],
                         ids=["small", "over-64KiB"])
def test_closed_stdout_exits_2(argv, over_64kib, tmp_path):
    # A report that cannot reach stdout is an input error, as an unwritable
    # --out is: one line and exit 2, not a BrokenPipeError traceback and exit
    # 1, which means a property violation.  The pipe's read end is closed
    # before the child starts, so every write to it fails.
    if over_64kib:  # more than a pipe's buffer holds
        out = tmp_path / "report.json"
        assert _in_process([*argv, "--out", str(out)])[0] == 1
        assert out.stat().st_size > 65536
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "seqsub", *argv], stdout=write, stderr=subprocess.PIPE,
                              env=_entry_env(), text=True, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert _messages(proc.stderr) == [f"error: out: cannot write stdout: {os.strerror(errno.EPIPE)}"]


@pytest.mark.parametrize("fd", [1, 2], ids=["stdout", "stderr"])
def test_entry_runs_with_a_stream_closed_from_the_start(fd, tmp_path):
    # With file descriptor 1 or 2 closed at start, sys.stdout or sys.stderr
    # is None; entry flushes neither, and a report that goes to --out still
    # ends in exit 0.
    out = tmp_path / "r.json"
    proc = subprocess.run([sys.executable, "-m", "seqsub", *ENTRY_CASES[0][0], "--out", str(out)],
                          preexec_fn=lambda: os.close(fd), env=_entry_env(), capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["command"] == "allocate"


def test_closed_stdout_without_out_exits_2():
    # With fd 1 closed from the start there is no sys.stdout to write the
    # report to: one line and exit 2, not an AttributeError traceback and exit 1.
    proc = subprocess.run([sys.executable, "-m", "seqsub", *ENTRY_CASES[0][0]], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), env=_entry_env(), text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert _messages(proc.stderr) == ["error: out: cannot write stdout: file descriptor 1 is closed"]


def _entry_run(argv, **streams):
    """`python -m seqsub argv` with `streams` passed to subprocess.run: (exit code, stdout bytes)."""
    proc = subprocess.run([sys.executable, "-m", "seqsub", *argv], stdout=subprocess.PIPE, env=_entry_env(),
                          timeout=120, **streams)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv, code", [ENTRY_CASES[0], ENTRY_CASES[5]], ids=["allocate", "malformed"])
def test_closed_stderr_changes_neither_report_nor_exit_code(argv, code, tmp_path):
    # With fd 2 closed sys.stderr is None, and the timing or error line is
    # dropped: it must not land on stdout, after the report.
    argv = [a.format(malformed=_malformed(tmp_path)) for a in argv]
    want = _in_process(argv)
    assert want[0] == code
    assert _entry_run(argv, preexec_fn=lambda: os.close(2)) == want[:2]


@pytest.mark.parametrize("argv, code", [ENTRY_CASES[0], ENTRY_CASES[5], ENTRY_CASES[7]],
                         ids=["allocate", "malformed", "guard"])
def test_unwritable_stderr_changes_neither_report_nor_exit_code(argv, code, tmp_path):
    # A read-only fd 2 fails every write: the timing or error line is lost,
    # and the report and the exit code are what they would be.
    argv = [a.format(malformed=_malformed(tmp_path), guard=_guard_sized(tmp_path)) for a in argv]
    want = _in_process(argv)
    assert want[0] == code
    (tmp_path / "stderr").write_text("")
    with open(tmp_path / "stderr", "rb") as read_only:
        assert _entry_run(argv, stderr=read_only) == want[:2]


def _clamped(tmp_path) -> Path:
    """A rewrite instance with k=1 and no rewrites, on which greedy_rewrite warns that it clamps k."""
    path = tmp_path / "clamped.json"
    data = json.loads((INSTANCES / "rewrite_two_paths.json").read_text())
    data.update(rewrites=[], k=1)
    path.write_text(json.dumps(data))
    return path


STDERR_CASES = [(*case, None) for case, name in zip(ENTRY_CASES, ENTRY_IDS) if name != "argparse"] + [
    (["rewrite", "--instance", "{clamped}"], 0, ["warning: k=1 exceeds the 0 available rewrites; clamping"]),
]


@pytest.mark.filterwarnings("ignore:k=.*exceeds")  # raised again by the in-process run
@pytest.mark.parametrize("argv, code, messages", STDERR_CASES,
                         ids=[name for name in ENTRY_IDS if name != "argparse"] + ["clamped-k"])
def test_a_run_writes_only_error_warning_and_timing_lines_to_stderr(argv, code, messages, tmp_path):
    # Past argument parsing, which prints argparse's usage, a run's stderr
    # is what cli notes: `error:` and `warning:` lines and the timing line.
    # A warning is one line, not Python's file path and source line, and
    # changes no report.
    argv = [a.format(malformed=_malformed(tmp_path), guard=_guard_sized(tmp_path), clamped=_clamped(tmp_path))
            for a in argv]
    out = tmp_path / "r.json"
    proc = subprocess.run([sys.executable, "-m", "seqsub", *argv, "--out", str(out)],
                          env=_entry_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    lines = proc.stderr.splitlines()
    assert lines
    for line in lines:
        assert re.fullmatch(r"(error|warning): .+|[a-z]+ finished in \d+\.\d{3}s", line), proc.stderr
    if messages is not None:
        assert _messages(proc.stderr) == messages
        assert re.fullmatch(rf"{argv[0]} finished in \d+\.\d{{3}}s", lines[-1]), proc.stderr
        plan = [{"consumed": {}, "rewrites": [], "type": "t1"}]
        assert json.loads(out.read_text())["outputs"] == {"duplicate_types": False, "plan": plan, "utility": 0.0}
        assert out.read_bytes() == _in_process(argv)[1]


GC_PROBE = """
import contextlib, gc, io, json, os, sys
if hasattr(os, "sched_setaffinity"):  # so verify runs its samples inline at every count
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
gc.disable()
from seqsub import cli
gc.collect()
with contextlib.redirect_stderr(io.StringIO()):
    assert cli.main(json.loads(sys.argv[1])) == 0
print(gc.collect())
"""


def _ad_instance(ads: int, types: int, seed: int) -> dict:
    rng = random.Random(seed)
    weights = [rng.uniform(0.2, 1.0) for _ in range(types)]
    return {
        "ads": [{"id": f"a{i}", "budget": rng.uniform(0.2, 1.0)} for i in range(ads)],
        "query_types": [{"id": f"t{j}", "prob": w / math.fsum(weights)} for j, w in enumerate(weights)],
        "bids": {f"a{i}": {f"t{j}": rng.uniform(0.1, 2.0) for j in range(types) if rng.random() < 0.5}
                 for i in range(ads)},
        "slots": 2,
        "horizon": 3.0,
    }


def test_cyclic_garbage_does_not_grow_with_the_input(tmp_path):
    # The premise of entry's gc.disable(): a run leaves the same handful of
    # unreachable cycles, however many samples or ads it works through.
    def garbage(argv):
        proc = subprocess.run([sys.executable, "-c", GC_PROBE, json.dumps([*argv, "--out", str(tmp_path / "r.json")])],
                              env=probe_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    verify = ["verify", "--instance", str(INSTANCES / "rewrite_two_paths.json"), "--samples"]
    assert garbage([*verify, "200"]) == garbage([*verify, "2000"])
    counts = []
    for ads, types in ((4, 3), (200, 40)):
        path = tmp_path / f"ads{ads}.json"
        path.write_text(json.dumps(_ad_instance(ads, types, seed=ads)))
        counts.append(garbage(["allocate", "--instance", str(path)]))
    assert counts[0] == counts[1]


SIMULATE_NO_NUMPY_PROBE = """
import sys
sys.modules["numpy"] = None
from seqsub import cli
sys.exit(cli.main(sys.argv[1:]))
"""


def test_simulate_without_numpy_names_the_extra():
    argv = ["simulate", "--instance", str(INSTANCES / "two_ads_two_types.json"), "--trials", "3", "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, "-c", SIMULATE_NO_NUMPY_PROBE, *argv],
        env=probe_env(), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert len(proc.stderr.splitlines()) == 1 and "seqsub[simulate]" in proc.stderr, proc.stderr


NO_NUMPY_PROBE = """
import json, sys
sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from seqsub import cli

out_dir, runs = sys.argv[1], json.loads(sys.argv[2])
for k, argv in enumerate(runs):
    cli.main([*argv, "--out", f"{out_dir}/probe{k}.json"])
"""


def test_verify_reports_are_the_same_without_numpy(tmp_path):
    # verify draws from seqcore.Stream alone: with numpy unimportable, its
    # reports on the README instances, with and without a planted violation
    # (whose witnesses print the sampled sequences), are those of a normal run.
    runs = [
        ["verify", "--instance", str(INSTANCES / name), "--checks", "mono,submod,deriv,lemma1",
         "--samples", "200", "--seed", "7", *planted]
        for name in ("two_ads_two_types.json", "rewrite_two_paths.json")
        for planted in ([], ["--planted-violation"])
    ]
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_PROBE, str(tmp_path), json.dumps(runs)],
        env=probe_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for k, argv in enumerate(runs):
        expected = tmp_path / f"expected{k}.json"
        with contextlib.redirect_stderr(io.StringIO()):
            main([*argv, "--out", str(expected)])
        assert (tmp_path / f"probe{k}.json").read_bytes() == expected.read_bytes(), argv


ORACLE_PROBE = """
import sys
from seqsub import cli

if sys.argv[1:]:
    assert cli.main(sys.argv[1:]) == 0
names = ("_hashlib", "dataclasses", "fractions", "inspect", "seqsub.oracle", "seqsub.qrewrite")
print(*(name for name in names if name in sys.modules))
"""


@pytest.fixture(scope="module")
def bare_modules():
    """The modules a bare Python process has loaded, in the probes' environment."""
    proc = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"], env=probe_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "command, oracle",
    [("allocate", False), ("rewrite", False), ("verify", False), ("allocate", True), ("rewrite", True),
     (None, False), ("simulate", False)],
)
def test_only_oracle_runs_load_the_oracle(command, oracle, tmp_path, bare_modules):
    # The oracle module and the fractions and decimal modules it imports are
    # loaded by --oracle alone.  No run, nor the import of seqsub.cli alone,
    # loads dataclasses or the inspect it imports, which every process start
    # would pay for; numpy, which simulate loads, imports both inspect and
    # fractions itself.  The input digest starts no OpenSSL (`_hashlib`),
    # except where numpy's import of hashlib or the bare interpreter already
    # has it.  Only the commands that read rewrite instances load
    # seqsub.qrewrite, with or without --oracle: the oracle names its
    # instance type in an annotation alone, so allocate --oracle loads none.
    args = [command, "--instance", str(INSTANCES / "rewrite_two_paths.json"), "--out", str(tmp_path / "r.json")]
    if command == "verify":
        args += ["--samples", "20"]
    if command == "simulate":
        args = [command, "--instance", str(INSTANCES / "two_ads_two_types.json"), "--trials", "3", "--seed", "1",
                "--out", str(tmp_path / "r.json")]
    if oracle:
        args.append("--oracle")
    proc = subprocess.run(
        [sys.executable, "-c", ORACLE_PROBE, *(args if command else [])], env=probe_env(), capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    if command == "simulate":
        assert not {"dataclasses", "seqsub.oracle", "seqsub.qrewrite"} & loaded
        return
    if "_hashlib" in bare_modules:
        loaded.discard("_hashlib")
    expected = {"fractions", "seqsub.oracle"} if oracle else set()
    if command in ("rewrite", "verify"):
        expected.add("seqsub.qrewrite")
    assert loaded == expected


def test_digest_without_the_builtin_sha256_comes_from_hashlib(tmp_path):
    # Where neither of CPython's builtin sha256 modules imports, the digest
    # is hashlib's, of the same bytes.
    probe = ("import hashlib, sys; sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
             "from seqsub import cli\n"
             "assert cli.sha256 is hashlib.sha256\n"
             "sys.exit(cli.main(sys.argv[1:]))")
    path = INSTANCES / "two_ads_two_types.json"
    out = tmp_path / "r.json"
    proc = subprocess.run([sys.executable, "-c", probe, "allocate", "--instance", str(path), "--out", str(out)],
                          env=probe_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["instance_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# bench/tracer.py wraps public names of the package; a rename must not break it
# ---------------------------------------------------------------------------

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_tracer_targets_resolve_and_a_traced_run_exits_0(tmp_path):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(owner.__name__, attr) for owner, attr, _, _ in tracer.TARGETS if not hasattr(owner, attr)]
    assert missing == []
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--spans", str(spans), "--", "verify",
         "--instance", str(INSTANCES / "rewrite_two_paths.json"), "--samples", "20",
         "--out", str(tmp_path / "r.json")],
        env=probe_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(spans.read_text())["spans"]


# ---------------------------------------------------------------------------
# golden reports: the README commands on instances/*.json, pinned by digest
# ---------------------------------------------------------------------------

GOLDEN = [
    (
        "allocate",
        ["allocate", "--instance", "two_ads_two_types.json", "--oracle"],
        "7b3a5ea169e387a5219c3500b1edccfdb4a9e1c70f6300f84cf0c4d789a47a9b",
    ),
    (
        "rewrite",
        ["rewrite", "--instance", "rewrite_two_paths.json", "--oracle"],
        "67bb5a6f815e9124ca0aeb41b587f42317bce5d31591bcd1501de347800ae9ff",
    ),
    (
        "simulate",
        ["simulate", "--instance", "two_ads_two_types.json", "--trials", "1000", "--seed", "42"],
        "d52f157bd511fd661e62a47b98c2944353a1e0e485d7d87d1a527f481e2feb5e",
    ),
    (
        "verify",
        ["verify", "--instance", "two_ads_two_types.json", "--checks", "mono,submod,deriv,lemma1",
         "--samples", "500", "--seed", "7"],
        "9303df134f20f89b07225905081cd173641ce499d851923cc124252d7e36513c",
    ),
    (
        "verify-plans",  # also draws plans, so it pins `random_plan`'s stream
        ["verify", "--instance", "rewrite_two_paths.json", "--checks", "mono,submod,deriv,lemma1",
         "--samples", "500", "--seed", "7"],
        "1875e0650bd2d283c8b3d9e758096656f187c5944d34026013629f43fdcbc420",
    ),
]


def _golden_argv(args) -> list:
    return [str(INSTANCES / a) if a.endswith(".json") else a for a in args]


@pytest.mark.parametrize("args, digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_readme_reports_match_golden_digests(args, digest, tmp_path):
    out = tmp_path / "report.json"
    assert main([*_golden_argv(args), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [_golden_argv(g[1]) for g in GOLDEN]
    + [argv for argv, code in ENTRY_CASES if code < 2],
    ids=[f"golden-{g[0]}" for g in GOLDEN]
    + [f"entry-{i}" for i, (_, code) in zip(ENTRY_IDS, ENTRY_CASES) if code < 2],
)
def test_reports_are_one_line_of_compact_sorted_json(argv, tmp_path):
    # A report is exactly what json.dumps writes with sort_keys and its default
    # separators, on stdout and with --out alike: one line, one newline.
    out = tmp_path / "report.json"
    for to_file in (False, True):
        code, stdout, _ = _in_process([*argv, "--out", str(out)] if to_file else argv)
        assert code in (0, 1)
        text = out.read_text() if to_file else stdout.decode()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
        assert text.count("\n") == 1


# ---------------------------------------------------------------------------
# the command contract: each cmd_* returns its report, and main writes it
# ---------------------------------------------------------------------------

CONTRACT_CASES = [
    ["allocate", "--instance", "two_ads_two_types.json", "--oracle"],
    ["rewrite", "--instance", "rewrite_two_paths.json", "--oracle"],
    ["simulate", "--instance", "two_ads_two_types.json", "--trials", "20", "--seed", "1", "--per-trial"],
    ["verify", "--instance", "rewrite_two_paths.json", "--samples", "20"],
]


@pytest.mark.parametrize("argv", CONTRACT_CASES, ids=[c[0] for c in CONTRACT_CASES])
def test_commands_return_the_report_and_write_nothing(argv, tmp_path, capfd):
    # A command reads no file and writes no stream, not even its --out:
    # it returns (params, outputs, exit code), and main writes those.
    out = tmp_path / "report.json"
    argv = [*_golden_argv(argv), "--out", str(out)]
    args = cli.build_parser().parse_args(argv)
    data = json.loads(Path(args.instance).read_text())
    result = getattr(cli, f"cmd_{argv[0]}")(args, data)
    assert [type(x) for x in result] == [dict, dict, int]
    assert capfd.readouterr() == ("", "")
    assert not out.exists()
    assert main(argv) == result[2]
    report = json.loads(out.read_text())
    assert [report["params"], report["outputs"]] == json.loads(json.dumps(result[:2]))
