"""CLI commands: reports, exit codes, determinism."""

import contextlib
import copy
import enum
import hashlib
import importlib.util
import io
import json
import math
import os
import random
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


def test_allocate_oracle_guard_exits_3(tmp_path):
    inst = adalloc.AdInstance.build(
        ads=[(f"a{i}", 1.0) for i in range(5)],
        query_types=[(f"t{j}", 0.25) for j in range(4)],
        bids={},
        slots=1,
        horizon=1.0,
    )
    path = tmp_path / "big.json"
    path.write_text(json.dumps(adalloc.instance_to_json(inst)))
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
    ],
    ids=["bid-infinity", "horizon-infinity", "budget-string", "ads-number", "prob-null",
         "bids-row-list", "slots-infinity", "slots-fraction", "slots-boolean", "slots-huge",
         "budgets-near-float-max", "bid-near-float-max", "slots-numeric-string", "budget-numeric-string",
         "prob-numeric-string", "bid-boolean", "horizon-boolean"],
)
def test_allocate_malformed_instance_exits_2(edit, field, tmp_path, capsys):
    data = adalloc.instance_to_json(make_i1())
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["allocate", "--instance", str(path)]) == 2
    assert field in capsys.readouterr().err


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

assert cli.main(sys.argv[1:]) == 0
print("seqsub.oracle" in sys.modules, "fractions" in sys.modules)
"""


@pytest.mark.parametrize(
    "command, oracle",
    [("allocate", False), ("rewrite", False), ("verify", False), ("allocate", True), ("rewrite", True)],
)
def test_only_oracle_runs_load_the_oracle(command, oracle, tmp_path):
    # The oracle module and the fractions and decimal modules it imports are
    # loaded by --oracle alone.
    args = [command, "--instance", str(INSTANCES / "rewrite_two_paths.json"), "--out", str(tmp_path / "r.json")]
    if command == "verify":
        args += ["--samples", "20"]
    if oracle:
        args.append("--oracle")
    proc = subprocess.run(
        [sys.executable, "-c", ORACLE_PROBE, *args], env=probe_env(), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(oracle)] * 2


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
        "482faab05e615c433bed43e562823626b67b68fa06a32ece40cf3e3ab7727f6c",
    ),
    (
        "rewrite",
        ["rewrite", "--instance", "rewrite_two_paths.json", "--oracle"],
        "d480681f6294368e187b33b277fcb38ad14ef47b6401443b21d81147318462b7",
    ),
    (
        "simulate",
        ["simulate", "--instance", "two_ads_two_types.json", "--trials", "1000", "--seed", "42"],
        "cc988454be91b56b83db4eb223f5cb629b00ac9cce9e22cf408d0b53752d8dde",
    ),
    (
        "verify",
        ["verify", "--instance", "two_ads_two_types.json", "--checks", "mono,submod,deriv,lemma1",
         "--samples", "500", "--seed", "7"],
        "228843f21c31eddcbf697575bfee9f74edcf071b1a7a2b3c0dad04b35cbde8f1",
    ),
    (
        "verify-plans",  # also draws plans, so it pins `random_plan`'s stream
        ["verify", "--instance", "rewrite_two_paths.json", "--checks", "mono,submod,deriv,lemma1",
         "--samples", "500", "--seed", "7"],
        "9d6a036a7434991f1a207af26d4a1f0e546a78c1c32d50b18a1d2f2ecec754bb",
    ),
]


@pytest.mark.parametrize("args, digest", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN])
def test_readme_reports_match_golden_digests(args, digest, tmp_path):
    args = [str(INSTANCES / a) if a.endswith(".json") else a for a in args]
    out = tmp_path / "report.json"
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ---------------------------------------------------------------------------
# the report writer against json.dumps(sort_keys=True, indent=2)
# ---------------------------------------------------------------------------

FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e-7, 0.1, -1.5e300,
          float("inf"), float("-inf"), float("nan"))
CHARS = 'ab"\\/\x00\x07\n\t\x1f\x7f\xe4\u2028\ufeff\U0001f600 '


def _fuzz_text(rng: random.Random) -> str:
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def _fuzz_value(rng: random.Random, depth: int):
    kind = rng.randrange(10 if depth < 4 else 7)
    if kind == 0:
        return _fuzz_text(rng)
    if kind == 1:
        return rng.choice((None, True, False))
    if kind == 2:
        return rng.choice((0, 1, -1, 2**64, -(2**100), rng.randrange(-10**6, 10**6)))
    if kind in (3, 4):
        return rng.choice(FLOATS) if kind == 3 else rng.uniform(-1e3, 1e3) * 10.0 ** rng.randrange(-30, 30)
    if kind in (5, 6):
        return rng.choice(([], {}, (), [[]], {"": {}}))
    items = [_fuzz_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 7:
        return items
    if kind == 8:
        return tuple(items)
    return {_fuzz_text(rng): item for item in items}


def _written(value) -> str:
    out: list = []
    cli._write(value, out, "\n")
    return "".join(out)


def test_writer_matches_json_dumps_on_fuzzed_reports():
    rng = random.Random(2)
    for _ in range(1500):
        report = {_fuzz_text(rng): _fuzz_value(rng, 0) for _ in range(rng.randrange(6))}
        assert _written(report) == json.dumps(report, sort_keys=True, indent=2)
    # Subclasses are written as their base type, whatever their repr.
    value = [True, 1, False, 0, 1.0, -0.0, enum.IntEnum("Level", "LOW").LOW, _Float(2.5), (2**70,)]
    assert _written(value) == json.dumps(value, sort_keys=True, indent=2)


class _Float(float):
    def __repr__(self):
        return "a float"


@pytest.mark.parametrize("value", [{1: "a"}, {"a": {None: 1}}, [{(1,): 2}], {"a": {1, 2}}, [object()], b"x"])
def test_writer_rejects_what_json_reports_cannot_hold(value):
    with pytest.raises(TypeError):
        _written(value)
