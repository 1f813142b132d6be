"""CLI commands: reports, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seqsub import adalloc, stochsim
from seqsub.cli import main

from conftest import make_i1, make_i3

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


def test_simulate_bad_flags_exit_2(i1_file):
    assert main(["simulate", "--instance", str(i1_file), "--trials", "0", "--seed", "1"]) == 2
    assert main(["simulate", "--instance", str(i1_file), "--trials", "1", "--seed", "-1"]) == 2
    assert (
        main(["simulate", "--instance", str(i1_file), "--trials", "1", "--seed", "1", "--queries", "0"])
        == 2
    )


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
    # in utilities of order 1e9 as violations.
    data = json.loads((INSTANCES / "two_ads_two_types.json").read_text())
    for ad in data["ads"]:
        ad["budget"] *= 1e9
    for row in data["bids"].values():
        for tid in row:
            row[tid] *= 1e9
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(data))
    args = ["verify", "--instance", str(path), "--samples", "500", "--seed", "7"]
    code, report = run(args, tmp_path)
    assert report["outputs"]["violations"] == 0
    assert code == 0


def test_verify_planted_violation_exits_1(i1_file, tmp_path):
    code, report = run(
        [
            "verify",
            "--instance",
            str(i1_file),
            "--checks",
            "mono",
            "--samples",
            "100",
            "--seed",
            "5",
            "--planted-violation",
        ],
        tmp_path,
    )
    assert code == 1
    assert report["outputs"]["violations"] > 0
    witness = report["outputs"]["reports"][0]["violations"][0]["witness"]
    assert "a" in witness and "b" in witness


def test_verify_unknown_check_exits_2(i1_file, capsys):
    assert main(["verify", "--instance", str(i1_file), "--checks", "mono,nope"]) == 2
    assert "nope" in capsys.readouterr().err


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
    ],
    ids=["bid-infinity", "horizon-infinity", "budget-string", "ads-number", "prob-null",
         "bids-row-list", "slots-infinity", "slots-fraction", "slots-boolean", "slots-huge",
         "budgets-near-float-max", "bid-near-float-max"],
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
                 ("k", 1.9), ("k", True))
    for key, value in malformed:
        data = json.loads(original)
        data[key] = value
        path.write_text(json.dumps(data))
        assert main(["rewrite", "--instance", str(path)]) == 2
        assert key in capsys.readouterr().err


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
                parent[path[-1]] = value
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
def test_cli_fuzz_exits_0_2_or_3(edits):
    # verify is left out: exit 1 (a property violation) is a legal outcome there.
    data = _mutate(_fuzz_base(), edits)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(data))
        for command in FUZZ_COMMANDS:
            argv = [*command, "--instance", str(path), "--out", os.devnull]
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3), (argv, data)


# ---------------------------------------------------------------------------
# golden reports: the README commands on instances/*.json, pinned by digest
# ---------------------------------------------------------------------------

GOLDEN = [
    (
        ["allocate", "--instance", "two_ads_two_types.json", "--oracle"],
        "482faab05e615c433bed43e562823626b67b68fa06a32ece40cf3e3ab7727f6c",
    ),
    (
        ["rewrite", "--instance", "rewrite_two_paths.json", "--oracle"],
        "d480681f6294368e187b33b277fcb38ad14ef47b6401443b21d81147318462b7",
    ),
    (
        ["simulate", "--instance", "two_ads_two_types.json", "--trials", "1000", "--seed", "42"],
        "cc988454be91b56b83db4eb223f5cb629b00ac9cce9e22cf408d0b53752d8dde",
    ),
    (
        ["verify", "--instance", "two_ads_two_types.json", "--checks", "mono,submod,deriv,lemma1",
         "--samples", "500", "--seed", "7"],
        "228843f21c31eddcbf697575bfee9f74edcf071b1a7a2b3c0dad04b35cbde8f1",
    ),
]


@pytest.mark.parametrize("args, digest", GOLDEN, ids=[a[0] for a, _ in GOLDEN])
def test_readme_reports_match_golden_digests(args, digest, tmp_path):
    args = [str(INSTANCES / a) if a.endswith(".json") else a for a in args]
    out = tmp_path / "report.json"
    assert main([*args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
