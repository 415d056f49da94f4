"""The committed benchmark records and the script that writes them."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_record  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_committed_record_names_its_fields(path):
    # the fields only: the numbers are the machine's, not the code's
    record = json.loads(path.read_text(encoding="utf-8"))
    for field in ("commit", "src_sha256"):
        assert set(record[field]) == set(bench_record.SIDES), field
    assert record["machine"] and record["seeds"]
    assert set(record["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for workload in record["workloads"].values():
        assert workload["pairs"] >= 1
        assert set(workload["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        for metric in workload["metrics"].values():
            assert "wins" in metric
            for side in bench_record.SIDES:
                assert {"median", "iqr"} <= set(metric[side])


def _result(workload: str, seed: int, commit: str, ops_per_s: float) -> dict:
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    metrics["ops_per_s"]["value"] = ops_per_s
    return {"workload": workload, "seed": seed, "seconds": 15, "trace": 0, "attempted": 10, "failed": 0,
            "machine": {"python": "3.11.7", "cpu_model": "x", "pinned_cpu": seed % 2},
            "source": {"git_commit": commit, "src_sha256": commit * 2}, "metrics": metrics}


def test_record_pairs_runs_by_workload_and_seed(tmp_path):
    sides = {"parent": [30.0, 40.0, 50.0], "change": [45.0, 35.0, 55.0]}
    for side, rates in sides.items():
        results = tmp_path / side
        results.mkdir()
        for seed, rate in enumerate(rates, 1):
            run = _result("display-grid", seed, side[0], rate)
            (results / f"display-grid-seed{seed}-trace0.json").write_text(json.dumps(run), encoding="utf-8")
        # a traced run and an unpaired seed are not pairs
        (results / "display-grid-seed1-trace1.json").write_text("{}", encoding="utf-8")
    (tmp_path / "parent" / "display-grid-seed9-trace0.json").write_text(
        json.dumps(_result("display-grid", 9, "p", 1.0)), encoding="utf-8")
    out = tmp_path / "BENCH_0.json"
    assert bench_record.main([str(tmp_path / "parent"), str(tmp_path / "change"), "-o", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["commit"] == {"parent": "p", "change": "c"}
    assert record["seeds"] == [1, 2, 3]
    grid = record["workloads"]["display-grid"]
    assert (grid["pairs"], grid["seeds"], grid["failed"]) == (3, [1, 2, 3], {"parent": 0, "change": 0})
    rate = grid["metrics"]["ops_per_s"]
    assert (rate["wins"], rate["parent"]["median"], rate["change"]["median"]) == (2, 40.0, 45.0)
    assert (rate["parent"]["iqr"], rate["change"]["iqr"]) == (10.0, 10.0)
    assert grid["metrics"]["setup_s"]["wins"] == 0  # a tie is no win


def test_record_refuses_mixed_commits(tmp_path):
    runs = {("display-grid", 1): _result("display-grid", 1, "a", 1.0),
            ("display-grid", 2): _result("display-grid", 2, "b", 1.0)}
    with pytest.raises(ValueError, match="parent commit"):
        bench_record.record(runs, runs, SPEC)
