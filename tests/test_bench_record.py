"""tools/bench_record.py pairs perfbench run records by workload and seed
and writes the BENCH file's statistics."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(checkout, workload, seed, trace, values, when, correct=True, errors=(), pid=1,
           scale="full"):
    results = checkout / ".perfbench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "trace": trace, "seconds": 30.0, "scale": scale,
              "environment": {"numpy": "2.x", "seed": seed}, "errors": list(errors), "failures": [],
              "result": {"correct": correct, "attempted": 4, "failed": 0,
                         "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}}
    path = results / f"{workload}-s{seed}-t{trace}-p{pid}.json"
    path.write_text(json.dumps(record))
    os.utime(path, (when, when))


def test_pairs_by_workload_and_seed(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    metrics = ("setup_s", "peak_rss_mb", "stage_s", "tick_us")
    for k, seed in enumerate((11, 12, 13, 14)):
        first, second = (parent, change) if k % 2 == 0 else (change, parent)
        _write(first, "collect", seed, 0, {m: 10.0 + k for m in metrics}, 1000 + 2 * k)
        _write(second, "collect", seed, 0, {m: 10.0 + k + (1 if first is change else -1) for m in metrics},
               1001 + 2 * k, correct=seed != 13, errors=["round 0: R2 low"] if seed == 13 else ())
    _write(parent, "collect", 99, 0, {m: 1.0 for m in metrics}, 2000)  # no partner: not a pair
    _write(parent, "clone", 5, 1, {"network.elu.self_s": 0.5}, 3000)
    _write(change, "clone", 5, 1, {"network.elu.self_s": 0.4}, 3001)
    record = _tool().build(14, parent, change, "aaa", "bbb")
    entry = record["workloads"]["collect"]
    assert entry["seeds"] == [11, 12, 13, 14] and entry["pairs"] == 4
    assert entry["parent_first"] == [True, False, True, False]
    assert entry["correct"] == {"parent": True, "change": False}
    assert entry["errors"] == {"parent": {}, "change": {"13": ["round 0: R2 low"]}}
    stage = entry["metrics"]["stage_s"]
    # parent 10, 12, 12, 14 against change 9, 11, 11, 13: lower in every pair
    assert stage["parent"]["runs"] == [10.0, 12.0, 12.0, 14.0] and stage["change"]["median"] == 11.0
    assert stage["parent"]["q1"] == 11.5 and stage["parent"]["iqr"] == pytest.approx(1.0)
    assert stage["change_lower_in_pairs"] == 4 and stage["median_ratio"] == pytest.approx(11 / 12)
    assert record["per_layer"]["clone"]["seed"] == 5
    assert record["per_layer"]["clone"]["change"]["metrics"] == {"network.elu.self_s": 0.4}
    assert (record["parent_sha"], record["change_sha"]) == ("aaa", "bbb")
    assert record["environment"] == {"numpy": "2.x"}


def test_seed_run_twice_on_one_side_is_an_error(tmp_path):
    # a retry would otherwise replace the earlier run, and the record would
    # no longer report every run made
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        _write(checkout, "collect", 11, 0, {"stage_s": 4.0}, 1000)
    _write(change, "collect", 11, 0, {"stage_s": 3.0}, 1002, pid=2)
    with pytest.raises(SystemExit, match=r"collect seed 11 \(trace 0\) ran more than once.*"
                                         r"collect-s11-t0-p1.json, collect-s11-t0-p2.json"):
        _tool().build(14, parent, change, "aaa", "bbb")


def test_smoke_runs_are_not_paired(tmp_path):
    # perfbench/smoke.py runs every workload at seed 7 in the checkout;
    # two self-tests must not make the checkout unpairable
    parent, change = tmp_path / "parent", tmp_path / "change"
    metrics = ("setup_s", "peak_rss_mb", "stage_s", "tick_us")
    for checkout in (parent, change):
        _write(checkout, "clone", 7, 0, {m: 4.0 for m in metrics}, 1000)
        for pid in (2, 3):
            _write(checkout, "clone", 7, 0, {m: 0.1 for m in metrics}, 900, pid=pid, scale="smoke")
            _write(checkout, "clone", 8, 1, {"network.elu.self_s": 0.1}, 900, pid=pid, scale="smoke")
    record = _tool().build(19, parent, change, "aaa", "bbb")
    assert record["workloads"]["clone"]["pairs"] == 1
    assert record["workloads"]["clone"]["metrics"]["stage_s"]["parent"]["runs"] == [4.0]
    assert record["per_layer"] == {}
