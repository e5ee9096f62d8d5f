"""Self-test of the benchmark, run from anywhere:

    python3 perfbench/smoke.py

Runs every workload at the tiny `smoke` size, untraced and traced, each
in its own process with every output check on, and requires a correct
result with no failed operation and exactly the metrics BENCHMARK.json
names.  Then runs the benchmark in a directory holding only
BENCHMARK.json and the benchmark's files, where it must fail without
printing a result.  Every run starts a session of its own, and no
process of that session may be left once the run has exited.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def session_members(sid: int) -> list[int]:
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getsid(int(entry)) == sid:
                    members.append(int(entry))
            except OSError:
                pass
    return members


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), *args]
    with subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as proc:
        out, err = proc.communicate(timeout=600)
    left = session_members(proc.pid)
    assert not left, f"{' '.join(args)}: processes {left} outlived the run"
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def check_run(spec: dict, workload: str, trace: int):
    proc = bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                 "--trace", str(trace), "--scale", "smoke")
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise SystemExit(f"{label}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (label, result)
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, label
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (label, m["name"], got)
        assert math.isfinite(got["value"]), (label, m["name"], got)
        if not trace:
            assert got["value"] > 0, (label, m["name"], got)
    print(f"ok  {label}: {result['attempted']} operations")


def check_without_sources():
    bare = ROOT / ".perfbench_out" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, "--workload", "collect", "--seed", "7", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok  without sources: exit {proc.returncode}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_without_sources()


if __name__ == "__main__":
    main()
