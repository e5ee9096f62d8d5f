"""Write a BENCH_<pr>.json file from perfbench run records.

Each side of a comparison is a source checkout in which
`python3 perfbench/run.py --workload <w> --seed <s> --seconds <t>` ran;
its records are in `<checkout>/.perfbench_out/results/*.json`.  Untraced
records (`--trace 0`) are paired by workload and seed; every seed that
both sides ran is one pair.  Traced records (`--trace 1`) give the
per-layer metrics of the first seed per workload that both sides traced.

    python3 tools/bench_record.py --pr 14 --parent ../parent --change . --out BENCH_14.json

The end-to-end metrics are the ones `BENCHMARK.json` lists.  Medians and
quartiles use numpy.percentile with linear interpolation; a pair counts
as "change lower" when the change's value is below the parent's.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_records(checkout: Path) -> dict:
    """{(workload, trace, seed): (record, mtime)} of the full-scale runs;
    `perfbench/smoke.py`'s `--scale smoke` runs are skipped.  A key run
    twice on one side is an error: the record reports every run made,
    and which of two runs to pair is not for this tool to choose."""
    records, paths = {}, {}
    for path in sorted((checkout / ".perfbench_out" / "results").glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("scale", "full") != "full":
            continue
        key = (record["workload"], record["trace"], record["environment"]["seed"])
        if key in records:
            sys.exit(f"bench_record: {key[0]} seed {key[2]} (trace {key[1]}) ran more than once "
                     f"in {checkout}: {paths[key].name}, {path.name}")
        records[key], paths[key] = (record, path.stat().st_mtime), path
    return records


def git_sha(checkout: Path) -> str | None:
    done = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1),
            "runs": [float(v) for v in values]}


def workload_entry(pairs: list, metrics: list[dict]) -> dict:
    """pairs: [(seed, (parent record, mtime), (change record, mtime))]."""
    sides = {"parent": [p for _, p, _ in pairs], "change": [c for _, _, c in pairs]}
    entry = {
        "pairs": len(pairs),
        "seeds": [seed for seed, _, _ in pairs],
        "parent_first": [p[1] < c[1] for _, p, c in pairs],
        "correct": {side: all(r["result"]["correct"] for r, _ in runs) for side, runs in sides.items()},
        "failed_ops": {side: sum(r["result"]["failed"] for r, _ in runs) for side, runs in sides.items()},
        "attempted_ops": {side: sum(r["result"]["attempted"] for r, _ in runs) for side, runs in sides.items()},
        "metrics": {},
    }
    errors = {side: {str(r["environment"]["seed"]): r["errors"] + r["failures"] for r, _ in runs
                     if r["errors"] or r["failures"]} for side, runs in sides.items()}
    if any(errors.values()):
        entry["errors"] = errors
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["result"]["metrics"][name]["value"] for r, _ in runs]
                  for side, runs in sides.items()}
        parent, change = summary(values["parent"]), summary(values["change"])
        entry["metrics"][name] = {
            "unit": metric["unit"],
            "parent": parent,
            "change": change,
            "change_lower_in_pairs": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
        }
    return entry


def build(pr: int, parent_dir: Path, change_dir: Path, parent_sha: str | None = None,
          change_sha: str | None = None) -> dict:
    """The BENCH record; the SHAs default to each checkout's HEAD."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_records(parent_dir), load_records(change_dir)
    common = sorted(set(parent) & set(change))
    untraced = [key for key in common if key[1] == 0]
    if not untraced:
        sys.exit("bench_record: no untraced seed was run on both sides")
    first = parent[untraced[0]][0]
    environment = {k: v for k, v in change[untraced[0]][0]["environment"].items() if k != "seed"}
    record = {
        "pr": pr,
        "parent_sha": parent_sha or git_sha(parent_dir),
        "change_sha": change_sha or git_sha(change_dir),
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {first['seconds']:g} "
                   "--trace 0",
        "pairing": "one parent run and one change run per seed, each from its own checkout; "
                   "parent_first gives each pair's order, from the record files' times",
        "quartiles": "numpy.percentile, linear interpolation",
        "environment": environment,
        "workloads": {},
        "per_layer": {},
    }
    for workload in [w["name"] for w in bench["workloads"]]:
        pairs = [(seed, parent[(w, t, seed)], change[(w, t, seed)])
                 for w, t, seed in untraced if w == workload]
        if pairs:
            record["workloads"][workload] = workload_entry(pairs, bench["end_to_end"])
        traced = [key for key in common if key[0] == workload and key[1] == 1]
        if traced:
            layers = {}
            for side, records in (("parent", parent), ("change", change)):
                result = records[traced[0]][0]["result"]
                layers[side] = {"correct": result["correct"],
                                "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            record["per_layer"][workload] = {"seed": traced[0][2], **layers}
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    p.add_argument("--change", type=Path, required=True, help="the change's checkout")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    record = build(args.pr, args.parent, args.change)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
