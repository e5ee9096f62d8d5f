"""Paired A/B timing of the closed-loop tick of two source checkouts.

Loads `<A>/src/quadgait` and `<B>/src/quadgait` into one process under
the package names `quadgait_a` and `quadgait_b`, on one OpenBLAS thread,
and alternates them pair by pair in ABBA order (A B, B A, A B, ...).
Each sample is the process CPU time of one run of a unit:

- `rollout`: four one-robot expert `closed_loop_rollout` calls of 1.5 s
  with a `RolloutLog` (trot, bound and jump at vx 0.2, trot at vx 0), the
  calls of the benchmark's `expert-rollout` round;
- `collect` (`--collect N` pairs): one `dataset.collect` campaign on the
  benchmark's `collect` plan (trot, bound and jump, 2 cells per gait,
  800 ticks, seed 1).

    python3 tools/ab_tick.py --a ../parent --b . --pairs 24 --collect 4

Per unit it prints the median ratio B/A over the pairs, the 10-90% range
of the ratios and the share of pairs with B < A.  An A/A run (the same
checkout twice) shows the noise: its range should contain 1.0.  A first,
untimed run of each side warms it up and gives its outputs (the logs'
or the samples' bytes), which are compared: a difference is reported.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads OpenBLAS

import argparse
import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

ROLLOUTS = [("trot", 0.2), ("bound", 0.2), ("jump", 0.2), ("trot", 0.0)]
COLLECT_CONFIG = "seed = 1\ndata.gaits = trot,bound,jump\ndata.cells_per_gait = 2\ndata.samples_per_traj = 800\n"


def load(checkout: Path, name: str):
    """The checkout's `src/quadgait` imported as the package `name`."""
    root = checkout.resolve() / "src" / "quadgait"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("config", "dataset", "evaluation", "gait", "robot", "simulation"):
        importlib.import_module(f"{name}.{module}")
    return package


def rollouts(pkg) -> bytes:
    """The benchmark's four expert rollouts; returns their logs' bytes."""
    cfg = pkg.config.parse_config("")
    logs = []
    for gait, vx in ROLLOUTS:
        log = pkg.simulation.RolloutLog()
        pkg.evaluation.closed_loop_rollout(cfg.robot(), cfg.contact(), cfg.gait(gait),
                                           pkg.gait.VelocityCommand(vx, 0.0, 0.0), 1.5,
                                           expert_gains=cfg.expert_gains(), log_target=log)
        logs.append(log.as_array().tobytes())
    return b"".join(logs)


def collect(pkg) -> bytes:
    """One `collect` campaign on the benchmark's plan; returns its samples' bytes."""
    cfg = pkg.config.parse_config(COLLECT_CONFIG)
    train, holdout, _ = pkg.dataset.collect(cfg.plan(), cfg.robot(), cfg.contact(), cfg["sim.dt"],
                                            cfg.expert_gains())
    return b"".join(d.obs.tobytes() + d.act.tobytes()
                    for table in (train, holdout) for _, d in sorted(table.items()))


def sample(unit, pkg) -> tuple[float, bytes]:
    t0 = time.process_time()
    out = unit(pkg)
    return time.process_time() - t0, out


def report(name: str, a: list[float], b: list[float]):
    ratio = np.array(b) / np.array(a)
    lo, med, hi = np.percentile(ratio, [10, 50, 90])
    wins = int(np.sum(ratio < 1.0))
    print(f"{name}: B/A median {med:.3f}, 10-90% [{lo:.3f}, {hi:.3f}], B faster in {wins}/{len(ratio)} "
          f"pairs; CPU s per sample, A median {np.median(a):.3f}, B median {np.median(b):.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="checkout A (the parent)")
    parser.add_argument("--b", type=Path, required=True, help="checkout B (the change)")
    parser.add_argument("--pairs", type=int, default=20, help="A/B pairs of rollout samples")
    parser.add_argument("--collect", type=int, default=0, help="A/B pairs of collect samples")
    args = parser.parse_args()
    sides = (load(args.a, "quadgait_a"), load(args.b, "quadgait_b"))
    units = [("rollout", rollouts, args.pairs)] + [("collect", collect, args.collect)] * (args.collect > 0)
    for name, unit, pairs in units:
        outputs = [sample(unit, pkg)[1] for pkg in sides]  # warm-up, and the outputs compared
        if outputs[0] != outputs[1]:
            print(f"{name}: the outputs of A and B differ")
        times = ([], [])
        for i in range(pairs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                times[side].append(sample(unit, sides[side])[0])
        report(name, *times)
    return 0


if __name__ == "__main__":
    sys.exit(main())
