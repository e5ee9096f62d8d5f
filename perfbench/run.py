"""Pipeline benchmark for quadgait.

    python3 perfbench/run.py --workload collect --seed 1 --seconds 30 --trace 0

Runs one workload (collect, clone or expert-rollout) from the root of a
source checkout, through `quadgait.cli.main` in this process, for as
many whole rounds as fit in `--seconds` at the workload's nominal round
time (at least one).  Every round's outputs are checked.  The last line of standard output is one
JSON object: `correct`, `attempted` and `failed` CLI operations, and
`metrics`, the end-to-end metrics (`--trace 0`) or the per-layer metrics
of a traced run (`--trace 1`).  The result and the run's environment are
also written to `.perfbench_out/results/`.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["collect", "clone", "expert-rollout"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "smoke"], default="full",
                   help="input sizes; 'smoke' is the self-test's tiny size")
    return p.parse_args(argv)


def environment(seed: int) -> dict:
    import numpy as np

    from quadgait.dataset import usable_cpus
    from quadgait.network import _openblas_threads

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ctl = _openblas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(ctl[0]()) if ctl else None,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(("OPENBLAS_", "OMP_"))},
        "usable_cpus": usable_cpus(),
        "machine": platform.machine(),
        "seed": seed,
    }


def interpreter_s(src: Path, times: int = 5) -> float:
    """Median wall time of a fresh interpreter that imports the CLI:
    the part of set-up a user pays before any input exists."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    walls = []
    for _ in range(times):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import quadgait.cli"], env=env, check=True)
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    finished child (ru_maxrss is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run(args) -> dict:
    from quadgait.dataset import usable_cpus

    from checks import CheckFailed
    from layers import per_layer
    from tracing import Tracer
    from workloads import DT, SCALES, WORKLOADS

    sizes = SCALES[args.scale]
    work = OUT / "work" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work, args.seed, sizes)
    tracers = {k: Tracer() for k in ("coarse", "serial", "fine", "probe")} if args.trace else None
    errors: list[str] = []
    try:
        t_inputs = perf_counter()
        wl.setup(tracers)
        inputs_s = perf_counter() - t_inputs
        try:
            if wl.failed == 0:
                wl.check_setup()
        except CheckFailed as exc:
            errors.append(f"set-up: {exc}")
        rounds = wl.rounds(args.seconds, traced=bool(args.trace))
        for k in range(rounds):
            failed0 = wl.failed
            if args.trace:
                wl.traced_round(k, tracers)
            else:
                wl.run_round(k)
            if wl.failed == failed0:
                try:
                    wl.check_round(k)
                except CheckFailed as exc:
                    errors.append(f"round {k}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        collected = wl.coarse_collects > 0
        metrics = per_layer(
            tracers["fine"], rounds,
            tracers["coarse"] if collected else None,
            tracers["serial"] if collected else None,
            tracers["probe"],
            coarse_collects=wl.coarse_collects, workers=min(usable_cpus(), wl.cells),
            epochs=sizes.epochs, rollout_ticks=int(round(sizes.rollout_duration / DT)),
            written_bytes=wl.written_bytes,
        )
    else:
        rss = peak_rss_mb()   # before the set-up probes below become children too
        metrics = {"setup_s": (interpreter_s(ROOT / "src") + inputs_s, "s"), "peak_rss_mb": (rss, "MB")}
        metrics.update(wl.end_to_end())
    result = {
        "correct": not errors,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "scale": args.scale, "rounds": rounds, "environment": environment(args.seed),
              "errors": errors, "failures": wl.failures, "stage_s": wl.stage_s,
              "details": wl.details, "result": result}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in errors + wl.failures:
        print(f"perfbench: {line}", file=sys.stderr)
    return result


def stop_resource_tracker():
    """The program's spawned pools (`collect`, `train_many`) start
    multiprocessing's resource tracker, a process that would outlive
    this one.  Release the pools' semaphores, then stop the tracker and
    wait for it to end."""
    from multiprocessing import resource_tracker

    gc.collect()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "quadgait" / "__init__.py").is_file():
        print(f"perfbench: no quadgait sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    try:
        result = run(args)
    finally:
        stop_resource_tracker()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
