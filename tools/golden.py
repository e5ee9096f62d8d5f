"""Check that the CLI writes the same bytes as the recorded golden table.

Runs the pipeline on a small fixed config (seed 17, trot, bound and
jump, 2 cells per gait x 600 ticks, `eval.transient = 0.2`) in a
temporary directory, each command in its own `python -m quadgait.cli`
subprocess of this checkout with OPENBLAS_NUM_THREADS=1:

    python3 tools/golden.py

It prints the first 16 hex digits of the SHA-256 of every output file
and of every command's stdout, with the numpy and BLAS versions, and
exits 1 if any differs from GOLDEN (or a command fails).  Float results depend on the numpy
build and on the BLAS kernels it picks, so the table holds for the
build it was recorded on (RECORDED_ON): a mismatch there is a
regression, a mismatch on another build may be that build alone, and
the report says which.  Not part of the test suite; it takes about
10 s.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = """seed = 17
data.cells_per_gait = 2
data.samples_per_traj = 600
eval.transient = 0.2
"""

# (name of the stdout entry, argv after the config), run in this order
RUNS = [
    ("collect", ["collect", "--out", "data"]),
    ("train_mtl", ["train", "--data", "data", "--arch", "mtl", "--epochs", "4", "--out", "mtl.qmp"]),
    ("train_single", ["train", "--data", "data", "--arch", "single", "--epochs", "4",
                      "--out", "single.qmp"]),
    ("eval", ["eval", "--model", "mtl.qmp", "--baseline", "single.qmp", "--data", "data",
              "--out", "eval"]),
    *[(f"rollout_{gait}", ["rollout", "--expert", "--gait", gait, "--vx", "0.2", "--duration", "0.8",
                           "--log", f"expert_{gait}.csv"]) for gait in ("trot", "bound", "jump")],
    ("rollout_model", ["rollout", "--model", "mtl.qmp", "--gait", "trot", "--duration", "0.8",
                       "--log", "model_trot.csv"]),
]

RECORDED_ON = "numpy 2.4.6, scipy-openblas 0.3.31.188.0"
GOLDEN = {
    "collect.stdout": "f19dcbc57d91a994",
    "train_mtl.stdout": "db4f7c244618b3f6",
    "train_single.stdout": "f39f63799f9ea1e4",
    "eval.stdout": "473e6a5f014cbb0c",
    "rollout_trot.stdout": "53a1a0d1e1edeb24",
    "rollout_bound.stdout": "7d3f356e81af73df",
    "rollout_jump.stdout": "e994852c59d9fa4b",
    "rollout_model.stdout": "e6ced9eb7b0622a8",
    "data/bound_holdout.qgd": "3958c7ca9c9c73d4",
    "data/bound_train.qgd": "af4babb4d1be811c",
    "data/jump_holdout.qgd": "185956cc484aa8dd",
    "data/jump_train.qgd": "f4da316302edd2f0",
    "data/trot_holdout.qgd": "557dfc1c6e49aba4",
    "data/trot_train.qgd": "6f47adda9accec48",
    "data/collection_report.txt": "5c389943d283e099",
    "mtl.qmp": "3f05d7f850f17144",
    "mtl_curves.csv": "97c688a5c0b32232",
    "single.qmp": "fc818d203bf460ca",
    "single_curves.csv": "b05e23a1e0ab2b9e",
    "eval/metrics.csv": "c2663602342b08d9",
    "eval/traj_fl.csv": "e49d378a6c11476a",
    "expert_trot.csv": "c505f12ac9132bf9",
    "expert_bound.csv": "e25abb5c0bb1faba",
    "expert_jump.csv": "b491feb11faa75c9",
    "model_trot.csv": "e241d65639b6bf76",
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def build() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas.get('name')} {blas.get('version')}"


def main() -> int:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    got = {}
    with tempfile.TemporaryDirectory(prefix="quadgait-golden-") as tmp:
        work = Path(tmp)
        (work / "run.cfg").write_text(CONFIG)
        for name, argv in RUNS:
            done = subprocess.run([sys.executable, "-m", "quadgait.cli", argv[0], "--config", "run.cfg",
                                   *argv[1:]], cwd=work, env=env, capture_output=True)
            if done.returncode not in (0, 4):  # 4: a rollout that falls, with its log written
                print(f"{name}: exit {done.returncode}\n{done.stderr.decode(errors='replace')}")
                return 1
            got[f"{name}.stdout"] = digest(done.stdout)
        for key in GOLDEN.keys() - got.keys():
            got[key] = digest((work / key).read_bytes())

    here = build()
    print(f"built on {here}; table recorded on {RECORDED_ON}")
    bad = [key for key in GOLDEN if got[key] != GOLDEN[key]]
    for key in GOLDEN:
        print(f"{got[key]}  {key}" + (f"  MISMATCH, recorded {GOLDEN[key]}" if key in bad else ""))
    if not bad:
        print(f"all {len(GOLDEN)} outputs match")
        return 0
    if here == RECORDED_ON:
        print(f"{len(bad)} of {len(GOLDEN)} outputs differ on the recording build: a regression")
    else:
        print(f"{len(bad)} of {len(GOLDEN)} outputs differ, on another numpy/BLAS build than the "
              "recorded one: not by itself a regression")
    return 1


if __name__ == "__main__":
    sys.exit(main())
