"""The benchmark's three workloads, each driving `quadgait.cli.main`
in-process on a config file generated from the seed.

A workload writes its inputs in `setup`, then runs whole rounds of the
same CLI stages.  `run_round` times them untraced; `traced_round` runs
the same stages with spans recorded.  `check_round` verifies a round's
outputs outside every timed region.
"""

from __future__ import annotations

import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import layers
from tracing import Tracer

DT = 1e-3
GATE_TICKS = 2000           # expert_gate_check: 2 s per gait at 1 kHz
HOLDOUT_VX = (0.22, -0.08)  # the desk plan's holdout commands


@dataclass(frozen=True)
class Sizes:
    gaits: tuple[str, ...]
    collect_cells_per_gait: int   # from the desk grid (5 vx x 3 vy), seeded
    collect_samples: int          # ticks per collect cell
    corpus_samples: int           # ticks per clone-corpus cell
    epochs: int                   # per train stage
    replay_segment: int           # ticks between head switches in the replay
    rollout_duration: float       # seconds per rollout call
    backward_probes: int          # traced backward() calls on clone


FULL = Sizes(("trot", "bound", "jump"), 2, 800, 1000, 15, 500, 1.5, 40)
SMOKE = Sizes(("trot", "bound"), 1, 100, 600, 15, 100, 0.6, 5)
SCALES = {"full": FULL, "smoke": SMOKE}


class Workload:
    name = ""
    # nominal seconds per round, untraced and traced, on the 2-core
    # reference machine: a run does seconds // ROUND_S rounds, so every
    # run of a workload does the same work whatever the machine's load
    ROUND_S: float
    TRACED_ROUND_S: float
    cells = 0           # collection cells per collect stage
    coarse_collects = 0   # collect stages the traced run times through the pool
    written_bytes = 0     # .qgd bytes those stages wrote

    def __init__(self, work: Path, seed: int, sizes: Sizes):
        import quadgait.cli

        self.cli_module = quadgait.cli
        self.work, self.seed, self.sizes = work, seed, sizes
        self.config = work / "config.txt"
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.stage_s: list[float] = []
        self.tick_us: list[float] = []
        self.details: dict[str, list] = {}

    # helpers -------------------------------------------------------------
    def cli(self, *argv) -> bool:
        self.attempted += 1
        argv = [str(a) for a in argv]
        rc = self.cli_module.main(argv)
        if rc != 0:
            self.failed += 1
            self.failures.append(f"exit {rc}: quadgait {' '.join(argv)}")
        return rc == 0

    def note(self, key: str, value: float):
        self.details.setdefault(key, []).append(value)

    def round_dir(self, k: int) -> Path:
        path = self.work / f"round{k}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def write_config(self, lines: list[str]):
        self.config.write_text("\n".join([f"seed = {self.seed}"] + lines) + "\n")

    def rounds(self, seconds: float, traced: bool) -> int:
        return max(1, int(seconds // (self.TRACED_ROUND_S if traced else self.ROUND_S)))

    # interface ---------------------------------------------------------------
    def setup(self, tracers: dict | None = None):
        raise NotImplementedError

    def run_round(self, k: int):
        raise NotImplementedError

    def traced_round(self, k: int, tracers: dict):
        raise NotImplementedError

    def check_setup(self):
        pass

    def check_round(self, k: int):
        raise NotImplementedError

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        return {"stage_s": (statistics.median(self.stage_s), "s"),
                "tick_us": (statistics.median(self.tick_us), "us")}


# ---------------------------------------------------------------------------
# collect

def _collect_lines(sizes: Sizes, cells_per_gait: int, samples: int) -> list[str]:
    return [
        f"data.gaits = {','.join(sizes.gaits)}",
        f"data.cells_per_gait = {cells_per_gait}",
        f"data.samples_per_traj = {samples}",
    ]


def _check_collection(out: Path, sizes: Sizes, train_cells: int, holdout_cells: int, samples: int):
    from quadgait.dataset import read_dataset
    from quadgait.robot import RobotModel

    limits = RobotModel().joint_limits
    n_cells = len(sizes.gaits) * (train_cells + holdout_cells)
    checks.check_collection_report(out / "collection_report.txt", n_cells)
    for gait in sizes.gaits:
        for split, cells in (("train", train_cells), ("holdout", holdout_cells)):
            path = out / f"{gait}_{split}.qgd"
            checks.check_dataset_file(path, read_dataset(path), cells, samples, limits, DT)


def _qgd_bytes(out: Path) -> int:
    return sum(f.stat().st_size for f in out.glob("*.qgd"))


def _serial_collect(tracer: Tracer):
    """Make `collect` run its cells in this process, as on one CPU."""
    import quadgait.dataset

    tracer.patch(quadgait.dataset, "usable_cpus", lambda: 1)


class Collect(Workload):
    """`quadgait collect` on a reduced desk plan: every gait, both
    splits, the plan's pushes and OU action noise, cells in the
    program's spawned pool."""

    name = "collect"
    ROUND_S, TRACED_ROUND_S = 12.5, 50.0

    def setup(self, tracers=None):
        s = self.sizes
        self.write_config(_collect_lines(s, s.collect_cells_per_gait, s.collect_samples))
        self.train_cells = min(s.collect_cells_per_gait, 15)
        self.cells = len(s.gaits) * (self.train_cells + len(HOLDOUT_VX))
        self.ticks = len(s.gaits) * GATE_TICKS + self.cells * s.collect_samples

    def _collect(self, k: int) -> float:
        out = self.round_dir(k)
        t0 = perf_counter()
        self.cli("collect", "--config", self.config, "--out", out)
        return perf_counter() - t0

    def run_round(self, k):
        wall = self._collect(k)
        self.stage_s.append(wall)
        self.tick_us.append(wall / self.ticks * 1e6)

    def traced_round(self, k, tracers):
        # the pool as users run it, spans only in this process
        with tracers["coarse"].install(layers.COARSE):
            self.stage_s.append(self._collect(k))
        self.coarse_collects += 1
        self.written_bytes += _qgd_bytes(self.work / f"round{k}")
        # cells in-process with only the cell span: the serial cell time
        with tracers["serial"].install(layers.COARSE + layers.CELL) as t:
            _serial_collect(t)
            self._collect(k)
        # cells in-process with every span
        with tracers["fine"].install(layers.ALL) as t:
            _serial_collect(t)
            self._collect(k)

    def check_round(self, k):
        _check_collection(self.work / f"round{k}", self.sizes, self.train_cells, len(HOLDOUT_VX),
                          self.sizes.collect_samples)


# ---------------------------------------------------------------------------
# clone

class Clone(Workload):
    """Train multi-task and single-task clones on a corpus collected in
    set-up, evaluate both on the holdout split, then replay the holdout
    observations through the multi-task policy one tick at a time."""

    name = "clone"
    ROUND_S, TRACED_ROUND_S = 3.75, 5.0

    def setup(self, tracers=None):
        s = self.sizes
        # two training commands that bracket the 0.22 m/s holdout command
        self.write_config(_collect_lines(s, 2, s.corpus_samples) + [
            "data.vx_grid = 0.15,0.3",
            "data.vy_grid = 0",
            "data.holdout_vx = 0.22",
            f"train.epochs = {s.epochs}",
            "train.learning_rate = 0.01",
        ])
        self.corpus = self.work / "corpus"
        self.cells = len(s.gaits) * 3
        if tracers is None:
            self.cli("collect", "--config", self.config, "--out", self.corpus)
        else:
            with tracers["coarse"].install(layers.COARSE):
                self.cli("collect", "--config", self.config, "--out", self.corpus)
            self.coarse_collects += 1
            self.written_bytes += _qgd_bytes(self.corpus)
            with tracers["serial"].install(layers.COARSE + layers.CELL) as t:
                _serial_collect(t)
                self.cli("collect", "--config", self.config, "--out", self.work / "corpus_serial")
        self._load_holdout()

    def _load_holdout(self):
        from quadgait.dataset import read_dataset

        gaits = self.sizes.gaits
        self.holdout = [read_dataset(self.corpus / f"{g}_holdout.qgd") for g in gaits]
        # a controller feeds float64 observation vectors
        self.obs = [d.obs.astype(float) for d in self.holdout]
        seg = self.sizes.replay_segment
        schedule = []   # (task, first row, end row), head switches every segment
        pos = [0] * len(gaits)
        while any(p < len(o) for p, o in zip(pos, self.obs)):
            for task, o in enumerate(self.obs):
                if pos[task] < len(o):
                    schedule.append((task, pos[task], min(pos[task] + seg, len(o))))
                    pos[task] += seg
        self.schedule = schedule

    def check_setup(self):
        _check_collection(self.corpus, self.sizes, 2, 1, self.sizes.corpus_samples)

    def _stages(self, out: Path):
        t0 = perf_counter()
        ok = self.cli("train", "--config", self.config, "--data", self.corpus, "--arch", "mtl",
                      "--out", out / "mtl.qmp")
        ok = ok and self.cli("train", "--config", self.config, "--data", self.corpus,
                             "--arch", "single", "--out", out / "single.qmp")
        t1 = perf_counter()
        ok = ok and self.cli("eval", "--config", self.config, "--data", self.corpus,
                             "--model", out / "mtl.qmp", "--baseline", out / "single.qmp",
                             "--out", out / "eval")
        t2 = perf_counter()
        self.stage_s.append(t2 - t0)
        self.note("train_s", t1 - t0)
        self.note("eval_s", t2 - t1)
        return ok

    def _replay(self, out: Path, latencies: list | None):
        """One forward per observation, batch 1, as a 1 kHz loop would
        call it; returns the outputs per task."""
        from quadgait.network import load_weights

        self.attempted += 1
        net = load_weights(out / "mtl.qmp")
        outputs = [np.empty((len(o), 12)) for o in self.obs]
        for task, a, b in self.schedule:
            obs, dest = self.obs[task], outputs[task]
            for i in range(a, b):
                t0 = perf_counter()
                dest[i] = net.forward(obs[i], task)
                if latencies is not None:
                    latencies.append(perf_counter() - t0)
        return outputs

    def run_round(self, k):
        out = self.round_dir(k)
        if not self._stages(out):
            self.attempted += 1   # the replay that could not run
            self.failed += 1
            return
        lat: list[float] = []
        self.replay_out = self._replay(out, lat)
        self.tick_us.extend(x * 1e6 for x in lat)
        self.note("replay_p99_us", float(np.quantile(lat, 0.99)) * 1e6)

    def traced_round(self, k, tracers):
        out = self.round_dir(k)
        with tracers["fine"].install(layers.ALL) as t:
            ok = self._stages(out)
            if ok:
                with t.span("replay"):
                    self.replay_out = self._replay(out, None)
        if not ok:
            return
        self._backward_probe(out, tracers["probe"])

    def _backward_probe(self, out: Path, tracer: Tracer):
        """Public `backward` on minibatches shaped as training draws them
        (batch 256 shared equally by the tasks)."""
        from quadgait.dataset import read_dataset
        from quadgait.network import load_weights

        net = load_weights(out / "mtl.qmp")
        train = [read_dataset(self.corpus / f"{g}_train.qgd") for g in self.sizes.gaits]
        share = 256 // len(train)
        rng = np.random.default_rng(self.seed)
        import quadgait.network as network

        with tracer.install(layers.PROBE):
            for _ in range(self.sizes.backward_probes):
                batch = {}
                for task, d in enumerate(train):
                    sel = rng.choice(len(d), share, replace=False)
                    batch[task] = (d.obs[sel].astype(float), d.act[sel].astype(float))
                network.backward(net, batch)

    def check_round(self, k):
        from quadgait.network import load_weights

        out = self.work / f"round{k}"
        gaits = self.sizes.gaits
        mtl = load_weights(out / "mtl.qmp")
        _, rows = checks.read_csv(out / "eval" / "metrics.csv")
        csv_r2 = {(task, split): float(r2) for task, split, _mse, _mae, r2 in rows}
        for model, split in (("mtl", "holdout"), ("single", "holdout_baseline")):
            for task, gait in enumerate(gaits):
                obs, truth = self.obs[task], self.holdout[task].act.astype(float)
                ref = checks.reference_forward(out / f"{model}.qmp", obs, task)
                if model == "mtl":
                    batched = mtl.forward(obs, task)
                    checks.require(np.allclose(ref, batched, rtol=0, atol=1e-9),
                                   f"{model}.qmp: reference forward differs from MtlNetwork.forward "
                                   f"by {np.abs(ref - batched).max():.3g}")
                    # batch 1 and batched products run different BLAS
                    # kernels, which round differently in the last bits
                    gap = np.abs(self.replay_out[task] - batched).max()
                    checks.require(gap <= 1e-12, f"replay: a batch-1 output differs from the "
                                                 f"batched forward ({gait}, max {gap:.3g})")
                    self.note("replay_gap", float(gap))
                r2 = checks.pooled_r2(ref, truth)
                if model == "mtl":
                    checks.require(r2 >= 0.90, f"{gait}: holdout R2 {r2:.4f} below 0.90")
                    self.note(f"holdout_r2_{gait}", r2)
                checks.require(abs(r2 - csv_r2[(gait, split)]) <= 1e-9,
                               f"metrics.csv {gait}/{split}: r2 {csv_r2[(gait, split)]!r}, "
                               f"recomputed {r2!r}")
        for model in ("mtl", "single"):
            checks.check_curves(out / f"{model}_curves.csv")
        _, traj = checks.read_csv(out / "eval" / "traj_fl.csv")
        n_holdout = sum(len(o) for o in self.obs)
        checks.require(len(traj) == 3 * n_holdout,
                       f"traj_fl.csv: {len(traj)} rows for {n_holdout} holdout records")


# ---------------------------------------------------------------------------
# expert-rollout

class ExpertRollout(Workload):
    """Serial `quadgait rollout --expert --log` calls, one robot each:
    every gait at a seeded forward or backward command, and trot
    standing still."""

    name = "expert-rollout"
    ROUND_S, TRACED_ROUND_S = 7.5, 8.5
    TRANSIENT = 0.5

    def setup(self, tracers=None):
        self.write_config([f"eval.transient = {self.TRANSIENT}"])
        rng = np.random.default_rng(self.seed)
        self.calls = []
        for gait in self.sizes.gaits:
            speed = rng.uniform(0.15, 0.3) * rng.choice((-1.0, 1.0))
            self.calls.append((gait, round(float(speed), 3)))
        self.calls.append(("trot", 0.0))
        self.ticks = int(round(self.sizes.rollout_duration / DT))

    def _rollouts(self, k: int) -> float:
        out = self.round_dir(k)
        out.mkdir(parents=True)
        total = 0.0
        for i, (gait, vx) in enumerate(self.calls):
            t0 = perf_counter()
            self.cli("rollout", "--expert", "--config", self.config, "--gait", gait,
                     "--vx", vx, "--duration", self.sizes.rollout_duration,
                     "--log", out / f"{i}_{gait}.csv")
            wall = perf_counter() - t0
            total += wall
            self.tick_us.append(wall / self.ticks * 1e6)
        return total

    def run_round(self, k):
        self.stage_s.append(self._rollouts(k))

    def traced_round(self, k, tracers):
        with tracers["fine"].install(layers.ALL):
            self.stage_s.append(self._rollouts(k))

    def check_round(self, k):
        from quadgait.robot import RobotModel

        out = self.work / f"round{k}"
        for i, (gait, vx) in enumerate(self.calls):
            checks.check_rollout_log(out / f"{i}_{gait}.csv", DT, self.sizes.rollout_duration, vx,
                                     self.TRANSIENT, RobotModel().nominal_base_height)


WORKLOADS = {w.name: w for w in (Collect, Clone, ExpertRollout)}
