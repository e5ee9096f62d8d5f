"""Supervised pair construction, collection campaigns and dataset files.

The 34-entry observation vector is, in order: gyro (3), accelerometer
(3), joint positions (12), joint velocities (12), contact flags (4).
Targets are desired joint positions recovered from the expert's
pre-clamp torque by inverting the PD law, so replaying a target through
the PD controller reproduces the expert torque exactly (clamp included).
"""

from __future__ import annotations

import logging
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .container import read_container, write_container
from .errors import (
    CollectionFailed,
    Diverged,
    EmptyDataset,
    FileFormatError,
    TruncatedFile,
    VersionMismatch,
)
from .expert import ExpertGains, expert_torques
from .gait import GaitSpec, VelocityCommand, stack_gaits
from .robot import RobotModel
from .simulation import (
    DT,
    ContactParams,
    SimState,
    contact_flags,
    nominal_stance_state,
    read_imu,
    simulate,
)

log = logging.getLogger(__name__)

OBS_DIM = 34
ACT_DIM = 12

_GATE_SECONDS = 2.0  # the expert competence gate's zero-command run


def build_observation(imu, state: SimState, flags: np.ndarray) -> np.ndarray:
    """Concatenate the proprioceptive signals into the 34-entry vector
    (one per robot for a batch)."""
    return np.concatenate(
        (imu.ang_vel, imu.lin_acc, state.q, state.v, flags.astype(float)), axis=-1
    )


def inverse_pd_target(tau, q, v, kp: float, kd: float) -> np.ndarray:
    """Position target implied by a torque: a = q + (tau + kd v) / kp."""
    if kp <= 0:
        raise ValueError("kp must be positive")
    return np.asarray(q) + (np.asarray(tau) + kd * np.asarray(v)) / kp


@dataclass
class NormStats:
    mean: np.ndarray
    std: np.ndarray

    def normalize(self, obs: np.ndarray) -> np.ndarray:
        return (obs - self.mean) / self.std


def fit_norm_stats(obs: np.ndarray) -> NormStats:
    """Per-feature mean and population std over the training split,
    std floored at 1e-8."""
    obs = np.asarray(obs, dtype=float)
    if obs.ndim != 2 or obs.shape[0] < 2:
        raise EmptyDataset("need at least 2 records to fit normalization stats")
    mean = obs.mean(axis=0)
    std = np.maximum(obs.std(axis=0), 1e-8)
    return NormStats(mean=mean, std=std)


@dataclass
class Dataset:
    """Array-backed record store: one row per (task_id, obs, action)."""

    task_names: list[str]
    task_id: np.ndarray
    obs: np.ndarray
    act: np.ndarray
    sample_rate_hz: float = 1.0 / DT

    def __len__(self) -> int:
        return len(self.task_id)

    @staticmethod
    def from_records(task_names, task_id, obs, act, sample_rate_hz=1.0 / DT) -> "Dataset":
        return Dataset(
            list(task_names),
            np.asarray(task_id, dtype=np.uint32),
            np.asarray(obs, dtype=np.float32).reshape(-1, OBS_DIM),
            np.asarray(act, dtype=np.float32).reshape(-1, ACT_DIM),
            float(sample_rate_hz),
        )


# ---------------------------------------------------------------------------
# collection campaigns

@dataclass
class CollectionPlan:
    gaits: list[GaitSpec]
    vx_grid: list[float] = field(default_factory=lambda: [0.0, 0.15, -0.15, 0.3, -0.3])
    vy_grid: list[float] = field(default_factory=lambda: [0.0, 0.1, -0.1])
    wz_grid: list[float] = field(default_factory=lambda: [0.0])
    cells_per_gait: int = 10
    samples_per_traj: int = 6000
    settle_time: float = 0.0
    holdout_commands: list[VelocityCommand] = field(
        default_factory=lambda: [VelocityCommand(0.22, 0.0, 0.0), VelocityCommand(-0.08, 0.0, 0.0)]
    )
    seed: int = 0
    # per-cell seeded disturbances: without them the deterministic expert
    # traces measure-zero loops in observation space and the clone never
    # sees recovery behavior, which kills it in closed loop
    push_vel: float = 0.08
    push_ang_vel: float = 0.15
    push_interval: float = 0.4
    init_jitter: float = 0.02
    # DART-style exploration: time-correlated (OU) noise on the joint
    # target actually applied while collecting, with the clean expert
    # action as the label; the recorded states then cover the tube a
    # slightly-wrong policy visits, and the labels teach the correction
    action_noise: float = 0.05
    action_noise_tau: float = 0.05

    def training_commands(self) -> list[VelocityCommand]:
        """Deterministic seeded subsample of the command grid."""
        grid = [
            VelocityCommand(vx, vy, wz)
            for vx in self.vx_grid
            for vy in self.vy_grid
            for wz in self.wz_grid
        ]
        if len(grid) <= self.cells_per_gait:
            return grid
        rng = np.random.default_rng(self.seed)
        idx = np.sort(rng.choice(len(grid), size=self.cells_per_gait, replace=False))
        return [grid[i] for i in idx]

    def validate(self):
        train = {c.as_tuple() for c in self.training_commands()}
        for cmd in self.holdout_commands:
            if cmd.as_tuple() in train:
                raise ValueError("holdout command overlaps the training grid")


@dataclass
class CollectionReport:
    cells_attempted: int = 0
    cells_diverged: int = 0
    clamped_samples: int = 0
    total_samples: int = 0
    diverged_cells: list = field(default_factory=list)

    def summary(self) -> str:
        """Counts on the first line, then one line per discarded cell."""
        lines = [
            f"cells={self.cells_attempted} diverged={self.cells_diverged} "
            f"samples={self.total_samples} clamped={self.clamped_samples}"
        ]
        for split, gait, cmd, time, reason in self.diverged_cells:
            lines.append(f"diverged: {split}/{gait} cmd={cmd} t={time:.3f} s: {reason}")
        return "\n".join(lines)


def expert_target(model, contact, spec, cmd, gains, state) -> tuple[np.ndarray, np.ndarray]:
    """The expert's pre-clamp torque at this state, as the PD target that
    reproduces it (clamp included), and the torque itself."""
    tau = expert_torques(state, model, spec, cmd, state.time, gains, contact.mu).tau_raw
    return inverse_pd_target(tau, state.q, state.v, model.kp, model.kd), tau


def _run_experts(model, contact, robots, dt, gains, plan):
    """Expert runs of `robots`, (spec, cmd, n_settle, n_samples, rng)
    each, as one batch in lockstep on `simulate`, with one expert call
    per tick for all robots, whatever their gaits; each robot's run is
    bitwise its lone run (see run_expert_trajectory).  Returns per robot
    (obs, act, clamped), or (None, time, reason) if it fell or diverged."""
    gains = gains or ExpertGains()
    specs, cmds, n_settle, n_samples, rngs = zip(*robots)
    cmds = np.array([cmd.as_tuple() for cmd in cmds])
    n_settle, n_samples = np.array(n_settle), np.array(n_samples)
    n = len(robots)
    if plan is None:  # no disturbances: a robot is pushed only with an rng and a plan
        rngs, plan = [None] * n, CollectionPlan([])
    noisy = np.array([rng is not None and plan.action_noise > 0 for rng in rngs])
    obs = np.empty((n, n_samples.max(), OBS_DIM))
    act = np.empty((n, n_samples.max(), ACT_DIM))
    clamped = np.zeros(n, int)
    noise = np.zeros((n, 12))
    push_every = int(round(plan.push_interval / dt)) or 1
    decay = np.exp(-dt / plan.action_noise_tau) if plan.action_noise_tau > 0 else 0.0
    spread = np.sqrt(1.0 - decay * decay)
    states = [nominal_stance_state(model, contact=contact) for _ in robots]
    for state, rng in zip(states, rngs):
        if rng is not None and plan.init_jitter > 0:
            state.base_pos[:2] += plan.init_jitter * rng.standard_normal(2)
            state.base_lin_vel[:2] += plan.init_jitter * rng.standard_normal(2)
            state.q += 0.5 * plan.init_jitter * rng.standard_normal(12)
    gaits_of: dict[int, GaitSpec] = {}  # the live robots' gaits, by their count (`live` only shrinks)

    def push(i, live, state):
        if i == 0 or i % push_every or all(rngs[j] is None for j in live):
            return state
        state = state.copy()
        for k, j in enumerate(live):
            if rngs[j] is not None:
                state.base_lin_vel[k, :2] += plan.push_vel * rngs[j].standard_normal(2)
                state.base_ang_vel[k] += plan.push_ang_vel * rngs[j].standard_normal(3)
        return state

    def control(i, live, prev, state):
        if len(live) not in gaits_of:
            gaits_of[len(live)] = stack_gaits([specs[j] for j in live])
        target, tau = expert_target(model, contact, gaits_of[len(live)], cmds[live], gains, state)
        k = i - n_settle[live]
        rec = k >= 0
        if rec.any():
            rows = build_observation(read_imu(prev, state, dt), state, contact_flags(state, contact))
            obs[live[rec], k[rec]] = rows[rec]
            act[live[rec], k[rec]] = target[rec]
            clamped[live[rec]] += np.any(np.abs(tau[rec]) > model.tau_max, axis=1)
        wobble = noisy[live]
        if wobble.any():
            j = live[wobble]
            draws = np.array([rngs[r].standard_normal(12) for r in j])
            noise[j] = decay * noise[j] + plan.action_noise * spread * draws
            target[wobble] = target[wobble] + noise[j]
        return target

    _, _, falls = simulate(model, contact, SimState.stack(states), n_settle + n_samples, dt, control,
                           disturb=push)
    return [(obs[j, : n_samples[j]], act[j, : n_samples[j]], int(clamped[j])) if fall is None
            else (None, *fall) for j, fall in enumerate(falls)]


def run_expert_trajectory(
    model: RobotModel,
    contact: ContactParams,
    spec: GaitSpec,
    cmd: VelocityCommand,
    settle_time: float,
    n_samples: int,
    dt: float = DT,
    gains: ExpertGains | None = None,
    rng: np.random.Generator | None = None,
    plan: CollectionPlan | None = None,
):
    """Closed-loop expert run of one robot on the `simulate` kernel;
    returns (obs, act, clamped_count).

    The expert torque is converted to a position target (inverse PD on
    the raw torque) and fed back through the simulator's PD controller,
    which reproduces the expert torque exactly, clamp included.  After
    the settle ticks, each tick records the observation and that clean
    target.

    With an rng, the start pose is jittered, the base receives small
    seeded velocity kicks at a fixed cadence before the expert sees the
    state, and a time-correlated (Ornstein-Uhlenbeck) exploration offset
    rides on the applied joint target while the label stays clean; the
    recorded data then covers the expert's correction funnel instead of
    one closed orbit.

    Raises Diverged, with the time and the reason, as soon as the robot
    leaves the survival band, so a fall never becomes a demonstration.
    """
    robot = (spec, cmd, int(round(settle_time / dt)), n_samples, rng)
    result = _run_experts(model, contact, [robot], dt, gains, plan)[0]
    if result[0] is None:
        raise Diverged(*result[1:])
    return result


def expert_gate_check(
    model: RobotModel,
    contact: ContactParams,
    spec: GaitSpec,
    gains: ExpertGains | None = None,
) -> bool:
    """Competence gate of a collection campaign: the expert must stay inside
    the survival band through a zero-command closed-loop run of this gait,
    _GATE_SECONDS long at the `DT` tick, on the `simulate` kernel: the run an
    expert `closed_loop_rollout` makes."""
    return _run_experts(model, contact, [_gate(spec, DT)], DT, gains, None)[0][0] is not None


def _gate(spec: GaitSpec, dt: float):
    """The gate as a robot of `_run_experts`: zero command, no samples."""
    return (spec, VelocityCommand(0.0, 0.0, 0.0), int(round(_GATE_SECONDS / dt)), 0, None)


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def collect(
    plan: CollectionPlan,
    model: RobotModel,
    contact: ContactParams,
    dt: float = DT,
    gains: ExpertGains | None = None,
):
    """Run the full collection campaign.

    Returns (train, holdout, report) where train and holdout map gait
    name -> single-task Dataset.  Cells that diverge or fall are
    discarded and listed in the report; more than 10% of them aborts the
    campaign with CollectionFailed.  Every gait must also pass
    `expert_gate_check`; if one fails, CollectionFailed names the first
    such gait in plan order.  The gates and the cells of every gait run
    in this process as one lockstep batch with one expert call per tick
    (see `_run_experts`), each cell on its own seed sequence.
    """
    plan.validate()
    train_cmds = plan.training_commands()
    cells = []
    for split_tag, (split, cmds) in enumerate(
        (("train", train_cmds), ("holdout", plan.holdout_commands))
    ):
        for gait_idx, spec in enumerate(plan.gaits):
            for cmd_idx, cmd in enumerate(cmds):
                cell_seed = np.random.SeedSequence([plan.seed, split_tag, gait_idx, cmd_idx])
                cells.append((split, spec, cmd, cell_seed))
    robots = [_gate(spec, dt) for spec in plan.gaits]
    robots += [(spec, cmd, int(round(plan.settle_time / dt)), plan.samples_per_traj,
                np.random.default_rng(seed)) for _, spec, cmd, seed in cells]
    results = _run_experts(model, contact, robots, dt, gains, plan)
    for spec, gate in zip(plan.gaits, results):
        if gate[0] is None:
            raise CollectionFailed(f"expert failed its competence gate for gait '{spec.name}'")

    report = CollectionReport()
    parts: dict[tuple[str, str], tuple[list, list]] = {}
    for (split, spec, cmd, _), result in zip(cells, results[len(plan.gaits):]):
        report.cells_attempted += 1
        if result[0] is None:
            _, time, reason = result
            report.cells_diverged += 1
            report.diverged_cells.append((split, spec.name, cmd.as_tuple(), time, reason))
            log.warning("discarding cell %s/%s %s: t=%.3f s: %s", split, spec.name, cmd, time, reason)
            continue
        obs, act, clamped = result
        report.clamped_samples += clamped
        report.total_samples += len(obs)
        obs_parts, act_parts = parts.setdefault((split, spec.name), ([], []))
        obs_parts.append(obs)
        act_parts.append(act)
    train: dict[str, Dataset] = {}
    holdout: dict[str, Dataset] = {}
    for (split, name), (obs_parts, act_parts) in parts.items():
        obs = np.concatenate(obs_parts)
        (train if split == "train" else holdout)[name] = Dataset.from_records(
            [name], np.zeros(len(obs), np.uint32), obs, np.concatenate(act_parts), 1.0 / dt,
        )
    if report.cells_attempted and report.cells_diverged > 0.1 * report.cells_attempted:
        raise CollectionFailed(f"collection failed: {report.summary()}")
    return train, holdout, report


# ---------------------------------------------------------------------------
# QGD1 binary format

_MAGIC = b"QGD1"
_VERSION = 1
# after the version: obs_dim, act_dim, task count, record count, sample rate
_HEADER = struct.Struct("<IIIQf")
_NAME_LEN = struct.Struct("<I")
_RECORD = np.dtype([("task_id", "<u4"), ("obs", "<f4", (OBS_DIM,)), ("act", "<f4", (ACT_DIM,))])


def write_dataset(path, dataset: Dataset):
    """Write the QGD1 file: container framing around a little-endian
    header, the task-name table and the packed records."""
    table = [_HEADER.pack(OBS_DIM, ACT_DIM, len(dataset.task_names), len(dataset),
                          dataset.sample_rate_hz)]
    for name in dataset.task_names:
        raw = name.encode("utf-8")
        table += [_NAME_LEN.pack(len(raw)), raw]
    records = np.empty(len(dataset), _RECORD)
    records["task_id"] = dataset.task_id
    records["obs"] = dataset.obs
    records["act"] = dataset.act
    write_container(path, _MAGIC, _VERSION, b"".join(table), records)


def read_dataset(path) -> Dataset:
    body = read_container(path, _MAGIC, _VERSION, _HEADER.size)
    obs_dim, act_dim, num_tasks, count, rate = _HEADER.unpack_from(body)
    if obs_dim != OBS_DIM or act_dim != ACT_DIM:
        raise VersionMismatch(f"{path}: unexpected dims {obs_dim}x{act_dim}")
    off = _HEADER.size
    names = []
    for _ in range(num_tasks):
        if off + _NAME_LEN.size > len(body):
            raise TruncatedFile(f"{path}: task table incomplete")
        (n,) = _NAME_LEN.unpack_from(body, off)
        off += _NAME_LEN.size
        if off + n > len(body):
            raise TruncatedFile(f"{path}: task table incomplete")
        try:
            names.append(str(body[off : off + n], "utf-8"))
        except UnicodeDecodeError:
            raise FileFormatError(f"{path}: task name is not UTF-8") from None
        off += n
    if off + count * _RECORD.itemsize != len(body):
        raise TruncatedFile(f"{path}: expected {count} records")
    records = np.frombuffer(body, _RECORD, count=count, offset=off)
    return Dataset(names, records["task_id"].astype(np.uint32), records["obs"].copy(),
                   records["act"].copy(), float(rate))
