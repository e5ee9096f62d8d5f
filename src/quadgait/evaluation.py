"""Evaluation: open-loop metrics, loss-curve export, trajectory export,
closed-loop rollouts and scripted gait switching."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, build_observation, expert_target
from .errors import DegenerateTruth, UnknownTask
from .expert import ExpertGains
from .gait import GaitSpec, VelocityCommand
from .network import MtlNetwork
from .robot import RobotModel
from .simulation import (
    DT,
    ContactParams,
    RolloutLog,
    contact_flags,
    nominal_stance_state,
    read_imu,
    simulate,
)


@dataclass
class TaskMetrics:
    task: str
    mse: float
    mae: float
    r2: float


def compute_metrics(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float, float]:
    """Pooled MSE, MAE and R^2 over all entries of the prediction matrix.

    R^2 uses the flattened truth mean for SS_tot; raises DegenerateTruth
    when the truth is (near) constant.
    """
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ValueError("prediction and truth shapes differ")
    if pred.shape[0] < 2:
        raise ValueError("need at least 2 records")
    err = pred - truth
    mse = float(np.mean(err * err))
    mae = float(np.mean(np.abs(err)))
    ss_res = float(np.sum(err * err))
    ss_tot = float(np.sum((truth - truth.mean()) ** 2))
    if ss_tot < 1e-12:
        raise DegenerateTruth("truth variance below 1e-12, R^2 undefined")
    return mse, mae, 1.0 - ss_res / ss_tot


def per_joint_r2(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Per-output-column R^2 (exported alongside the pooled statistic)."""
    out = np.empty(pred.shape[1])
    for j in range(pred.shape[1]):
        ss_res = np.sum((pred[:, j] - truth[:, j]) ** 2)
        ss_tot = np.sum((truth[:, j] - truth[:, j].mean()) ** 2)
        out[j] = np.nan if ss_tot < 1e-12 else 1.0 - ss_res / ss_tot
    return out


def evaluate_model(net: MtlNetwork, holdout: dict[int, Dataset], task_names: list[str]):
    """Teacher-forced predictions on held-out records.

    Returns (metrics per task, per-joint R^2 per task, front-left
    trajectory table), the latter holding (t, expert, predicted) for the
    FL hip/thigh/knee joints.
    """
    metrics: list[TaskMetrics] = []
    joint_r2: dict[str, np.ndarray] = {}
    traj_rows = []
    for task in sorted(holdout):
        if task >= len(task_names):
            raise UnknownTask(f"task id {task} has no name entry")
        ds = holdout[task]
        pred = net.forward(ds.obs.astype(float), task)
        truth = ds.act.astype(float)
        mse, mae, r2 = compute_metrics(pred, truth)
        metrics.append(TaskMetrics(task_names[task], mse, mae, r2))
        joint_r2[task_names[task]] = per_joint_r2(pred, truth)
        dt = 1.0 / ds.sample_rate_hz
        for j, joint in enumerate(("fl_hip", "fl_thigh", "fl_knee")):
            for i in range(len(ds)):
                traj_rows.append((task_names[task], i * dt, joint, truth[i, j], pred[i, j]))
    return metrics, joint_r2, traj_rows


def write_metrics_csv(path, rows: list[tuple[str, str, TaskMetrics]]):
    """rows: (task, split, metrics)."""
    with open(path, "w") as fh:
        fh.write("task,split,mse,mae,r2\n")
        for task, split, m in rows:
            fh.write(f"{task},{split},{m.mse:.9g},{m.mae:.9g},{m.r2:.9g}\n")


def write_curves_csv(path, history, task_names: list[str]):
    with open(path, "w") as fh:
        fh.write("epoch,task,train_loss,val_loss\n")
        for rec in history:
            for task in sorted(rec.train_loss):
                name = task_names[task] if task < len(task_names) else str(task)
                fh.write(f"{rec.epoch},{name},{rec.train_loss[task]:.9g},{rec.val_loss[task]:.9g}\n")


def write_traj_csv(path, traj_rows):
    with open(path, "w") as fh:
        fh.write("task,t,joint,expert,predicted\n")
        for task, t, joint, exp_val, pred_val in traj_rows:
            fh.write(f"{task},{t:.6g},{joint},{exp_val:.9g},{pred_val:.9g}\n")


# ---------------------------------------------------------------------------
# closed-loop rollouts

TRANSIENT = 1.0  # s at the start of a rollout that its summary skips


@dataclass
class RolloutSummary:
    survived: bool
    survival_time: float
    duration: float
    mean_vx_error: float
    mean_height: float


def closed_loop_rollout(
    model: RobotModel,
    contact: ContactParams,
    spec: GaitSpec,
    cmd: VelocityCommand,
    duration: float,
    net: MtlNetwork | None = None,
    task_id: int = 0,
    expert_gains: ExpertGains | None = None,
    dt: float = DT,
    transient: float = TRANSIENT,
    log_target: RolloutLog | None = None,
):
    """Run the policy (or, with net=None, the expert) in closed loop on
    the `simulate` kernel, from the nominal stance.

    Each tick the policy maps the observation synthesized from the state
    to a joint target (the expert reads the state itself and needs no
    observation); the PD controller applies the target and the simulator
    integrates.  The summary reports survival (height inside [0.4, 1.6]
    x nominal, tilt below 0.6 rad) and mean velocity-tracking error
    after the transient, which is cut to half the duration if it is
    longer.
    """
    if net is not None:
        net._check_task(task_id)
    state = nominal_stance_state(model, contact=contact)
    _, state, summary = _rollout(model, contact, spec, cmd, duration, net, task_id,
                                 expert_gains or ExpertGains(), dt, transient, state, state,
                                 log_target)
    return state, summary


def _rollout(model, contact, spec, cmd, duration, net, task_id, gains, dt, transient,
             prev, state, log_target):
    """closed_loop_rollout from the IMU pair (prev, state); returns
    (prev, state, summary), so the next rollout can continue the IMU
    history."""
    transient = min(transient, duration * 0.5)
    start_time = state.time
    t_end = start_time + duration
    n_ticks, t = 0, start_time
    while t < t_end - 0.5 * dt:   # sums dt as step advances state.time
        t += dt
        n_ticks += 1
    track_vx, heights = [], []

    def control(i, live, prev, state):
        if net is None:
            target = expert_target(model, contact, spec, cmd, gains, state)[0]
            flags = contact_flags(state, contact) if log_target is not None else None
        else:
            flags = contact_flags(state, contact)
            target = net.forward(build_observation(read_imu(prev, state, dt), state, flags), task_id)
        if log_target is not None:
            log_target.append(state, target, flags)
        return target

    def track(live, state):
        if state.time - start_time > transient:
            vel_body = state.rotation().T @ state.base_lin_vel
            track_vx.append(abs(vel_body[0] - cmd.vx))
            heights.append(state.base_pos[2])

    [prev], [state], [fall] = simulate(model, contact, state, n_ticks, dt, control, prev=prev,
                                       on_step=track)
    summary = RolloutSummary(
        survived=fall is None,
        survival_time=duration if fall is None else fall[0] - start_time,
        duration=duration,
        mean_vx_error=float(np.mean(track_vx)) if track_vx else np.nan,
        mean_height=float(np.mean(heights)) if heights else np.nan,
    )
    return prev, state, summary


# ---------------------------------------------------------------------------
# gait switching

@dataclass
class SwitchScenario:
    """Time-sorted (t, gait name, command) events plus total duration."""

    events: list[tuple[float, str, VelocityCommand]]
    duration: float

    def __post_init__(self):
        if not self.events:
            raise ValueError("scenario needs at least one event")
        times = [e[0] for e in self.events]
        if times != sorted(times):
            raise ValueError("events must be time-sorted")
        if self.events[0][0] != 0.0:
            raise ValueError("first event must start at t=0")
        if times[-1] >= self.duration:
            raise ValueError(f"event at t={times[-1]:g} s is not before the scenario's end, {self.duration:g} s")


def parse_scenario(text: str, duration: float | None = None) -> SwitchScenario:
    """Parse 't gait vx vy wz' lines; '#' starts a comment."""
    events = []
    end = 0.0
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ValueError(f"bad scenario line: {line!r}")
        t, gait = float(parts[0]), parts[1]
        cmd = VelocityCommand(float(parts[2]), float(parts[3]), float(parts[4]))
        events.append((t, gait, cmd))
        end = max(end, t)
    if duration is None:
        duration = end + 3.0
    return SwitchScenario(events=events, duration=duration)


def run_switch_scenario(
    net: MtlNetwork,
    model: RobotModel,
    contact: ContactParams,
    scenario: SwitchScenario,
    gait_specs: dict[str, GaitSpec],
    task_ids: dict[str, int],
    dt: float = DT,
    transient: float = TRANSIENT,
    log_target: RolloutLog | None = None,
):
    """Execute the scenario as one continuous closed loop, switching the
    active head at each event; the IMU history carries across switches.

    Unknown gait names and head indices raise UnknownTask before any
    simulation.  Returns per-segment (gait, command, RolloutSummary)
    tuples, each summary taken as closed_loop_rollout takes it.
    """
    for _, gait, _cmd in scenario.events:
        if gait not in task_ids:
            raise UnknownTask(f"gait '{gait}' not in the trained task set")
        net._check_task(task_ids[gait])

    state = prev = nominal_stance_state(model, contact=contact)
    segments = []
    bounds = [e[0] for e in scenario.events] + [scenario.duration]
    for i, (t0, gait, cmd) in enumerate(scenario.events):
        seg_duration = bounds[i + 1] - t0
        if seg_duration <= 0:
            continue
        prev, state, summary = _rollout(
            model, contact, gait_specs[gait], cmd, seg_duration, net, task_ids[gait], None, dt,
            transient, prev, state, log_target,
        )
        segments.append((gait, cmd, summary))
        if not summary.survived:
            break
    return segments
