"""The one-robot closed loop that lockstep collection replaced, kept as
the bitwise reference for test_lockstep.py.

`simulate`, `run_expert_trajectory`, `expert_gate_check` and the
campaign loop of `collect` (gates first, then one cell after another)
are copied here with their old bodies (comments and docstrings left
out), as are `survival_violation` and `read_imu`.  They run on the
per-leg reference's `step` and `expert_torques`, so no robot-batched
code is under them.
"""

from __future__ import annotations

import numpy as np

import per_leg_reference as ref
from quadgait.dataset import (
    ACT_DIM,
    OBS_DIM,
    CollectionReport,
    Dataset,
    build_observation,
    inverse_pd_target,
)
from quadgait.errors import Diverged
from quadgait.expert import ExpertGains
from quadgait.gait import VelocityCommand
from quadgait.simulation import GRAVITY, ImuSample, contact_flags, nominal_stance_state

# the expert every closed loop here calls; a test may swap it
expert_torques = ref.expert_torques


def survival_violation(state, model):
    height = state.base_pos[2]
    lo, hi = 0.4 * model.nominal_base_height, 1.6 * model.nominal_base_height
    if not lo <= height <= hi:
        return f"height {height:.3f} m outside [{lo:.3f}, {hi:.3f}]"
    roll, pitch, _ = ref.rpy_from_matrix(ref.quat_to_matrix(state.base_quat))
    if abs(roll) >= 0.6:
        return f"roll {roll:+.3f} rad"
    if abs(pitch) >= 0.6:
        return f"pitch {pitch:+.3f} rad"
    return None


def read_imu(prev, curr, dt):
    R = ref.quat_to_matrix(curr.base_quat)
    lin_acc = R.T @ ((curr.base_lin_vel - prev.base_lin_vel) / dt - GRAVITY)
    return ImuSample(ang_vel=curr.base_ang_vel.copy(), lin_acc=lin_acc)


def simulate(model, contact, state, n_ticks, dt, control, prev=None, disturb=None, on_step=None):
    prev = state if prev is None else prev
    for i in range(n_ticks):
        if disturb is not None:
            state = disturb(i, state)
        target = control(i, prev, state)
        prev = state
        try:
            state = ref.step(state, model, contact, target, dt)
        except Diverged as exc:
            return prev, state, (exc.time, exc.reason)
        reason = survival_violation(state, model)
        if reason is not None:
            return prev, state, (state.time, reason)
        if on_step is not None:
            on_step(state)
    return prev, state, None


def expert_target(model, contact, spec, cmd, gains, state):
    tau = expert_torques(state, model, spec, cmd, state.time, gains, contact.mu).tau_raw
    return inverse_pd_target(tau, state.q, state.v, model.kp, model.kd), tau


def run_expert_trajectory(model, contact, spec, cmd, settle_time, n_samples, dt=1e-3, gains=None,
                          rng=None, plan=None):
    gains = gains or ExpertGains()
    state = nominal_stance_state(model, contact=contact)
    disturbed = rng is not None and plan is not None
    if disturbed and plan.init_jitter > 0:
        state.base_pos[:2] += plan.init_jitter * rng.standard_normal(2)
        state.base_lin_vel[:2] += plan.init_jitter * rng.standard_normal(2)
        state.q += 0.5 * plan.init_jitter * rng.standard_normal(12)
    n_settle = int(round(settle_time / dt))
    push_every = int(round((plan.push_interval if plan else 0.4) / dt)) or 1
    obs_rows = np.empty((n_samples, OBS_DIM))
    act_rows = np.empty((n_samples, ACT_DIM))
    clamped = 0
    noise = np.zeros(12)
    if plan is not None and plan.action_noise_tau > 0:
        decay = np.exp(-dt / plan.action_noise_tau)
        spread = np.sqrt(1.0 - decay * decay)
    else:
        decay, spread = 0.0, 1.0

    def push(i, state):
        if i == 0 or i % push_every:
            return state
        state = state.copy()
        state.base_lin_vel[:2] += plan.push_vel * rng.standard_normal(2)
        state.base_ang_vel += plan.push_ang_vel * rng.standard_normal(3)
        return state

    def control(i, prev, state):
        nonlocal clamped, noise
        target, tau = expert_target(model, contact, spec, cmd, gains, state)
        k = i - n_settle
        if k >= 0:
            imu = read_imu(prev, state, dt)
            flags = contact_flags(state, contact)
            obs_rows[k] = build_observation(imu, state, flags)
            act_rows[k] = target
            if np.any(np.abs(tau) > model.tau_max):
                clamped += 1
        if disturbed and plan.action_noise > 0:
            noise = decay * noise + plan.action_noise * spread * rng.standard_normal(12)
            return target + noise
        return target

    _, _, fall = simulate(model, contact, state, n_settle + n_samples, dt, control,
                          disturb=push if disturbed else None)
    if fall is not None:
        raise Diverged(*fall)
    return obs_rows, act_rows, clamped


def expert_gate_check(model, contact, spec, duration=2.0, dt=1e-3, gains=None):
    gains = gains or ExpertGains()
    cmd = VelocityCommand(0.0, 0.0, 0.0)

    def control(i, prev, state):
        return expert_target(model, contact, spec, cmd, gains, state)[0]

    state = nominal_stance_state(model, contact=contact)
    _, _, fall = simulate(model, contact, state, int(round(duration / dt)), dt, control)
    return fall is None


def run_cell(model, contact, spec, cmd, dt, gains, plan, cell_seed):
    try:
        return run_expert_trajectory(
            model, contact, spec, cmd, plan.settle_time, plan.samples_per_traj,
            dt, gains, rng=np.random.default_rng(cell_seed), plan=plan,
        )
    except Diverged as exc:
        return None, exc.time, exc.reason


def collect(plan, model, contact, dt=1e-3, gains=None):
    """Returns (train, holdout, report, per-cell results)."""
    plan.validate()
    gains = gains or ExpertGains()
    for spec in plan.gaits:
        if not expert_gate_check(model, contact, spec, gains=gains):
            raise RuntimeError(f"expert failed its competence gate for gait '{spec.name}'")
    cells = []
    for split_tag, (split, cmds) in enumerate(
        (("train", plan.training_commands()), ("holdout", plan.holdout_commands))
    ):
        for gait_idx, spec in enumerate(plan.gaits):
            for cmd_idx, cmd in enumerate(cmds):
                cell_seed = np.random.SeedSequence([plan.seed, split_tag, gait_idx, cmd_idx])
                cells.append((split, spec, cmd, cell_seed))
    results = [run_cell(model, contact, spec, cmd, dt, gains, plan, seed)
               for _, spec, cmd, seed in cells]

    report = CollectionReport()
    parts: dict[tuple[str, str], tuple[list, list]] = {}
    for (split, spec, cmd, _), result in zip(cells, results):
        report.cells_attempted += 1
        if result[0] is None:
            _, time, reason = result
            report.cells_diverged += 1
            report.diverged_cells.append((split, spec.name, cmd.as_tuple(), time, reason))
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
        raise RuntimeError(f"collection failed: {report.summary()}")
    return train, holdout, report, results
