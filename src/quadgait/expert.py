"""Scripted gait expert: phase-driven stance force allocation plus
Raibert swing tracking.

Stance legs: a PD law on base height, attitude and velocity produces a
desired 6D wrench; the wrench is distributed over the stance feet by a
minimum-norm least-squares solve on the grasp matrix, each force is
projected into its friction cone, and the per-leg torque follows from
the Jacobian transpose.  Swing legs: IK tracking of a smoothstep/sin
swing trajectory toward a Raibert landing point.

The expert is stateless: torques depend only on (state, t, cmd, spec).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import RankDeficient
from .gait import GaitSpec, VelocityCommand, gait_phase, raibert_target, swing_trajectory
from .robot import LEGS, SIDE_SIGN, RobotModel, cross3, leg_inverse_kinematics_rows, leg_kinematics, matvec
from .simulation import SimState, quat_to_matrix, rpy_from_matrix

log = logging.getLogger(__name__)


@dataclass
class ExpertGains:
    """Base wrench PD, stance joint stabilization and swing tracking
    gains (all desk-tuned)."""

    kp_height: float = 1200.0
    kd_height: float = 100.0
    kp_attitude: float = 120.0
    kd_attitude: float = 16.0
    kv_linear: float = 60.0
    k_raibert: float = 0.03
    kp_swing: float = 40.0
    kd_swing: float = 1.0
    kp_hold: float = 60.0
    kd_hold: float = 1.0
    torque_weight: float = 3.0
    # stance<->swing cross-fade window as a fraction of the gait period;
    # keeps the torque a smooth function of phase so the cloned policy
    # is not asked to fit a discontinuity
    blend_frac: float = 0.04


@dataclass
class ExpertAction:
    """Expert output: clamped torque, the raw pre-clamp torque used to
    derive supervised targets, and the global gait phase (diagnostic
    only, never part of the observation)."""

    tau: np.ndarray
    tau_raw: np.ndarray
    phase: float


def allocate_stance_forces(
    desired_wrench: tuple[np.ndarray, np.ndarray],
    foot_positions: list[np.ndarray],
    mu: float,
    lam: float = 1e-9,
    residual_tol: float | None = None,
    torque_weight: float = 1.0,
    project: bool = True,
) -> np.ndarray:
    """Distribute a desired (force, torque) wrench over stance feet.

    Minimizes sum |F_i|^2 subject to sum F_i = f and sum r_i x F_i = tau,
    solved through the Tikhonov-regularized normal equations of the
    6 x 3n grasp matrix with one iterative-refinement pass (so achievable
    wrenches are met to near machine precision).  Each force is then
    projected into the friction cone F_z >= 0, |F_xy| <= mu F_z.

    torque_weight scales the torque rows before solving.  For achievable
    wrenches this changes nothing; when the wrench is unachievable (two
    collinear feet mid-gait) it biases the compromise toward attitude
    over support, which is what keeps a bounding body from rocking over.
    project=False returns the raw least-squares solution (no pull
    drop-out, no cone), which is what residual checks want.

    With residual_tol set, an unachievable wrench component larger than
    the tolerance raises RankDeficient (e.g. torque about the line
    through a two-foot stance); by default the best-fit solution is
    returned, which is what the gait expert wants mid-trot.
    """
    ns = len(foot_positions)
    if ns < 1:
        raise ValueError("need at least one stance foot")
    f_des, tau_des = desired_wrench
    w = np.concatenate((np.asarray(f_des, float), np.asarray(tau_des, float)))
    row_scale = np.concatenate((np.ones(3), np.full(3, torque_weight)))

    def grasp_matrix(feet):
        # [I | [r_i]x] blocks side by side, one per foot
        rx, ry, rz = np.asarray(feet, float).reshape(-1, 3).T
        zero = np.zeros_like(rx)
        skew = np.array([[zero, -rz, ry], [rz, zero, -rx], [-ry, rx, zero]])
        eyes = np.concatenate((np.eye(3),) * rx.size, axis=1)
        return np.concatenate((eyes, skew.transpose(0, 2, 1).reshape(3, -1)))

    def solve(feet):
        G = grasp_matrix(feet) * row_scale[:, None]
        ww = w * row_scale
        A = G @ G.T + lam * np.eye(6)
        y = np.linalg.solve(A, ww)
        F = G.T @ y
        # refinement passes remove the Tikhonov bias on the achievable part
        for _ in range(2):
            F = F + G.T @ np.linalg.solve(A, ww - G @ F)
        return F.reshape(len(feet), 3), G / row_scale[:, None]

    forces, G = solve(foot_positions)

    if residual_tol is not None:
        residual = w - G @ forces.reshape(-1)
        if np.max(np.abs(residual)) > residual_tol:
            raise RankDeficient(
                f"wrench residual {np.max(np.abs(residual)):.3e} exceeds {residual_tol:.1e}"
            )

    if not project:
        return forces

    # active-set pass: feet asked to pull are dropped and the rest re-solved,
    # which keeps the achieved wrench honest before cone projection
    pulling = forces[:, 2] < 0.0
    if np.any(pulling) and not np.all(pulling):
        keep = [i for i in range(ns) if not pulling[i]]
        sub, _ = solve([foot_positions[i] for i in keep])
        forces = np.zeros((ns, 3))
        for j, i in enumerate(keep):
            forces[i] = sub[j]

    for i in range(ns):
        fz = max(forces[i, 2], 0.0)
        forces[i, 2] = fz
        fxy = np.hypot(forces[i, 0], forces[i, 1])
        limit = mu * fz
        if fxy > limit:
            scale = 0.0 if fxy < 1e-12 else limit / fxy
            forces[i, :2] *= scale
    return forces


def _desired_wrench(
    state: SimState,
    model: RobotModel,
    spec: GaitSpec,
    cmd: VelocityCommand,
    gains: ExpertGains,
    R: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base wrench PD; returns (f_world, tau_world, cmd_vel_world).

    The vertical feedforward balances momentum over a whole period: a
    gait whose legs all swing together (pronk) is unsupported for
    1 - duty of it, so its stance must carry m g / duty.
    """
    roll, pitch, yaw = rpy_from_matrix(R)
    cos_y, sin_y = np.cos(yaw), np.sin(yaw)
    cmd_world = np.array([cmd.vx * cos_y - cmd.vy * sin_y, cmd.vx * sin_y + cmd.vy * cos_y, 0.0])

    f = np.zeros(3)
    f[:2] = gains.kv_linear * (cmd_world[:2] - state.base_lin_vel[:2])
    support = spec.duty if np.ptp(spec.phase_offset) == 0.0 else 1.0
    f[2] = (
        model.mass * 9.81 / support
        + gains.kp_height * (model.nominal_base_height - state.base_pos[2])
        - gains.kd_height * state.base_lin_vel[2]
    )

    omega_world = R @ state.base_ang_vel
    tau_body = np.array(
        [
            -gains.kp_attitude * roll - gains.kd_attitude * state.base_ang_vel[0],
            -gains.kp_attitude * pitch - gains.kd_attitude * state.base_ang_vel[1],
            0.0,
        ]
    )
    tau = R @ tau_body
    tau[2] += gains.kd_attitude * (cmd.wz - omega_world[2])
    return f, tau, cmd_world


def expert_torques(
    state: SimState,
    model: RobotModel,
    spec: GaitSpec,
    cmd: VelocityCommand,
    t: float,
    gains: ExpertGains | None = None,
    mu: float = 0.7,
) -> ExpertAction:
    """Expert joint torques at time t (deterministic, stateless)."""
    gains = gains or ExpertGains()
    R = quat_to_matrix(state.base_quat)
    leg_phase, in_stance = gait_phase(spec, t)
    f_des, tau_des, cmd_world = _desired_wrench(state, model, spec, cmd, gains, R)
    stance, swing = np.flatnonzero(in_stance), np.flatnonzero(~in_stance)
    q_legs, v_legs = state.q.reshape(4, 3), state.v.reshape(4, 3)

    foot_body, J = leg_kinematics(model, LEGS, q_legs)
    foot_world = state.base_pos + matvec(R, foot_body)
    if stance.size:
        try:
            forces = allocate_stance_forces(
                (f_des, tau_des),
                foot_world[stance] - state.base_pos,
                mu,
                torque_weight=gains.torque_weight,
            )
        except RankDeficient:
            forces = np.zeros((stance.size, 3))
            forces[:, 2] = max(f_des[2], 0.0) / stance.size

    lateral = np.zeros((4, 3))
    lateral[:, 1] = SIDE_SIGN * model.l_abd
    hip_world = state.base_pos + matvec(R, model.hip_offsets + lateral)
    hip_vel_cmd = cmd_world + cross3((0.0, 0.0, cmd.wz), (hip_world - state.base_pos).T).T
    ground = hip_world.copy()
    ground[:, 2] = 0.0

    # touchdown-referenced foothold: the foot stays planted while the
    # hip travels, so its expected offset from the hip shrinks from
    # +T_st/2 v at touchdown to -T_st/2 v at liftoff (stateless in t)
    t_stance = spec.duty * spec.period
    lead = np.where(in_stance, 0.5 * t_stance - leg_phase * spec.period, 0.5 * t_stance)
    hold_world = ground.copy()
    hold_world[:, :2] += lead[:, None] * hip_vel_cmd[:, :2]
    ik_legs, ik_world = LEGS, hold_world
    if swing.size:
        s = (leg_phase[swing] - spec.duty) / (1.0 - spec.duty)
        target = raibert_target(hip_vel_cmd[swing], spec, hip_world[swing], state.base_lin_vel,
                                gains.k_raibert)
        start = ground[swing]
        start[:, :2] -= 0.5 * t_stance * hip_vel_cmd[swing, :2]
        ik_legs = np.concatenate((LEGS, swing))
        ik_world = np.concatenate((hold_world, swing_trajectory(spec, start, target, s)))
    q_ik = _safe_ik(model, ik_legs, matvec(R.T, ik_world - state.base_pos))
    tau_hold = gains.kp_hold * (q_ik[:4] - q_legs) - gains.kd_hold * v_legs

    tau_raw = np.empty((4, 3))
    w = gains.blend_frac
    if stance.size:
        # contact force ramps in after touchdown and out before
        # liftoff so the torque stays continuous in phase
        scale = np.ones(stance.size)
        if w > 0.0 and spec.duty < 1.0:
            scale[:] = [min(_smoothstep(p / w), _smoothstep((spec.duty - p) / w))
                        for p in leg_phase[stance]]
        push = matvec(J[stance].transpose(0, 2, 1), matvec(-R.T, forces))
        tau_raw[stance] = scale[:, None] * push + tau_hold[stance]
    if swing.size:
        tau_swing = gains.kp_swing * (q_ik[4:] - q_legs[swing]) - gains.kd_swing * v_legs[swing]
        # fade swing tracking in at liftoff and back out at touchdown
        blend = np.ones(swing.size)
        if w > 0.0:
            blend[:] = [min(_smoothstep((p - spec.duty) / w), _smoothstep((1.0 - p) / w))
                        for p in leg_phase[swing]]
        blend = blend[:, None]
        tau_raw[swing] = blend * tau_swing + (1.0 - blend) * tau_hold[swing]

    tau_raw = tau_raw.ravel()
    tau = np.clip(tau_raw, -model.tau_max, model.tau_max)
    return ExpertAction(tau=tau, tau_raw=tau_raw, phase=float(np.mod(t / spec.period, 1.0)))


def _smoothstep(x: float) -> float:
    x = min(max(x, 0.0), 1.0)
    return x * x * (3.0 - 2.0 * x)


def _safe_ik(model, legs, p_body):
    """IK rows (legs[i], p_body[i]); a target outside the workspace is
    clamped to it, with one warning per clamped row."""
    q, out = leg_inverse_kinematics_rows(model, legs, p_body)
    for leg in legs[out]:
        log.warning("foot target out of workspace for leg %d, clamping", leg)
    return q
