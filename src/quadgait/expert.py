"""Scripted gait expert: phase-driven stance force allocation plus
Raibert swing tracking.

Stance legs: a PD law on base height, attitude and velocity produces a
desired 6D wrench; the wrench is distributed over the stance feet by a
minimum-norm least-squares solve on the grasp matrix, each force is
projected into its friction cone, and the per-leg torque follows from
the Jacobian transpose.  Swing legs: IK tracking of a smoothstep/sin
swing trajectory toward a Raibert landing point.

The expert is stateless: torques depend only on (state, t, cmd, spec),
so one call serves a batch of robots at one t, each on its own gait.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass

import numpy as np

from .gait import GaitSpec, VelocityCommand, gait_phase, raibert_target, swing_trajectory
from .robot import LEGS, SIDE_SIGN, RobotModel, cross3, leg_inverse_kinematics_rows, matvec, solve
from .simulation import SimState

log = logging.getLogger(__name__)
_EYES = np.tile(np.eye(3), 4)  # [I I I I], the force rows of a grasp matrix
# [r]x = (0, -rz, ry; rz, 0, -rx; -ry, rx, 0) as entries of (rx, ry, rz, 0)
_SKEW, _SKEW_SIGN = np.array([3, 2, 1, 2, 3, 0, 1, 0, 3]), np.array([1.0, -1, 1, 1, 1, -1, -1, 1, 1])
_TIKHONOV = 1e-9 * np.eye(6)
_LATERAL = np.outer(SIDE_SIGN, [0.0, 1.0, 0.0])  # times l_abd: each hip's offset to its leg plane


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
    """Expert output: clamped torque, and the raw pre-clamp torque used
    to derive supervised targets."""

    tau: np.ndarray
    tau_raw: np.ndarray


def allocate_stance_forces(
    desired_wrench: tuple[np.ndarray, np.ndarray],
    foot_positions: list[np.ndarray],
    mu: float,
    torque_weight: float = 1.0,
    project: bool = True,
) -> np.ndarray:
    """Distribute a desired (force, torque) wrench over stance feet.

    Minimizes sum |F_i|^2 subject to sum F_i = f and sum r_i x F_i = tau,
    solved through the Tikhonov-regularized normal equations of the
    6 x 3n grasp matrix with two iterative-refinement passes (so achievable
    wrenches are met to near machine precision).  Each force is then
    projected into the friction cone F_z >= 0, |F_xy| <= mu F_z.

    torque_weight scales the torque rows before solving.  For achievable
    wrenches this changes nothing; when the wrench is unachievable (two
    collinear feet mid-gait) it biases the compromise toward attitude
    over support, which is what keeps a bounding body from rocking over.
    project=False returns the raw least-squares solution (no pull
    drop-out, no cone), which is what residual checks want.  An
    unachievable wrench (torque about the line through a two-foot
    stance) gets its best fit, which is what the gait expert wants
    mid-trot.  A batch passes feet (n, ns, 3) and wrench parts (n, 3).
    """
    feet = np.asarray(foot_positions, float).reshape(np.shape(desired_wrench[0])[:-1] + (-1, 3))
    ns = feet.shape[-2]
    if ns < 1:
        raise ValueError("need at least one stance foot")
    w = np.concatenate([np.asarray(part, float) for part in desired_wrench], axis=-1)
    row_scale = np.array([1.0, 1.0, 1.0, torque_weight, torque_weight, torque_weight])

    def least_norm(w, feet):
        # [I | [r_i]x] blocks side by side, one per foot, C-ordered, rows scaled
        k = feet.shape[-2]
        G = np.empty(feet.shape[:-2] + (6, 3 * k))
        G[..., :3, :] = _EYES[:, : 3 * k]
        skew = np.concatenate((feet, np.zeros(feet.shape[:-1] + (1,))), -1).take(_SKEW, -1)
        skew *= _SKEW_SIGN * torque_weight  # (r s) w is r (s w) bitwise, as s is +-1
        G[..., 3:, :] = skew.reshape(feet.shape + (3,)).swapaxes(-3, -2).reshape(feet.shape[:-2] + (3, 3 * k))
        GT = G.swapaxes(-1, -2)
        ww = (w * row_scale)[..., None]  # vectors are columns: M @ x is the product matvec makes
        A = G @ GT + _TIKHONOV
        F = GT @ solve(A, ww)
        # refinement passes remove the Tikhonov bias on the achievable part
        for _ in range(2):
            F = F + GT @ solve(A, ww - G @ F)
        return F.reshape(feet.shape)

    forces = least_norm(w, feet)
    if project:
        # active-set pass: feet asked to pull are dropped and the rest
        # re-solved, which keeps the achieved wrench honest before cone
        # projection
        rows, rows_w, rows_feet = forces.reshape(-1, ns, 3), w.reshape(-1, 6), feet.reshape(-1, ns, 3)
        pulling = rows[..., 2] < 0.0
        for r in np.flatnonzero(pulling.any(axis=1) & ~pulling.all(axis=1)) if pulling.any() else ():
            keep = np.flatnonzero(~pulling[r])
            rows[r] = 0.0
            rows[r, keep] = least_norm(rows_w[r], rows_feet[r, keep])

        fz = forces[..., 2]
        fz[fz < 0.0] = 0.0  # max(fz, 0.0), -0.0 kept
        fxy = np.hypot(forces[..., 0], forces[..., 1])
        limit = mu * fz
        over = fxy > limit
        if over.any():
            fxy, limit = fxy[over], limit[over]
            forces[over, :2] *= np.where(fxy < 1e-12, 0.0, limit / fxy)[:, None]
    return forces


def _desired_wrench(
    state: SimState,
    model: RobotModel,
    spec: GaitSpec,
    cmd: tuple,
    gains: ExpertGains,
    R: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base wrench PD for a batch; returns (f_world, tau_world,
    cmd_vel_world), one row per robot.  `cmd` is (vx, vy, wz), each a
    float or one entry per robot; `spec` is one gait or stacked gaits.

    The vertical feedforward balances momentum over a whole period: a
    gait whose legs all swing together (pronk) is unsupported for
    1 - duty of it, so its stance must carry m g / duty.
    """
    vx, vy, wz = cmd
    roll, pitch, yaw = state.rpy()
    cos_y, sin_y = np.cos(yaw), np.sin(yaw)
    cmd_world = np.zeros(np.shape(yaw) + (3,))
    cmd_world[..., 0] = vx * cos_y - vy * sin_y
    cmd_world[..., 1] = vx * sin_y + vy * cos_y

    lin_vel, omega = state.base_lin_vel, state.base_ang_vel
    f = np.empty(np.shape(yaw) + (3,))
    f[..., :2] = gains.kv_linear * (cmd_world[..., :2] - lin_vel[..., :2])
    pronk = np.maximum.reduce(spec.phase_offset, -1) == np.minimum.reduce(spec.phase_offset, -1)
    support = np.where(pronk, spec.duty[..., 0], 1.0) if pronk.ndim else spec.duty if pronk else 1.0
    f[..., 2] = (
        model.mass * 9.81 / support
        + gains.kp_height * (model.nominal_base_height - state.base_pos[..., 2])
        - gains.kd_height * lin_vel[..., 2]
    )

    omega_world = matvec(R, omega)
    tau_body = np.zeros(np.shape(yaw) + (3,))
    tau_body[..., 0] = -gains.kp_attitude * roll - gains.kd_attitude * omega[..., 0]
    tau_body[..., 1] = -gains.kp_attitude * pitch - gains.kd_attitude * omega[..., 1]
    tau = matvec(R, tau_body)
    tau[..., 2] += gains.kd_attitude * (wz - omega_world[..., 2])
    return f, tau, cmd_world


def expert_torques(
    state: SimState,
    model: RobotModel,
    spec: GaitSpec,
    cmd,
    t: float,
    gains: ExpertGains,
    mu: float,
) -> ExpertAction:
    """Expert joint torques at time t (deterministic, stateless).

    `state` holds one robot or a batch at time t.  `spec` is the robot's
    gait, or for a batch `stack_gaits` of one per robot, so one call
    serves robots of different gaits.  `cmd` is one VelocityCommand, or an
    (n, 3) array of (vx, vy, wz) rows, one per robot.  A batch gets
    (n, 12) torques.
    """
    batch = state.q.shape[:-1]
    vx_vy_wz = cmd.as_tuple() if isinstance(cmd, VelocityCommand) else np.asarray(cmd, float).T
    R = state.rotation()
    R_legs = R[..., None, :, :]
    RT_legs = R_legs.swapaxes(-1, -2)  # views keep the layout of R.T, which selects the BLAS kernel
    leg_phase, in_stance = gait_phase(spec, t)
    f_des, tau_des, cmd_world = _desired_wrench(state, model, spec, vx_vy_wz, gains, R)
    q_legs, v_legs = state.q.reshape(batch + (4, 3)), state.v.reshape(batch + (4, 3))
    base = state.base_pos[..., None, :]

    # one allocation per stance-foot count k, over the (n_k, k, 3) arms of
    # the robots with k stance feet in leg order; the torques J^T(-R^T f)
    # of every leg, of which the swing legs' are replaced below
    foot_body, J = state.leg_kinematics(model)
    arms = base + matvec(R_legs, foot_body) - base
    forces = np.zeros(batch + (4, 3))
    n_stance = in_stance.sum(-1)
    for k in set(n_stance.ravel().tolist()) - {0}:
        robots = n_stance == k if batch else ()  # () takes the one robot as it is
        feet = np.nonzero(in_stance & (n_stance == k)[..., None])
        forces[feet] = allocate_stance_forces((f_des[robots], tau_des[robots]), arms[feet], mu,
                                              torque_weight=gains.torque_weight).reshape(-1, 3)
    push = matvec(J.swapaxes(-1, -2), matvec(-RT_legs, forces))

    hip_world = base + matvec(R_legs, model.hip_offsets + _LATERAL * model.l_abd)
    omega_cmd = np.zeros(batch + (1, 3))
    omega_cmd[..., 0, 2] = vx_vy_wz[2]
    hip_vel_cmd = cmd_world[..., None, :] + cross3(omega_cmd, hip_world - base)
    ground = hip_world.copy()
    ground[..., 2] = 0.0

    # touchdown-referenced foothold: the foot stays planted while the
    # hip travels, so its expected offset from the hip shrinks from
    # +T_st/2 v at touchdown to -T_st/2 v at liftoff (stateless in t)
    t_stance = spec.duty * spec.period
    lead = np.where(in_stance, 0.5 * t_stance - leg_phase * spec.period, 0.5 * t_stance)
    hold_world = ground.copy()
    hold_world[..., :2] += lead[..., None] * hip_vel_cmd[..., :2]
    ik_legs = np.tile(LEGS, batch[0]) if batch else LEGS
    p_ik = matvec(RT_legs, hold_world - base).reshape(-1, 3)
    swing = (~in_stance).ravel().nonzero()[0]  # the (robot, leg) rows outside stance, flat
    robot = swing // 4

    def take_rows(x, index):  # of an (..., 3) array, flat
        return x.reshape(-1, 3).take(index, 0)

    if swing.size:
        rows, duty = spec, spec.duty  # the spec and the duty of each swing row
        if batch:
            rows = copy.copy(spec)
            rows.period, rows.duty, rows.swing_height = (spec.period[robot], spec.duty[robot],
                                                         spec.swing_height[robot])
            duty = rows.duty[:, 0]
        s = (leg_phase.take(swing) - duty) / (1.0 - duty)
        vel_cmd = take_rows(hip_vel_cmd, swing)
        target = raibert_target(vel_cmd, rows, take_rows(hip_world, swing),
                                take_rows(state.base_lin_vel, robot), gains.k_raibert)
        start = take_rows(ground, swing)
        start[..., :2] -= 0.5 * (rows.duty * rows.period) * vel_cmd[..., :2]
        swing_world = swing_trajectory(rows, start, target, s)
        ik_legs = np.concatenate((ik_legs, swing % 4))
        p_ik = np.concatenate((p_ik, matvec(R.reshape(-1, 3, 3)[robot].swapaxes(-1, -2),
                                            swing_world - take_rows(state.base_pos, robot))))
    q_ik, out = leg_inverse_kinematics_rows(model, ik_legs, p_ik)  # a target outside the workspace
    for leg in ik_legs[out]:  # is clamped to it, with one warning per clamped row
        log.warning("foot target out of workspace for leg %d, clamping", leg)
    q_hold = q_ik[: q_legs.size // 3].reshape(q_legs.shape)
    tau_hold = gains.kp_hold * (q_hold - q_legs) - gains.kd_hold * v_legs

    # the contact force ramps in after touchdown and out before liftoff,
    # and swing tracking in at liftoff and out at touchdown, so the torque
    # stays continuous in phase
    w, fade = gains.blend_frac, np.ones(in_stance.shape)
    if w > 0.0:
        edges = np.empty((2,) + in_stance.shape)  # into and out of stance, and of swing
        np.subtract(leg_phase, np.where(in_stance, 0.0, spec.duty), out=edges[0])
        np.subtract(np.where(in_stance, spec.duty, 1.0), leg_phase, out=edges[1])
        x = np.minimum(np.maximum(edges / w, 0.0), 1.0)  # Python's min/max: x is finite, -0.0 squares to 0.0
        fade = np.minimum(*(x * x * (3.0 - 2.0 * x)))  # smoothstep
        fade[in_stance & (spec.duty >= 1.0)] = 1.0  # a gait that never swings keeps its full force
    tau_raw = fade[..., None] * push + tau_hold
    if swing.size:
        tau_swing = (gains.kp_swing * (q_ik[q_legs.size // 3:] - take_rows(q_legs, swing))
                     - gains.kd_swing * take_rows(v_legs, swing))
        blend = fade.take(swing)[:, None]
        tau_raw.reshape(-1, 3)[swing] = blend * tau_swing + (1.0 - blend) * take_rows(tau_hold, swing)

    tau_raw = tau_raw.reshape(batch + (12,))
    tau = np.minimum(np.maximum(tau_raw, -model.tau_max), model.tau_max)  # np.clip's bits: no bound is 0
    return ExpertAction(tau=tau, tau_raw=tau_raw)
