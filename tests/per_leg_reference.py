"""The per-leg simulator tick and expert that the leg-batched kernels
replaced, kept as the bitwise reference for test_leg_batching.py.

Everything the batched code rewrote is copied here with its old body
(comments, docstrings and the clamp warning left out):
the one-leg FK, Jacobian and IK, the grasp-matrix loop of the force
allocation, the swing and Raibert helpers, `step` and `expert_torques`,
and the one-robot helpers that the robot-batched tick replaced: the
quaternion and rotation helpers, the per-foot contact law and the base
wrench PD; and the cross product and PD law of the leaner tick.  Helpers
that no rewrite changed are imported from the package.
"""

from __future__ import annotations

import numpy as np

from quadgait.errors import Diverged, QuadGaitError, Unreachable
from quadgait.expert import ExpertAction, ExpertGains
from quadgait.gait import gait_phase
from quadgait.robot import SIDE_SIGN
from quadgait.simulation import GRAVITY, SimState


def cross3(a, b):
    (a0, a1, a2), (b0, b1, b2) = a, b
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


def pd_torque(model, target, q, v):
    tau = model.kp * (np.asarray(target) - q) - model.kd * v
    return np.clip(tau, -model.tau_max, model.tau_max)


def quat_to_matrix(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_multiply(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_from_rotvec(phi):
    angle = float(np.linalg.norm(phi))
    if angle < 1e-12:
        return np.array([1.0, 0.5 * phi[0], 0.5 * phi[1], 0.5 * phi[2]])
    axis = phi / angle
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


def rpy_from_matrix(R):
    roll = float(np.arctan2(R[2, 1], R[2, 2]))
    pitch = float(np.arctan2(-R[2, 0], np.hypot(R[2, 1], R[2, 2])))
    yaw = float(np.arctan2(R[1, 0], R[0, 0]))
    return roll, pitch, yaw


def _foot_contact_force(contact, p_world, v_world, dt):
    pen = -p_world[2]
    if pen <= 0.0:
        return np.zeros(3)
    fn = contact.k_n * pen + contact.c_n * max(0.0, -v_world[2])
    fn = max(fn, 0.0)
    force = np.array([0.0, 0.0, fn])
    vt = v_world[:2]
    speed = float(np.hypot(vt[0], vt[1]))
    if speed > 1e-12 and fn > 0.0:
        mag = contact.mu * fn * min(1.0, speed / contact.v_slip)
        mag = min(mag, contact.stop_mass * speed / dt)
        force[:2] = -mag * vt / speed
    return force


def _desired_wrench(state, model, spec, cmd, gains, R):
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


def _rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def leg_forward_kinematics(model, leg, q_leg):
    q0, q1, q2 = float(q_leg[0]), float(q_leg[1]), float(q_leg[2])
    lt, lc = model.l_thigh, model.l_calf
    x = -lt * np.sin(q1) - lc * np.sin(q1 + q2)
    z = -lt * np.cos(q1) - lc * np.cos(q1 + q2)
    local = np.array([x, SIDE_SIGN[leg] * model.l_abd, z])
    return model.hip_offsets[leg] + _rot_x(q0) @ local


def leg_jacobian(model, leg, q_leg):
    q0, q1, q2 = float(q_leg[0]), float(q_leg[1]), float(q_leg[2])
    lt, lc = model.l_thigh, model.l_calf
    s1, c1 = np.sin(q1), np.cos(q1)
    s12, c12 = np.sin(q1 + q2), np.cos(q1 + q2)
    rx = _rot_x(q0)

    local = np.array([-lt * s1 - lc * s12, SIDE_SIGN[leg] * model.l_abd, -lt * c1 - lc * c12])
    p_rel = rx @ local

    J = np.empty((3, 3))
    J[:, 0] = cross3((1.0, 0.0, 0.0), p_rel)
    J[:, 1] = rx @ np.array([-lt * c1 - lc * c12, 0.0, lt * s1 + lc * s12])
    J[:, 2] = rx @ np.array([-lc * c12, 0.0, lc * s12])
    return J


def leg_inverse_kinematics(model, leg, p_body, eps=1e-4, clamp=False):
    p_rel = np.asarray(p_body, dtype=float) - model.hip_offsets[leg]
    x, y, z = p_rel
    lt, lc = model.l_thigh, model.l_calf
    d = SIDE_SIGN[leg] * model.l_abd

    planar_sq = y * y + z * z - model.l_abd**2
    if planar_sq < eps * eps:
        if not clamp:
            raise Unreachable(f"foot target {tuple(np.asarray(p_body, float))} outside workspace")
        planar_sq = eps * eps
    planar = np.sqrt(planar_sq)

    q0 = np.arctan2(z, y) - np.arctan2(-planar, d)

    r_sq = x * x + planar_sq
    r = np.sqrt(r_sq)
    r_min, r_max = model.min_leg_radius, model.max_leg_radius
    if r < r_min - 1e-12 or r > r_max + 1e-12:
        if not clamp:
            raise Unreachable(f"foot target {tuple(np.asarray(p_body, float))} outside workspace")
        r_new = min(max(r, r_min + eps), r_max - eps)
        scale = r_new / max(r, 1e-12)
        x *= scale
        planar *= scale
        r_sq = r_new * r_new

    cos_knee = (r_sq - lt * lt - lc * lc) / (2.0 * lt * lc)
    q2 = -np.arccos(np.clip(cos_knee, -1.0, 1.0))
    q1 = np.arctan2(-x, planar) - np.arctan2(lc * np.sin(q2), lt + lc * np.cos(q2))

    q0 = (q0 + np.pi) % (2.0 * np.pi) - np.pi
    return np.array([q0, q1, q2])


def step(state, model, contact, joint_target, dt):
    if not 0.0 < dt <= 0.005:
        raise ValueError("dt must be in (0, 0.005]")
    _check_valid(state)

    R = quat_to_matrix(state.base_quat)
    tau = pd_torque(model, joint_target, state.q, state.v)

    foot_force = np.zeros((4, 3))
    tau_ext = np.zeros(12)
    torque_world = np.zeros(3)
    for leg in range(4):
        sl = model.leg_slice(leg)
        q_leg = state.q[sl]
        p_body = leg_forward_kinematics(model, leg, q_leg)
        J = leg_jacobian(model, leg, q_leg)
        p_world = state.base_pos + R @ p_body
        v_world = state.base_lin_vel + R @ (
            cross3(state.base_ang_vel, p_body) + J @ state.v[sl]
        )
        force = _foot_contact_force(contact, p_world, v_world, dt)
        if force[2] > 0.0:
            foot_force[leg] = force
            tau_ext[sl] = J.T @ (R.T @ force)
            torque_world += cross3(p_world - state.base_pos, force)

    alpha = (tau + tau_ext) / model.rotor_inertia
    v_new = state.v + alpha * dt
    q_new = state.q + v_new * dt
    lo, hi = model.joint_limits[:, 0], model.joint_limits[:, 1]
    stopped = (q_new < lo) | (q_new > hi)
    q_new = np.clip(q_new, lo, hi)
    v_new[stopped] = 0.0
    alpha[stopped] = (v_new[stopped] - state.v[stopped]) / dt

    for leg in range(4):
        sl = model.leg_slice(leg)
        a = alpha[sl] * model.rotor_inertia
        pitch_axis = _rot_x(state.q[sl][0]) @ np.array([0.0, 1.0, 0.0])
        reaction_body = a[0] * np.array([1.0, 0.0, 0.0]) + (a[1] + a[2]) * pitch_axis
        torque_world -= R @ reaction_body

    force_world = foot_force.sum(axis=0) + model.mass * GRAVITY

    lin_vel = state.base_lin_vel + (force_world / model.mass) * dt
    base_pos = state.base_pos + lin_vel * dt

    torque_body = R.T @ torque_world
    I = model.base_inertia
    omega = state.base_ang_vel
    omega_dot = np.linalg.solve(I, torque_body - cross3(omega, I @ omega))
    omega_new = omega + omega_dot * dt
    quat = quat_multiply(state.base_quat, quat_from_rotvec(omega_new * dt))
    quat /= np.linalg.norm(quat)

    new_state = SimState(
        base_pos=base_pos,
        base_quat=quat,
        base_lin_vel=lin_vel,
        base_ang_vel=omega_new,
        q=q_new,
        v=v_new,
        foot_force=foot_force,
        time=state.time + dt,
    )
    _check_valid(new_state)
    return new_state


def _check_valid(state):
    for arr in (
        state.base_pos,
        state.base_quat,
        state.base_lin_vel,
        state.base_ang_vel,
        state.q,
        state.v,
        state.foot_force,
    ):
        if not np.all(np.isfinite(arr)):
            raise Diverged(state.time)
    if np.linalg.norm(state.base_pos) > 100.0:
        raise Diverged(state.time)


class RankDeficient(QuadGaitError):
    """Requested stance wrench is unachievable beyond tolerance."""


def allocate_stance_forces(desired_wrench, foot_positions, mu, lam=1e-9, residual_tol=None,
                           torque_weight=1.0, project=True):
    ns = len(foot_positions)
    if ns < 1:
        raise ValueError("need at least one stance foot")
    f_des, tau_des = desired_wrench
    w = np.concatenate((np.asarray(f_des, float), np.asarray(tau_des, float)))
    row_scale = np.concatenate((np.ones(3), np.full(3, torque_weight)))

    def grasp_matrix(feet):
        G = np.zeros((6, 3 * len(feet)))
        for i, r in enumerate(feet):
            G[:3, 3 * i : 3 * i + 3] = np.eye(3)
            rx, ry, rz = r
            G[3:, 3 * i : 3 * i + 3] = np.array([[0, -rz, ry], [rz, 0, -rx], [-ry, rx, 0]])
        return G

    def solve(feet):
        G = grasp_matrix(feet) * row_scale[:, None]
        ww = w * row_scale
        A = G @ G.T + lam * np.eye(6)
        y = np.linalg.solve(A, ww)
        F = G.T @ y
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


def swing_trajectory(spec, start, target, s):
    s = float(np.clip(s, 0.0, 1.0))
    blend = 3.0 * s * s - 2.0 * s**3
    point = np.asarray(start, float) + blend * (np.asarray(target, float) - np.asarray(start, float))
    point[2] += spec.swing_height * np.sin(np.pi * s)
    return point


def raibert_target(cmd_vel_world, spec, hip_world, base_vel, k_v=0.03):
    t_stance = spec.duty * spec.period
    landing = np.array([hip_world[0], hip_world[1], 0.0])
    landing[:2] += 0.5 * t_stance * cmd_vel_world[:2]
    landing[:2] += k_v * (base_vel[:2] - cmd_vel_world[:2])
    return landing


def expert_torques(state, model, spec, cmd, t, gains=None, mu=0.7):
    gains = gains or ExpertGains()
    R = quat_to_matrix(state.base_quat)
    leg_phase, in_stance = gait_phase(spec, t)
    f_des, tau_des, cmd_world = _desired_wrench(state, model, spec, cmd, gains, R)

    foot_body = [leg_forward_kinematics(model, leg, state.q[model.leg_slice(leg)]) for leg in range(4)]
    foot_world = [state.base_pos + R @ p for p in foot_body]

    stance_legs = [leg for leg in range(4) if in_stance[leg]]
    forces = {}
    if stance_legs:
        try:
            alloc = allocate_stance_forces(
                (f_des, tau_des),
                [foot_world[leg] - state.base_pos for leg in stance_legs],
                mu,
                torque_weight=gains.torque_weight,
            )
        except RankDeficient:
            alloc = np.zeros((len(stance_legs), 3))
            alloc[:, 2] = max(f_des[2], 0.0) / len(stance_legs)
        for i, leg in enumerate(stance_legs):
            forces[leg] = alloc[i]

    tau_raw = np.zeros(12)
    t_stance = spec.duty * spec.period
    w = gains.blend_frac
    for leg in range(4):
        sl = model.leg_slice(leg)
        q_leg = state.q[sl]
        v_leg = state.v[sl]
        p = leg_phase[leg]
        hip_body = model.hip_offsets[leg] + np.array([0.0, SIDE_SIGN[leg] * model.l_abd, 0.0])
        hip_world = state.base_pos + R @ hip_body
        hip_vel_cmd = cmd_world + cross3((0.0, 0.0, cmd.wz), hip_world - state.base_pos)

        hold_world = np.array([hip_world[0], hip_world[1], 0.0])
        if in_stance[leg]:
            hold_world[:2] += (0.5 * t_stance - p * spec.period) * hip_vel_cmd[:2]
        else:
            hold_world[:2] += 0.5 * t_stance * hip_vel_cmd[:2]
        q_hold = _safe_ik(model, leg, R.T @ (hold_world - state.base_pos))
        tau_hold = gains.kp_hold * (q_hold - q_leg) - gains.kd_hold * v_leg

        if in_stance[leg]:
            J = leg_jacobian(model, leg, q_leg)
            scale = 1.0
            if w > 0.0 and spec.duty < 1.0:
                scale = min(_smoothstep(p / w), _smoothstep((spec.duty - p) / w))
            tau_raw[sl] = scale * (J.T @ (-R.T @ forces[leg])) + tau_hold
        else:
            s = (p - spec.duty) / (1.0 - spec.duty)
            target = raibert_target(hip_vel_cmd, spec, hip_world, state.base_lin_vel, gains.k_raibert)
            start = np.array([hip_world[0], hip_world[1], 0.0])
            start[:2] -= 0.5 * t_stance * hip_vel_cmd[:2]
            p_ref_world = swing_trajectory(spec, start, target, s)
            q_ref = _safe_ik(model, leg, R.T @ (p_ref_world - state.base_pos))
            tau_swing = gains.kp_swing * (q_ref - q_leg) - gains.kd_swing * v_leg
            blend = 1.0
            if w > 0.0:
                blend = min(_smoothstep((p - spec.duty) / w), _smoothstep((1.0 - p) / w))
            tau_raw[sl] = blend * tau_swing + (1.0 - blend) * tau_hold

    tau = np.clip(tau_raw, -model.tau_max, model.tau_max)
    return ExpertAction(tau=tau, tau_raw=tau_raw)


def _smoothstep(x):
    x = min(max(x, 0.0), 1.0)
    return x * x * (3.0 - 2.0 * x)


def _safe_ik(model, leg, p_body):
    try:
        return leg_inverse_kinematics(model, leg, p_body)
    except Unreachable:
        return leg_inverse_kinematics(model, leg, p_body, clamp=True)
