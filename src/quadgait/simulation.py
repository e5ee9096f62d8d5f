"""Deterministic fixed-step quadruped simulator.

The base is a floating rigid body driven by gravity and foot contact
forces.  The 12 joints are servo chains with a fixed apparent rotor
inertia, driven by PD torques plus the virtual-work reaction of the
foot contact force (J^T f).  Feet are points; the ground is the plane
z = 0 with a spring-damper normal law and a viscous-saturated Coulomb
tangential law.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import Diverged
from .robot import LEGS, RobotModel, _rot_x, cross3, leg_kinematics, matvec

GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass
class ContactParams:
    k_n: float = 3.0e4
    c_n: float = 300.0
    mu: float = 0.7
    v_slip: float = 0.02
    contact_force_threshold: float = 1.0
    # numerical guard: tangential force never exceeds the impulse that
    # would stop this effective mass within one step (prevents chatter
    # of the stiff viscous friction slope at slow creep)
    stop_mass: float = 0.6

    def __post_init__(self):
        if self.k_n <= 0 or self.c_n < 0 or self.mu < 0 or self.contact_force_threshold <= 0:
            raise ValueError("invalid contact parameters")
        if self.v_slip <= 0 or self.stop_mass <= 0:
            raise ValueError("v_slip and stop_mass must be positive")


@dataclass
class SimState:
    """Full simulator state. base_quat is (w, x, y, z), world <- body;
    base_lin_vel is world frame, base_ang_vel is body frame."""

    base_pos: np.ndarray
    base_quat: np.ndarray
    base_lin_vel: np.ndarray
    base_ang_vel: np.ndarray
    q: np.ndarray
    v: np.ndarray
    foot_force: np.ndarray
    time: float = 0.0

    def copy(self) -> "SimState":
        return SimState(
            self.base_pos.copy(),
            self.base_quat.copy(),
            self.base_lin_vel.copy(),
            self.base_ang_vel.copy(),
            self.q.copy(),
            self.v.copy(),
            self.foot_force.copy(),
            self.time,
        )


@dataclass
class ImuSample:
    ang_vel: np.ndarray
    lin_acc: np.ndarray


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def quat_from_rotvec(phi: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(phi))
    if angle < 1e-12:
        return np.array([1.0, 0.5 * phi[0], 0.5 * phi[1], 0.5 * phi[2]])
    axis = phi / angle
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * axis))


def rpy_from_matrix(R: np.ndarray) -> tuple[float, float, float]:
    """Roll, pitch, yaw (ZYX convention) of a body->world rotation."""
    roll = float(np.arctan2(R[2, 1], R[2, 2]))
    pitch = float(np.arctan2(-R[2, 0], np.hypot(R[2, 1], R[2, 2])))
    yaw = float(np.arctan2(R[1, 0], R[0, 0]))
    return roll, pitch, yaw


def nominal_stance_state(
    model: RobotModel, yaw: float = 0.0, contact: ContactParams | None = None
) -> SimState:
    """Robot standing at the nominal pose, statically settled: the base
    sits one static deflection into the ground springs and the feet carry
    their quarter share of the weight, so the first observation already
    reads standing contact."""
    contact = contact or ContactParams()
    quat = np.array([np.cos(0.5 * yaw), 0.0, 0.0, np.sin(0.5 * yaw)])
    sag = model.mass * 9.81 / (4.0 * contact.k_n)
    force = np.zeros((4, 3))
    force[:, 2] = model.mass * 9.81 / 4.0
    return SimState(
        base_pos=np.array([0.0, 0.0, model.nominal_base_height - sag]),
        base_quat=quat,
        base_lin_vel=np.zeros(3),
        base_ang_vel=np.zeros(3),
        q=model.nominal_joint_pos.copy(),
        v=np.zeros(12),
        foot_force=force,
        time=0.0,
    )


def pd_torque(model: RobotModel, target: np.ndarray, q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """tau = kp (target - q) - kd v, clamped to +-tau_max per joint."""
    tau = model.kp * (np.asarray(target) - q) - model.kd * v
    return np.clip(tau, -model.tau_max, model.tau_max)


def _foot_contact_force(
    contact: ContactParams, p_world: np.ndarray, v_world: np.ndarray, dt: float
) -> np.ndarray:
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


def step(
    state: SimState,
    model: RobotModel,
    contact: ContactParams,
    joint_target: np.ndarray,
    dt: float,
) -> SimState:
    """Advance one semi-implicit Euler step of length dt.

    Forces are evaluated once at the incoming configuration: servo PD
    torques, per-foot contact forces, and the virtual-work coupling
    J^T f into the joint dynamics.  The base additionally receives the
    rotor angular-momentum reaction of the accelerating joints, which
    vanishes in equilibrium and equals minus the servo torque for an
    unloaded swing leg.
    """
    if not 0.0 < dt <= 0.005:
        raise ValueError("dt must be in (0, 0.005]")
    _check_valid(state)

    R = quat_to_matrix(state.base_quat)
    tau = pd_torque(model, joint_target, state.q, state.v)

    p_body, J = leg_kinematics(model, LEGS, state.q.reshape(4, 3))
    p_world = state.base_pos + matvec(R, p_body)
    v_world = state.base_lin_vel + matvec(
        R, cross3(state.base_ang_vel, p_body.T).T + matvec(J, state.v.reshape(4, 3))
    )
    foot_force = np.zeros((4, 3))
    for leg in range(4):
        force = _foot_contact_force(contact, p_world[leg], v_world[leg], dt)
        if force[2] > 0.0:
            foot_force[leg] = force
    loaded = np.flatnonzero(foot_force[:, 2] > 0.0)
    f = foot_force[loaded]
    tau_ext = np.zeros((4, 3))
    tau_ext[loaded] = matvec(J[loaded].transpose(0, 2, 1), matvec(R.T, f))
    # summed leg by leg from zero: a reduction would start from the first
    # leg's term and keep a -0.0 that 0.0 + x turns into +0.0
    torque_world = np.zeros(3)
    for arm_x_force in cross3((p_world[loaded] - state.base_pos).T, f.T).T:
        torque_world += arm_x_force

    # joint servo chains, fixed apparent rotor inertia
    alpha = (tau + tau_ext.ravel()) / model.rotor_inertia
    v_new = state.v + alpha * dt
    q_new = state.q + v_new * dt
    lo, hi = model.joint_limits[:, 0], model.joint_limits[:, 1]
    stopped = (q_new < lo) | (q_new > hi)
    q_new = np.clip(q_new, lo, hi)
    v_new[stopped] = 0.0
    # a joint stop absorbs the rotor momentum, so the base reacts to the
    # acceleration the rotor actually had, not the commanded one
    alpha[stopped] = (v_new[stopped] - state.v[stopped]) / dt

    # rotor momentum reaction on the base (world frame)
    a = (alpha * model.rotor_inertia).reshape(4, 3)
    pitch_axis = matvec(_rot_x(state.q[0::3]), np.array([0.0, 1.0, 0.0]))
    reaction_body = a[:, :1] * np.array([1.0, 0.0, 0.0]) + (a[:, 1] + a[:, 2])[:, None] * pitch_axis
    for reaction_world in matvec(R, reaction_body):
        torque_world -= reaction_world

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


def _check_valid(state: SimState):
    values = np.concatenate((state.base_pos, state.base_quat, state.base_lin_vel,
                             state.base_ang_vel, state.q, state.v, state.foot_force.ravel()))
    if not np.isfinite(values).all() or np.linalg.norm(state.base_pos) > 100.0:
        raise Diverged(state.time)


def survival_violation(state: SimState, model: RobotModel) -> str | None:
    """Why the robot counts as fallen, or None while it is upright: the
    base height must stay inside [0.4, 1.6] x nominal and |roll|, |pitch|
    below 0.6 rad.  Rollouts, collection and the expert gate share it."""
    height = state.base_pos[2]
    lo, hi = 0.4 * model.nominal_base_height, 1.6 * model.nominal_base_height
    if not lo <= height <= hi:
        return f"height {height:.3f} m outside [{lo:.3f}, {hi:.3f}]"
    roll, pitch, _ = rpy_from_matrix(quat_to_matrix(state.base_quat))
    if abs(roll) >= 0.6:
        return f"roll {roll:+.3f} rad"
    if abs(pitch) >= 0.6:
        return f"pitch {pitch:+.3f} rad"
    return None


def simulate(
    model: RobotModel,
    contact: ContactParams,
    state: SimState,
    n_ticks: int,
    dt: float,
    control,
    prev: SimState | None = None,
    disturb=None,
    on_step=None,
):
    """The closed loop shared by collection, the expert gate and rollouts.

    Each tick: `disturb(i, state)`, if given, may return a replaced
    (pushed) state; `control(i, prev, state)` returns the joint target;
    `step` advances; `on_step(state)`, if given, sees the new state once
    it is known to be upright.  `prev` is the state one tick before
    `state`, the pair `read_imu` needs; it defaults to `state`, so the
    first reading sees no acceleration.  The loop ends after n_ticks ticks or at the first fall:
    `step` raising Diverged, or a `survival_violation`.

    Returns (prev, state, fall) with fall None or (time, reason).
    """
    prev = state if prev is None else prev
    for i in range(n_ticks):
        if disturb is not None:
            state = disturb(i, state)
        target = control(i, prev, state)
        prev = state
        try:
            state = step(state, model, contact, target, dt)
        except Diverged as exc:
            return prev, state, (exc.time, exc.reason)
        reason = survival_violation(state, model)
        if reason is not None:
            return prev, state, (state.time, reason)
        if on_step is not None:
            on_step(state)
    return prev, state, None


def read_imu(prev: SimState, curr: SimState, dt: float) -> ImuSample:
    """Body-frame IMU synthesized from two consecutive states.

    The accelerometer reads specific force, so it reports +9.81 on z at
    rest and zero in free fall.
    """
    R = quat_to_matrix(curr.base_quat)
    lin_acc = R.T @ ((curr.base_lin_vel - prev.base_lin_vel) / dt - GRAVITY)
    return ImuSample(ang_vel=curr.base_ang_vel.copy(), lin_acc=lin_acc)


def contact_flags(state: SimState, contact: ContactParams) -> np.ndarray:
    """Boolean per-foot contact from the normal force component."""
    return state.foot_force[:, 2] > contact.contact_force_threshold


ROLLOUT_CSV_COLUMNS = (
    ["t", "px", "py", "pz", "qw", "qx", "qy", "qz"]
    + ["vx", "vy", "vz", "wx", "wy", "wz"]
    + [f"q_{i}" for i in range(12)]
    + [f"dq_{i}" for i in range(12)]
    + [f"target_{i}" for i in range(12)]
    + ["c_fl", "c_fr", "c_rl", "c_rr"]
)


@dataclass
class RolloutLog:
    """Per-step rows of a rollout: state, PD target and contact flags."""

    rows: list = field(default_factory=list)

    def append(self, state: SimState, target: np.ndarray, flags: np.ndarray):
        self.rows.append(
            np.concatenate(
                (
                    [state.time],
                    state.base_pos,
                    state.base_quat,
                    state.base_lin_vel,
                    state.base_ang_vel,
                    state.q,
                    state.v,
                    np.asarray(target, dtype=float),
                    flags.astype(float),
                )
            )
        )

    def as_array(self) -> np.ndarray:
        if not self.rows:
            return np.empty((0, len(ROLLOUT_CSV_COLUMNS)))
        return np.asarray(self.rows)

    def write_csv(self, path):
        row_format = ",".join(["%.9g"] * len(ROLLOUT_CSV_COLUMNS)) + "\n"
        buf = io.StringIO()
        buf.write(",".join(ROLLOUT_CSV_COLUMNS) + "\n")
        for row in self.as_array():
            buf.write(row_format % tuple(row.tolist()))
        with open(path, "w") as fh:
            fh.write(buf.getvalue())
