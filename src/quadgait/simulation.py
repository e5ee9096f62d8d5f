"""Deterministic fixed-step quadruped simulator.

The base is a floating rigid body driven by gravity and foot contact
forces.  The 12 joints are servo chains with a fixed apparent rotor
inertia, driven by PD torques plus the virtual-work reaction of the
foot contact force (J^T f).  Feet are points; the ground is the plane
z = 0 with a spring-damper normal law and a viscous-saturated Coulomb
tangential law.  A state holds one robot or a batch, advanced with one
numpy call per operation; each robot gets the bits it gets alone.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import Diverged
from .robot import _E_X, LEGS, RobotModel, cross3, leg_kinematics, matvec, solve

GRAVITY = np.array([0.0, 0.0, -9.81])
DT = 1e-3  # s: the 1 kHz tick that demonstrations, the policy and its rollouts share


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
    base_lin_vel is world frame, base_ang_vel is body frame.  A batch has
    a leading robot axis on every array and one shared time."""

    base_pos: np.ndarray
    base_quat: np.ndarray
    base_lin_vel: np.ndarray
    base_ang_vel: np.ndarray
    q: np.ndarray
    v: np.ndarray
    foot_force: np.ndarray
    time: float = 0.0
    # values computed once per state, name -> (source field bytes, model,
    # arrays); and "checked", simulate's mark of a state step checked
    _once: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.base_pos, self.base_quat, self.base_lin_vel, self.base_ang_vel,
                self.q, self.v, self.foot_force)

    def copy(self) -> "SimState":
        return type(self)(*(a.copy() for a in self.arrays()), self.time)

    def rows(self, index) -> "SimState":
        """The robots `index` picks, as `array[index]` picks rows: an int
        gives a one-robot state, an index array a batch, None a batch of
        one."""
        return type(self)(*(a[index] for a in self.arrays()), self.time)

    @staticmethod
    def stack(states) -> "SimState":
        """One batch from one-robot states that share a time."""
        arrays = zip(*(s.arrays() for s in states))
        return type(states[0])(*(np.stack(a) for a in arrays), states[0].time)

    def _computed(self, name: str, source: str, model, compute) -> list:
        """compute(), once per state and model, and again if the field it
        reads was changed in place."""
        key = getattr(self, source).tobytes()
        hit = self._once.get(name)
        if hit is None or hit[0] != key or hit[1] is not model:
            hit = self._once[name] = (key, model, compute())
        return hit[2]

    def rotation(self) -> np.ndarray:
        """quat_to_matrix(base_quat), computed once per state."""
        return self._computed("R", "base_quat", None, lambda: [quat_to_matrix(self.base_quat)])[0]

    def rpy(self) -> tuple:
        """rpy_from_matrix(rotation()), computed once per state."""
        return self._computed("rpy", "base_quat", None, lambda: rpy_from_matrix(self.rotation()))

    def leg_kinematics(self, model: RobotModel) -> tuple[np.ndarray, np.ndarray]:
        """Body-frame foot positions (..., 4, 3) and Jacobians (..., 4, 3,
        3) of the joints, computed once per state for `step` and the expert."""
        def compute():
            legs = LEGS if self.q.size == 12 else np.tile(LEGS, self.q.size // 12)
            rows = leg_kinematics(model, legs, self.q.reshape(-1, 3))
            return [x.reshape(self.q.shape[:-1] + (4,) + x.shape[1:]) for x in rows]
        return tuple(self._computed("legs", "q", model, compute))


@dataclass
class ImuSample:
    ang_vel: np.ndarray
    lin_acc: np.ndarray


# products q_i q_j (flat index 4 i + j) summed in the order of the
# written-out formulas, so each entry is bitwise the formula's
_ROT_TERMS = np.array([[10, 6, 7, 6, 5, 11, 7, 11, 5], [15, 12, 8, 12, 15, 4, 8, 4, 10]])
_ROT_SIGN = np.array([1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0, 1.0])
_ROT_DIAG = np.array([True, False, False, False, True, False, False, False, True])
_MUL_TERMS = np.array([[0, 5, 10, 15], [1, 4, 11, 14], [2, 7, 8, 13], [3, 6, 9, 12]])
_MUL_SIGN = np.array([[1.0, -1, -1, -1], [1.0, 1, 1, -1], [1.0, -1, 1, 1], [1.0, 1, -1, 1]])


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (3, 3) of a quaternion (w, x, y, z), or (n, 3, 3)
    for (n, 4) rows: 1 - 2(yy + zz), 2(xy - zw), 2(xz + yw); 2(xy + zw),
    1 - 2(xx + zz), 2(yz - xw); 2(xz - yw), 2(yz + xw), 1 - 2(xx + yy)."""
    terms = (q[..., :, None] * q[..., None, :]).reshape(q.shape[:-1] + (16,)).take(_ROT_TERMS, -1)
    half = terms[..., 0, :] + terms[..., 1, :] * _ROT_SIGN
    return np.where(_ROT_DIAG, 1 - 2 * half, 2 * half).reshape(q.shape[:-1] + (3, 3))


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b: w = aw bw - ax bx - ay by - az bz, x = aw bx + ax bw + ay bz
    - az by, y = aw by - ax bz + ay bw + az bx, z = aw bz + ax by - ay bx
    + az bw."""
    terms = (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (16,)).take(_MUL_TERMS, -1)
    terms *= _MUL_SIGN
    return terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]


def _norm(x: np.ndarray) -> np.ndarray:
    """Norm over the last axis, bitwise np.linalg.norm of each vector
    (norm(axis=-1) rounds differently)."""
    return np.sqrt(np.vecdot(x, x))


def quat_from_rotvec(phi: np.ndarray) -> np.ndarray:
    angle = _norm(phi)[..., None]
    small = angle < 1e-12
    if small.any():  # those rows take the small-angle form, the others the rotation
        tiny = np.concatenate((np.ones_like(angle), 0.5 * phi), -1)
        return np.where(small, tiny, quat_from_rotvec(np.where(small, 1.0, phi)))
    half = 0.5 * angle
    return np.concatenate((np.cos(half), np.sin(half) * (phi / angle)), -1)


def rpy_from_matrix(R: np.ndarray) -> tuple:
    """Roll, pitch, yaw (ZYX convention) of a body->world rotation, or
    their arrays for a (n, 3, 3) stack."""
    roll = np.arctan2(R[..., 2, 1], R[..., 2, 2])
    pitch = np.arctan2(-R[..., 2, 0], np.hypot(R[..., 2, 1], R[..., 2, 2]))
    yaw = np.arctan2(R[..., 1, 0], R[..., 0, 0])
    return roll, pitch, yaw


def nominal_stance_state(model: RobotModel, contact: ContactParams | None = None) -> SimState:
    """Robot standing at the nominal pose, statically settled: the base
    sits one static deflection into the ground springs and the feet carry
    their quarter share of the weight, so the first observation already
    reads standing contact."""
    contact = contact or ContactParams()
    sag = model.mass * 9.81 / (4.0 * contact.k_n)
    force = np.zeros((4, 3))
    force[:, 2] = model.mass * 9.81 / 4.0
    return SimState(
        base_pos=np.array([0.0, 0.0, model.nominal_base_height - sag]),
        base_quat=np.array([1.0, 0.0, 0.0, 0.0]),
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
    return np.minimum(np.maximum(tau, -model.tau_max), model.tau_max)  # np.clip's bits: the bounds are not 0


def _contact_forces(
    contact: ContactParams, p_world: np.ndarray, v_world: np.ndarray, dt: float
) -> np.ndarray:
    """Contact force of every foot (rows like p_world): a spring-damper
    normal force that never pulls, and a Coulomb tangential force with a
    viscous slope below v_slip, capped by the force that stops
    `stop_mass` within one step; zero for a foot that does not press.
    np.minimum/maximum pick what Python's min/max pick wherever the
    result is kept (finite values; a signed zero in the damping term is
    added to a positive spring force)."""
    pen = -p_world[..., 2]
    fn = contact.k_n * pen + contact.c_n * np.maximum(-v_world[..., 2], 0.0)
    speed = np.maximum(np.hypot(v_world[..., 0], v_world[..., 1]), 1e-12)[..., None]  # no slide at 1e-12
    mag = np.minimum(contact.mu * fn[..., None] * np.minimum(speed / contact.v_slip, 1.0),
                     contact.stop_mass * speed / dt)
    force = np.empty(p_world.shape)
    force[..., :2] = np.where(speed > 1e-12, -mag * v_world[..., :2] / speed, 0.0)
    force[..., 2] = fn
    return np.where(((pen > 0.0) & (fn > 0.0))[..., None], force, 0.0)


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

    For a batch, joint_target has one row per robot.  Diverged, at the
    time of the state at fault, if any robot's incoming or new state is
    not finite or has its base more than 100 m from the origin.
    """
    if not 0.0 < dt <= 0.005:
        raise ValueError("dt must be in (0, 0.005]")
    s = state
    if s._once.pop("checked", None) is None:
        _check_valid(s)
    batch = s.q.shape[:-1]

    R = s.rotation()
    RT = R.swapaxes(-1, -2)  # views keep the layout of R.T, which selects the BLAS kernel
    R_legs = R[..., None, :, :]
    tau = pd_torque(model, joint_target, s.q, s.v)

    p_body, J = s.leg_kinematics(model)
    base = s.base_pos[..., None, :]
    p_world = base + matvec(R_legs, p_body)
    v_world = s.base_lin_vel[..., None, :] + matvec(
        R_legs, cross3(s.base_ang_vel[..., None, :], p_body) + matvec(J, s.v.reshape(batch + (4, 3)))
    )
    foot_force = _contact_forces(contact, p_world, v_world, dt)
    loaded = (foot_force[..., 2] > 0.0)[..., None]
    tau_ext = np.where(loaded, matvec(J.swapaxes(-1, -2), matvec(RT[..., None, :, :], foot_force)), 0.0)

    # joint servo chains, fixed apparent rotor inertia
    alpha = (tau + tau_ext.reshape(batch + (12,))) / model.rotor_inertia
    v_new = s.v + alpha * dt
    q_new = s.q + v_new * dt
    lo, hi = model.joint_limits[:, 0], model.joint_limits[:, 1]
    stopped = (q_new < lo) | (q_new > hi)
    if stopped.any():  # np.clip returns a joint inside its limits unchanged
        q_new = np.clip(q_new, lo, hi)
        v_new[stopped] = 0.0
        # a joint stop absorbs the rotor momentum, so the base reacts to the
        # acceleration the rotor actually had, not the commanded one
        alpha[stopped] = (v_new[stopped] - s.v[stopped]) / dt

    # rotor momentum reaction on the base; the thigh and knee axis is
    # rot_x(q0) e_y = (0, cos q0, sin q0), + 0.0 as that product gives it
    a = (alpha * model.rotor_inertia).reshape(batch + (4, 3))
    q0 = s.q[..., 0::3]
    pitch_axis = np.zeros(batch + (4, 3))
    pitch_axis[..., 1], pitch_axis[..., 2] = np.cos(q0), np.sin(q0) + 0.0
    reaction_body = a[..., :1] * _E_X + (a[..., 1] + a[..., 2])[..., None] * pitch_axis
    # the torque on the base (world frame) summed term by term from zero,
    # as `+=` leg by leg would: a reduction would start from the first
    # term and keep a -0.0 that 0.0 + x turns into +0.0
    terms = np.zeros(batch + (9, 3))
    terms[..., 1:5, :] = np.where(loaded, cross3(p_world - base, foot_force), 0.0)
    np.negative(matvec(R_legs, reaction_body), out=terms[..., 5:, :])
    torque_world = np.add.accumulate(terms, axis=-2)[..., -1, :]

    force_world = np.add.reduce(foot_force, axis=-2) + model.mass * GRAVITY

    lin_vel = s.base_lin_vel + (force_world / model.mass) * dt
    base_pos = s.base_pos + lin_vel * dt

    torque_body = matvec(RT, torque_world)
    I = model.base_inertia
    omega = s.base_ang_vel
    rhs = torque_body - cross3(omega, matvec(I, omega))
    omega_dot = solve(I, rhs[..., None])[..., 0]
    omega_new = omega + omega_dot * dt
    quat = quat_multiply(s.base_quat, quat_from_rotvec(omega_new * dt))
    quat /= _norm(quat)[..., None]

    new_state = SimState(
        base_pos=base_pos,
        base_quat=quat,
        base_lin_vel=lin_vel,
        base_ang_vel=omega_new,
        q=q_new,
        v=v_new,
        foot_force=foot_force,
        time=s.time + dt,
    )
    _check_valid(new_state)
    return new_state


def _check_valid(state: SimState):
    """Diverged unless every robot is finite with its base within 100 m
    of the origin."""
    if not np.isfinite(np.concatenate(state.arrays(), axis=None)).all() or (
        _norm(state.base_pos).max() > 100.0
    ):
        raise Diverged(state.time)


def survival_violation(state: SimState, model: RobotModel):
    """Why the robot counts as fallen, or None while it is upright: the
    base height must stay inside [0.4, 1.6] x nominal and |roll|, |pitch|
    below 0.6 rad.  For a batch, a list with one entry per robot.
    Rollouts, collection and the expert gate share it."""
    lo, hi = 0.4 * model.nominal_base_height, 1.6 * model.nominal_base_height
    roll, pitch, _ = state.rpy()
    height = state.base_pos[..., 2]
    fallen = np.atleast_1d(~((lo <= height) & (height <= hi)) | (abs(roll) >= 0.6) | (abs(pitch) >= 0.6))
    reasons = [None] * fallen.size
    for k in fallen.nonzero()[0]:  # a reason is formatted only for a robot that fell
        h, r, p = (np.ravel(x)[k].item() for x in (height, roll, pitch))
        reasons[k] = (f"height {h:.3f} m outside [{lo:.3f}, {hi:.3f}]" if not lo <= h <= hi
                      else f"roll {r:+.3f} rad" if abs(r) >= 0.6 else f"pitch {p:+.3f} rad")
    return reasons if state.q.ndim > 1 else reasons[0]


def simulate(
    model: RobotModel,
    contact: ContactParams,
    state: SimState,
    n_ticks,
    dt: float,
    control,
    prev: SimState | None = None,
    disturb=None,
    on_step=None,
):
    """The closed loop shared by collection, the expert gate and
    rollouts, for a batch of robots in lockstep; n_ticks is one horizon
    or one per robot.

    Each tick, `live` holds the batch indices of the robots still running
    and `prev`, `state` their states: `disturb(i, live, state)`, if
    given, may return a replaced (pushed) state; `control(i, live, prev,
    state)` returns one joint-target row per robot; `step` advances
    them; `on_step(live, state)`, if given, sees the upright new states.
    `prev`, the state one tick before (for `read_imu`), defaults to
    `state`.  A robot leaves at its horizon or its first fall (`step`
    raising Diverged for it, or a `survival_violation`); the others go on.
    The callbacks change no state in place, so a state that `step`
    returned is not checked again when it is stepped.

    Returns (prev, state, falls): per robot, its last pair of one-robot
    states and None or its fall (time, reason).
    """
    one = state.q.ndim == 1  # a one-robot state runs as it is, on numpy scalars
    n = 1 if one else len(state.q)
    horizon = np.broadcast_to(n_ticks, (n,))
    prev = state if prev is None else prev
    live = np.arange(n)
    last_prev, last_state, falls = [None] * n, [None] * n, [None] * n
    pick = (lambda x, k: x) if one else (lambda x, k: x[k] if isinstance(x, np.ndarray) else x.rows(k))

    def leave(gone, new=None):
        # gone robots keep (prev, new or state); `new` holds the others
        nonlocal live, prev, state
        for k in np.flatnonzero(gone):
            last_prev[live[k]], last_state[live[k]] = pick(prev, k), pick(state if new is None else prev, k)
        keep = np.flatnonzero(~gone)
        live, prev = live[keep], prev.rows(keep)
        state = state.rows(keep) if new is None else new

    ends, stepped = set(horizon.tolist()), None
    for i in range(int(horizon.max(initial=0))):
        if i in ends:
            leave(horizon[live] <= i)
        if disturb is not None:
            state = disturb(i, live, state)
        target = control(i, live, prev, state)
        if state is stepped:
            state._once["checked"] = True
        prev = state
        try:
            state = stepped = step(prev, model, contact, target, dt)
        except Diverged:
            # robot by robot, to find which diverged; rows are independent
            survivors = []
            for k, robot in enumerate(live):
                try:
                    survivors.append(step(pick(prev, k), model, contact, pick(target, k), dt))
                except Diverged as exc:
                    falls[robot] = (exc.time, exc.reason)
            leave(np.array([falls[r] is not None for r in live]),
                  SimState.stack(survivors) if survivors else None)
            if not live.size:
                break
        reasons = [survival_violation(state, model)] if one else survival_violation(state, model)
        if any(reasons):
            for k, reason in enumerate(reasons):
                if reason is not None:
                    falls[live[k]] = (state.time, reason)
            leave(np.array([reason is not None for reason in reasons]))
            if not live.size:
                break
        if on_step is not None:
            on_step(live, state)
    if live.size:
        leave(np.ones(len(live), bool))
    return last_prev, last_state, falls


def read_imu(prev: SimState, curr: SimState, dt: float) -> ImuSample:
    """Body-frame IMU synthesized from two consecutive states.

    The accelerometer reads specific force, so it reports +9.81 on z at
    rest and zero in free fall.
    """
    R = curr.rotation()
    lin_acc = matvec(R.swapaxes(-1, -2), (curr.base_lin_vel - prev.base_lin_vel) / dt - GRAVITY)
    return ImuSample(ang_vel=curr.base_ang_vel.copy(), lin_acc=lin_acc)


def contact_flags(state: SimState, contact: ContactParams) -> np.ndarray:
    """Boolean per-foot contact from the normal force component."""
    return state.foot_force[..., 2] > contact.contact_force_threshold


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
        # flattened, so a batch of one robot logs like the robot
        self.rows.append(np.concatenate(([state.time], *state.arrays()[:6], np.asarray(target, dtype=float),
                                         flags.astype(float)), axis=None))

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
