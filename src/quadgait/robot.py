"""Robot geometry and leg kinematics, batched over a leading leg axis.

Joint order is leg-major: (FL, FR, RL, RR) x (abduction, thigh, knee),
so leg i owns q[3*i : 3*i+3].  Each leg is an abduction roll joint about
the body x axis at the hip root, a lateral offset of +-l_abd along y,
then a two-link thigh/calf chain pitching about the (rolled) y axis.
q = (0, 0, 0) places the foot straight below the abduction pivot at
depth l_thigh + l_calf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Unreachable


class LegIndex:
    """Leg name constants; values index the 3-joint blocks."""

    FL = 0
    FR = 1
    RL = 2
    RR = 3


# +1 for left legs (abduction offset along +y), -1 for right legs.
SIDE_SIGN = np.array([1.0, -1.0, 1.0, -1.0])
LEGS = np.arange(4)
# cross3's products: a1 b2, a2 b0, a0 b1, then a2 b1, a0 b2, a1 b0
_CROSS_A, _CROSS_B = np.array([1, 2, 0, 2, 0, 1]), np.array([2, 0, 1, 1, 2, 0])
_E_X = np.array([1.0, 0.0, 0.0])
# leg_kinematics' values of a row: sin and cos of (q0, q1, q1 + q2), the
# side sign, 1 and 0; from them, times `scale`, the roll about x (1, 0, 0;
# 0, c0, -s0; 0, s0, c0) and the chain's terms (lt s1, lc s12, lt c1,
# lc c12, their negatives, the lateral offset, 0).  Each chain entry is
# terms[i] - terms[j], bitwise the written-out formula (a - (-b) is a + b)
_SIDE_ONE_ZERO = np.stack((SIDE_SIGN, np.ones(4), np.zeros(4)), 1)
_ROLL_CHAIN = np.array([7, 8, 8, 8, 3, 0, 8, 0, 3, 1, 2, 4, 5, 1, 2, 4, 5, 6, 8])
_CHAIN = np.array([[13, 17, 15, 15, 18, 9, 16, 18, 10], [10, 18, 12, 12, 18, 14, 18, 18, 18]])
# IK: the least depth of the foot below the abduction axis, and how far
# inside the workspace boundary an unreachable target is moved (m)
_IK_EPS = 1e-4


@dataclass
class RobotModel:
    """Geometric, inertial and servo parameters of a Go1-like quadruped.

    None of these values come from the source robot's datasheet; they are
    plausible desk-scale defaults, all overridable through the config file.
    """

    mass: float = 12.0
    base_inertia: np.ndarray = field(
        default_factory=lambda: np.diag([0.10, 0.25, 0.30])
    )
    hip_offsets: np.ndarray = field(
        default_factory=lambda: np.array(
            [
                [0.1881, 0.04675, 0.0],
                [0.1881, -0.04675, 0.0],
                [-0.1881, 0.04675, 0.0],
                [-0.1881, -0.04675, 0.0],
            ]
        )
    )
    l_abd: float = 0.08
    l_thigh: float = 0.213
    l_calf: float = 0.213
    kp: float = 40.0
    kd: float = 0.5
    tau_max: float = 23.7
    rotor_inertia: float = 0.02
    joint_limits: np.ndarray = field(default_factory=lambda: _default_joint_limits())
    nominal_base_height: float = 0.30
    nominal_joint_pos: np.ndarray = field(default_factory=lambda: np.zeros(12))

    def __post_init__(self):
        self.base_inertia = np.asarray(self.base_inertia, dtype=float)
        self.hip_offsets = np.asarray(self.hip_offsets, dtype=float)
        self.joint_limits = np.asarray(self.joint_limits, dtype=float)
        self.nominal_joint_pos = np.asarray(self.nominal_joint_pos, dtype=float)
        if not np.any(self.nominal_joint_pos):
            self.nominal_joint_pos = nominal_pose_for_height(
                self.nominal_base_height, self.l_thigh, self.l_calf
            )
        self.validate()

    def validate(self):
        if self.mass <= 0 or self.l_thigh <= 0 or self.l_calf <= 0:
            raise ValueError("mass and link lengths must be positive")
        if self.kp <= 0 or self.kd < 0:
            raise ValueError("kp must be > 0 and kd >= 0")
        if self.tau_max <= 0 or self.rotor_inertia <= 0:
            raise ValueError("tau_max and rotor_inertia must be positive")
        signs = np.sign(self.hip_offsets[:, :2])
        expected = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float)
        if not np.array_equal(signs, expected):
            raise ValueError("hip_offsets must follow the FL,FR,RL,RR sign pattern")
        I = self.base_inertia  # Sylvester's criterion; det shares solve's LAPACK code, eigvalsh would not
        if not (np.array_equal(I, I.T) and all(np.linalg.det(I[:k, :k]) > 0.0 for k in (1, 2, 3))):
            raise ValueError("base_inertia must be symmetric positive definite")
        lo, hi = self.joint_limits[:, 0], self.joint_limits[:, 1]
        if not np.all(lo < hi):
            raise ValueError("each joint limit pair must satisfy lo < hi")
        if not (np.all(self.nominal_joint_pos > lo) and np.all(self.nominal_joint_pos < hi)):
            raise ValueError("nominal_joint_pos must lie strictly inside joint_limits")

    @property
    def max_leg_radius(self) -> float:
        return self.l_thigh + self.l_calf

    @property
    def min_leg_radius(self) -> float:
        return abs(self.l_thigh - self.l_calf)

    def leg_slice(self, leg: int) -> slice:
        return slice(3 * leg, 3 * leg + 3)


def _default_joint_limits() -> np.ndarray:
    # abduction, thigh, knee repeated per leg; knee range keeps the
    # knee-backward branch (knee < 0) and stays off the stretch singularity
    per_leg = np.array([[-0.86, 0.86], [-0.90, 2.40], [-2.70, -0.85]])
    return np.tile(per_leg, (4, 1))


def nominal_pose_for_height(height: float, l_thigh: float, l_calf: float) -> np.ndarray:
    """Joint vector putting every foot straight below its abduction pivot
    at the given depth (symmetric two-link stance, knee-backward)."""
    c = height / (l_thigh + l_calf)
    if not 0.0 < c < 1.0:
        raise ValueError(f"nominal height {height} not reachable by the leg chain")
    # equal link lengths assumed by this shortcut; exact for the default model
    q_thigh = float(np.arccos(c))
    pose = np.zeros(12)
    pose[1::3] = q_thigh
    pose[2::3] = -2.0 * q_thigh
    return pose


def cross3(a, b) -> np.ndarray:
    """Cross product over the last axis, a and b broadcasting.

    Bitwise-identical to np.cross (same products, same subtraction
    order) without its per-call axis handling, which dominated the cost
    of a simulator tick.
    """
    products = np.asarray(a).take(_CROSS_A, -1) * np.asarray(b).take(_CROSS_B, -1)
    return products[..., :3] - products[..., 3:]


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise A[i] @ x[i] over a leading axis, A and x broadcasting.

    Each row is the same BLAS matrix-vector product that `A[i] @ x[i]`
    runs, so the stack is bitwise equal to a Python loop of them; one
    GEMM such as `x @ A.T` rounds differently.
    """
    return np.matmul(A, x[..., None])[..., 0]


def solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """np.linalg.solve(A, B) for float64 stacks of square A and of column
    blocks B: numpy's own solve gufunc, the same LAPACK call and bits,
    without the wrapper's dtype and error-state set-up (4 of its 5.5 us).
    Its LinAlgError for a singular A cannot arise: callers pass finite
    matrices that are symmetric positive definite by construction."""
    return np.linalg._umath_linalg.solve(A, B, signature="dd->d")


def leg_kinematics(model: RobotModel, legs, q_legs) -> tuple[np.ndarray, np.ndarray]:
    """Foot positions in the body frame, shape (n, 3), and their analytic
    Jacobians d(foot position)/d(q_leg), shape (n, 3, 3), for the rows
    (legs[i], q_legs[i]).

    Chain: hip root offset, roll by q0 about x, lateral +-l_abd along y,
    thigh pitch q1 and knee pitch q2 about the rolled y axis.
    """
    q = np.asarray(q_legs, dtype=float).reshape(-1, 3)
    lt, lc = model.l_thigh, model.l_calf
    angle = q.copy()
    angle[:, 2] += q[:, 1]  # q0, q1, q1 + q2
    values = np.concatenate((np.sin(angle), np.cos(angle), _SIDE_ONE_ZERO.take(legs, 0)), 1)
    scale = np.array((1.0, 1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0,
                      lt, lc, lt, lc, -lt, -lc, -lt, -lc, model.l_abd, 1.0))
    terms = values.take(_ROLL_CHAIN, 1) * scale
    # per leg, before the roll: the foot in the rolled x-z plane (q1 = 0
    # points straight down) and its derivatives in q1 and q2
    chain = (terms.take(_CHAIN[0], 1) - terms.take(_CHAIN[1], 1)).reshape(-1, 3, 3)
    rolled = matvec(terms[:, :9].reshape(-1, 1, 3, 3), chain)  # rows: foot from hip root, dp/dq1, dp/dq2
    J = rolled.transpose(0, 2, 1).copy()
    J[:, :, 0] = cross3(_E_X, rolled[:, 0])
    return model.hip_offsets.take(legs, 0) + rolled[:, 0], J


def leg_forward_kinematics(model: RobotModel, leg: int, q_leg: np.ndarray) -> np.ndarray:
    """Foot position in the body frame for one leg (see leg_kinematics)."""
    return leg_kinematics(model, [leg], q_leg)[0][0]


def leg_jacobian(model: RobotModel, leg: int, q_leg: np.ndarray) -> np.ndarray:
    """Analytic 3x3 Jacobian d(foot position)/d(q_leg), body frame."""
    return leg_kinematics(model, [leg], q_leg)[1][0]


def leg_inverse_kinematics_rows(model: RobotModel, legs, p_body) -> tuple[np.ndarray, np.ndarray]:
    """Analytic 3-DoF IK for the rows (legs[i], p_body[i]).

    Returns the joint rows, shape (n, 3), and a per-row mask of targets
    outside the workspace; those rows are solved for the target projected
    to the nearest workspace boundary.
    """
    rel = np.asarray(p_body, dtype=float).reshape(-1, 3) - model.hip_offsets.take(legs, 0)
    x, y, z = rel[:, 0], rel[:, 1], rel[:, 2]
    square = rel * rel
    lt, lc = model.l_thigh, model.l_calf
    d = SIDE_SIGN.take(legs) * model.l_abd

    planar_sq = square[:, 1] + square[:, 2] - model.l_abd**2
    low = planar_sq < _IK_EPS * _IK_EPS
    planar_sq = np.maximum(planar_sq, _IK_EPS * _IK_EPS)  # NaN kept, as np.where(low, ...) keeps it
    planar = np.sqrt(planar_sq)  # depth of the foot below the abduction axis

    q0 = np.arctan2(z, y) - np.arctan2(-planar, d)

    r_sq = square[:, 0] + planar_sq
    r = np.sqrt(r_sq)
    r_min, r_max = model.min_leg_radius, model.max_leg_radius
    far = (r < r_min - 1e-12) | (r > r_max + 1e-12)
    if far.any():
        r_new = np.minimum(np.maximum(r, r_min + _IK_EPS), r_max - _IK_EPS)
        scale = r_new / np.maximum(r, 1e-12)
        x = np.where(far, x * scale, x)
        planar = np.where(far, planar * scale, planar)
        r_sq = np.where(far, r_new * r_new, r_sq)

    cos_knee = (r_sq - lt * lt - lc * lc) / (2.0 * lt * lc)
    q = np.empty(rel.shape)
    q[:, 2] = q2 = -np.arccos(np.minimum(np.maximum(cos_knee, -1.0), 1.0))
    np.subtract(np.arctan2(-x, planar), np.arctan2(lc * np.sin(q2), lt + lc * np.cos(q2)), out=q[:, 1])
    # wrap q0 into (-pi, pi]
    np.subtract((q0 + np.pi) % (2.0 * np.pi), np.pi, out=q[:, 0])
    return q, low | far


def leg_inverse_kinematics(
    model: RobotModel,
    leg: int,
    p_body: np.ndarray,
    clamp: bool = False,
) -> np.ndarray:
    """Analytic 3-DoF IK on the knee-backward branch (knee angle <= 0).

    The branch also fixes the foot to the half-space below the abduction
    axis in the rolled leg plane, which is where stance and swing targets
    live.  With clamp=True an out-of-workspace target is projected to the
    nearest boundary instead of raising Unreachable.
    """
    q, out = leg_inverse_kinematics_rows(model, [leg], p_body)
    if out[0] and not clamp:
        raise Unreachable(f"foot target {tuple(np.asarray(p_body, float))} outside workspace "
                          f"(max radius {model.max_leg_radius:.4f} m)")
    return q[0]
