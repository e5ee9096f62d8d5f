"""Gait timing tables, swing trajectories and foot placement.

Phase offsets and duty factors are fixed per named gait (they define the
gait); period and swing height are tunable.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

# per gait: per-leg phase offsets in FL, FR, RL, RR order and the duty
# factor, which define it, then its default period (s) and swing height
# (m), which are tunable.  Period and swing height are tuned per gait for
# a stable desk-scale closed loop: the ballistic gaits need short
# unsupported phases, and a trot stance (half its period) must stay
# short against the ~0.17 s tipping time sqrt(h/g) of its diagonal
# support line; 0.24 s also puts the quarter period on a 1 ms tick
_GAIT_TABLE = {
    "trot": ((0.0, 0.5, 0.5, 0.0), 0.5, 0.24, 0.08),
    "bound": ((0.0, 0.0, 0.5, 0.5), 0.5, 0.24, 0.03),
    "jump": ((0.0, 0.0, 0.0, 0.0), 0.5, 0.25, 0.04),
    "walk": ((0.0, 0.5, 0.75, 0.25), 0.75, 0.6, 0.05),
    "stand": ((0.0, 0.0, 0.0, 0.0), 1.0, 0.5, 0.0),  # internal: stance-hold
}

GAIT_NAMES = ("trot", "bound", "jump", "walk")


@dataclass
class GaitSpec:
    name: str
    period: float = 0.5
    duty: float = 0.5
    phase_offset: np.ndarray = field(default_factory=lambda: np.zeros(4))
    swing_height: float = 0.08

    def __post_init__(self):
        self.phase_offset = np.asarray(self.phase_offset, dtype=float)
        if self.period <= 0:
            raise ValueError("gait period must be positive")
        if not 0.0 < self.duty <= 1.0:
            raise ValueError("duty must be in (0, 1]")
        if np.any(self.phase_offset < 0) or np.any(self.phase_offset >= 1):
            raise ValueError("phase offsets must be in [0, 1)")
        if self.name in _GAIT_TABLE:
            offsets, duty = _GAIT_TABLE[self.name][:2]
            if not np.allclose(self.phase_offset, offsets) or self.duty != duty:
                raise ValueError(f"offsets/duty do not match the '{self.name}' definition")


def make_gait(name: str, period: float | None = None, swing_height: float | None = None) -> GaitSpec:
    """Build a named gait with its defining offsets and duty factor."""
    if name not in _GAIT_TABLE:
        raise ValueError(f"unknown gait '{name}' (choose from {GAIT_NAMES})")
    offsets, duty, default_period, default_sh = _GAIT_TABLE[name]
    return GaitSpec(
        name=name,
        period=default_period if period is None else period,
        duty=duty,
        phase_offset=np.array(offsets),
        swing_height=default_sh if swing_height is None else swing_height,
    )


def stack_gaits(specs) -> GaitSpec:
    """One spec per robot as one GaitSpec with a robot axis: the names a
    tuple, phase offsets (n, 4), period, duty and swing height (n, 1)."""
    stacked = copy.copy(specs[0])
    stacked.name = tuple(spec.name for spec in specs)
    for key in ("period", "duty", "phase_offset", "swing_height"):
        setattr(stacked, key, np.array([np.ravel(getattr(spec, key)) for spec in specs]))
    return stacked


def stand_spec() -> GaitSpec:
    """Stance-hold pseudo-gait used by the expert's standing oracle."""
    return make_gait("stand")


@dataclass
class VelocityCommand:
    """Planar velocity command in the robot's heading frame."""

    vx: float = 0.0
    vy: float = 0.0
    wz: float = 0.0

    def __post_init__(self):
        if abs(self.vx) > 1.0 or abs(self.vy) > 0.5 or abs(self.wz) > 1.5:
            raise ValueError("command outside the expert competence envelope")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.vx, self.vy, self.wz)


def gait_phase(spec: GaitSpec, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-leg phase in [0, 1) and stance flags at time t >= 0, (n, 4)
    for stacked gaits."""
    leg_phase = np.mod(t / spec.period + spec.phase_offset, 1.0)
    return leg_phase, leg_phase < spec.duty


def swing_trajectory(
    spec: GaitSpec, start: np.ndarray, target: np.ndarray, s: float
) -> np.ndarray:
    """Swing foot reference at normalized progress s in [0, 1].

    x, y (and the ground-level component of z) follow a smoothstep blend
    between start and target; a sin arch of height swing_height rides on
    top, so endpoints are exact and the apex sits at swing_height above
    the blended ground line.  With an array s, start and target hold one
    row per entry of s, and the spec's values may hold one row each too.
    """
    s = np.minimum(np.maximum(s, 0.0), 1.0)  # np.clip's bits, but a -0.0 becomes 0.0
    # the cubic is a Python float power per entry: numpy's array power
    # rounds differently from it in the last bit
    blend = np.array([3.0 * x * x - 2.0 * x**3 for x in np.ravel(s).tolist()]).reshape(np.shape(s) + (1,))
    start = np.asarray(start, float)
    point = start + blend * (np.asarray(target, float) - start)
    point[..., 2:] += spec.swing_height * np.sin(np.pi * s).reshape(blend.shape)
    return point


def raibert_target(
    cmd_vel_world: np.ndarray,
    spec: GaitSpec,
    hip_world: np.ndarray,
    base_vel: np.ndarray,
    k_v: float = 0.03,
) -> np.ndarray:
    """Raibert-style landing point on the ground plane.

    landing = hip ground projection + (T_stance/2) v_cmd + k_v (v - v_cmd),
    all in world xy; the command is expected already rotated into world.
    hip_world and cmd_vel_world may hold one row per leg, and all three
    a leading robot axis; the spec's values may hold one row per leg too.
    """
    cmd_vel_world = np.asarray(cmd_vel_world, dtype=float)
    t_stance = spec.duty * spec.period
    landing = np.array(hip_world, dtype=float)
    landing[..., 2] = 0.0
    landing[..., :2] += 0.5 * t_stance * cmd_vel_world[..., :2]
    landing[..., :2] += k_v * (base_vel[..., :2] - cmd_vel_world[..., :2])
    return landing
