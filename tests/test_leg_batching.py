"""The leg-batched kernels against the per-leg code they replaced.

`per_leg_reference` holds the per-leg tick verbatim; every state field
and every expert output must match it bit for bit.
"""

import numpy as np
import pytest

import per_leg_reference as ref
from quadgait.dataset import inverse_pd_target
from quadgait.errors import Unreachable
from quadgait.expert import allocate_stance_forces, expert_torques
from quadgait.gait import VelocityCommand, make_gait
from quadgait.robot import (
    LEGS,
    leg_forward_kinematics,
    leg_inverse_kinematics,
    leg_inverse_kinematics_rows,
    leg_jacobian,
    leg_kinematics,
)
from quadgait.simulation import nominal_stance_state, step

FIELDS = ("base_pos", "base_quat", "base_lin_vel", "base_ang_vel", "q", "v", "foot_force", "time")


@pytest.mark.parametrize("gait", ["trot", "bound", "jump", "walk"])  # walk: three stance feet
def test_tick_matches_per_leg_reference(model, contact, gains, gait):
    spec = make_gait(gait)
    cmd = VelocityCommand(0.2, -0.05, 0.1)
    state = nominal_stance_state(model, contact=contact)
    for i in range(300):
        if i == 120:  # one lateral base push
            state = state.copy()
            state.base_lin_vel += (0.0, 0.25, 0.0)
            state.base_ang_vel += (0.3, -0.2, 0.0)
        want = ref.expert_torques(state, model, spec, cmd, state.time, gains, contact.mu)
        got = expert_torques(state, model, spec, cmd, state.time, gains, contact.mu)
        assert np.array_equal(got.tau_raw, want.tau_raw), f"tau_raw at tick {i}"
        assert np.array_equal(got.tau, want.tau), f"tau at tick {i}"
        target = inverse_pd_target(got.tau_raw, state.q, state.v, model.kp, model.kd)
        want_state = ref.step(state, model, contact, target, 1e-3)
        state = step(state, model, contact, target, 1e-3)
        for name in FIELDS:
            assert np.array_equal(getattr(state, name), getattr(want_state, name)), f"{name} at tick {i}"


def test_row_kernels_equal_one_row_calls(model):
    rng = np.random.default_rng(7)
    clamped = 0
    for _ in range(200):
        q = rng.uniform(model.joint_limits[:, 0], model.joint_limits[:, 1]).reshape(4, 3)
        p, J = leg_kinematics(model, LEGS, q)
        # far and near targets mix clamped rows with reachable ones
        targets = p + rng.normal(0.0, 0.12, (4, 3))
        q_ik, out = leg_inverse_kinematics_rows(model, LEGS, targets)
        for leg in LEGS:
            assert np.array_equal(p[leg], leg_forward_kinematics(model, leg, q[leg]))
            assert np.array_equal(p[leg], ref.leg_forward_kinematics(model, leg, q[leg]))
            assert np.array_equal(J[leg], leg_jacobian(model, leg, q[leg]))
            assert np.array_equal(J[leg], ref.leg_jacobian(model, leg, q[leg]))
            try:
                want = ref.leg_inverse_kinematics(model, leg, targets[leg])
            except Unreachable:
                want = ref.leg_inverse_kinematics(model, leg, targets[leg], clamp=True)
                assert out[leg]
                with pytest.raises(Unreachable):
                    leg_inverse_kinematics(model, leg, targets[leg])
            else:
                assert not out[leg]
            assert np.array_equal(q_ik[leg], want)
            assert np.array_equal(q_ik[leg], leg_inverse_kinematics(model, leg, targets[leg], clamp=True))
        clamped += int(out.sum())
    assert 0 < clamped < 800


def test_force_allocation_matches_per_foot_reference():
    rng = np.random.default_rng(11)
    pulled = 0
    for _ in range(300):
        feet = rng.uniform((-0.25, -0.2, -0.32), (0.25, 0.2, -0.2), (rng.integers(1, 5), 3))
        wrench = (rng.normal(0.0, 40.0, 3) + (0.0, 0.0, 100.0), rng.normal(0.0, 8.0, 3))
        for project in (True, False):
            got = allocate_stance_forces(wrench, feet, 0.7, torque_weight=3.0, project=project)
            want = ref.allocate_stance_forces(wrench, list(feet), 0.7, torque_weight=3.0,
                                              project=project)
            assert np.array_equal(got, want)
        raw = ref.allocate_stance_forces(wrench, list(feet), 0.7, torque_weight=3.0, project=False)
        pulled += bool(np.any(raw[:, 2] < 0.0) and not np.all(raw[:, 2] < 0.0))
    assert pulled > 10
