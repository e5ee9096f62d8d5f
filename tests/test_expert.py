import numpy as np
import pytest

from quadgait.expert import allocate_stance_forces, expert_torques
from quadgait.gait import VelocityCommand, make_gait, stand_spec
from quadgait.dataset import inverse_pd_target
from quadgait.simulation import nominal_stance_state, step


def wrench_of(forces, feet):
    f = np.sum(forces, axis=0)
    tau = np.sum([np.cross(r, F) for r, F in zip(feet, forces)], axis=0)
    return np.concatenate((f, tau))


def lstsq_oracle(wrench, feet):
    """Dense minimum-norm least squares on the same grasp matrix."""
    ns = len(feet)
    G = np.zeros((6, 3 * ns))
    for i, r in enumerate(feet):
        G[:3, 3 * i : 3 * i + 3] = np.eye(3)
        rx, ry, rz = r
        G[3:, 3 * i : 3 * i + 3] = [[0, -rz, ry], [rz, 0, -rx], [-ry, rx, 0]]
    sol, *_ = np.linalg.lstsq(G, wrench, rcond=None)
    return sol.reshape(ns, 3)


class TestAllocateStanceForces:
    def test_single_foot_exact(self):
        r = np.array([0.1, -0.05, -0.3])
        f = np.array([1.0, 2.0, 30.0])
        forces = allocate_stance_forces((f, np.cross(r, f)), [r], mu=5.0)
        np.testing.assert_allclose(forces[0], f, atol=1e-9)

    def test_four_feet_symmetric_quarter_weight(self):
        mg = 12.0 * 9.81
        feet = [np.array([sx * 0.2, sy * 0.15, -0.3]) for sx in (1, -1) for sy in (1, -1)]
        forces = allocate_stance_forces(
            (np.array([0.0, 0.0, mg]), np.zeros(3)), feet, mu=0.7
        )
        for F in forces:
            np.testing.assert_allclose(F, [0.0, 0.0, mg / 4], atol=1e-10)

    def test_two_feet_consistent_wrench_residual(self):
        # rank-5 stance, but the requested wrench is achievable
        feet = [np.array([0.2, 0.0, -0.3]), np.array([-0.2, 0.0, -0.3])]
        wrench = np.array([0.0, 0.0, 117.72, 0.0, 2.0, 0.0])
        forces = allocate_stance_forces((wrench[:3], wrench[3:]), feet, mu=10.0, project=False)
        achieved = wrench_of(forces, feet)
        assert np.max(np.abs(achieved - wrench)) < 1e-8

    def test_matches_dense_lstsq_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            ns = rng.integers(3, 5)
            feet = [rng.uniform(-0.3, 0.3, size=3) - [0, 0, 0.2] for _ in range(ns)]
            wrench = np.concatenate((rng.uniform(-50, 150, 3), rng.uniform(-20, 20, 3)))
            ours = allocate_stance_forces((wrench[:3], wrench[3:]), feet, mu=1e9, project=False)
            oracle = lstsq_oracle(wrench, feet)
            np.testing.assert_allclose(ours, oracle, atol=1e-6)

    def test_residual_well_conditioned(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            feet = [rng.uniform(-0.3, 0.3, size=3) - [0, 0, 0.25] for _ in range(4)]
            wrench = np.concatenate((rng.uniform(-60, 160, 3), rng.uniform(-25, 25, 3)))
            forces = allocate_stance_forces((wrench[:3], wrench[3:]), feet, mu=1e9, project=False)
            achieved = wrench_of(forces, feet)
            assert np.max(np.abs(achieved - wrench)) < 1e-8

    def test_friction_cone_projection(self):
        feet = [np.array([0.2, 0.1, -0.3]), np.array([-0.2, -0.1, -0.3])]
        forces = allocate_stance_forces(
            (np.array([80.0, 0.0, 60.0]), np.zeros(3)), feet, mu=0.4
        )
        for F in forces:
            assert F[2] >= 0.0
            assert np.hypot(F[0], F[1]) <= 0.4 * F[2] + 1e-9

    def test_no_feet_rejected(self):
        with pytest.raises(ValueError):
            allocate_stance_forces((np.zeros(3), np.zeros(3)), [], mu=0.7)


class TestExpertTorques:
    def test_torque_clamped(self, model, contact, gains):
        state = nominal_stance_state(model)
        state.base_pos[2] = 0.18  # big height error drives large torques
        act = expert_torques(state, model, make_gait("trot"), VelocityCommand(), 0.1,
                             gains, contact.mu)
        assert np.all(np.abs(act.tau) <= model.tau_max + 1e-12)

    def test_deterministic(self, model, contact, gains):
        state = nominal_stance_state(model)
        state.base_lin_vel = np.array([0.05, -0.02, 0.01])
        a1 = expert_torques(state, model, make_gait("trot"), VelocityCommand(0.2), 0.37,
                            gains, contact.mu)
        a2 = expert_torques(state, model, make_gait("trot"), VelocityCommand(0.2), 0.37,
                            gains, contact.mu)
        np.testing.assert_array_equal(a1.tau, a2.tau)
        np.testing.assert_array_equal(a1.tau_raw, a2.tau_raw)

    def test_standing_oracle(self, model, contact, gains):
        state = nominal_stance_state(model)
        spec = stand_spec()
        cmd = VelocityCommand()
        for _ in range(5000):
            act = expert_torques(state, model, spec, cmd, state.time, gains, contact.mu)
            target = inverse_pd_target(act.tau_raw, state.q, state.v, model.kp, model.kd)
            state = step(state, model, contact, target, 1e-3)
            assert abs(state.base_pos[2] - model.nominal_base_height) < 0.02

    def test_trot_mid_stance_diagonal_contacts(self, model, contact, gains):
        from quadgait.simulation import contact_flags

        spec = make_gait("trot")
        state = nominal_stance_state(model)
        cmd = VelocityCommand()
        flags_at_quarter = None
        while state.time < 3.0:
            act = expert_torques(state, model, spec, cmd, state.time, gains, contact.mu)
            target = inverse_pd_target(act.tau_raw, state.q, state.v, model.kp, model.kd)
            state = step(state, model, contact, target, 1e-3)
            phase = (state.time / spec.period) % 1.0
            if state.time > 2.0 and abs(phase - 0.25) < 5e-4:
                flags_at_quarter = contact_flags(state, contact)
        # mid-stance of the first half cycle: FL and RR carry the robot
        assert flags_at_quarter is not None
        assert flags_at_quarter[0] and flags_at_quarter[3]
        assert not flags_at_quarter[1] and not flags_at_quarter[2]

    def test_jump_holds_height_near_nominal(self, model, contact, gains):
        # a pronk is unsupported half the period, so its stance must carry
        # twice the weight or the body sinks into a crouch
        from quadgait.evaluation import closed_loop_rollout

        _, summary = closed_loop_rollout(
            model, contact, make_gait("jump"), VelocityCommand(), 3.0, net=None, expert_gains=gains,
        )
        assert summary.survived
        assert abs(summary.mean_height - model.nominal_base_height) < 0.2 * model.nominal_base_height
