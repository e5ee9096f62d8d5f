import numpy as np
import pytest

from quadgait.errors import Unreachable
from quadgait.robot import (
    LegIndex,
    RobotModel,
    cross3,
    leg_forward_kinematics,
    leg_inverse_kinematics,
    leg_jacobian,
    solve,
)

from conftest import sample_branch_configs


def fk_oracle(model, leg, q_leg):
    """Independent FK from composed homogeneous transforms."""

    def rot_x(a):
        c, s = np.cos(a), np.sin(a)
        return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1.0]])

    def rot_y(a):
        c, s = np.cos(a), np.sin(a)
        return np.array([[c, 0, s, 0], [0, 1, 0, 0], [-s, 0, c, 0], [0, 0, 0, 1.0]])

    def trans(x, y, z):
        T = np.eye(4)
        T[:3, 3] = (x, y, z)
        return T

    side = 1.0 if leg in (LegIndex.FL, LegIndex.RL) else -1.0
    h = model.hip_offsets[leg]
    T = (
        trans(*h)
        @ rot_x(q_leg[0])
        @ trans(0.0, side * model.l_abd, 0.0)
        @ rot_y(q_leg[1])
        @ trans(0.0, 0.0, -model.l_thigh)
        @ rot_y(q_leg[2])
        @ trans(0.0, 0.0, -model.l_calf)
    )
    return T[:3, 3]


class TestCross3:
    def test_bitwise_equal_to_numpy(self):
        rng = np.random.default_rng(19)
        for a, b in rng.standard_normal((500, 2, 3)):
            np.testing.assert_array_equal(cross3(a, b), np.cross(a, b))
        # signed zeros too: the Jacobian's abduction column is e_x x p
        ours = cross3((1.0, 0.0, 0.0), (0.0, -2.0, 3.0))
        ref = np.cross([1.0, 0.0, 0.0], [0.0, -2.0, 3.0])
        np.testing.assert_array_equal(ours, ref)
        np.testing.assert_array_equal(np.signbit(ours), np.signbit(ref))


class TestForwardKinematics:
    def test_zero_config_fl(self, model):
        p = leg_forward_kinematics(model, LegIndex.FL, np.zeros(3))
        expected = model.hip_offsets[0] + [0.0, model.l_abd, -(model.l_thigh + model.l_calf)]
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_zero_config_fr_mirror(self, model):
        p = leg_forward_kinematics(model, LegIndex.FR, np.zeros(3))
        expected = model.hip_offsets[1] + [0.0, -model.l_abd, -(model.l_thigh + model.l_calf)]
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_thigh_quarter_turn(self, model):
        # thigh at pi/2 swings the foot straight back at hip height
        p = leg_forward_kinematics(model, LegIndex.FL, [0.0, np.pi / 2, 0.0])
        expected = model.hip_offsets[0] + [
            -(model.l_thigh + model.l_calf),
            model.l_abd,
            0.0,
        ]
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_matches_transform_oracle(self, model):
        rng = np.random.default_rng(7)
        for leg in range(4):
            for _ in range(50):
                q = rng.uniform(-1.5, 1.5, size=3)
                np.testing.assert_allclose(
                    leg_forward_kinematics(model, leg, q),
                    fk_oracle(model, leg, q),
                    atol=1e-12,
                )

    def test_left_right_mirror(self, model):
        rng = np.random.default_rng(8)
        for _ in range(100):
            q = rng.uniform(-1.0, 1.0, size=3)
            left = leg_forward_kinematics(model, LegIndex.FL, q)
            right = leg_forward_kinematics(model, LegIndex.FR, [-q[0], q[1], q[2]])
            np.testing.assert_allclose(right, left * [1.0, -1.0, 1.0], atol=1e-12)


class TestJacobian:
    def test_matches_finite_differences(self, model):
        rng = np.random.default_rng(11)
        h = 1e-6
        for leg in range(4):
            for _ in range(50):
                q = rng.uniform(-1.2, 1.2, size=3)
                J = leg_jacobian(model, leg, q)
                J_fd = np.empty((3, 3))
                for j in range(3):
                    dq = np.zeros(3)
                    dq[j] = h
                    J_fd[:, j] = (
                        leg_forward_kinematics(model, leg, q + dq)
                        - leg_forward_kinematics(model, leg, q - dq)
                    ) / (2 * h)
                assert np.max(np.abs(J - J_fd)) / max(np.max(np.abs(J)), 1.0) < 1e-5

    def test_zero_config_roll_column(self, model):
        J = leg_jacobian(model, LegIndex.FL, np.zeros(3))
        reach = model.l_thigh + model.l_calf
        np.testing.assert_allclose(J[:, 0], [0.0, reach, model.l_abd], atol=1e-12)

    def test_singular_at_full_stretch(self, model):
        J = leg_jacobian(model, LegIndex.FL, [0.1, 0.3, 0.0])
        assert abs(np.linalg.det(J)) < 1e-12


class TestInverseKinematics:
    def test_round_trip_at_zero(self, model):
        p = leg_forward_kinematics(model, LegIndex.FL, np.zeros(3))
        np.testing.assert_allclose(
            leg_inverse_kinematics(model, LegIndex.FL, p), np.zeros(3), atol=1e-9
        )

    def test_round_trip_random(self, model):
        rng = np.random.default_rng(13)
        for leg in range(4):
            for q in sample_branch_configs(model, rng, 250):
                p = leg_forward_kinematics(model, leg, q)
                q_back = leg_inverse_kinematics(model, leg, p)
                np.testing.assert_allclose(q_back, q, atol=1e-6)

    def test_fk_of_ik_position_identity(self, model):
        rng = np.random.default_rng(14)
        for _ in range(200):
            q = sample_branch_configs(model, rng, 1)[0]
            p = leg_forward_kinematics(model, LegIndex.RL, q)
            p_back = leg_forward_kinematics(
                model, LegIndex.RL, leg_inverse_kinematics(model, LegIndex.RL, p)
            )
            np.testing.assert_allclose(p_back, p, atol=1e-9)

    def test_unreachable_raises(self, model):
        target = model.hip_offsets[0] + [0.0, model.l_abd, -(model.max_leg_radius + 0.05)]
        with pytest.raises(Unreachable):
            leg_inverse_kinematics(model, LegIndex.FL, target)

    def test_clamped_mode_projects_to_boundary(self, model):
        target = model.hip_offsets[0] + [0.0, model.l_abd, -(model.max_leg_radius + 0.05)]
        q = leg_inverse_kinematics(model, LegIndex.FL, target, clamp=True)
        p = leg_forward_kinematics(model, LegIndex.FL, q)
        dist = np.linalg.norm(p - (model.hip_offsets[0] + [0.0, model.l_abd, 0.0]))
        assert dist <= model.max_leg_radius


class TestModelValidation:
    def test_bad_sign_pattern_rejected(self):
        hips = np.array([[0.1, 0.1, 0], [0.1, 0.1, 0], [-0.1, 0.1, 0], [-0.1, -0.1, 0]])
        with pytest.raises(ValueError):
            RobotModel(hip_offsets=hips)

    def test_nominal_inside_limits(self, model):
        lo, hi = model.joint_limits[:, 0], model.joint_limits[:, 1]
        assert np.all(model.nominal_joint_pos > lo)
        assert np.all(model.nominal_joint_pos < hi)

    def test_nominal_height_consistent(self, model):
        # feet sit exactly nominal_base_height below the body origin
        for leg in range(4):
            p = leg_forward_kinematics(model, leg, model.nominal_joint_pos[leg * 3 : leg * 3 + 3])
            assert p[2] == pytest.approx(-model.nominal_base_height, abs=1e-9)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            RobotModel(mass=-1.0)

    @pytest.mark.parametrize("inertia", [np.diag([0.1, 0.0, 0.3]), np.diag([0.1, -0.25, 0.3]),
                                         np.diag([0.1, 0.25, 0.3]) + np.triu(np.full((3, 3), 0.01), 1)])
    def test_base_inertia_must_be_symmetric_positive_definite(self, inertia):
        # step solves against it, which needs it invertible
        with pytest.raises(ValueError, match="base_inertia"):
            RobotModel(base_inertia=inertia)


class TestSolve:
    def test_bitwise_equal_to_numpy(self):
        # the allocation's 6x6 and the base inertia's 3x3 systems, one
        # and stacked, the matrix broadcast over the right-hand sides too
        rng = np.random.default_rng(5)
        for a_shape, b_shape in (((6, 6), (6, 1)), ((7, 6, 6), (7, 6, 1)), ((3, 3), (3, 1)),
                                 ((5, 3, 3), (5, 3, 1)), ((3, 3), (9, 3, 1))):
            M = rng.standard_normal(a_shape)
            A = M @ M.swapaxes(-1, -2) + 1e-9 * np.eye(a_shape[-1])
            B = rng.standard_normal(b_shape)
            assert np.array_equal(solve(A, B), np.linalg.solve(A, B))
