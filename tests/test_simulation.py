import numpy as np
import pytest

from quadgait import simulation
from quadgait.errors import Diverged
from quadgait.robot import leg_forward_kinematics
from quadgait.simulation import (
    ContactParams,
    ROLLOUT_CSV_COLUMNS,
    RolloutLog,
    contact_flags,
    nominal_stance_state,
    pd_torque,
    quat_from_rotvec,
    quat_to_matrix,
    read_imu,
    rpy_from_matrix,
    simulate,
    step,
)


def airborne_state(model, height=1.0):
    s = nominal_stance_state(model)
    s.base_pos[2] = height
    return s


def test_rotation_and_rpy_recomputed_after_quat_changes_in_place(model):
    state = nominal_stance_state(model)
    assert state.rpy() == rpy_from_matrix(np.eye(3))
    state.base_quat[:] = quat_from_rotvec(np.array([0.1, -0.2, 0.3]))
    R = quat_to_matrix(state.base_quat)
    assert np.array_equal(state.rotation(), R)
    assert state.rpy() == rpy_from_matrix(R) and state.rpy()[2] != 0.0


class TestPdTorque:
    def test_zero_error_zero_torque(self, model):
        q = model.nominal_joint_pos
        tau = pd_torque(model, q, q, np.zeros(12))
        np.testing.assert_allclose(tau, 0.0, atol=1e-15)

    def test_hand_computed_value(self):
        # kp=40, kd=0.5: 40*0.0625 - 0.5*1.0 = 2.0
        from quadgait.robot import RobotModel

        ref = RobotModel(kp=40.0, kd=0.5)
        q = np.full(12, 0.5)
        target = np.full(12, 0.5625)
        v = np.ones(12)
        tau = pd_torque(ref, target, q, v)
        np.testing.assert_allclose(tau, 2.0, atol=1e-12)

    def test_clamped_to_tau_max(self, model):
        tau = pd_torque(model, np.full(12, 10.0), np.zeros(12), np.zeros(12))
        np.testing.assert_allclose(tau, model.tau_max)


class TestStep:
    def test_standing_sanity_run(self, model, contact):
        state = nominal_stance_state(model)
        target = model.nominal_joint_pos
        for _ in range(2000):
            state = step(state, model, contact, target, 1e-3)
        assert abs(state.base_pos[2] - model.nominal_base_height) < 0.05
        assert contact_flags(state, contact).all()
        ke = 0.5 * model.mass * state.base_lin_vel @ state.base_lin_vel
        ke += 0.5 * state.base_ang_vel @ (model.base_inertia @ state.base_ang_vel)
        assert ke < 1e-3

    def test_zero_gravity_airborne_equilibrium(self, model, contact, monkeypatch):
        import quadgait.simulation as sim

        monkeypatch.setattr(sim, "GRAVITY", np.zeros(3))
        state = airborne_state(model)
        new = step(state, model, contact, state.q.copy(), 1e-3)
        np.testing.assert_allclose(new.q, state.q, atol=1e-15)
        np.testing.assert_allclose(new.v, 0.0, atol=1e-15)
        np.testing.assert_allclose(new.base_pos, state.base_pos, atol=1e-15)
        np.testing.assert_allclose(new.base_quat, state.base_quat, atol=1e-15)
        assert new.time == pytest.approx(1e-3)

    def test_airborne_under_gravity_only(self, model, contact):
        state = airborne_state(model)
        new = step(state, model, contact, state.q.copy(), 1e-3)
        np.testing.assert_allclose(new.q, state.q, atol=1e-12)
        np.testing.assert_allclose(new.v, 0.0, atol=1e-12)
        np.testing.assert_allclose(new.base_lin_vel, [0, 0, -9.81e-3], atol=1e-12)

    def test_contact_law_direct(self, model):
        # single foot penetrating 1 mm, static, c_n = 0: F_n = k_n * p = 30 N
        contact = ContactParams(k_n=30000.0, c_n=0.0)
        state = nominal_stance_state(model)
        state.base_pos[2] = model.nominal_base_height - 0.001
        new = step(state, model, contact, state.q.copy(), 1e-3)
        np.testing.assert_allclose(new.foot_force[:, 2], 30.0, atol=1e-9)

    def test_quaternion_normalized(self, model, contact):
        state = nominal_stance_state(model)
        state.base_ang_vel = np.array([0.5, -0.3, 0.8])
        for _ in range(50):
            state = step(state, model, contact, model.nominal_joint_pos, 1e-3)
            assert abs(np.linalg.norm(state.base_quat) - 1.0) < 1e-9

    def test_normal_force_nonnegative_friction_in_cone(self, model, contact):
        rng = np.random.default_rng(3)
        state = nominal_stance_state(model)
        state.base_lin_vel = np.array([0.3, -0.2, -0.1])
        for _ in range(300):
            target = model.nominal_joint_pos + 0.1 * rng.standard_normal(12)
            state = step(state, model, contact, target, 1e-3)
            fz = state.foot_force[:, 2]
            ft = np.hypot(state.foot_force[:, 0], state.foot_force[:, 1])
            assert np.all(fz >= 0.0)
            assert np.all(ft <= contact.mu * fz + 1e-9)

    def test_determinism(self, model, contact):
        runs = []
        for _ in range(2):
            state = nominal_stance_state(model)
            for _ in range(200):
                state = step(state, model, contact, model.nominal_joint_pos, 1e-3)
            runs.append(state)
        np.testing.assert_array_equal(runs[0].q, runs[1].q)
        np.testing.assert_array_equal(runs[0].base_pos, runs[1].base_pos)
        np.testing.assert_array_equal(runs[0].base_quat, runs[1].base_quat)

    def test_diverged_on_nonfinite(self, model, contact):
        state = nominal_stance_state(model)
        state.base_lin_vel[0] = np.nan
        with pytest.raises(Diverged):
            step(state, model, contact, model.nominal_joint_pos, 1e-3)

    def test_dt_bounds(self, model, contact):
        state = nominal_stance_state(model)
        with pytest.raises(ValueError):
            step(state, model, contact, model.nominal_joint_pos, 0.01)

    def test_joint_limits_clamp_and_zero_velocity(self, model, contact):
        state = airborne_state(model)
        lo = model.joint_limits[:, 0]
        target = lo - 1.0  # drive every joint into its lower stop
        for _ in range(400):
            state = step(state, model, contact, target, 1e-3)
        assert np.all(state.q >= lo - 1e-12)
        at_stop = state.q <= lo + 1e-9
        assert at_stop.any()
        np.testing.assert_allclose(state.v[at_stop], 0.0, atol=1e-12)


def mechanical_energy(state, model, contact):
    """Base kinetic + potential energy, rotor kinetic energy and the
    energy stored in the ground springs of penetrating feet."""
    R = quat_to_matrix(state.base_quat)
    energy = 0.5 * model.mass * state.base_lin_vel @ state.base_lin_vel
    energy += 0.5 * state.base_ang_vel @ (model.base_inertia @ state.base_ang_vel)
    energy += model.mass * 9.81 * state.base_pos[2]
    energy += 0.5 * model.rotor_inertia * state.v @ state.v
    for leg in range(4):
        foot = state.base_pos + R @ leg_forward_kinematics(model, leg, state.q[model.leg_slice(leg)])
        energy += 0.5 * contact.k_n * min(foot[2], 0.0) ** 2
    return energy


STATE_ARRAYS = ("base_pos", "base_quat", "base_lin_vel", "base_ang_vel", "q", "v", "foot_force")


class TestDiverged:
    """`step` checks the state it is given and the state it returns."""

    @pytest.mark.parametrize("field", STATE_ARRAYS)
    def test_nan_in_incoming_state(self, model, contact, field):
        state = nominal_stance_state(model)
        state.time = 0.5
        getattr(state, field).flat[-1] = np.nan
        with pytest.raises(Diverged) as exc:
            step(state, model, contact, model.nominal_joint_pos, 1e-3)
        assert exc.value.time == 0.5

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", STATE_ARRAYS)
    def test_nonfinite_new_state(self, model, contact, monkeypatch, field, value):
        state = nominal_stance_state(model)
        real = simulation.SimState

        def poisoned(**fields):
            new = real(**fields)
            getattr(new, field).flat[0] = value
            return new

        monkeypatch.setattr(simulation, "SimState", poisoned)
        with pytest.raises(Diverged) as exc:
            step(state, model, contact, model.nominal_joint_pos, 1e-3)
        assert exc.value.time == 1e-3

    def test_state_from_simulate_changed_in_place(self, model, contact):
        # simulate skips the incoming check of a state step returned; the
        # state it hands back is checked again by a later step
        def control(i, live, prev, state):
            return model.nominal_joint_pos

        _, [last], [fall] = simulate(model, contact, nominal_stance_state(model), 5, 1e-3, control)
        assert fall is None
        last.v[3] = np.nan
        with pytest.raises(Diverged) as exc:
            step(last, model, contact, model.nominal_joint_pos, 1e-3)
        assert exc.value.time == last.time

    def test_runaway_base_position(self, model, contact):
        target = model.nominal_joint_pos
        far = airborne_state(model)
        far.base_pos[0] = 100.0
        with pytest.raises(Diverged) as exc:
            step(far, model, contact, target, 1e-3)
        assert exc.value.time == 0.0
        near = airborne_state(model)
        near.base_pos[0] = 99.0
        step(near, model, contact, target, 1e-3)
        # the returned state crosses |base_pos| = 100
        near.base_lin_vel[0] = 2000.0
        with pytest.raises(Diverged) as exc:
            step(near, model, contact, target, 1e-3)
        assert exc.value.time == 1e-3


class TestEnergy:
    @pytest.mark.parametrize("axis", [0, 1], ids=["roll", "pitch"])
    def test_passive_drop_onto_joint_stops_gains_no_energy(self, model, contact, axis):
        # no actuation (target = q leaves only the servo damping), dropped
        # tilted: the legs fold onto their stops, which must not pump
        # energy into the base through the rotor reaction
        state = nominal_stance_state(model)
        state.base_pos[2] = 0.35
        tilt = np.zeros(3)
        tilt[axis] = 0.8
        state.base_quat = quat_from_rotvec(tilt)
        state.foot_force[:] = 0.0
        lo, hi = model.joint_limits[:, 0], model.joint_limits[:, 1]
        e0 = mechanical_energy(state, model, contact)
        stop_ticks = 0
        for _ in range(1000):
            state = step(state, model, contact, state.q.copy(), 1e-3)
            stop_ticks += int(np.any((state.q <= lo) | (state.q >= hi)))
            assert mechanical_energy(state, model, contact) <= e0 + 0.1
        assert stop_ticks > 0


class TestImu:
    def test_at_rest_reads_gravity(self, model):
        s = nominal_stance_state(model)
        imu = read_imu(s, s, 1e-3)
        np.testing.assert_allclose(imu.ang_vel, 0.0, atol=1e-12)
        np.testing.assert_allclose(imu.lin_acc, [0, 0, 9.81], atol=1e-12)

    def test_free_fall_reads_zero(self, model):
        prev = airborne_state(model)
        curr = airborne_state(model)
        curr.base_lin_vel = np.array([0.0, 0.0, -9.81e-3])
        imu = read_imu(prev, curr, 1e-3)
        np.testing.assert_allclose(imu.lin_acc, 0.0, atol=1e-9)

    def test_constant_acceleration(self, model):
        prev = airborne_state(model)
        curr = airborne_state(model)
        a = np.array([1.2, -0.4, 0.3])
        curr.base_lin_vel = a * 1e-3
        imu = read_imu(prev, curr, 1e-3)
        np.testing.assert_allclose(imu.lin_acc, a + [0, 0, 9.81], atol=1e-9)


class TestContactFlags:
    def test_airborne_all_false(self, model, contact):
        s = airborne_state(model)
        s.foot_force[:] = 0.0
        assert not contact_flags(s, contact).any()

    def test_standing_all_true(self, model, contact):
        state = nominal_stance_state(model)
        for _ in range(500):
            state = step(state, model, contact, model.nominal_joint_pos, 1e-3)
        assert contact_flags(state, contact).all()

    def test_threshold_respected(self, model):
        contact = ContactParams(contact_force_threshold=5.0)
        s = nominal_stance_state(model)
        s.foot_force[:] = 0.0
        s.foot_force[0] = [0.0, 0.0, 4.0]
        s.foot_force[1] = [0.0, 0.0, 6.0]
        flags = contact_flags(s, contact)
        assert list(flags) == [False, True, False, False]


class TestRolloutLog:
    def test_csv_roundtrip_columns(self, model, contact, tmp_path):
        log = RolloutLog()
        state = nominal_stance_state(model)
        for _ in range(10):
            flags = contact_flags(state, contact)
            log.append(state, model.nominal_joint_pos, flags)
            state = step(state, model, contact, model.nominal_joint_pos, 1e-3)
        path = tmp_path / "rollout.csv"
        log.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].split(",") == ROLLOUT_CSV_COLUMNS
        assert len(lines) == 11
        assert len(lines[1].split(",")) == len(ROLLOUT_CSV_COLUMNS)

    def test_csv_bytes_match_per_value_format(self, model, tmp_path):
        state = nominal_stance_state(model)
        state.base_pos[:] = (-0.0, 1e-300, np.nan)
        state.v[:4] = (np.inf, -np.inf, 5e-324, -1.5e308)
        state.q[0] = 0.1 + 0.2
        log = RolloutLog()
        log.append(state, model.nominal_joint_pos, np.array([True, False, True, False]))
        state.time = 1e-3
        log.append(state, -model.nominal_joint_pos, np.array([False, True, False, True]))
        path = tmp_path / "rollout.csv"
        log.write_csv(path)
        lines = [",".join(ROLLOUT_CSV_COLUMNS)]
        lines += [",".join(format(x, ".9g") for x in row) for row in log.as_array()]
        assert path.read_text() == "\n".join(lines) + "\n"
        assert "-0," in path.read_text() and "nan" in path.read_text()
