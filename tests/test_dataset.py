import numpy as np
import pytest

from quadgait.dataset import (
    ACT_DIM,
    CollectionPlan,
    Dataset,
    NormStats,
    OBS_DIM,
    build_observation,
    collect,
    fit_norm_stats,
    inverse_pd_target,
    read_dataset,
    write_dataset,
)
from quadgait.errors import BadMagic, ChecksumMismatch, EmptyDataset, TruncatedFile, VersionMismatch
from quadgait.expert import ExpertGains
from quadgait.gait import VelocityCommand, make_gait
from quadgait.simulation import ImuSample, contact_flags, nominal_stance_state, pd_torque, read_imu, step


class TestInversePd:
    def test_zero_torque_fixed_point(self):
        q = np.linspace(-1, 1, 12)
        np.testing.assert_allclose(inverse_pd_target(np.zeros(12), q, np.zeros(12), 40.0, 0.5), q)

    def test_hand_computed(self):
        # a = 0.5 + (2.0 + 0.5*1.0)/40 = 0.5625
        a = inverse_pd_target(np.full(12, 2.0), np.full(12, 0.5), np.ones(12), 40.0, 0.5)
        np.testing.assert_allclose(a, 0.5625, atol=1e-15)

    def test_round_trip_with_pd(self, model):
        rng = np.random.default_rng(2)
        for _ in range(100):
            q = rng.uniform(-1, 1, 12)
            v = rng.uniform(-3, 3, 12)
            tau = rng.uniform(-0.8, 0.8, 12) * model.tau_max  # stays unclamped
            target = inverse_pd_target(tau, q, v, model.kp, model.kd)
            np.testing.assert_allclose(pd_torque(model, target, q, v), tau, atol=1e-9)

    def test_kp_must_be_positive(self):
        with pytest.raises(ValueError):
            inverse_pd_target(np.zeros(12), np.zeros(12), np.zeros(12), 0.0, 0.5)


class TestObservation:
    def test_layout_and_length(self):
        imu = ImuSample(ang_vel=np.array([1.0, 2, 3]), lin_acc=np.array([4.0, 5, 6]))
        state = type("S", (), {})()
        state.q = np.arange(12, dtype=float)
        state.v = np.arange(12, 24, dtype=float)
        flags = np.array([True, False, True, False])
        obs = build_observation(imu, state, flags)
        assert obs.shape == (OBS_DIM,)
        np.testing.assert_array_equal(obs[:3], [1, 2, 3])
        np.testing.assert_array_equal(obs[3:6], [4, 5, 6])
        np.testing.assert_array_equal(obs[6:18], np.arange(12))
        np.testing.assert_array_equal(obs[18:30], np.arange(12, 24))
        np.testing.assert_array_equal(obs[30:], [1, 0, 1, 0])

    def test_standing_observation(self, model, contact):
        state = nominal_stance_state(model)
        for _ in range(4000):
            prev = state
            state = step(state, model, contact, model.nominal_joint_pos, 1e-3)
        obs = build_observation(read_imu(prev, state, 1e-3), state, contact_flags(state, contact))
        # plain position targets leave the base slightly pitched (knee
        # yield), so the specific force is gravity through a small tilt
        np.testing.assert_allclose(obs[:3], 0.0, atol=0.05)
        np.testing.assert_allclose(obs[3:6], [0, 0, 9.81], atol=0.6)
        assert abs(np.linalg.norm(obs[3:6]) - 9.81) < 0.6
        np.testing.assert_array_equal(obs[30:], 1.0)


class TestNormStats:
    def test_two_point_stats(self):
        obs = np.zeros((2, OBS_DIM))
        obs[1] = 2.0
        stats = fit_norm_stats(obs)
        np.testing.assert_allclose(stats.mean, 1.0)
        np.testing.assert_allclose(stats.std, 1.0)  # population std

    def test_constant_feature_floored(self):
        obs = np.ones((10, OBS_DIM))
        stats = fit_norm_stats(obs)
        np.testing.assert_allclose(stats.std, 1e-8)
        np.testing.assert_allclose(stats.normalize(obs), 0.0)

    def test_zscore_identity(self):
        rng = np.random.default_rng(3)
        obs = rng.normal(3.0, 2.5, size=(500, OBS_DIM))
        stats = fit_norm_stats(obs)
        z = stats.normalize(obs)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_too_few_records(self):
        with pytest.raises(EmptyDataset):
            fit_norm_stats(np.zeros((1, OBS_DIM)))


def random_dataset(rng, n=200, names=("trot",)):
    return Dataset.from_records(
        list(names),
        rng.integers(0, len(names), size=n),
        rng.standard_normal((n, OBS_DIM)),
        rng.standard_normal((n, ACT_DIM)),
    )


class TestQgdFormat:
    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, 1000, names=("trot", "bound"))
        p1, p2 = tmp_path / "a.qgd", tmp_path / "b.qgd"
        write_dataset(p1, ds)
        ds2 = read_dataset(p1)
        write_dataset(p2, ds2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(ds.obs, ds2.obs)
        np.testing.assert_array_equal(ds.act, ds2.act)
        np.testing.assert_array_equal(ds.task_id, ds2.task_id)
        assert ds2.task_names == ["trot", "bound"]

    def test_header_dims(self, tmp_path):
        import struct

        ds = random_dataset(np.random.default_rng(5), 10)
        path = tmp_path / "d.qgd"
        write_dataset(path, ds)
        blob = path.read_bytes()
        assert blob[:4] == b"QGD1"
        version, obs_dim, act_dim = struct.unpack_from("<III", blob, 4)
        assert (version, obs_dim, act_dim) == (1, 34, 12)

    def test_records_are_packed_structs(self, tmp_path):
        # reference: one (u32 task_id, f32 obs[34], f32 act[12]) struct per
        # record, right before the 4-byte CRC
        import struct

        ds = random_dataset(np.random.default_rng(11), 3, names=("trot", "bound"))
        path = tmp_path / "r.qgd"
        write_dataset(path, ds)
        expected = b"".join(
            struct.pack(f"<I{OBS_DIM}f{ACT_DIM}f", int(t), *o, *a)
            for t, o, a in zip(ds.task_id, ds.obs, ds.act)
        )
        assert path.read_bytes()[-4 - len(expected) : -4] == expected

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.qgd"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(BadMagic):
            read_dataset(path)

    def test_truncated(self, tmp_path):
        ds = random_dataset(np.random.default_rng(6), 50)
        path = tmp_path / "t.qgd"
        write_dataset(path, ds)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises((TruncatedFile, ChecksumMismatch)):
            read_dataset(path)

    def test_checksum_mismatch(self, tmp_path):
        ds = random_dataset(np.random.default_rng(7), 50)
        path = tmp_path / "c.qgd"
        write_dataset(path, ds)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            read_dataset(path)

    def test_corrupt_task_name_is_checksum_mismatch(self, tmp_path):
        # the first name byte sits at offset 36 (magic 4, header 28,
        # length 4); 't' ^ 0x80 is not UTF-8, and the CRC must catch it
        # before any decoding does
        ds = random_dataset(np.random.default_rng(7), 50)
        path = tmp_path / "n.qgd"
        write_dataset(path, ds)
        blob = bytearray(path.read_bytes())
        assert blob[36] == ord("t")
        blob[36] ^= 0x80
        path.write_bytes(bytes(blob))
        with pytest.raises(ChecksumMismatch):
            read_dataset(path)

    def test_non_utf8_task_name_is_format_error(self, tmp_path):
        # the same flip with the CRC recomputed passes the checksum, so
        # the decoder meets the bad byte and must name the file
        import zlib

        from quadgait.errors import FileFormatError

        ds = random_dataset(np.random.default_rng(7), 50)
        path = tmp_path / "n.qgd"
        write_dataset(path, ds)
        blob = bytearray(path.read_bytes())[:-4]
        blob[36] ^= 0x80
        blob += (zlib.crc32(bytes(blob)) & 0xFFFFFFFF).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FileFormatError, match="n.qgd: task name is not UTF-8"):
            read_dataset(path)

    def test_version_mismatch(self, tmp_path):
        import struct
        import zlib

        ds = random_dataset(np.random.default_rng(8), 5)
        path = tmp_path / "v.qgd"
        write_dataset(path, ds)
        blob = bytearray(path.read_bytes())[:-4]
        struct.pack_into("<I", blob, 4, 99)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            read_dataset(path)


class TestCollection:
    @pytest.fixture(scope="class")
    def small_plan(self):
        return CollectionPlan(
            gaits=[make_gait("trot")],
            vx_grid=[0.0, 0.2],
            vy_grid=[0.0],
            wz_grid=[0.0],
            cells_per_gait=2,
            samples_per_traj=400,
            settle_time=0.3,
            holdout_commands=[VelocityCommand(0.1, 0.0, 0.0)],
            seed=11,
        )

    @pytest.fixture(scope="class")
    def collected(self, small_plan, model, contact, gains):
        return collect(small_plan, model, contact, 1e-3, gains)

    def test_record_counts(self, collected, small_plan):
        train, holdout, report = collected
        assert len(train["trot"]) == 2 * small_plan.samples_per_traj
        assert len(holdout["trot"]) == 1 * small_plan.samples_per_traj
        assert report.cells_diverged == 0

    def test_sample_rate(self, collected):
        train, _, _ = collected
        assert train["trot"].sample_rate_hz == pytest.approx(1000.0)

    def test_disjoint_holdout(self, small_plan):
        cmds = {c.as_tuple() for c in small_plan.training_commands()}
        for c in small_plan.holdout_commands:
            assert c.as_tuple() not in cmds

    def test_overlapping_holdout_rejected(self):
        plan = CollectionPlan(
            gaits=[make_gait("trot")],
            vx_grid=[0.1],
            vy_grid=[0.0],
            wz_grid=[0.0],
            cells_per_gait=1,
            holdout_commands=[VelocityCommand(0.1, 0.0, 0.0)],
        )
        with pytest.raises(ValueError):
            plan.validate()

    def test_actions_replay_expert_torque(self, collected, model):
        # every stored action reproduces a torque consistent with its own
        # record's (q, v) through the PD law within the clamp
        train, _, _ = collected
        ds = train["trot"]
        q = ds.obs[:, 6:18].astype(float)
        v = ds.obs[:, 18:30].astype(float)
        tau = model.kp * (ds.act.astype(float) - q) - model.kd * v
        clamped = np.clip(tau, -model.tau_max, model.tau_max)
        recovered = inverse_pd_target(clamped, q, v, model.kp, model.kd)
        mask = np.abs(tau) <= model.tau_max
        np.testing.assert_allclose(recovered[mask], ds.act.astype(float)[mask], atol=1e-5)

    def test_reproducible(self, small_plan, model, contact, gains, collected):
        train2, holdout2, _ = collect(small_plan, model, contact, 1e-3, gains)
        train1, holdout1, _ = collected
        np.testing.assert_array_equal(train1["trot"].obs, train2["trot"].obs)
        np.testing.assert_array_equal(holdout1["trot"].act, holdout2["trot"].act)

    def test_worker_count_does_not_change_result(self, small_plan, model, contact, gains, monkeypatch):
        # collect runs in this process whatever the CPU count; the
        # result must not depend on it
        import quadgait.dataset as dataset

        monkeypatch.setattr(dataset, "usable_cpus", lambda: 1)
        train1, holdout1, report1 = collect(small_plan, model, contact, 1e-3, gains)
        monkeypatch.setattr(dataset, "usable_cpus", lambda: 2)
        train2, holdout2, report2 = collect(small_plan, model, contact, 1e-3, gains)
        for a, b in ((train1, train2), (holdout1, holdout2)):
            assert list(a) == list(b)
            for name in a:
                np.testing.assert_array_equal(a[name].obs, b[name].obs)
                np.testing.assert_array_equal(a[name].act, b[name].act)
        assert report1.summary() == report2.summary()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_failed_gate_stops_collection(self, model, contact, cpus, monkeypatch):
        # without a height loop the body sags out of the survival band
        # inside the 2 s gate: trot at about 1.6 s, bound at about 0.4 s.
        # The gates run in one lockstep batch whatever the CPU count, and
        # the error names the first failing gait in plan order, not the
        # first to fall.
        import quadgait.dataset as dataset

        monkeypatch.setattr(dataset, "usable_cpus", lambda: cpus)
        plan = CollectionPlan(
            gaits=[make_gait("trot"), make_gait("bound")],
            vx_grid=[0.0, 0.2],
            vy_grid=[0.0],
            wz_grid=[0.0],
            cells_per_gait=2,
            samples_per_traj=50,
            holdout_commands=[VelocityCommand(0.1, 0.0, 0.0)],
            seed=11,
        )
        sagging = ExpertGains(kp_height=0.0, kd_height=0.0)
        with pytest.raises(RuntimeError, match="competence gate for gait 'trot'"):
            collect(plan, model, contact, 1e-3, sagging)

    def test_fallen_cell_discarded_and_counted(self, model, contact, gains, monkeypatch):
        # one command gets a limp expert (servo damping only): that robot
        # collapses, and its cell must be dropped and named, not recorded
        import quadgait.dataset as dataset
        from quadgait.expert import ExpertAction

        real_expert = dataset.expert_torques

        # the batched expert: one call per tick for every robot of the
        # campaign, one command row per robot
        def limp_at_vx_03(state, model, spec, cmd, t, gains, mu):
            act = real_expert(state, model, spec, cmd, t, gains, mu)
            limp = (np.asarray(cmd)[..., 0] == 0.3)[..., None]
            return ExpertAction(tau=np.where(limp, 0.0, act.tau),
                                tau_raw=np.where(limp, 0.0, act.tau_raw))

        monkeypatch.setattr(dataset, "expert_torques", limp_at_vx_03)
        plan = CollectionPlan(
            gaits=[make_gait("trot")],
            vx_grid=[-0.3, -0.2, -0.1, 0.0, 0.05, 0.1, 0.15, 0.2, 0.3],
            vy_grid=[0.0],
            wz_grid=[0.0],
            cells_per_gait=9,
            samples_per_traj=400,
            holdout_commands=[VelocityCommand(0.25, 0.0, 0.0)],
            seed=3,
        )
        train, holdout, report = collect(plan, model, contact, 1e-3, gains)
        assert report.cells_attempted == 10
        assert report.cells_diverged == 1
        split, gait, cmd, time, reason = report.diverged_cells[0]
        assert (split, gait, cmd) == ("train", "trot", (0.3, 0.0, 0.0))
        assert 0.0 < time < 0.4 and "height" in reason
        assert len(train["trot"]) == 8 * plan.samples_per_traj
        assert len(holdout["trot"]) == plan.samples_per_traj
        assert "train/trot cmd=(0.3, 0.0, 0.0)" in report.summary()
