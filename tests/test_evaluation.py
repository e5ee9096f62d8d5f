import numpy as np
import pytest

from quadgait.dataset import ACT_DIM, Dataset, NormStats, OBS_DIM
from quadgait.errors import DegenerateTruth, UnknownTask
from quadgait.evaluation import (
    RolloutSummary,
    SwitchScenario,
    closed_loop_rollout,
    compute_metrics,
    evaluate_model,
    parse_scenario,
    per_joint_r2,
    run_switch_scenario,
    write_curves_csv,
    write_metrics_csv,
    write_traj_csv,
)
from quadgait.gait import VelocityCommand, make_gait
from quadgait.network import ArchSpec, MtlNetwork


class TestComputeMetrics:
    def test_perfect_prediction(self):
        truth = np.random.default_rng(0).standard_normal((10, 12))
        mse, mae, r2 = compute_metrics(truth, truth)
        assert (mse, mae, r2) == (0.0, 0.0, 1.0)

    def test_constant_mean_predictor_r2_zero(self):
        truth = np.random.default_rng(1).standard_normal((50, 12))
        pred = np.full_like(truth, truth.mean())
        _, _, r2 = compute_metrics(pred, truth)
        assert r2 == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_single_output(self):
        truth = np.array([[1.0], [2.0], [3.0]])
        pred = np.array([[1.0], [2.0], [2.0]])
        mse, mae, r2 = compute_metrics(pred, truth)
        assert mse == pytest.approx(1 / 3)
        assert mae == pytest.approx(1 / 3)
        assert r2 == pytest.approx(0.5)

    def test_degenerate_truth(self):
        truth = np.ones((5, 12))
        with pytest.raises(DegenerateTruth):
            compute_metrics(truth + 0.1, truth)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        truth = rng.standard_normal((40, 12))
        pred = truth + 0.1 * rng.standard_normal((40, 12))
        m1 = compute_metrics(pred, truth)
        perm = rng.permutation(40)
        m2 = compute_metrics(pred[perm], truth[perm])
        np.testing.assert_allclose(m1, m2, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_metrics(np.zeros((3, 12)), np.zeros((4, 12)))

    def test_per_joint_r2_matches_pooled_for_one_column(self):
        rng = np.random.default_rng(3)
        truth = rng.standard_normal((30, 1))
        pred = truth + 0.2 * rng.standard_normal((30, 1))
        _, _, pooled = compute_metrics(pred, truth)
        assert per_joint_r2(pred, truth)[0] == pytest.approx(pooled)


def trained_like_net(num_tasks=2, seed=0):
    arch = ArchSpec(hidden_width=8, num_tasks=num_tasks, seed=seed)
    return MtlNetwork(arch, NormStats(np.zeros(OBS_DIM), np.ones(OBS_DIM)))


def fixed_dataset(rng, name, n=50):
    return Dataset.from_records(
        [name], np.zeros(n, np.uint32),
        rng.standard_normal((n, OBS_DIM)), rng.standard_normal((n, ACT_DIM)),
    )


class TestEvaluateModel:
    def test_metrics_and_trajectory_rows(self):
        rng = np.random.default_rng(4)
        net = trained_like_net()
        holdout = {0: fixed_dataset(rng, "trot"), 1: fixed_dataset(rng, "bound")}
        metrics, joint_r2, traj = evaluate_model(net, holdout, ["trot", "bound"])
        assert [m.task for m in metrics] == ["trot", "bound"]
        assert set(joint_r2) == {"trot", "bound"}
        assert len(joint_r2["trot"]) == ACT_DIM
        joints = {row[2] for row in traj}
        assert joints == {"fl_hip", "fl_thigh", "fl_knee"}
        assert len(traj) == 2 * 3 * 50

    def test_unknown_task_rejected(self):
        rng = np.random.default_rng(5)
        net = trained_like_net()
        with pytest.raises(UnknownTask):
            evaluate_model(net, {3: fixed_dataset(rng, "x")}, ["trot"])

    def test_csv_writers(self, tmp_path):
        rng = np.random.default_rng(6)
        net = trained_like_net()
        holdout = {0: fixed_dataset(rng, "trot")}
        metrics, _, traj = evaluate_model(net, holdout, ["trot"])
        write_metrics_csv(tmp_path / "metrics.csv", [(m.task, "holdout", m) for m in metrics])
        write_traj_csv(tmp_path / "traj.csv", traj)
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == "task,split,mse,mae,r2"
        header = (tmp_path / "traj.csv").read_text().splitlines()[0]
        assert header == "task,t,joint,expert,predicted"

    def test_curves_csv(self, tmp_path):
        from quadgait.network import EpochRecord

        hist = [EpochRecord(1, {0: 1.0, 1: 2.0}, {0: 1.5, 1: 2.5}),
                EpochRecord(2, {0: 0.5, 1: 1.0}, {0: 0.7, 1: 1.2})]
        write_curves_csv(tmp_path / "curves.csv", hist, ["trot", "bound"])
        lines = (tmp_path / "curves.csv").read_text().splitlines()
        assert lines[0] == "epoch,task,train_loss,val_loss"
        assert len(lines) == 5
        assert lines[1].startswith("1,trot,")


class TestClosedLoopHarness:
    def test_expert_rollout_survives(self, model, contact, gains):
        _, summary = closed_loop_rollout(
            model, contact, make_gait("trot"), VelocityCommand(0.3, 0, 0), 3.0,
            net=None, expert_gains=gains,
        )
        assert summary.survived
        assert summary.mean_vx_error < 0.1

    def test_random_net_fails_gracefully(self, model, contact):
        net = trained_like_net(num_tasks=1, seed=42)
        _, summary = closed_loop_rollout(
            model, contact, make_gait("trot"), VelocityCommand(), 2.0, net=net, task_id=0,
        )
        assert isinstance(summary, RolloutSummary)
        assert np.isfinite(summary.survival_time)
        assert not summary.survived

    def test_transient_is_at_most_half_the_duration(self, model, contact, gains):
        spec, cmd = make_gait("trot"), VelocityCommand(0.2, 0.0, 0.0)
        _, cut = closed_loop_rollout(model, contact, spec, cmd, 1.0, expert_gains=gains)
        _, half = closed_loop_rollout(model, contact, spec, cmd, 1.0, expert_gains=gains,
                                      transient=0.5)
        assert cut == half and np.isfinite(cut.mean_vx_error)

    def test_unknown_task_checked_before_sim(self, model, contact):
        net = trained_like_net(num_tasks=1)
        with pytest.raises(UnknownTask):
            closed_loop_rollout(model, contact, make_gait("trot"), VelocityCommand(),
                                1.0, net=net, task_id=3)

    def test_rollout_log_written(self, model, contact, gains, tmp_path):
        from quadgait.simulation import ROLLOUT_CSV_COLUMNS, RolloutLog

        log = RolloutLog()
        closed_loop_rollout(model, contact, make_gait("trot"), VelocityCommand(), 0.05,
                            net=None, expert_gains=gains, log_target=log)
        assert log.as_array().shape == (50, len(ROLLOUT_CSV_COLUMNS))

    def test_collection_rows_are_rollout_rows(self, model, contact, gains):
        # without an rng, collection and an expert rollout run the same
        # loop: the labels are the logged targets, bit for bit
        from quadgait.dataset import run_expert_trajectory
        from quadgait.simulation import ROLLOUT_CSV_COLUMNS, RolloutLog

        spec, cmd = make_gait("trot"), VelocityCommand(0.2, 0.0, 0.0)
        _, act, _ = run_expert_trajectory(model, contact, spec, cmd, 0.02, 100, gains=gains)
        log = RolloutLog()
        closed_loop_rollout(model, contact, spec, cmd, 0.12, net=None, expert_gains=gains,
                            log_target=log)
        target = ROLLOUT_CSV_COLUMNS.index("target_0")
        rows = log.as_array()
        assert rows.shape[0] == 120
        np.testing.assert_array_equal(rows[20:, target : target + 12], act)

    @pytest.mark.parametrize("gait,height_loop", [("trot", True), ("trot", False),
                                                  ("bound", False)])
    def test_gate_is_a_zero_command_rollout(self, model, contact, gait, height_loop):
        # without a height loop trot sags out of the band at about 1.6 s
        # and bound at about 0.4 s
        from quadgait.dataset import expert_gate_check
        from quadgait.expert import ExpertGains

        gains = ExpertGains() if height_loop else ExpertGains(kp_height=0.0, kd_height=0.0)
        spec = make_gait(gait)
        passed = expert_gate_check(model, contact, spec, gains=gains)
        _, summary = closed_loop_rollout(model, contact, spec, VelocityCommand(), 2.0,
                                         net=None, expert_gains=gains)
        assert passed == summary.survived
        assert passed == height_loop


class TestSwitchScenario:
    def test_parse_scenario_text(self):
        text = """
        # demo scenario
        0.0 trot 0.2 0.0 0.0
        3.0 bound 0.1 0.0 0.0  # switch here
        """
        scn = parse_scenario(text, duration=6.0)
        assert len(scn.events) == 2
        assert scn.events[0][1] == "trot"
        assert scn.events[1][0] == 3.0
        assert scn.events[1][2].vx == pytest.approx(0.1)

    def test_unsorted_events_rejected(self):
        with pytest.raises(ValueError):
            SwitchScenario(events=[(1.0, "trot", VelocityCommand()),
                                   (0.0, "bound", VelocityCommand())], duration=3.0)

    @pytest.mark.parametrize("last", [0.4, 0.5])
    def test_event_at_or_after_the_end_rejected(self, last):
        # such an event's segment would never run
        events = [(0.0, "trot", VelocityCommand()), (last, "bound", VelocityCommand())]
        with pytest.raises(ValueError, match="not before the scenario's end"):
            SwitchScenario(events=events, duration=0.4)

    def test_unknown_gait_raises_before_sim(self, model, contact):
        net = trained_like_net(num_tasks=1)
        scn = SwitchScenario(events=[(0.0, "walk", VelocityCommand())], duration=1.0)
        with pytest.raises(UnknownTask):
            run_switch_scenario(net, model, contact, scn, {"walk": make_gait("walk")},
                                {"trot": 0})

    def test_single_event_equals_plain_rollout(self, model, contact):
        net = trained_like_net(num_tasks=1, seed=9)
        scn = SwitchScenario(events=[(0.0, "trot", VelocityCommand())], duration=1.0)
        segments = run_switch_scenario(net, model, contact, scn,
                                       {"trot": make_gait("trot")}, {"trot": 0})
        _, direct = closed_loop_rollout(model, contact, make_gait("trot"),
                                        VelocityCommand(), 1.0, net=net, task_id=0,
                                        transient=0.5)
        assert len(segments) == 1
        assert segments[0][2].survived == direct.survived
        assert segments[0][2].survival_time == pytest.approx(direct.survival_time)

    def test_switch_keeps_imu_history(self, model, contact):
        # a switch to the same head and command changes nothing: the IMU
        # reading after it still sees the previous tick
        from quadgait.simulation import RolloutLog

        net = trained_like_net(num_tasks=1, seed=9)
        cmd = VelocityCommand()
        scn = SwitchScenario(events=[(0.0, "trot", cmd), (0.03, "trot", cmd)], duration=0.2)
        switched, direct = RolloutLog(), RolloutLog()
        segments = run_switch_scenario(net, model, contact, scn, {"trot": make_gait("trot")},
                                       {"trot": 0}, log_target=switched)
        closed_loop_rollout(model, contact, make_gait("trot"), cmd, 0.2, net=net, task_id=0,
                            log_target=direct)
        assert segments[0][2].survived and len(switched.rows) > 31
        np.testing.assert_array_equal(switched.as_array(), direct.as_array())
