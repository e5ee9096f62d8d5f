"""Lockstep collection and the robot-batched tick against the one-robot
code they replaced.

`per_robot_reference` holds the one-robot closed loop and campaign, on
the per-leg reference tick; every recorded value, every state and every
expert output must match it bit for bit, signed zeros included.
"""

import numpy as np
import pytest

import per_robot_reference as solo
import quadgait.dataset as dataset
from quadgait.dataset import CollectionPlan, collect, inverse_pd_target
from quadgait.evaluation import closed_loop_rollout
from quadgait.expert import ExpertAction, expert_torques
from quadgait.gait import GAIT_NAMES, VelocityCommand, gait_phase, make_gait, stack_gaits
from quadgait.simulation import (
    RolloutLog,
    SimState,
    contact_flags,
    nominal_stance_state,
    quat_from_rotvec,
    quat_multiply,
    simulate,
    step,
    survival_violation,
)

FIELDS = ("base_pos", "base_quat", "base_lin_vel", "base_ang_vel", "q", "v", "foot_force")


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_campaign_matches_per_robot_reference(model, contact, gains, monkeypatch):
    # three gaits, train and holdout cells, the plan's pushes and OU noise,
    # settle ticks, and one limp trot robot (servo damping only) that falls
    # mid-run while the others keep going
    plan = CollectionPlan(
        gaits=[make_gait(name) for name in ("trot", "bound", "jump")],
        vx_grid=[-0.15, 0.15, 0.3],
        vy_grid=[0.05],
        wz_grid=[0.0],
        cells_per_gait=3,
        samples_per_traj=300,
        settle_time=0.05,
        holdout_commands=[VelocityCommand(0.22, 0.0, 0.0)],
        seed=5,
    )

    def limp_solo(state, model, spec, cmd, t, gains, mu):
        if spec.name == "trot" and cmd.vx == 0.3:
            return ExpertAction(tau=np.zeros(12), tau_raw=np.zeros(12))
        return solo.ref.expert_torques(state, model, spec, cmd, t, gains, mu)

    def limp_batch(state, model, spec, cmd, t, gains, mu):
        act = expert_torques(state, model, spec, cmd, t, gains, mu)
        # one call for every gait: spec.name and cmd hold one name and one
        # (vx, vy, wz) row per robot
        limp = ((np.asarray(spec.name) == "trot") & (np.asarray(cmd)[..., 0] == 0.3))[..., None]
        return ExpertAction(np.where(limp, 0.0, act.tau), np.where(limp, 0.0, act.tau_raw))

    runs = []

    def recording(*args):
        runs.append(dataset_run_experts(*args))
        return runs[-1]

    dataset_run_experts = dataset._run_experts
    monkeypatch.setattr(solo, "expert_torques", limp_solo)
    monkeypatch.setattr(dataset, "expert_torques", limp_batch)
    monkeypatch.setattr(dataset, "_run_experts", recording)
    want_train, want_holdout, want_report, want_cells = solo.collect(plan, model, contact, 1e-3, gains)
    train, holdout, report = collect(plan, model, contact, 1e-3, gains)

    assert report.summary() == want_report.summary()
    assert report.cells_diverged == 1 and "train/trot cmd=(0.3, 0.05, 0.0)" in report.summary()
    fall_time = report.diverged_cells[0][3]
    assert 0.05 < fall_time < 0.35
    # the gates come first in the batch, then the cells in campaign order
    cells = runs[0][len(plan.gaits):]
    assert len(cells) == len(want_cells) == 12
    for got, want in zip(cells, want_cells):
        if want[0] is None:
            assert got == want
        else:
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]) and got[2] == want[2]
    for table, want_table in ((train, want_train), (holdout, want_holdout)):
        assert list(table) == list(want_table)
        for name in table:
            assert np.array_equal(table[name].obs, want_table[name].obs)
            assert np.array_equal(table[name].act, want_table[name].act)


@pytest.mark.parametrize("gait", ["trot", "bound", "jump", "mixed"])
def test_batch_equals_one_robot_calls(model, contact, gains, gait):
    # robots at different commands, pushed and with noisy targets, so they
    # drift apart: every row of the batched expert and step is the
    # one-robot call's, bit for bit.  The mixed batch runs trot, bound,
    # jump and walk robots (2, 4, 0 to 4 and 3 stance feet) in one expert
    # call
    rng = np.random.default_rng(21)
    names = ["trot", "bound", "jump", "walk"] * 2 if gait == "mixed" else [gait] * 6
    specs = [make_gait(name) for name in names]
    spec = stack_gaits(specs)
    n = len(specs)
    cmds = np.column_stack((rng.uniform(-0.3, 0.3, n), rng.uniform(-0.1, 0.1, n), rng.uniform(-0.4, 0.4, n)))
    robots = []
    for _ in range(n):
        state = nominal_stance_state(model, contact=contact)
        state.base_pos[:2] += 0.02 * rng.standard_normal(2)
        state.q += 0.01 * rng.standard_normal(12)
        robots.append(state)
    batch = SimState.stack(robots)
    stance_counts = set()
    for i in range(300):
        if i % 100 == 60:
            batch = batch.copy()
            batch.base_lin_vel += 0.2 * rng.standard_normal((n, 3))
            batch.base_ang_vel += 0.3 * rng.standard_normal((n, 3))
            robots = [batch.rows(k).copy() for k in range(n)]
        act = expert_torques(batch, model, spec, cmds, batch.time, gains, contact.mu)
        target = inverse_pd_target(act.tau_raw, batch.q, batch.v, model.kp, model.kd)
        target += 0.05 * rng.standard_normal((n, 12))
        batch = step(batch, model, contact, target, 1e-3)
        for k in range(n):
            one = expert_torques(robots[k], model, specs[k], VelocityCommand(*cmds[k]), robots[k].time,
                                 gains, contact.mu)
            assert same_bits(act.tau_raw[k], one.tau_raw) and same_bits(act.tau[k], one.tau), (i, k)
            stance_counts.add(int(gait_phase(specs[k], robots[k].time)[1].sum()))
            robots[k] = step(robots[k], model, contact, target[k], 1e-3)
            for name in FIELDS:
                assert same_bits(getattr(batch, name)[k], getattr(robots[k], name)), (name, i, k)
    assert (batch.foot_force[..., 2] > 0.0).any()
    if gait == "mixed":
        assert stance_counts == {0, 2, 3, 4}


@pytest.mark.parametrize("gait", GAIT_NAMES)
def test_expert_rollout_matches_per_robot_reference(model, contact, gains, gait):
    # one robot's expert rollout, its summary and every RolloutLog row, is
    # bitwise the same loop run on the per-leg reference's expert and step
    spec, cmd, transient = make_gait(gait), VelocityCommand(0.2, -0.05, 0.1), 0.3
    log = RolloutLog()
    _, got = closed_loop_rollout(model, contact, spec, cmd, 0.8, expert_gains=gains, transient=transient,
                                 log_target=log)
    rows, track_vx, heights = [], [], []

    def control(i, prev, state):
        target = solo.expert_target(model, contact, spec, cmd, gains, state)[0]
        rows.append(np.concatenate(([state.time], *state.arrays()[:6], target,
                                    contact_flags(state, contact).astype(float)), axis=None))
        return target

    def track(state):
        if state.time > transient:
            track_vx.append(abs((solo.ref.quat_to_matrix(state.base_quat).T @ state.base_lin_vel)[0] - cmd.vx))
            heights.append(state.base_pos[2])

    _, _, fall = solo.simulate(model, contact, nominal_stance_state(model, contact), 800, 1e-3, control,
                               on_step=track)
    assert fall is None and got.survived and got.survival_time == 0.8
    assert got.mean_vx_error == float(np.mean(track_vx)) and got.mean_height == float(np.mean(heights))
    assert len(log.rows) == 800 and same_bits(log.as_array(), np.asarray(rows))


def test_mixed_campaign_with_leaving_robots_matches_per_robot_reference(model, contact, gains,
                                                                        monkeypatch):
    # robots of four gaits with their own horizons leave the batch one
    # after another, so the stacked gaits are rebuilt for every smaller
    # batch; each robot's run is still bitwise its lone reference run
    plan = CollectionPlan(gaits=[make_gait("trot")], push_interval=0.05, settle_time=0.01)
    robots, seeds = [], []
    for k, (name, n_samples) in enumerate([("trot", 40), ("bound", 260), ("jump", 120), ("walk", 200),
                                           ("walk", 40), ("jump", 300), ("bound", 80), ("trot", 160)]):
        seeds.append(np.random.SeedSequence([3, k]))
        robots.append((make_gait(name), VelocityCommand(0.05 * (k - 3), 0.02, 0.1), 10, n_samples,
                       np.random.default_rng(seeds[-1])))
    sizes = []

    def counting(state, model, spec, cmd, t, gains, mu):
        sizes.append(len(spec.name))
        return expert_torques(state, model, spec, cmd, t, gains, mu)

    monkeypatch.setattr(dataset, "expert_torques", counting)
    results = dataset._run_experts(model, contact, robots, 1e-3, gains, plan)
    assert sorted(set(sizes), reverse=True) == [8, 6, 5, 4, 3, 2, 1]
    for (spec, cmd, n_settle, n_samples, _), seed, got in zip(robots, seeds, results):
        want = solo.run_expert_trajectory(model, contact, spec, cmd, n_settle * 1e-3, n_samples, 1e-3,
                                          gains, rng=np.random.default_rng(seed), plan=plan)
        assert same_bits(got[0], want[0]) and same_bits(got[1], want[1]) and got[2] == want[2]


def test_survival_reasons_match_per_robot_reference(model):
    # upright, too low, too high, rolled, pitched and both tilts at once,
    # alone and under a bad height: the reasons of a batch, and of each
    # robot alone, are the reference's text with its precedence
    cases = []
    for height in (0.3, 0.1, 0.5):
        for roll, pitch in ((0.0, 0.0), (0.7, 0.0), (-0.65, 0.0), (0.0, 0.61), (0.0, -0.8), (0.9, -0.9)):
            state = nominal_stance_state(model)
            state.base_pos[2] = height
            # R = R_y(pitch) R_x(roll), the ZYX order rpy_from_matrix reads
            state.base_quat = quat_multiply(quat_from_rotvec(np.array([0.0, pitch, 0.0])),
                                            quat_from_rotvec(np.array([roll, 0.0, 0.0])))
            cases.append(state)
    want = [solo.survival_violation(state, model) for state in cases]
    assert want.count(None) == 1 and want[5] == "roll +0.900 rad"
    assert survival_violation(SimState.stack(cases), model) == want
    assert [survival_violation(state, model) for state in cases] == want


def test_robot_leaves_without_stopping_the_others(model, contact):
    # robot 0 runs its 60 ticks, robot 1 crosses |base_pos| = 100 m in its
    # first step, robot 2 starts non-finite, robot 3 stops after 25 ticks
    states = [nominal_stance_state(model, contact=contact) for _ in range(4)]
    states[1].base_pos[0] = 99.99
    states[1].base_lin_vel[0] = 50.0
    states[2].q[4] = np.nan
    horizons = [60, 60, 60, 25]

    def control(i, live, prev, state):
        return np.broadcast_to(model.nominal_joint_pos, state.q.shape)

    prevs, lasts, falls = simulate(model, contact, SimState.stack(states), horizons, 1e-3, control)
    assert falls[0] is None and falls[3] is None
    assert falls[1] == (1e-3, "non-finite or runaway state")
    assert falls[2] == (0.0, "non-finite or runaway state")
    assert lasts[1].time == 0.0 and lasts[2].time == 0.0
    for k in (0, 3):
        alone = solo.simulate(model, contact, states[k], horizons[k], 1e-3,
                              lambda i, prev, state: model.nominal_joint_pos)
        for name in FIELDS:
            assert same_bits(getattr(prevs[k], name), getattr(alone[0], name))
            assert same_bits(getattr(lasts[k], name), getattr(alone[1], name))
        assert lasts[k].time == alone[1].time
