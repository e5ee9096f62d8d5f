"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line.  The learning criteria share one collected corpus and a
set of trained networks through session fixtures, so the suite runs the
full pipeline exactly once per seed.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines; the module takes about 4 minutes on a 2-core machine, dominated
by the three-seed training comparison, which runs in one worker process
per usable CPU, each training on one OpenBLAS thread.  The corpus
collection takes about 21 s of that.
"""

import time

import numpy as np
import pytest

from quadgait.config import derive_seed
from quadgait.dataset import (
    CollectionPlan,
    collect,
    inverse_pd_target,
    read_dataset,
    write_dataset,
)
from quadgait.errors import BadMagic, ChecksumMismatch, TruncatedFile
from quadgait.evaluation import (
    SwitchScenario,
    closed_loop_rollout,
    compute_metrics,
    evaluate_model,
    run_switch_scenario,
    write_metrics_csv,
)
from quadgait.expert import ExpertGains, allocate_stance_forces, expert_torques
from quadgait.gait import GAIT_NAMES, VelocityCommand, make_gait, stand_spec
from quadgait.network import ArchSpec, TrainConfig, backward, load_weights, save_weights, total_loss, train, train_many
from quadgait.network import MtlNetwork
from quadgait.robot import RobotModel, leg_forward_kinematics, leg_inverse_kinematics, leg_jacobian
from quadgait.simulation import ContactParams, nominal_stance_state, pd_torque, step

from conftest import sample_branch_configs

pytestmark = pytest.mark.acceptance

GAITS = ["trot", "bound", "jump"]
SEEDS = [101, 202, 303]
DT = 1e-3


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


# ---------------------------------------------------------------------------
# shared pipeline fixtures

@pytest.fixture(scope="session")
def desk_plan():
    return CollectionPlan(
        gaits=[make_gait(g) for g in GAITS],
        cells_per_gait=10,
        samples_per_traj=6000,
        settle_time=0.0,
        seed=derive_seed(7, "collect"),
    )


@pytest.fixture(scope="session")
def corpus(desk_plan, model, contact, gains):
    train_ds, hold_ds, rep = collect(desk_plan, model, contact, DT, gains)
    assert rep.cells_diverged == 0, rep.summary()
    tasks = {i: train_ds[g] for i, g in enumerate(GAITS)}
    holds = {i: hold_ds[g] for i, g in enumerate(GAITS)}
    return tasks, holds


def train_pair_jobs(corpus, seed):
    tasks, _ = corpus
    mtl = (
        tasks,
        ArchSpec(kind="multi_task", hidden_width=128, num_tasks=len(GAITS), seed=seed),
        TrainConfig(epochs=30, batch_size=256, seed=seed),
    )
    single = (
        tasks,
        ArchSpec(kind="single_task", hidden_width=128, seed=seed),
        TrainConfig(epochs=30, batch_size=256, seed=seed),
    )
    return [mtl, single]


@pytest.fixture(scope="session")
def trained_all(corpus):
    # the six trainings are independent; train_many runs them side by
    # side and returns what train() gives for each, bit for bit
    results = train_many([job for seed in SEEDS for job in train_pair_jobs(corpus, seed)])
    return {seed: (results[2 * i], results[2 * i + 1]) for i, seed in enumerate(SEEDS)}


@pytest.fixture(scope="session")
def primary_mtl(trained_all):
    return trained_all[SEEDS[0]][0]


def pooled_r2(net, holds):
    out = {}
    for task, name in enumerate(GAITS):
        pred = net.forward(holds[task].obs.astype(float), task)
        _, _, r2 = compute_metrics(pred, holds[task].act.astype(float))
        out[name] = r2
    return out


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_pd_round_trip(model):
    t0 = time.time()
    rng = np.random.default_rng(1)
    n = 1_000_000
    q = rng.uniform(-2.0, 2.0, (n, 1))
    v = rng.uniform(-5.0, 5.0, (n, 1))
    tau = rng.uniform(-0.9, 0.9, (n, 1)) * model.tau_max
    target = inverse_pd_target(tau, q, v, model.kp, model.kd)
    tau_back = model.kp * (target - q) - model.kd * v
    err_tau = np.max(np.abs(tau_back - tau))
    target2 = rng.uniform(-2.0, 2.0, (n, 1))
    tau2 = model.kp * (target2 - q) - model.kd * v
    back = inverse_pd_target(tau2, q, v, model.kp, model.kd)
    err_target = np.max(np.abs(back - target2))
    elapsed = time.time() - t0
    ok = err_tau < 1e-9 and err_target < 1e-9 and elapsed < 5.0
    assert report(
        "criterion 1 (PD algebra round trip)",
        ok,
        f"max torque err {err_tau:.2e}, max target err {err_target:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(20):
        kind = "multi_task" if trial % 2 == 0 else "single_task"
        h = int(rng.integers(4, 10))
        k = int(rng.integers(1, 4))
        d_in = int(rng.integers(6, 12))
        d_out = int(rng.integers(2, 6))
        arch = ArchSpec(kind=kind, input_dim=d_in, output_dim=d_out,
                        hidden_width=h, num_tasks=k, seed=int(rng.integers(1 << 30)))
        from quadgait.dataset import NormStats

        net = MtlNetwork(arch, NormStats(np.zeros(d_in), np.ones(d_in)))
        batches = {}
        for task in range(net.arch.num_tasks):
            m = int(rng.integers(3, 8))
            batches[task] = (rng.standard_normal((m, d_in)), rng.standard_normal((m, d_out)))
        grads, _ = backward(net, batches, scale="sum")

        def loss_at():
            raw, _, _ = total_loss(net, batches)
            return raw

        step_h = 1e-5
        for pi, p in enumerate(net.params):
            flat = p.reshape(-1)
            idx = rng.choice(flat.size, size=min(10, flat.size), replace=False)
            for j in idx:
                orig = flat[j]
                flat[j] = orig + step_h
                up = loss_at()
                flat[j] = orig - step_h
                down = loss_at()
                flat[j] = orig
                fd = (up - down) / (2 * step_h)
                g = grads[pi].reshape(-1)[j]
                worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-8))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    assert report("criterion 2 (gradient correctness)", ok,
                  f"max rel err {worst:.2e} over 20 architectures, {elapsed:.1f}s")


def test_criterion_3_kinematics(model):
    rng = np.random.default_rng(3)
    worst_q = 0.0
    for leg in range(4):
        qs = sample_branch_configs(model, rng, 2500)
        for q in qs:
            p = leg_forward_kinematics(model, leg, q)
            q_back = leg_inverse_kinematics(model, leg, p)
            worst_q = max(worst_q, float(np.max(np.abs(q_back - q))))
    worst_j = 0.0
    fd_step = 1e-6
    for leg in range(4):
        for _ in range(250):
            q = sample_branch_configs(model, rng, 1)[0]
            J = leg_jacobian(model, leg, q)
            J_fd = np.empty((3, 3))
            for j in range(3):
                dq = np.zeros(3)
                dq[j] = fd_step
                J_fd[:, j] = (
                    leg_forward_kinematics(model, leg, q + dq)
                    - leg_forward_kinematics(model, leg, q - dq)
                ) / (2 * fd_step)
            worst_j = max(worst_j, float(np.max(np.abs(J - J_fd)) / max(np.max(np.abs(J)), 1.0)))
    ok = worst_q < 1e-6 and worst_j < 1e-5
    assert report("criterion 3 (kinematics identities)", ok,
                  f"IK∘FK max err {worst_q:.2e} rad over 10^4 configs, Jacobian rel err {worst_j:.2e}")


def test_criterion_4_force_allocation():
    rng = np.random.default_rng(4)
    worst = 0.0
    done = 0
    while done < 1000:
        ns = int(rng.integers(3, 5))
        feet = [rng.uniform(-0.3, 0.3, 3) - [0, 0, 0.25] for _ in range(ns)]
        G = np.zeros((6, 3 * ns))
        for i, r in enumerate(feet):
            G[:3, 3 * i : 3 * i + 3] = np.eye(3)
            rx, ry, rz = r
            G[3:, 3 * i : 3 * i + 3] = [[0, -rz, ry], [rz, 0, -rx], [-ry, rx, 0]]
        if np.linalg.svd(G, compute_uv=False)[-1] < 0.05:  # well-conditioned only
            continue
        done += 1
        wrench = np.concatenate((rng.uniform(-60, 160, 3), rng.uniform(-25, 25, 3)))
        forces = allocate_stance_forces((wrench[:3], wrench[3:]), feet, mu=1e9, project=False)
        achieved = np.concatenate((
            forces.sum(axis=0),
            np.sum([np.cross(r, F) for r, F in zip(feet, forces)], axis=0),
        ))
        worst = max(worst, float(np.max(np.abs(achieved - wrench))))
    mg = 12.0 * 9.81
    feet = [np.array([sx * 0.2, sy * 0.15, -0.3]) for sx in (1, -1) for sy in (1, -1)]
    forces = allocate_stance_forces((np.array([0.0, 0.0, mg]), np.zeros(3)), feet, mu=0.7)
    sym_err = float(np.max(np.abs(forces - np.array([0.0, 0.0, mg / 4.0]))))
    ok = worst < 1e-8 and sym_err < 1e-10
    assert report("criterion 4 (force allocation)", ok,
                  f"worst residual {worst:.2e} over 10^3 stances, symmetry err {sym_err:.2e}")


def test_criterion_5_expert_gate(model, contact, gains):
    state = nominal_stance_state(model, contact=contact)
    spec = stand_spec()
    cmd = VelocityCommand()
    worst = 0.0
    for _ in range(5000):
        act = expert_torques(state, model, spec, cmd, state.time, gains, contact.mu)
        target = inverse_pd_target(act.tau_raw, state.q, state.v, model.kp, model.kd)
        state = step(state, model, contact, target, DT)
        worst = max(worst, abs(state.base_pos[2] - model.nominal_base_height))
    _, summary = closed_loop_rollout(
        model, contact, make_gait("trot"), VelocityCommand(0.3, 0.0, 0.0), 6.0,
        net=None, expert_gains=gains,
    )
    ok = worst < 0.02 and summary.survived and summary.mean_vx_error < 0.1
    assert report("criterion 5 (expert competence gate)", ok,
                  f"standing |dh|max {worst:.4f} m, trot vx err {summary.mean_vx_error:.3f} m/s")


def test_criterion_6_cloning_fidelity(primary_mtl, corpus):
    t0 = time.time()
    net, _hist = primary_mtl
    _, holds = corpus
    r2 = pooled_r2(net, holds)
    elapsed = time.time() - t0
    ok = all(v >= 0.90 for v in r2.values())
    assert report("criterion 6 (cloning fidelity, R2 >= 0.90 per gait)", ok,
                  f"{ {k: round(v, 4) for k, v in r2.items()} } eval {elapsed:.0f}s")


def test_criterion_7_mtl_beats_single(trained_all, corpus):
    _, holds = corpus
    wins = 0
    details = []
    for seed in SEEDS:
        (mtl, _), (single, _) = trained_all[seed]
        r2_m = pooled_r2(mtl, holds)
        r2_s = pooled_r2(single, holds)
        win = all(r2_m[g] > r2_s[g] for g in GAITS)
        wins += win
        details.append(f"seed {seed}: " + ", ".join(
            f"{g} {r2_m[g]:.4f}/{r2_s[g]:.4f}" for g in GAITS) + (" WIN" if win else " LOSS"))
    ok = wins >= 2
    assert report("criterion 7 (MTL > single-task, 2 of 3 seeds)", ok,
                  f"{wins}/3 seeds | " + " | ".join(details))


def test_criterion_8_loss_curves(primary_mtl):
    _, hist = primary_mtl
    ratios = {}
    for task, name in enumerate(GAITS):
        first = hist[0].val_loss[task]
        best = min(h.val_loss[task] for h in hist)
        ratios[name] = best / first
    ok = all(r < 0.2 for r in ratios.values())
    assert report("criterion 8 (validation loss decreases)", ok,
                  f"best/epoch1 ratios { {k: round(v, 4) for k, v in ratios.items()} }")


def test_criterion_9_closed_loop(primary_mtl, model, contact):
    net, _ = primary_mtl
    _, trot_summary = closed_loop_rollout(
        model, contact, make_gait("trot"), VelocityCommand(0.0, 0.0, 0.0), 5.0,
        net=net, task_id=GAITS.index("trot"),
    )
    scenario = SwitchScenario(
        events=[(0.0, "trot", VelocityCommand(0.0, 0.0, 0.0)),
                (3.0, "bound", VelocityCommand(0.0, 0.0, 0.0))],
        duration=6.0,
    )
    segments = run_switch_scenario(
        net, model, contact, scenario,
        {g: make_gait(g) for g in GAIT_NAMES},
        {g: i for i, g in enumerate(GAITS)},
    )
    seg_ok = len(segments) == 2 and all(s.survived for _, _, s in segments)
    ok = trot_summary.survived and seg_ok
    seg_txt = ", ".join(f"{g}:{'ok' if s.survived else f'died@{s.survival_time:.2f}'}"
                        for g, _, s in segments)
    assert report("criterion 9 (closed-loop deployment + switch)", ok,
                  f"trot 5s survived={trot_summary.survived}, switch segments [{seg_txt}]")


def test_criterion_10_reproducibility(tmp_path, model, contact, gains):
    # small config: determinism does not depend on scale
    def pipeline(tag):
        plan = CollectionPlan(
            gaits=[make_gait("trot"), make_gait("bound")],
            vx_grid=[0.0, 0.2], vy_grid=[0.0], wz_grid=[0.0],
            cells_per_gait=2, samples_per_traj=300, settle_time=0.0,
            holdout_commands=[VelocityCommand(0.1, 0.0, 0.0)], seed=42,
        )
        train_ds, hold_ds, _ = collect(plan, model, contact, DT, gains)
        d = tmp_path / tag
        d.mkdir()
        for name, ds in train_ds.items():
            write_dataset(d / f"{name}_train.qgd", ds)
        tasks = {i: train_ds[g] for i, g in enumerate(["trot", "bound"])}
        net, hist = train(tasks, ArchSpec(hidden_width=32, num_tasks=2, seed=9),
                          TrainConfig(epochs=3, batch_size=64, seed=9))
        save_weights(d / "model.qmp", net)
        holds = {i: hold_ds[g] for i, g in enumerate(["trot", "bound"])}
        metrics, _, _ = evaluate_model(net, holds, ["trot", "bound"])
        write_metrics_csv(d / "metrics.csv", [(m.task, "holdout", m) for m in metrics])
        return d

    d1 = pipeline("run1")
    d2 = pipeline("run2")
    same = True
    for name in ["trot_train.qgd", "bound_train.qgd", "model.qmp", "metrics.csv"]:
        same &= (d1 / name).read_bytes() == (d2 / name).read_bytes()
    assert report("criterion 10 (byte-identical reruns)", same,
                  "datasets, weights and metrics.csv identical across two runs")


def test_criterion_11_file_round_trips(tmp_path):
    from quadgait.dataset import Dataset, OBS_DIM, ACT_DIM

    rng = np.random.default_rng(11)
    ds = Dataset.from_records(
        ["trot"], np.zeros(64, np.uint32),
        rng.standard_normal((64, OBS_DIM)), rng.standard_normal((64, ACT_DIM)),
    )
    p = tmp_path / "a.qgd"
    write_dataset(p, ds)
    p2 = tmp_path / "b.qgd"
    write_dataset(p2, read_dataset(p))
    qgd_ok = p.read_bytes() == p2.read_bytes()

    from quadgait.dataset import NormStats

    net = MtlNetwork(ArchSpec(hidden_width=16, num_tasks=2, seed=11),
                     NormStats(np.zeros(OBS_DIM), np.ones(OBS_DIM)))
    w = tmp_path / "a.qmp"
    save_weights(w, net)
    w2 = tmp_path / "b.qmp"
    save_weights(w2, load_weights(w))
    qmp_ok = w.read_bytes() == w2.read_bytes()

    errors_ok = True
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"ZZZZ" + bytes(40))
    for reader in (read_dataset, load_weights):
        try:
            reader(bad)
            errors_ok = False
        except BadMagic:
            pass
    blob = bytearray(p.read_bytes())
    blob[60] ^= 0xFF
    (tmp_path / "tampered.qgd").write_bytes(bytes(blob))
    try:
        read_dataset(tmp_path / "tampered.qgd")
        errors_ok = False
    except ChecksumMismatch:
        pass
    (tmp_path / "short.qgd").write_bytes(p.read_bytes()[:40])
    try:
        read_dataset(tmp_path / "short.qgd")
        errors_ok = False
    except (TruncatedFile, ChecksumMismatch):
        pass

    ok = qgd_ok and qmp_ok and errors_ok
    assert report("criterion 11 (file format round trips)", ok,
                  f"QGD1 {qgd_ok}, QMP1 {qmp_ok}, corrupt-file errors {errors_ok}")
