"""End-to-end behavior cloning at demo scale: collect expert
demonstrations for two gaits, train the shared-trunk multi-head network
and a single-task baseline, and compare them on held-out commands.

Uses a reduced budget so it finishes in a couple of minutes; the full
desk-scale pipeline lives in the acceptance suite and the CLI.

Run:  python3 demos/04_behavior_cloning.py
"""

import numpy as np

from quadgait import ContactParams, RobotModel
from quadgait.dataset import CollectionPlan, collect
from quadgait.evaluation import compute_metrics
from quadgait.expert import ExpertGains
from quadgait.gait import VelocityCommand, make_gait
from quadgait.network import ArchSpec, TrainConfig, train

GAITS = ["trot", "bound"]


# everything here runs in this process (collect() included); the guard
# only keeps an import of this module from running the demo
def main():
    model = RobotModel()
    contact = ContactParams()
    gains = ExpertGains()

    plan = CollectionPlan(
        gaits=[make_gait(g) for g in GAITS],
        vx_grid=[0.0, 0.15, -0.15], vy_grid=[0.0], wz_grid=[0.0],
        cells_per_gait=3, samples_per_traj=2000, settle_time=0.0,
        holdout_commands=[VelocityCommand(0.1, 0.0, 0.0)], seed=2,
    )
    print("collecting demonstrations (2 gaits x 3 commands x 2 s)...")
    train_sets, holdout_sets, report = collect(plan, model, contact, 1e-3, gains)
    print("  ", report.summary())

    tasks = {i: train_sets[g] for i, g in enumerate(GAITS)}
    holds = {i: holdout_sets[g] for i, g in enumerate(GAITS)}

    print("\ntraining the multi-task network (shared trunk, one head per gait)...")
    mtl, mtl_hist = train(
        tasks,
        ArchSpec(kind="multi_task", hidden_width=64, num_tasks=len(GAITS), seed=1),
        TrainConfig(epochs=10, batch_size=256, seed=1),
    )
    print(f"  epoch  1 val loss {sum(mtl_hist[0].val_loss.values()):.5f}")
    print(f"  epoch 10 val loss {sum(mtl_hist[-1].val_loss.values()):.5f}")

    print("\ntraining the single-task baseline (same data pooled, no task id)...")
    single, _ = train(
        tasks,
        ArchSpec(kind="single_task", hidden_width=64, seed=1),
        TrainConfig(epochs=10, batch_size=256, seed=1),
    )

    print("\nheld-out command metrics (unseen vx = 0.1 m/s):")
    print(f"{'gait':8s} {'model':12s} {'MSE [rad^2]':>12} {'MAE [rad]':>10} {'R^2':>8}")
    for task, gait in enumerate(GAITS):
        truth = holds[task].act.astype(float)
        for label, net in (("multi-task", mtl), ("single-task", single)):
            pred = net.forward(holds[task].obs.astype(float), task)
            mse, mae, r2 = compute_metrics(pred, truth)
            print(f"{gait:8s} {label:12s} {mse:12.6f} {mae:10.4f} {r2:8.4f}")
    print("\n(the multi-task head usually wins per gait; the full-scale ordering")
    print(" check across three seeds runs in tests/test_acceptance.py)")


if __name__ == "__main__":
    main()
