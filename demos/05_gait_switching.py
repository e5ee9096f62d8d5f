"""Closed-loop deployment and runtime gait switching with a cloned
policy: train a small multi-task network on trot and bound, roll it out
through the PD loop at 1 kHz, then switch heads mid-run.

Smaller than the acceptance-scale run but end to end; expect about half a
minute of collection and training first.

Run:  python3 demos/05_gait_switching.py
"""

import numpy as np

from quadgait import ContactParams, RobotModel
from quadgait.dataset import CollectionPlan, collect
from quadgait.evaluation import SwitchScenario, closed_loop_rollout, run_switch_scenario
from quadgait.expert import ExpertGains
from quadgait.gait import VelocityCommand, make_gait
from quadgait.network import ArchSpec, TrainConfig, train
from quadgait.simulation import RolloutLog

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
        cells_per_gait=3, samples_per_traj=4000, settle_time=0.0,
        holdout_commands=[VelocityCommand(0.1, 0.0, 0.0)], seed=3,
    )
    print("collecting demonstrations...")
    train_sets, _, report = collect(plan, model, contact, 1e-3, gains)
    print("  ", report.summary())

    tasks = {i: train_sets[g] for i, g in enumerate(GAITS)}
    print("training the policy...")
    net, _ = train(
        tasks,
        ArchSpec(kind="multi_task", hidden_width=128, num_tasks=len(GAITS), seed=5),
        TrainConfig(epochs=20, batch_size=256, seed=5),
    )

    print("\n-- plain closed-loop rollout, trot head --")
    _, summary = closed_loop_rollout(
        model, contact, make_gait("trot"), VelocityCommand(0.0, 0.0, 0.0), 4.0,
        net=net, task_id=GAITS.index("trot"),
    )
    print(f"survived={summary.survived} ({summary.survival_time:.2f}/{summary.duration:.2f} s), "
          f"mean height {summary.mean_height:.3f} m")

    print("\n-- runtime gait switch: trot for 3 s, then the bound head --")
    scenario = SwitchScenario(
        events=[(0.0, "trot", VelocityCommand(0.0, 0.0, 0.0)),
                (3.0, "bound", VelocityCommand(0.0, 0.0, 0.0))],
        duration=6.0,
    )
    log = RolloutLog()
    segments = run_switch_scenario(
        net, model, contact, scenario,
        {g: make_gait(g) for g in GAITS},
        {g: i for i, g in enumerate(GAITS)},
        log_target=log,
    )
    for gait, cmd, seg in segments:
        print(f"segment {gait:6s}: survived={seg.survived} "
              f"({seg.survival_time:.2f}/{seg.duration:.2f} s), mean height {seg.mean_height:.3f} m")
    log.write_csv("switch_rollout.csv")
    trot = segments[0][2]
    if trot.survived:
        print("wrote switch_rollout.csv (contact columns show the pattern change at t=3 s)")
    else:
        print(f"wrote switch_rollout.csv (the trot segment fell at t={trot.survival_time:.2f} s, "
              "before the switch at t=3 s)")


if __name__ == "__main__":
    main()
