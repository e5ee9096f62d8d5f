"""What the traced run wraps, and the per-layer metrics it reports.

The layers are the quadgait modules.  Every span is named
`<module>.<function>`; `MtlNetwork.forward` is split into batch-1 calls
(`network.forward.b1`) and batched calls (`network.forward.batch`), and
`train` by architecture.
"""

from __future__ import annotations

import numpy as np

from tracing import Tracer


def _forward_name(args) -> str:
    return "network.forward.b1" if np.ndim(args[1]) == 1 else "network.forward.batch"


def _train_name(args) -> str:
    return "network.train.mtl" if args[1].kind == "multi_task" else "network.train.single"


def _fn(module: str, *names: str):
    return [(f"quadgait.{module}", n, f"{module}.{n}") for n in names]


# main-process spans around the CLI stages and the calls that set
# collect's wall time outside its pool; cheap enough to leave the pool's
# timing as users see it
COARSE = [
    ("quadgait.cli", "cmd_collect", "cli.collect"),
    ("quadgait.cli", "cmd_train", "cli.train"),
    ("quadgait.cli", "cmd_eval", "cli.eval"),
    ("quadgait.cli", "cmd_rollout", "cli.rollout"),
    *_fn("config", "load_config"),
    *_fn("dataset", "collect", "expert_gate_check", "write_dataset", "read_dataset"),
]
CELL = _fn("dataset", "run_expert_trajectory")
ALL = COARSE + CELL + [
    *_fn("robot", "leg_forward_kinematics", "leg_jacobian", "leg_inverse_kinematics"),
    *_fn("gait", "gait_phase", "swing_trajectory", "raibert_target"),
    *_fn("simulation", "step", "read_imu", "contact_flags", "survival_violation"),
    ("quadgait.simulation", "RolloutLog.write_csv", "simulation.RolloutLog.write_csv"),
    *_fn("expert", "expert_torques", "allocate_stance_forces"),
    *_fn("dataset", "build_observation", "inverse_pd_target"),
    ("quadgait.network", "train", _train_name),
    ("quadgait.network", "MtlNetwork.forward", _forward_name),
    *_fn("network", "adam_step", "elu", "elu_grad", "save_weights", "load_weights"),
    *_fn("evaluation", "evaluate_model", "write_traj_csv", "compute_metrics", "closed_loop_rollout"),
]
PROBE = _fn("network", "backward")

US, MS = 1e6, 1e3


def per_layer(fine: Tracer, rounds: int, coarse: Tracer | None, serial: Tracer | None,
              probe: Tracer | None, *, coarse_collects: int, workers: int, epochs: int,
              rollout_ticks: int, written_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    `fine` holds `rounds` rounds with every span.  `coarse` holds
    `coarse_collects` collect stages run through the spawned pool with
    main-process spans only, and `serial` the same stages with their
    cells in-process and only the cell spans; both are None where the
    workload collects nothing in its traced run.  Totals are per round
    (per collect stage for the coarse ones); `p50_us`, `ms` and the
    per-cell, per-epoch and per-tick figures are medians per call.
    """
    out: dict[str, tuple[float, str]] = {}
    per = 1.0 / rounds

    def calls(name):
        out[f"{name}.calls"] = (fine.calls(name) * per, "count")

    def p50_us(name, root=None, key=None):
        out[key or f"{name}.p50_us"] = (fine.median(name, root) * US, "us")

    def self_s(name):
        out[f"{name}.self_s"] = (fine.self_total(name) * per, "s")

    def total_s(name):
        out[f"{name}.s"] = (fine.total(name) * per, "s")

    def ms(name, root=None, key=None):
        out[key or f"{name}.ms"] = (fine.median(name, root) * MS, "ms")

    for name in ("simulation.step", "expert.expert_torques"):
        calls(name)
        p50_us(name)
        self_s(name)
    for name in ("simulation.read_imu", "simulation.contact_flags", "simulation.survival_violation",
                 "gait.gait_phase", "gait.swing_trajectory", "gait.raibert_target",
                 "dataset.build_observation", "dataset.inverse_pd_target"):
        p50_us(name)
    for name in ("robot.leg_forward_kinematics", "robot.leg_jacobian",
                 "robot.leg_inverse_kinematics", "expert.allocate_stance_forces",
                 "network.adam_step"):
        calls(name)
        p50_us(name)
    out["dataset.run_expert_trajectory.cell_s"] = (fine.median("dataset.run_expert_trajectory"), "s")

    gate = coarse.total("dataset.expert_gate_check") if coarse else 0.0
    stage = coarse.total("cli.collect") if coarse else 0.0
    cell_phase = coarse.total("dataset.collect") - gate if coarse else 0.0
    cell_sum = serial.total("dataset.run_expert_trajectory") if serial else 0.0
    write = coarse.total("dataset.write_dataset") if coarse else 0.0
    per_collect = 1.0 / max(coarse_collects, 1)
    out["dataset.expert_gate_check.s"] = (gate * per_collect, "s")
    out["dataset.expert_gate_check.share"] = (gate / stage if stage else 0.0, "ratio")
    out["dataset.collect.parallel_efficiency"] = (
        cell_sum / (cell_phase * workers) if cell_phase else 0.0, "ratio")
    out["dataset.write_dataset.s"] = (write * per_collect, "s")
    out["dataset.write_dataset.mb_per_s"] = (written_bytes / 1e6 / write if write else 0.0, "MB/s")
    total_s("dataset.read_dataset")

    for arch in ("mtl", "single"):
        out[f"network.train.{arch}.epoch_s"] = (fine.median(f"network.train.{arch}") / epochs, "s")
    out["network.backward.b256_ms"] = ((probe.median("network.backward") if probe else 0.0) * MS, "ms")
    self_s("network.elu")
    self_s("network.elu_grad")
    ms("network.save_weights")
    ms("network.forward.batch", root="cli.eval", key="network.forward.batch_ms")
    p50_us("network.forward.b1", root="replay", key="network.forward.b1_p50_us")
    out["network.forward.b1_p99_us"] = (fine.quantile("network.forward.b1", 0.99, "replay") * US, "us")
    ms("network.load_weights")
    total_s("evaluation.evaluate_model")
    total_s("evaluation.write_traj_csv")
    ms("evaluation.compute_metrics")
    total_s("simulation.RolloutLog.write_csv")
    out["evaluation.closed_loop_rollout.tick_us"] = (
        fine.median("evaluation.closed_loop_rollout") / rollout_ticks * US, "us")
    ms("config.load_config")
    for stage_name in ("collect", "train", "eval", "rollout"):
        self_s(f"cli.{stage_name}")
    total_s("cli.train")
    total_s("cli.eval")
    return out

