"""Command-line pipeline: collect -> train -> eval -> rollout/switch.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dataset as ds
from . import evaluation as ev
from . import network as nn
from .config import RunConfig, _validate, load_config
from .errors import ConfigError, FileFormatError, NonFiniteLoss, QuadGaitError, ShapeMismatch, UnknownTask
from .gait import GAIT_NAMES, VelocityCommand

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _load_cfg(args) -> RunConfig:
    cfg = load_config(getattr(args, "config", None))
    if getattr(args, "seed", None) is not None:
        cfg.values["seed"] = args.seed
        _validate(cfg)  # the training-grid subsample depends on the seed
    return cfg


def _maybe_print_config(args, cfg: RunConfig) -> bool:
    if getattr(args, "print_config", False):
        sys.stdout.write(cfg.dump())
        return True
    return False


def cmd_collect(args) -> int:
    cfg = _load_cfg(args)
    if _maybe_print_config(args, cfg):
        return EXIT_OK
    gaits = args.gaits.split(",") if args.gaits else cfg.gait_names()
    for name in gaits:
        if name not in GAIT_NAMES:
            print(f"error: unknown gait '{name}'", file=sys.stderr)
            return EXIT_USAGE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    plan = cfg.plan(gaits)
    train, holdout, report = ds.collect(plan, cfg.robot(), cfg.contact(), cfg["sim.dt"],
                                        cfg.expert_gains())
    for split, table in (("train", train), ("holdout", holdout)):
        for name, data in table.items():
            ds.write_dataset(out / f"{name}_{split}.qgd", data)
    with open(out / "collection_report.txt", "w") as fh:
        fh.write(report.summary() + "\n")
    print(f"collected {report.summary()} -> {out}")
    return EXIT_OK


def _load_policy(path) -> nn.MtlNetwork:
    """Weights that map the 34-entry observation to 12 joint targets."""
    net = nn.load_weights(path)
    dims = (net.arch.input_dim, net.arch.output_dim)
    if dims != (ds.OBS_DIM, ds.ACT_DIM):
        raise ShapeMismatch(f"{path}: network maps {dims[0]} inputs to {dims[1]} outputs, "
                            f"a policy needs {ds.OBS_DIM} to {ds.ACT_DIM}")
    return net


def _load_split(data_dir: Path, gaits: list[str], split: str) -> dict[int, ds.Dataset]:
    out = {}
    for i, name in enumerate(gaits):
        path = data_dir / f"{name}_{split}.qgd"
        if not path.exists():
            raise FileNotFoundError(path)
        out[i] = ds.read_dataset(path)
    return out


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    if _maybe_print_config(args, cfg):
        return EXIT_OK
    gaits = args.gaits.split(",") if args.gaits else cfg.gait_names()
    data_dir = Path(args.data)
    try:
        tasks = _load_split(data_dir, gaits, "train")
    except (FileNotFoundError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    arch = cfg.arch(num_tasks=len(tasks), kind=args.arch)
    tcfg = cfg.train_config()
    if args.epochs is not None:
        tcfg.epochs = args.epochs

    def progress(epoch, train_loss, val_loss):
        tl = sum(train_loss.values())
        vl = sum(val_loss.values())
        print(f"epoch {epoch:3d}  train {tl:.6e}  val {vl:.6e}")

    try:
        net, history = nn.train(tasks, arch, tcfg, log_fn=progress if args.verbose else None)
    except NonFiniteLoss as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    nn.save_weights(out, net)
    curves = out.with_name(out.stem + "_curves.csv")
    ev.write_curves_csv(curves, history, gaits)
    print(f"saved {out} and {curves}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    if _maybe_print_config(args, cfg):
        return EXIT_OK
    gaits = args.gaits.split(",") if args.gaits else cfg.gait_names()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        net = _load_policy(args.model)
        holdout = _load_split(Path(args.data), gaits, "holdout")
    except (FileNotFoundError, FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        metrics, _joint_r2, traj = ev.evaluate_model(net, holdout, gaits)
    except UnknownTask as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    rows = [(m.task, "holdout", m) for m in metrics]
    if args.baseline:
        try:
            base = _load_policy(args.baseline)
            base_metrics, _, _ = ev.evaluate_model(base, holdout, gaits)
        except (FileNotFoundError, FileFormatError, UnknownTask) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
        rows += [(m.task, "holdout_baseline", m) for m in base_metrics]
    ev.write_metrics_csv(out / "metrics.csv", rows)
    ev.write_traj_csv(out / "traj_fl.csv", traj)
    for task, split, m in rows:
        print(f"{task:8s} {split:18s} mse={m.mse:.6e} mae={m.mae:.6e} r2={m.r2:.6f}")
    return EXIT_OK


def _rollout_common(args, scenario_events) -> int:
    cfg = _load_cfg(args)
    if _maybe_print_config(args, cfg):
        return EXIT_OK
    gaits = args.gaits.split(",") if args.gaits else cfg.gait_names()
    if args.duration is None:
        args.duration = cfg["eval.rollout_duration"]
    model, contact = cfg.robot(), cfg.contact()
    specs = {name: cfg.gait(name) for name in GAIT_NAMES}
    task_ids = {name: i for i, name in enumerate(gaits)}

    net = None
    if not getattr(args, "expert", False):
        try:
            net = _load_policy(args.model)
        except (FileNotFoundError, FileFormatError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA

    log = None
    if args.log:
        from .simulation import RolloutLog

        log = RolloutLog()
    try:
        if net is None:
            t, gait, cmd = scenario_events[0]
            _state, summary = ev.closed_loop_rollout(
                model, contact, specs[gait], cmd, args.duration,
                net=None, expert_gains=cfg.expert_gains(), dt=cfg["sim.dt"],
                transient=cfg["eval.transient"], log_target=log,
            )
            segments = [(gait, cmd, summary)]
        else:
            scenario = ev.SwitchScenario(events=scenario_events, duration=args.duration)
            segments = ev.run_switch_scenario(
                net, model, contact, scenario, specs, task_ids,
                dt=cfg["sim.dt"], transient=cfg["eval.transient"], log_target=log,
            )
    except UnknownTask as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    if log is not None:
        log.write_csv(args.log)
    ok = all(s.survived for _, _, s in segments) and segments
    for gait, cmd, s in segments:
        print(
            f"{gait:8s} cmd=({cmd.vx:+.2f},{cmd.vy:+.2f},{cmd.wz:+.2f}) "
            f"survived={s.survived} t={s.survival_time:.2f}/{s.duration:.2f}s "
            f"vx_err={s.mean_vx_error:.3f} height={s.mean_height:.3f}"
        )
    return EXIT_OK if ok else EXIT_NUMERIC


def cmd_rollout(args) -> int:
    try:
        cmd = VelocityCommand(args.vx, args.vy, args.wz)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.gait not in GAIT_NAMES:
        print(f"error: unknown gait '{args.gait}'", file=sys.stderr)
        return EXIT_USAGE
    return _rollout_common(args, [(0.0, args.gait, cmd)])


def cmd_switch(args) -> int:
    try:
        with open(args.scenario) as fh:
            scenario = ev.parse_scenario(fh.read(), duration=args.duration)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args.duration = scenario.duration
    return _rollout_common(args, scenario.events)


def _add_common(p):
    p.add_argument("--config", help="config file (section.key = value lines)")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--print-config", action="store_true", help="dump effective config and exit")
    p.add_argument("--gaits", help="comma-separated gait list (default from config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quadgait",
                                     description="quadruped gait imitation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="run the expert and record datasets")
    _add_common(p)
    p.add_argument("--out", default="data", help="output directory")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("train", help="train a policy on collected datasets")
    _add_common(p)
    p.add_argument("--data", default="data", help="dataset directory")
    p.add_argument("--arch", choices=["mtl", "single"], help="architecture override")
    p.add_argument("--epochs", type=int, help="epoch override")
    p.add_argument("--out", default="model.qmp", help="weights file")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="open-loop metrics on holdout data")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--baseline", help="second model for side-by-side rows")
    p.add_argument("--data", default="data")
    p.add_argument("--out", default="eval_out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rollout", help="closed-loop rollout of a policy or the expert")
    _add_common(p)
    p.add_argument("--model", help="weights file (omit with --expert)")
    p.add_argument("--expert", action="store_true", help="run the scripted expert instead")
    p.add_argument("--gait", default="trot")
    p.add_argument("--vx", type=float, default=0.0)
    p.add_argument("--vy", type=float, default=0.0)
    p.add_argument("--wz", type=float, default=0.0)
    p.add_argument("--duration", type=float, help="seconds (default eval.rollout_duration)")
    p.add_argument("--log", help="write rollout CSV here")
    p.set_defaults(func=cmd_rollout)

    p = sub.add_parser("switch", help="scripted gait-switch scenario")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--scenario", required=True, help="text file: 't gait vx vy wz' lines")
    p.add_argument("--duration", type=float, default=None)
    p.add_argument("--log", help="write rollout CSV here")
    p.set_defaults(func=cmd_switch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) == "rollout" and not args.expert and not args.model:
        parser.error("rollout needs --model or --expert")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except QuadGaitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
