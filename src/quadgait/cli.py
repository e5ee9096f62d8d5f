"""Command-line pipeline: collect -> train -> eval -> rollout/switch.

`main` loads the config (with `--seed` applied), answers
`--print-config`, resolves `--gaits` and runs the command.  An error
ends the run with one stderr line and the exit code `ERRORS` gives it:

- 0: success.
- 2: a config file that is unreadable (missing, a directory, not UTF-8)
  or invalid (`config error:`); an unknown gait, a command outside the
  expert envelope, a `--duration` <= 0 or a bad scenario line (`error:`).
- 3: an unreadable or unwritable data, model, scenario or output path,
  a damaged or mismatched file, or a gait the model has no head for.
- 4: any other failure: a failed expert gate or collection, a
  non-finite loss.

A rollout or switch that does not survive prints its summary and exits 4.
"""

from __future__ import annotations

import argparse
import errno
import sys
from pathlib import Path

from . import dataset as ds
from . import evaluation as ev
from . import network as nn
from .config import _validate, load_config
from .errors import ConfigError, FileFormatError, QuadGaitError, ShapeMismatch, UnknownTask
from .gait import GAIT_NAMES, VelocityCommand

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class UsageError(QuadGaitError):
    """Bad command-line input: an unknown gait, a command outside the
    expert envelope, a duration <= 0 or a bad line in the scenario file."""


# (exception classes, stderr prefix, exit code); the first match wins
ERRORS = [
    (ConfigError, "config error:", EXIT_USAGE),
    (UsageError, "error:", EXIT_USAGE),
    ((OSError, FileFormatError, UnknownTask), "error:", EXIT_DATA),
    (QuadGaitError, "error:", EXIT_NUMERIC),
]


def cmd_collect(args, cfg, gaits) -> int:
    out = Path(args.out)
    if out.exists() and not out.is_dir():  # mkdir's error, before the collection
        raise FileExistsError(errno.EEXIST, "File exists", str(out))
    train, holdout, report = ds.collect(cfg.plan(gaits), cfg.robot(), cfg.contact(), cfg["sim.dt"],
                                        cfg.expert_gains())
    out.mkdir(parents=True, exist_ok=True)
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


def _load_split(data_dir, gaits: list[str], split: str) -> dict[int, ds.Dataset]:
    return {i: ds.read_dataset(Path(data_dir) / f"{name}_{split}.qgd") for i, name in enumerate(gaits)}


def cmd_train(args, cfg, gaits) -> int:
    tasks = _load_split(args.data, gaits, "train")
    arch = cfg.arch(num_tasks=len(tasks), kind=args.arch)
    tcfg = cfg.train_config()
    if args.epochs is not None:
        tcfg.epochs = args.epochs

    def progress(epoch, train_loss, val_loss):
        tl = sum(train_loss.values())
        vl = sum(val_loss.values())
        print(f"epoch {epoch:3d}  train {tl:.6e}  val {vl:.6e}")

    net, history = nn.train(tasks, arch, tcfg, log_fn=progress if args.verbose else None)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    nn.save_weights(out, net)
    curves = out.with_name(out.stem + "_curves.csv")
    ev.write_curves_csv(curves, history, gaits)
    print(f"saved {out} and {curves}")
    return EXIT_OK


def cmd_eval(args, cfg, gaits) -> int:
    net = _load_policy(args.model)
    holdout = _load_split(args.data, gaits, "holdout")
    metrics, _joint_r2, traj = ev.evaluate_model(net, holdout, gaits)
    rows = [(m.task, "holdout", m) for m in metrics]
    if args.baseline:
        base_metrics, _, _ = ev.evaluate_model(_load_policy(args.baseline), holdout, gaits)
        rows += [(m.task, "holdout_baseline", m) for m in base_metrics]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ev.write_metrics_csv(out / "metrics.csv", rows)
    ev.write_traj_csv(out / "traj_fl.csv", traj)
    for task, split, m in rows:
        print(f"{task:8s} {split:18s} mse={m.mse:.6e} mae={m.mae:.6e} r2={m.r2:.6f}")
    return EXIT_OK


def _report_rollout(args, log, segments) -> int:
    """Write the `--log` CSV, print one line per (gait, command, summary)
    segment and exit 0 only if every segment survived."""
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


def cmd_rollout(args, cfg, gaits) -> int:
    try:
        cmd = VelocityCommand(args.vx, args.vy, args.wz)
    except ValueError as exc:
        raise UsageError(exc) from None
    if args.gait not in GAIT_NAMES:
        raise UsageError(f"unknown gait '{args.gait}'")
    net = None if args.expert else _load_policy(args.model)
    if net is not None and args.gait not in gaits:
        raise UnknownTask(f"gait '{args.gait}' not in the trained task set")
    duration = cfg["eval.rollout_duration"] if args.duration is None else args.duration
    log = ev.RolloutLog() if args.log else None
    _state, summary = ev.closed_loop_rollout(
        cfg.robot(), cfg.contact(), cfg.gait(args.gait), cmd, duration,
        net=net, task_id=0 if net is None else gaits.index(args.gait),
        expert_gains=cfg.expert_gains(), dt=cfg["sim.dt"], transient=cfg["eval.transient"],
        log_target=log,
    )
    return _report_rollout(args, log, [(args.gait, cmd, summary)])


def cmd_switch(args, cfg, gaits) -> int:
    with open(args.scenario) as fh:
        try:
            scenario = ev.parse_scenario(fh.read(), duration=args.duration)
        except ValueError as exc:  # a bad line, or a file that is not text
            raise UsageError(exc) from None
    net = _load_policy(args.model)
    log = ev.RolloutLog() if args.log else None
    segments = ev.run_switch_scenario(
        net, cfg.robot(), cfg.contact(), scenario, {name: cfg.gait(name) for name in GAIT_NAMES},
        {name: i for i, name in enumerate(gaits)}, dt=cfg["sim.dt"],
        transient=cfg["eval.transient"], log_target=log,
    )
    return _report_rollout(args, log, segments)


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

    p = sub.add_parser("rollout", help="closed-loop rollout of a policy or the expert",
                       description="The policy does not see the velocity command: with --model, "
                                   "vx_err is the distance from a command it was not given.")
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
    if args.command == "rollout" and not args.expert and not args.model:
        parser.error("rollout needs --model or --expert")
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.values["seed"] = args.seed
            _validate(cfg)  # the training-grid subsample depends on the seed
        if args.print_config:
            sys.stdout.write(cfg.dump())
            return EXIT_OK
        gaits = args.gaits.split(",") if args.gaits else cfg.gait_names()
        for name in gaits:
            if name not in GAIT_NAMES:
                raise UsageError(f"unknown gait '{name}'")
        if getattr(args, "duration", None) is not None and not 0.0 < args.duration < float("inf"):
            raise UsageError(f"--duration must be positive and finite, got {args.duration}")
        return args.func(args, cfg, gaits)
    except (QuadGaitError, OSError) as exc:
        prefix, code = next((prefix, code) for types, prefix, code in ERRORS if isinstance(exc, types))
        print(f"{prefix} {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
