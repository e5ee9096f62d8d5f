"""Line-oriented run configuration: 'section.key = value' per line.

Each default is written once, where it is used: the fields of
RobotModel, ContactParams, ExpertGains, CollectionPlan, TrainConfig and
ArchSpec, `simulation.DT` (the tick), `evaluation.TRANSIENT` and the
gait table that `make_gait` reads (period, swing height).  The schema of
keys, defaults and parsers is derived from them; only `seed`,
`data.gaits`, `train.arch` and `eval.rollout_duration` are set here.
Unknown keys are rejected.  One master seed fans out to per-stage seeds
through a splitmix64-style hash, so each stage is reproducible alone.
"""

from __future__ import annotations

import copy
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .dataset import CollectionPlan
from .errors import ConfigError
from .expert import ExpertGains
from .evaluation import TRANSIENT
from .gait import GAIT_NAMES, GaitSpec, VelocityCommand, make_gait
from .network import ArchSpec, TrainConfig
from .robot import RobotModel
from .simulation import DT, ContactParams


def _parse_floats(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _parse_names(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _defaults(cls) -> dict:
    """Field name -> default of each dataclass field that has one."""
    return {f.name: f.default if f.default is not MISSING else f.default_factory()
            for f in fields(cls) if f.default is not MISSING or f.default_factory is not MISSING}


_PARSERS = {float: float, int: int, str: str, list: _parse_floats}
# section -> the dataclass whose scalar and float-list fields are its keys
_SECTIONS = {
    "robot": RobotModel,
    "contact": ContactParams,
    "expert": ExpertGains,
    "data": CollectionPlan,
    "train": TrainConfig,
}
# fields set from other keys (seeds, gait specs, commands) or under another name
_NOT_KEYS = {"seed", "holdout_commands"}
_KEY_NAMES = {"contact_force_threshold": "force_threshold"}

# section -> {field name: config key}
_FIELD_KEYS: dict[str, dict[str, str]] = {}
# key -> (parser, default); flat registry of every recognized config key
_SCHEMA: dict[str, tuple] = {}
for _section, _cls in _SECTIONS.items():
    _FIELD_KEYS[_section] = {}
    for _name, _default in _defaults(_cls).items():
        if _name in _NOT_KEYS or type(_default) not in _PARSERS:
            continue
        _key = f"{_section}.{_KEY_NAMES.get(_name, _name)}"
        _FIELD_KEYS[_section][_name] = _key
        _SCHEMA[_key] = (_PARSERS[type(_default)], _default)

_robot = _defaults(RobotModel)
_inertia = np.diag(_robot["base_inertia"])
_SCHEMA.update({
    "seed": (int, 0),
    "sim.dt": (float, DT),
    "robot.hip_x": (float, float(_robot["hip_offsets"][0, 0])),
    "robot.hip_y": (float, float(_robot["hip_offsets"][0, 1])),
    "robot.inertia_xx": (float, float(_inertia[0])),
    "robot.inertia_yy": (float, float(_inertia[1])),
    "robot.inertia_zz": (float, float(_inertia[2])),
    "data.gaits": (_parse_names, ["trot", "bound", "jump"]),
    "data.holdout_vx": (_parse_floats, [c.vx for c in _defaults(CollectionPlan)["holdout_commands"]]),
    "train.arch": (str, "mtl"),
    "train.hidden_width": (int, ArchSpec.hidden_width),
    "eval.rollout_duration": (float, 5.0),
    "eval.transient": (float, TRANSIENT),
})
for _name in GAIT_NAMES:
    _gait = make_gait(_name)
    _SCHEMA[f"gait.{_name}.period"] = (float, _gait.period)
    _SCHEMA[f"gait.{_name}.swing_height"] = (float, _gait.swing_height)


def splitmix64(x: int) -> int:
    """One splitmix64 output step; used to derive stage sub-seeds."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


_STAGE_TAGS = {"collect": 1, "train": 2, "eval": 3, "rollout": 4, "switch": 5}


def derive_seed(master: int, stage: str, index: int = 0) -> int:
    """Sub-seed for a pipeline stage: splitmix64(master*8 + tag) + index hops."""
    if stage not in _STAGE_TAGS:
        raise ValueError(f"unknown stage '{stage}'")
    out = splitmix64(master * 8 + _STAGE_TAGS[stage])
    for _ in range(index):
        out = splitmix64(out)
    return out & 0x7FFFFFFF


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        merged = {key: default for key, (_p, default) in _SCHEMA.items()}
        merged.update(self.values)
        self.values = merged

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def seed(self) -> int:
        return self.values["seed"]

    # builders -------------------------------------------------------------
    def _fields(self, section: str) -> dict:
        """A section's values as keyword arguments of its dataclass, lists
        copied."""
        return {name: copy.copy(self.values[key]) for name, key in _FIELD_KEYS[section].items()}

    def robot(self) -> RobotModel:
        v = self.values
        hx, hy = v["robot.hip_x"], v["robot.hip_y"]
        return RobotModel(
            base_inertia=np.diag([v["robot.inertia_xx"], v["robot.inertia_yy"], v["robot.inertia_zz"]]),
            hip_offsets=np.array([[hx, hy, 0.0], [hx, -hy, 0.0], [-hx, hy, 0.0], [-hx, -hy, 0.0]]),
            **self._fields("robot"),
        )

    def contact(self) -> ContactParams:
        return ContactParams(**self._fields("contact"))

    def expert_gains(self) -> ExpertGains:
        return ExpertGains(**self._fields("expert"))

    def gait(self, name: str) -> GaitSpec:
        if name not in GAIT_NAMES:
            raise ConfigError(f"unknown gait '{name}'")
        return make_gait(
            name,
            period=self.values[f"gait.{name}.period"],
            swing_height=self.values[f"gait.{name}.swing_height"],
        )

    def gait_names(self) -> list[str]:
        return list(self.values["data.gaits"])

    def plan(self, gaits: list[str] | None = None) -> CollectionPlan:
        names = gaits if gaits is not None else self.gait_names()
        return CollectionPlan(
            gaits=[self.gait(name) for name in names],
            holdout_commands=[VelocityCommand(vx, 0.0, 0.0) for vx in self.values["data.holdout_vx"]],
            seed=derive_seed(self.seed, "collect"),
            **self._fields("data"),
        )

    def arch(self, num_tasks: int, kind: str | None = None) -> ArchSpec:
        v = self.values
        kind_name = {"mtl": "multi_task", "single": "single_task"}.get(kind or v["train.arch"])
        if kind_name is None:
            raise ConfigError(f"train.arch must be 'mtl' or 'single', got {v['train.arch']!r}")
        return ArchSpec(
            kind=kind_name,
            hidden_width=v["train.hidden_width"],
            num_tasks=num_tasks,
            seed=derive_seed(self.seed, "train"),
        )

    def train_config(self) -> TrainConfig:
        return TrainConfig(seed=derive_seed(self.seed, "train", 1), **self._fields("train"))

    def dump(self) -> str:
        lines = []
        for key in sorted(self.values):
            val = self.values[key]
            if isinstance(val, (list, tuple)):
                val = ",".join(str(x) for x in val)
            lines.append(f"{key} = {val}")
        return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """Parse config text; '#' comments, blank lines ignored, unknown keys
    and malformed values raise ConfigError."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        parser, _default = _SCHEMA[key]
        try:
            values[key] = parser(val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {exc}") from exc
    cfg = RunConfig(values)
    _validate(cfg)
    return cfg


def load_config(path=None) -> RunConfig:
    """The defaults, or the config file at `path`; a file that cannot be
    read as UTF-8 text raises ConfigError."""
    if path is None:
        return parse_config("")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    return parse_config(text)


def _validate(cfg: RunConfig):
    """Instantiate every sub-config, the collection plan and the network
    architecture included, so module invariants run at load time."""
    try:
        if not cfg.gait_names():
            raise ValueError("data.gaits names no gait")
        cfg.robot()
        cfg.contact()
        cfg.expert_gains()
        cfg.plan().validate()
        cfg.arch(num_tasks=len(cfg.gait_names()))
        cfg.train_config()
        if not 0.0 < cfg["sim.dt"] <= 0.005:
            raise ValueError("sim.dt must be in (0, 0.005]")
        if not 0.0 < cfg["eval.rollout_duration"] < np.inf:
            raise ValueError("eval.rollout_duration must be positive and finite")
        if not cfg["eval.transient"] >= 0.0:
            raise ValueError("eval.transient must not be negative")
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc
