import inspect
from dataclasses import fields

import numpy as np
import pytest

from quadgait.config import RunConfig, derive_seed, load_config, parse_config, splitmix64
from quadgait.dataset import CollectionPlan, collect, run_expert_trajectory
from quadgait.errors import ConfigError
from quadgait.evaluation import closed_loop_rollout, run_switch_scenario
from quadgait.expert import ExpertGains
from quadgait.gait import GAIT_NAMES, make_gait
from quadgait.network import ArchSpec, TrainConfig
from quadgait.robot import RobotModel
from quadgait.simulation import ContactParams


class TestParseConfig:
    def test_defaults_without_file(self):
        cfg = load_config(None)
        assert cfg["sim.dt"] == 1e-3
        assert cfg["robot.kp"] == 40.0
        assert cfg.gait_names() == ["trot", "bound", "jump"]

    def test_override_and_comments(self):
        cfg = parse_config(
            """
            #робot tuning
            robot.kp = 55.5
            seed = 7          # master seed
            data.gaits = trot,walk
            gait.trot.period = 0.4
            """
        )
        assert cfg["robot.kp"] == 55.5
        assert cfg.seed == 7
        assert cfg.gait_names() == ["trot", "walk"]
        assert cfg.gait("trot").period == 0.4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("robot.wheels = 4")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("robot.kp = fast")

    def test_invalid_physics_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("robot.mass = -3")
        with pytest.raises(ConfigError):
            parse_config("sim.dt = 0.02")
        with pytest.raises(ConfigError):
            parse_config("contact.k_n = -1")
        with pytest.raises(ConfigError, match="base_inertia"):
            parse_config("robot.inertia_yy = 0")

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config("robot.kp 40")

    def test_dump_round_trip(self):
        cfg = parse_config("robot.kp = 44\ntrain.epochs = 7")
        text = cfg.dump()
        cfg2 = parse_config(text)
        assert cfg2["robot.kp"] == 44.0
        assert cfg2["train.epochs"] == 7
        assert cfg2.values == cfg.values

    def test_builders_reflect_values(self):
        cfg = parse_config(
            "robot.mass = 10\ncontact.mu = 0.5\nexpert.kp_height = 900\n"
            "train.hidden_width = 64\ndata.samples_per_traj = 100"
        )
        assert cfg.robot().mass == 10.0
        assert cfg.contact().mu == 0.5
        assert cfg.expert_gains().kp_height == 900.0
        assert cfg.arch(num_tasks=2).hidden_width == 64
        assert cfg.plan().samples_per_traj == 100

    def test_plan_uses_gait_list(self):
        cfg = parse_config("data.gaits = walk")
        plan = cfg.plan()
        assert [g.name for g in plan.gaits] == ["walk"]

    def test_unknown_gait_in_plan(self):
        with pytest.raises(ConfigError):
            parse_config("data.gaits = gallop")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("data.gaits = trot\ndata.vx_grid = 0.15\ndata.vy_grid = 0\ndata.holdout_vx = 0.15",
             "holdout command overlaps"),
            ("train.hidden_width = 0", "hidden_width"),
            ("data.gaits =", "data.gaits names no gait"),
            ("eval.rollout_duration = 0", "eval.rollout_duration"),
            ("eval.rollout_duration = -1", "eval.rollout_duration"),
            ("eval.rollout_duration = nan", "eval.rollout_duration"),
            ("eval.rollout_duration = inf", "eval.rollout_duration"),
            ("eval.transient = -0.1", "eval.transient"),
            ("eval.transient = nan", "eval.transient"),
        ],
        ids=["holdout_overlap", "zero_width", "no_gaits", "zero_duration", "negative_duration",
             "nan_duration", "inf_duration", "negative_transient", "nan_transient"],
    )
    def test_plan_and_arch_checked_at_load(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)


def _assert_fields_equal(built, default, skip=()):
    for f in fields(default):
        if f.name not in skip:
            np.testing.assert_array_equal(getattr(built, f.name), getattr(default, f.name),
                                          err_msg=f.name)


class TestOneSourceOfDefaults:
    """The builders of a config without overrides give the dataclass
    defaults, because the schema is derived from them."""

    def test_contact_and_expert(self):
        cfg = RunConfig()
        assert cfg.contact() == ContactParams()
        assert cfg.expert_gains() == ExpertGains()

    def test_robot(self):
        _assert_fields_equal(RunConfig().robot(), RobotModel())

    def test_train_and_arch(self):
        cfg = RunConfig()
        _assert_fields_equal(cfg.train_config(), TrainConfig(), skip={"seed"})
        assert cfg.arch(num_tasks=3).hidden_width == ArchSpec().hidden_width

    def test_plan(self):
        plan = RunConfig().plan()
        _assert_fields_equal(plan, CollectionPlan(gaits=plan.gaits), skip={"seed", "gaits"})

    def test_tick_and_transient(self):
        # the functions' defaults and the config's are one value each
        cfg = load_config()
        for fn in (collect, run_expert_trajectory, closed_loop_rollout, run_switch_scenario):
            params = inspect.signature(fn).parameters
            assert params["dt"].default == cfg["sim.dt"], fn.__name__
            if fn in (closed_loop_rollout, run_switch_scenario):
                assert params["transient"].default == cfg["eval.transient"], fn.__name__
        assert (cfg["sim.dt"], cfg["eval.transient"]) == (1e-3, 1.0)

    def test_gait_timing(self):
        cfg = load_config()
        for name in GAIT_NAMES:
            spec = make_gait(name)
            assert spec.period == cfg[f"gait.{name}.period"], name
            assert spec.swing_height == cfg[f"gait.{name}.swing_height"], name


class TestSeedDerivation:
    def test_splitmix_known_progression(self):
        # deterministic and 64-bit clean
        a = splitmix64(0)
        b = splitmix64(1)
        assert a != b
        assert 0 <= a < 2**64
        assert splitmix64(0) == a

    def test_stage_seeds_differ(self):
        s = 12345
        seeds = {derive_seed(s, stage) for stage in ("collect", "train", "eval", "rollout")}
        assert len(seeds) == 4

    def test_index_hops(self):
        assert derive_seed(1, "train", 0) != derive_seed(1, "train", 1)

    def test_deterministic(self):
        assert derive_seed(99, "collect") == derive_seed(99, "collect")

    def test_unknown_stage(self):
        with pytest.raises(ValueError):
            derive_seed(0, "deploy")
