"""Desk-scale multi-task imitation-learning workbench for quadruped gaits."""

from .robot import LegIndex, RobotModel, leg_forward_kinematics, leg_inverse_kinematics, leg_jacobian
from .simulation import ContactParams, ImuSample, SimState, contact_flags, nominal_stance_state, pd_torque, read_imu, step
from .gait import GaitSpec, VelocityCommand, gait_phase, make_gait, raibert_target, stand_spec, swing_trajectory
from .expert import ExpertAction, ExpertGains, allocate_stance_forces, expert_torques
from .dataset import (
    CollectionPlan,
    Dataset,
    NormStats,
    build_observation,
    collect,
    fit_norm_stats,
    inverse_pd_target,
    read_dataset,
    write_dataset,
)
from .network import ArchSpec, MtlNetwork, TrainConfig, adam_step, backward, elu, load_weights, save_weights, total_loss, train
from .evaluation import (
    SwitchScenario,
    TaskMetrics,
    closed_loop_rollout,
    compute_metrics,
    evaluate_model,
    run_switch_scenario,
)
from .config import RunConfig, derive_seed, load_config, parse_config

__version__ = "0.1.0"
