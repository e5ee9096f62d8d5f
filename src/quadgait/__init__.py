"""Desk-scale multi-task imitation-learning workbench for quadruped gaits."""

from .robot import LegIndex, RobotModel
from .simulation import ContactParams
