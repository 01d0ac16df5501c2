"""Crowd trajectory forecasting at desk scale.

Multiscale-hypergraph group features, masked spatial-temporal attention,
cross-modal fusion, and a CVAE sampling head over a small hand-rolled
reverse-mode autodiff engine.
"""

from .autodiff import Tensor, backward, no_grad
from .config import TrainConfig, parse_config
from .data import (
    Scene,
    TrajectoryWindow,
    normalize_window,
    parse_scene,
    synth_generate,
    window_scene,
    write_scene,
)
from .model import CrowdForecaster
from .train import ConstantVelocityModel, baseline_constant_velocity, evaluate

__all__ = [
    "Tensor",
    "backward",
    "no_grad",
    "TrainConfig",
    "parse_config",
    "Scene",
    "TrajectoryWindow",
    "normalize_window",
    "parse_scene",
    "synth_generate",
    "window_scene",
    "write_scene",
    "CrowdForecaster",
    "ConstantVelocityModel",
    "baseline_constant_velocity",
    "evaluate",
]

__version__ = "0.1.0"
