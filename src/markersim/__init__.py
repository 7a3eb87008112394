"""markersim: closed-loop simulator for screen-displayed adaptive fiducial
markers, camera-guided landing, and the update-synchronization protocol
between display and detector.

The package re-exports the names the demos and the README import; everything
else is reached through its module (``markersim.timing``, ...)."""

__version__ = "0.1.0"

from .geometry import CameraIntrinsics, Pose, fov_half_angle
from .marker import (
    MarkerConfig,
    MarkerFamily,
    NoiseProfile,
    Screen,
    board_layout,
    camera_freedom_angle,
    clamp_to_screen,
    optimal_marker_size,
)
from .perception import DetectorParams, simulate_detection
from .scenario import nominal_landing_scenario
from .simulation import collect_metrics, run_scenario

__all__ = [
    "CameraIntrinsics", "Pose", "fov_half_angle",
    "MarkerConfig", "MarkerFamily", "NoiseProfile", "Screen", "board_layout",
    "camera_freedom_angle", "clamp_to_screen", "optimal_marker_size",
    "DetectorParams", "simulate_detection",
    "nominal_landing_scenario",
    "collect_metrics", "run_scenario",
]
