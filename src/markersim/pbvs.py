"""Position-based visual servoing: pose error and the decoupled velocity law.

The feature vector is the camera position in the desired frame together with
the angle-axis rotation from current to desired camera frame; the target
feature is zero, so the error equals the feature vector. Translation and
rotation are controlled independently:

    v = -gain * R^T @ t        (R maps current camera to desired frame)
    w = -gain * theta_u

which drives both error components to zero exponentially at rate ``gain``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import AngleAxis, Pose, compose, invert, rotation_to_angle_axis, vector_norm
from .perception import PoseEstimate


@dataclass(frozen=True)
class FeatureVector:
    """Pose error: camera position in the desired frame plus angle-axis rotation."""

    translation: np.ndarray
    rotation: AngleAxis

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if not all(map(math.isfinite, t.tolist())):
            raise ValueError("feature translation has non-finite components")
        object.__setattr__(self, "translation", t)

    def magnitude(self) -> float:
        """Norm of the stacked 6-vector (translation, rotation vector)."""
        return float(
            math.sqrt(float(self.translation @ self.translation) + self.rotation.angle**2)
        )


@dataclass(frozen=True)
class VelocityCommand:
    """Camera-frame twist: linear m/s, angular rad/s."""

    linear: np.ndarray
    angular: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "linear", np.asarray(self.linear, dtype=float).reshape(3))
        object.__setattr__(self, "angular", np.asarray(self.angular, dtype=float).reshape(3))

    @classmethod
    def zero(cls) -> "VelocityCommand":
        return cls(np.zeros(3), np.zeros(3))

    @property
    def is_finite(self) -> bool:
        return all(map(math.isfinite, self.linear.tolist() + self.angular.tolist()))


def error_and_rotation(estimate: PoseEstimate, desired: Pose) -> tuple[FeatureVector, np.ndarray]:
    """Feature error plus the current-to-desired rotation matrix.

    ``desired`` maps the marker frame to the desired camera frame. When the
    estimate carries no yaw, the z component of the rotation error is held at
    zero so only the observable components are servoed; yaw correction starts
    as soon as a full-pose estimate arrives.
    """
    rel = compose(desired, invert(estimate.relative_pose))
    theta_u = rotation_to_angle_axis(rel.rotation)
    if estimate.yaw is None:
        vec = theta_u.as_vector()
        vec[2] = 0.0
        theta_u = AngleAxis.from_vector(vec)
    return FeatureVector(rel.translation, theta_u), rel.rotation


def compute_error(estimate: PoseEstimate, desired: Pose) -> FeatureVector:
    """Pose error of the current camera relative to the desired camera frame."""
    error, _ = error_and_rotation(estimate, desired)
    return error


def control_law(
    error: FeatureVector, gain: float, rotation_to_desired: np.ndarray
) -> VelocityCommand:
    """Decoupled proportional velocity command from the feature error."""
    if gain <= 0:
        raise ValueError(f"gain must be > 0, got {gain}")
    v = -gain * (np.asarray(rotation_to_desired, dtype=float).T @ error.translation)
    w = -gain * error.rotation.as_vector()
    return VelocityCommand(v, w)


def clamp_command(
    cmd: VelocityCommand, max_linear: float, max_angular: float
) -> VelocityCommand:
    """Scale the twist down to the configured speed limits, keeping direction."""
    linear = cmd.linear
    angular = cmd.angular
    ln = vector_norm(linear)
    if max_linear > 0 and ln > max_linear:
        linear = linear * (max_linear / ln)
    an = vector_norm(angular)
    if max_angular > 0 and an > max_angular:
        angular = angular * (max_angular / an)
    return replace(cmd, linear=linear, angular=angular)


def with_descent(cmd: VelocityCommand, descent_rate: float) -> VelocityCommand:
    """Override the vertical axis with a constant descent once landing starts.

    The camera z axis points at the marker, so a positive rate descends;
    lateral position and yaw stay under the servo law.
    """
    linear = cmd.linear.copy()
    linear[2] = descent_rate
    return replace(cmd, linear=linear)
