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
from dataclasses import dataclass, field

import numpy as np

from .geometry import AngleAxis, Pose, _angle_axis, compose, invert, vector_norm
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
    """Camera-frame twist: linear m/s, angular rad/s. The arrays are read-only
    copies, so ``is_finite``, decided at construction, stays true of them."""

    linear: np.ndarray
    angular: np.ndarray
    is_finite: bool = field(init=False)

    def __post_init__(self):
        for name in ("linear", "angular"):
            v = np.array(getattr(self, name), dtype=float).reshape(3)
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        finite = all(map(math.isfinite, self.linear.tolist() + self.angular.tolist()))
        object.__setattr__(self, "is_finite", finite)

    @classmethod
    def zero(cls) -> "VelocityCommand":
        return cls(np.zeros(3), np.zeros(3))


def error_and_rotation(estimate: PoseEstimate, desired: Pose) -> tuple[FeatureVector, np.ndarray]:
    """Feature error plus the current-to-desired rotation matrix.

    ``desired`` maps the marker frame to the desired camera frame. When the
    estimate carries no yaw, the z component of the rotation error is held at
    zero so only the observable components are servoed; yaw correction starts
    as soon as a full-pose estimate arrives.
    """
    rel = compose(desired, invert(estimate.relative_pose))
    theta_u = _angle_axis(rel.rotation)
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
    if linear is cmd.linear and angular is cmd.angular:
        return cmd
    return VelocityCommand(linear, angular)


def with_descent(cmd: VelocityCommand, descent_rate: float) -> VelocityCommand:
    """Override the vertical axis with a constant descent once landing starts.

    The camera z axis points at the marker, so a positive rate descends;
    lateral position and yaw stay under the servo law.
    """
    linear = cmd.linear.copy()
    linear[2] = descent_rate
    return VelocityCommand(linear, cmd.angular)
