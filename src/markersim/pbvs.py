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
from dataclasses import dataclass

import numpy as np

from .geometry import (_ZERO_ANGLE_EPS, AngleAxis, Pose, _axis_angle, check_adjacent, compose, invert,
                       inverse_of, surely_within, vector_norm)
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
        return math.sqrt(float(self.translation @ self.translation) + self.rotation.angle**2)


def _read_only(values) -> np.ndarray:
    array = np.array(values)
    array.setflags(write=False)
    return array


class VelocityCommand:
    """Camera-frame twist: linear m/s, angular rad/s, held as ``twist``, its six
    floats. ``linear`` and ``angular`` are read-only arrays made from them, so
    ``is_finite``, decided at construction, stays true of them."""

    __slots__ = ("twist", "is_finite")

    def __init__(self, linear, angular):
        self.twist = (*np.array(linear, dtype=float).reshape(3).tolist(),
                      *np.array(angular, dtype=float).reshape(3).tolist())
        self.is_finite = all(map(math.isfinite, self.twist))

    @classmethod
    def _of(cls, twist: tuple) -> "VelocityCommand":
        cmd = object.__new__(cls)
        cmd.twist, cmd.is_finite = twist, all(map(math.isfinite, twist))
        return cmd

    @classmethod
    def zero(cls) -> "VelocityCommand":
        return cls(np.zeros(3), np.zeros(3))

    linear = property(lambda self: _read_only(self.twist[:3]))
    angular = property(lambda self: _read_only(self.twist[3:]))


def _rotation_error(rotation: np.ndarray, yaw: float | None) -> tuple[list, float]:
    """Axis (three floats) and angle of ``rotation``, under ``error_and_rotation``'s yaw rule."""
    axis, angle = _axis_angle(rotation)
    if yaw is not None or angle == 0.0:
        return axis, angle
    vec = [axis[0] * angle, axis[1] * angle, 0.0]
    angle = vector_norm(np.array(vec))
    if angle <= _ZERO_ANGLE_EPS:
        return [0.0, 0.0, 1.0], 0.0
    return [v / angle for v in vec], angle


def _law(rotation: np.ndarray, translation: np.ndarray, axis, angle: float, gain: float):
    """The decoupled law as float lists; the product is numpy's, as sums round differently."""
    return ([-gain * v for v in (rotation.T @ translation).tolist()],
            [-gain * (a * angle) for a in axis])


def _clamped(v, limit: float):
    """The floats ``v`` scaled down to norm ``limit`` when longer, else ``v`` (at once if ``surely_within``)."""
    if surely_within(v, limit):
        return v
    n = vector_norm(np.array(v)) if any(v) else 0.0
    return [x * (limit / n) for x in v] if limit > 0 and n > limit else v


def servo_step(estimate: PoseEstimate, desired: Pose, gain: float, max_linear: float,
               max_angular: float) -> tuple[list, list, list]:
    """The camera position in the marker frame, and the linear and angular velocity of
    ``clamp_command(control_law(*error_and_rotation(...), gain), ...)``: float lists, same bits."""
    check_adjacent(desired.from_frame, estimate.relative_pose.from_frame)
    rt, camera = inverse_of(estimate.relative_pose.rotation, estimate.relative_pose.translation)
    rotation = desired.rotation @ rt  # invert's and compose's products, with no Pose
    v, w = _law(rotation, desired.rotation @ camera + desired.translation,
                *_rotation_error(rotation, estimate.yaw), gain)
    return camera.tolist(), _clamped(v, max_linear), _clamped(w, max_angular)


def error_and_rotation(estimate: PoseEstimate, desired: Pose) -> tuple[FeatureVector, np.ndarray]:
    """Feature error plus the current-to-desired rotation matrix.

    ``desired`` maps the marker frame to the desired camera frame. When the
    estimate carries no yaw, the z component of the rotation error is held at
    zero so only the observable components are servoed; yaw correction starts
    as soon as a full-pose estimate arrives.
    """
    rel = compose(desired, invert(estimate.relative_pose))
    axis, angle = _rotation_error(rel.rotation, estimate.yaw)
    return FeatureVector(rel.translation, AngleAxis(np.array(axis), angle)), rel.rotation


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
    return VelocityCommand(*_law(np.asarray(rotation_to_desired, dtype=float), error.translation,
                                 error.rotation.axis.tolist(), error.rotation.angle, gain))


def clamp_command(
    cmd: VelocityCommand, max_linear: float, max_angular: float
) -> VelocityCommand:
    """Scale the twist down to the configured speed limits, keeping direction."""
    linear, angular = _clamped(cmd.twist[:3], max_linear), _clamped(cmd.twist[3:], max_angular)
    return cmd if (*linear, *angular) == cmd.twist else VelocityCommand(linear, angular)


def with_descent(cmd: VelocityCommand, descent_rate: float) -> VelocityCommand:
    """Override the vertical axis with a constant descent once landing starts.

    The camera z axis points at the marker, so a positive rate descends;
    lateral position and yaw stay under the servo law.
    """
    vx, vy, _, *angular = cmd.twist
    return VelocityCommand((vx, vy, descent_rate), angular)
