"""Rigid-body transforms between named frames, angle-axis rotations, and an
ideal distortion-free pinhole camera.

Frame labels are free-form strings. Composition checks frame adjacency so a
chain of transforms cannot silently mix coordinate systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Positive, PositiveInt, check_fields

# Construction accepts rotations up to this far from orthonormal; values
# produced by the library itself stay within 1e-9.
ORTHONORMAL_TOL = 1e-6

_ZERO_ANGLE_EPS = 1e-9
_PI_ANGLE_EPS = 1e-6


def rot_x(angle: float) -> np.ndarray:
    """Rotation matrix about the x axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_z(angle: float) -> np.ndarray:
    """Rotation matrix about the z axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array((c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)).reshape(3, 3)


def _rotation_defect(r: np.ndarray) -> float:
    # Scalar arithmetic on the nine entries: numpy's per-call overhead
    # dominates on 3x3s, and every Pose runs this check.
    (a, b, c), (d, e, f), (g, h, i) = r.tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return max(
        abs(det - 1.0),
        # entries of r.T @ r - I; the matrix is symmetric
        abs(a * a + d * d + g * g - 1.0),
        abs(b * b + e * e + h * h - 1.0),
        abs(c * c + f * f + i * i - 1.0),
        abs(a * b + d * e + g * h),
        abs(a * c + d * f + g * i),
        abs(b * c + e * f + h * i),
    )


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a float vector; the value np.linalg.norm returns,
    without its per-call overhead."""
    return math.sqrt(float(v.dot(v)))


def surely_within(v, limit: float) -> bool:
    """Whether the floats ``v`` are no longer than ``limit`` by ``vector_norm``, by a written-out
    sum of squares under ``limit² (1 - 1e-9)`` (README, "The servo"); False if it does not show it."""
    x, y, z = v
    return 1e-300 <= x * x + y * y + z * z < limit * limit * (1.0 - 1e-9) < math.inf


def check_rotation(r: np.ndarray, tol: float = ORTHONORMAL_TOL) -> np.ndarray:
    """Return ``r`` as a float array, raising if it is not a proper rotation."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
    defect = _rotation_defect(r)
    if not defect <= tol:  # a NaN defect fails too
        raise ValueError(
            f"matrix is not a proper rotation (orthonormality defect {defect:.3e} > {tol:.1e})"
        )
    return r


def check_translation(t):
    """Return the float 3-vector ``t`` (array or tuple), raising if a component is not finite."""
    if not all(map(math.isfinite, t if type(t) is tuple else t.tolist())):
        raise ValueError("translation has non-finite components")
    return t


@dataclass(frozen=True)
class Pose:
    """Rigid transform mapping points in ``from_frame`` to ``to_frame``.

    ``p_to = rotation @ p_from + translation``; ``translation`` is therefore
    the position of the ``from_frame`` origin expressed in ``to_frame``.
    Construction checks both fields. ``invert``, ``compose``, ``vehicle_step``
    and ``simulate_detection`` derive their results exactly and skip the check.
    """

    rotation: np.ndarray
    translation: np.ndarray
    from_frame: str
    to_frame: str

    def __post_init__(self):
        object.__setattr__(self, "rotation", check_rotation(self.rotation))
        t = check_translation(np.asarray(self.translation, dtype=float).reshape(3))
        object.__setattr__(self, "translation", t)

    @classmethod
    def _unchecked(cls, rotation, translation, from_frame: str, to_frame: str) -> "Pose":
        """A Pose of library-derived float arrays, stored as they are."""
        pose = object.__new__(cls)
        pose.__dict__.update(
            rotation=rotation, translation=translation, from_frame=from_frame, to_frame=to_frame
        )
        return pose


def check_adjacent(expects: str, produces: str):
    """Raise unless a transform from frame ``expects`` can follow one to ``produces``."""
    if expects != produces:
        raise ValueError(f"cannot compose: left transform expects frame '{expects}' "
                         f"but right transform produces frame '{produces}'")


def compose(a: Pose, b: Pose) -> Pose:
    """Chain two transforms: the result maps ``b.from_frame`` to ``a.to_frame``."""
    check_adjacent(a.from_frame, b.to_frame)
    return Pose._unchecked(
        a.rotation @ b.rotation,
        a.rotation @ b.translation + a.translation,
        b.from_frame,
        a.to_frame,
    )


def inverse_of(rotation: np.ndarray, translation: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``invert``'s rotation ``R.T`` and translation ``-R.T @ t``, with no Pose."""
    rt = rotation.T
    return rt, -rt @ translation


def invert(p: Pose) -> Pose:
    """Inverse transform, mapping ``to_frame`` back to ``from_frame``."""
    return Pose._unchecked(*inverse_of(p.rotation, p.translation), p.to_frame, p.from_frame)


@dataclass(frozen=True)
class AngleAxis:
    """Rotation as a unit axis and an angle in [0, pi].

    The zero rotation is canonicalized to axis (0, 0, 1). At angle pi, where
    the axis sign is ambiguous, the first nonzero axis component is positive.
    """

    axis: np.ndarray
    angle: float

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float).reshape(3)
        angle = float(self.angle)
        if angle < 0.0 or angle > math.pi + 1e-12:
            raise ValueError(f"angle must lie in [0, pi], got {angle}")
        if angle > _ZERO_ANGLE_EPS:
            n = vector_norm(axis)
            if abs(n - 1.0) > 1e-9:
                raise ValueError(f"axis must be a unit vector, norm was {n}")
        else:
            axis = np.array([0.0, 0.0, 1.0])
            angle = 0.0
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "angle", angle)

    def as_vector(self) -> np.ndarray:
        return self.axis * self.angle


def angle_axis_to_rotation(aa: AngleAxis) -> np.ndarray:
    """Rodrigues formula: R = I + sin(t) K + (1 - cos(t)) K^2."""
    k = np.array(
        [
            [0.0, -aa.axis[2], aa.axis[1]],
            [aa.axis[2], 0.0, -aa.axis[0]],
            [-aa.axis[1], aa.axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(aa.angle) * k + (1.0 - math.cos(aa.angle)) * (k @ k)


def rotation_to_angle_axis(r: np.ndarray) -> AngleAxis:
    """Angle-axis extraction with a dedicated branch for angles near pi."""
    axis, angle = _axis_angle(check_rotation(r))
    return AngleAxis(np.array(axis), angle)


def _axis_angle(r: np.ndarray) -> tuple[list, float]:
    """``rotation_to_angle_axis`` of a checked float rotation, as the axis's
    three floats and the angle. The norm is numpy's ``dot``, which rounds
    differently from a written-out sum; the rest is elementwise."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r.tolist()
    angle = math.acos(min(1.0, max(-1.0, (r00 + r11 + r22 - 1.0) / 2.0)))
    if angle <= _ZERO_ANGLE_EPS:
        return [0.0, 0.0, 1.0], 0.0
    if math.pi - angle < _PI_ANGLE_EPS:
        # Near pi the skew part vanishes; recover the axis from (R + I)/2,
        # whose diagonal is axis_i^2 and whose rows fix the relative signs.
        b = (r + np.eye(3)) / 2.0
        k = int(np.argmax(np.diag(b)))
        axis = b[k] / math.sqrt(max(b[k, k], 1e-300))
        axis = axis / vector_norm(axis)
        for component in axis:
            if abs(component) > 1e-9:
                if component < 0.0:
                    axis = -axis
                break
        return axis.tolist(), angle
    s = 2.0 * math.sin(angle)
    axis = [(r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    n = vector_norm(np.array(axis))
    if n == 0.0:  # a symmetric matrix away from pi is the identity; the angle was rounding
        return [0.0, 0.0, 1.0], 0.0
    return [a / n for a in axis], angle


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics plus the camera frame period in seconds."""

    fx: Positive
    fy: Positive
    cx: Positive
    cy: Positive
    width: PositiveInt
    height: PositiveInt
    frame_period: Positive

    def __post_init__(self):
        check_fields(self)
        if self.cx >= self.width:
            raise ValueError(f"principal point cx={self.cx} outside (0, {self.width})")
        if self.cy >= self.height:
            raise ValueError(f"principal point cy={self.cy} outside (0, {self.height})")
        object.__setattr__(self, "_full_fov", 2.0 * fov_half_angle(self))  # once, not per frame
        if not self._full_fov < math.pi:
            raise ValueError(f"field of view must be below pi, got fx={self.fx}, fy={self.fy}")


@dataclass(frozen=True)
class OutOfView:
    """Projection failure value; ``reason`` is 'behind-camera' or 'outside-frame'."""

    reason: str


def project_point(point_in_camera: np.ndarray, k: CameraIntrinsics):
    """Project a camera-frame point to a pixel, or report why it is not visible.

    Returns an (u, v) tuple for points with positive depth landing inside
    [0, width] x [0, height], otherwise an OutOfView value.
    """
    p = np.asarray(point_in_camera, dtype=float).reshape(3)
    if p[2] <= 0.0:
        return OutOfView("behind-camera")
    u = k.fx * p[0] / p[2] + k.cx
    v = k.fy * p[1] / p[2] + k.cy
    if u < 0.0 or u > k.width or v < 0.0 or v > k.height:
        return OutOfView("outside-frame")
    return (u, v)


def fov_half_angle(k: CameraIntrinsics) -> float:
    """Half field of view of the limiting image axis.

    Using the min over axes guarantees that a centered square of the
    corresponding angular extent fits in both image dimensions.
    """
    return min(
        math.atan(k.width / (2.0 * k.fx)),
        math.atan(k.height / (2.0 * k.fy)),
    )
