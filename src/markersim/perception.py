"""Detector stand-in: turns true geometry plus the displayed configuration into
pose estimates, without doing any image processing.

The estimate is computed against the detector's *believed* configuration, so
when display and detector disagree the output is systematically wrong in
exactly the way a real pipeline would be: an isotropic size change scales the
estimated translation by believed_size / displayed_size (shrink the marker
without telling the detector and it reports the camera farther away), and a
family change yields no detection at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, Pose, invert, rot_z, vector_norm
from .marker import MarkerConfig, board_corners


@dataclass(frozen=True)
class DetectorParams:
    """What the detector currently believes is on the screen."""

    believed_config: MarkerConfig
    intrinsics: CameraIntrinsics


@dataclass(frozen=True)
class NoDetection:
    """Detection failure value.

    reason is one of: out-of-range, too-small, out-of-view, family-mismatch.
    """

    reason: str


@dataclass(frozen=True)
class PoseEstimate:
    """Estimated marker-to-camera transform with provenance.

    ``yaw`` is None when the displayed family cannot observe it.
    ``computed_against`` is the config_id of the believed configuration the
    detector used, which need not match what was actually displayed.
    """

    relative_pose: Pose
    yaw: float | None
    computed_against: int
    capture_time: float
    position_sigma: float


def relative_yaw(rotation_marker_to_camera: np.ndarray) -> float:
    """Heading of the camera about the marker normal.

    For a downward camera over a flat marker the marker-to-camera rotation
    factors as R = Rx(pi) @ Rz(-yaw); this reads the yaw back out and degrades
    gracefully for small tilts.
    """
    r = np.asarray(rotation_marker_to_camera, dtype=float)
    return math.atan2(r[0, 1], r[0, 0])


def strip_yaw(rotation_marker_to_camera: np.ndarray) -> np.ndarray:
    """Replace the yaw component of a marker-to-camera rotation with zero."""
    return rotation_marker_to_camera @ rot_z(relative_yaw(rotation_marker_to_camera))


# Each corner's neighbour along the cell outline.
_NEXT_CORNER = np.array([1, 2, 3, 0])


def _project_board(true_pose: Pose, corners: np.ndarray, k: CameraIntrinsics):
    """Project every cell of a board, given as its corner array
    (``marker.board_corners``).

    Returns (visible, footprint_px) for the cells with all four corners in
    front of the camera; cells with any corner at or behind it are left out.
    A cell is visible when every corner lands inside the image, and its
    footprint is its longest projected edge in pixels.
    """
    cam = true_pose.rotation @ corners + true_pose.translation[:, None]
    x, y, z = cam.reshape(3, -1, 4)
    behind = z <= 0.0
    if behind.any():
        front = ~behind.any(axis=1)
        x, y, z = x[front], y[front], z[front]
    # Footprint is a size measure, so keep the unclamped pinhole pixel.
    u = k.fx * x / z + k.cx
    v = k.fy * y / z + k.cy
    outside = (u < 0.0) | (u > k.width) | (v < 0.0) | (v > k.height)
    du = u - u[:, _NEXT_CORNER]
    dv = v - v[:, _NEXT_CORNER]
    with np.errstate(over="ignore"):
        edges = np.sqrt(du * du + dv * dv)
    if not np.isfinite(edges).all():  # the squares overflowed; hypot does not
        huge = ~np.isfinite(edges)
        edges[huge] = np.hypot(du[huge], dv[huge])
    return ~outside.any(axis=1), edges.max(axis=1)


def pixel_footprint(true_pose: Pose, marker_size: float, k: CameraIntrinsics) -> float:
    """Projected edge length in pixels of a centered square marker.

    Max over the four edges; for a fronto-parallel marker this equals
    fx * marker_size / distance. Raises if the marker is behind the camera.
    """
    if marker_size < 0:
        raise ValueError(f"marker_size must be >= 0, got {marker_size}")
    if marker_size == 0.0:
        if true_pose.translation[2] <= 0.0:
            raise ValueError("marker is behind the camera")
        return 0.0
    corners = board_corners(np.array([[0.0, 0.0, marker_size]]))
    _, footprint = _project_board(true_pose, corners, k)
    if not footprint.size:
        raise ValueError("marker is behind the camera")
    return float(footprint[0])


def simulate_detection(
    true_pose: Pose,
    displayed: MarkerConfig,
    detector: DetectorParams,
    rng: np.random.Generator,
    capture_time: float = 0.0,
):
    """Simulate one detection attempt against the displayed configuration.

    ``true_pose`` maps the marker frame to the camera frame. Gates are applied
    in order: detection range of the displayed family, per-cell pixel
    footprint, per-cell visibility, then family agreement between display and
    detector. Position noise shrinks with the number of usable board cells as
    1/sqrt(n) (independent-measurement fusion).

    Returns a PoseEstimate or a NoDetection. With a fixed rng state the result
    is bit-reproducible; noise draws happen in a fixed order (position, then
    yaw when applicable).
    """
    family = displayed.family
    t_true = true_pose.translation
    distance = vector_norm(t_true)
    if distance > family.max_detection_range:
        return NoDetection("out-of-range")

    visible, footprints = _project_board(true_pose, displayed._corners, detector.intrinsics)
    usable = int(np.count_nonzero(visible & (footprints >= family.min_pixel_footprint)))
    if usable == 0:
        if footprints.size and (footprints < family.min_pixel_footprint).all():
            return NoDetection("too-small")
        return NoDetection("out-of-view")

    believed = detector.believed_config
    if believed.family.kind is not family.kind:
        return NoDetection("family-mismatch")

    scale = believed.marker_size / displayed.marker_size
    sigma = family.position_noise.sigma_at(distance) / math.sqrt(usable)
    t_est = t_true * scale + rng.normal(size=3) * sigma

    yaw_true = relative_yaw(true_pose.rotation)
    if family.yields_yaw:
        yaw_sigma = family.yaw_noise.sigma_at(distance) if family.yaw_noise else 0.0
        delta = float(rng.normal()) * yaw_sigma
        r_est = true_pose.rotation @ rot_z(-delta)
        yaw_est = yaw_true + delta
    else:
        r_est = strip_yaw(true_pose.rotation)
        yaw_est = None

    return PoseEstimate(
        relative_pose=Pose(r_est, t_est, true_pose.from_frame, true_pose.to_frame),
        yaw=yaw_est,
        computed_against=believed.config_id,
        capture_time=capture_time,
        position_sigma=sigma,
    )


def camera_position_in_marker(estimate: PoseEstimate) -> np.ndarray:
    """Camera origin expressed in the marker frame, per the estimate."""
    return invert(estimate.relative_pose).translation
