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

from .geometry import CameraIntrinsics, Pose, check_translation, rot_z, vector_norm
from .marker import MarkerConfig


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

    @classmethod
    def _of(cls, relative_pose, yaw, computed_against, capture_time, position_sigma):
        """An estimate of library-derived values, stored as they are, as ``Pose._unchecked`` does."""
        estimate = object.__new__(cls)
        estimate.__dict__.update(relative_pose=relative_pose, yaw=yaw, computed_against=computed_against,
                                 capture_time=capture_time, position_sigma=position_sigma)
        return estimate


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
    # Footprint is a size measure, so keep the unclamped pinhole pixel, even an overflowing one.
    with np.errstate(over="ignore", invalid="ignore"):
        u = k.fx * x / z + k.cx
        v = k.fy * y / z + k.cy
        du = u - u[:, _NEXT_CORNER]
        dv = v - v[:, _NEXT_CORNER]
        edges = np.sqrt(du * du + dv * dv)
    outside = (u < 0.0) | (u > k.width) | (v < 0.0) | (v > k.height)
    if not np.isfinite(edges).all():  # the squares overflowed; hypot does not
        huge = ~np.isfinite(edges)
        edges[huge] = np.hypot(du[huge], dv[huge])
    return ~outside.any(axis=1), edges.max(axis=1)


def _usable_cells(true_pose: Pose, displayed: MarkerConfig, k: CameraIntrinsics,
                  min_footprint: float):
    """Count the displayed board's usable cells: all four corners in front of
    the camera and inside the image, and a footprint of at least
    ``min_footprint`` pixels. With none usable, return the NoDetection that
    says why: too-small when every cell in front of the camera is too small,
    out-of-view otherwise.

    A plain marker (one cell) is gated in straight-line float code, saving numpy's
    fixed cost per call on four corners. Only ``rotation @ corners`` stays in numpy,
    as in ``_project_board``: written-out sums round differently. Each later step, adding
    the translation too, rounds correctly elementwise: the gate has the board's bits. A cell
    with an edge that overflows or is NaN goes to ``_project_board``, whose hypot
    fallback is the one overflow rule; all four edges are tested before ``max``,
    whose result over a NaN depends on argument order.
    """
    corners = displayed._corners
    if displayed.n_cells == 1:
        (x0, x1, x2, x3), (y0, y1, y2, y3), (z0, z1, z2, z3) = (true_pose.rotation @ corners).tolist()
        tx, ty, tz = true_pose.translation.tolist()
        x0, x1, x2, x3 = x0 + tx, x1 + tx, x2 + tx, x3 + tx
        y0, y1, y2, y3 = y0 + ty, y1 + ty, y2 + ty, y3 + ty
        z0, z1, z2, z3 = z0 + tz, z1 + tz, z2 + tz, z3 + tz
        if z0 <= 0.0 or z1 <= 0.0 or z2 <= 0.0 or z3 <= 0.0:
            return NoDetection("out-of-view")
        fx, fy, cx, cy = k.fx, k.fy, k.cx, k.cy
        u0, u1, u2, u3 = fx * x0 / z0 + cx, fx * x1 / z1 + cx, fx * x2 / z2 + cx, fx * x3 / z3 + cx
        v0, v1, v2, v3 = fy * y0 / z0 + cy, fy * y1 / z1 + cy, fy * y2 / z2 + cy, fy * y3 / z3 + cy
        e0 = math.sqrt((u0 - u1) * (u0 - u1) + (v0 - v1) * (v0 - v1))
        e1 = math.sqrt((u1 - u2) * (u1 - u2) + (v1 - v2) * (v1 - v2))
        e2 = math.sqrt((u2 - u3) * (u2 - u3) + (v2 - v3) * (v2 - v3))
        e3 = math.sqrt((u3 - u0) * (u3 - u0) + (v3 - v0) * (v3 - v0))
        if math.isfinite(e0) and math.isfinite(e1) and math.isfinite(e2) and math.isfinite(e3):
            if max(e0, e1, e2, e3) < min_footprint:
                return NoDetection("too-small")
            w, h = float(k.width), float(k.height)  # numpy compares with an integer size's float
            inside = (0.0 <= u0 <= w and 0.0 <= u1 <= w and 0.0 <= u2 <= w and 0.0 <= u3 <= w
                      and 0.0 <= v0 <= h and 0.0 <= v1 <= h and 0.0 <= v2 <= h and 0.0 <= v3 <= h)
            return 1 if inside else NoDetection("out-of-view")
    visible, footprints = _project_board(true_pose, corners, k)
    usable = int(np.count_nonzero(visible & (footprints >= min_footprint)))
    if usable == 0:
        if footprints.size and (footprints < min_footprint).all():
            return NoDetection("too-small")
        return NoDetection("out-of-view")
    return usable


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
    distance = vector_norm(true_pose.translation)
    if distance > family.max_detection_range:
        return NoDetection("out-of-range")

    usable = _usable_cells(true_pose, displayed, detector.intrinsics, family.min_pixel_footprint)
    if isinstance(usable, NoDetection):
        return usable

    believed = detector.believed_config
    if believed.family.kind is not family.kind:
        return NoDetection("family-mismatch")

    scale = believed.marker_size / displayed.marker_size
    sigma = family.position_noise.sigma_at(distance) / math.sqrt(usable)
    nx, ny, nz, *yaw_draw = rng.normal(size=4 if family.yields_yaw else 3).tolist()  # = size 3, then 1
    tx, ty, tz = true_pose.translation.tolist()
    t_est = check_translation((tx * scale + nx * sigma, ty * scale + ny * sigma, tz * scale + nz * sigma))

    if family.yields_yaw:
        delta = yaw_draw[0] * (family.yaw_noise.sigma_at(distance) if family.yaw_noise else 0.0)
        r_est = true_pose.rotation @ rot_z(-delta)
        yaw_est = relative_yaw(true_pose.rotation) + delta
    else:
        r_est = strip_yaw(true_pose.rotation)
        yaw_est = None

    return PoseEstimate._of(
        Pose._unchecked(r_est, np.array(t_est), true_pose.from_frame, true_pose.to_frame),
        yaw_est, believed.config_id, capture_time, sigma)
