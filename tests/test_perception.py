import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markersim.geometry import (
    CameraIntrinsics,
    OutOfView,
    Pose,
    project_point,
    rot_x,
    rot_y,
    rot_z,
)
from markersim.marker import (
    MarkerConfig,
    MarkerFamily,
    NoiseProfile,
    Screen,
    board_layout,
)
from markersim.perception import (
    DetectorParams,
    NoDetection,
    PoseEstimate,
    pixel_footprint,
    relative_yaw,
    simulate_detection,
    strip_yaw,
)

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480,
                     frame_period=1 / 30)


def overhead_pose(h: float, yaw: float = 0.0) -> Pose:
    """Marker-to-camera pose for a camera hovering h meters above, yawed."""
    return Pose(rot_x(math.pi) @ rot_z(-yaw), [0.0, 0.0, h], "marker", "camera")


def quiet(family: MarkerFamily) -> MarkerFamily:
    """Family copy with all noise zeroed."""
    yaw_noise = NoiseProfile(0.0, 0.0) if family.yaw_noise is not None else None
    return replace(family, position_noise=NoiseProfile(0.0, 0.0), yaw_noise=yaw_noise)


FULL = quiet(MarkerFamily.full_pose_default())
LONG = quiet(MarkerFamily.long_range_default())


def single(family, size, config_id=0, limit=2.0):
    return MarkerConfig.single(config_id, family, size, limit)


def detector_for(config):
    return DetectorParams(believed_config=config, intrinsics=K)


class TestPixelFootprint:
    def test_fronto_parallel_formula(self):
        # fx * size / h = 500 * 0.15 / 1.5
        assert pixel_footprint(overhead_pose(1.5), 0.15, K) == pytest.approx(50.0, abs=1e-9)

    def test_inverse_distance_scaling(self):
        assert pixel_footprint(overhead_pose(3.0), 0.15, K) == pytest.approx(25.0, abs=1e-9)

    def test_degenerate_marker(self):
        assert pixel_footprint(overhead_pose(1.0), 0.0, K) == 0.0

    def test_behind_camera_rejected(self):
        behind = Pose(rot_x(math.pi), [0.0, 0.0, -1.0], "marker", "camera")
        with pytest.raises(ValueError, match="behind"):
            pixel_footprint(behind, 0.15, K)

    def test_huge_focal_length_gives_a_finite_footprint_without_warning(self):
        # Edges past ~1.3e154 px overflow their squares.
        k = replace(K, fx=1.74e307, fy=1.74e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            footprint = pixel_footprint(overhead_pose(1.5), 0.15, k)
        assert footprint == pytest.approx(1.74e307 * 0.15 / 1.5, rel=1e-12)


class TestDetectionGates:
    def test_full_pose_out_of_range(self):
        cfg = single(FULL, 1.0)
        res = simulate_detection(overhead_pose(5.0), cfg, detector_for(cfg),
                                 np.random.default_rng(0))
        assert isinstance(res, NoDetection) and res.reason == "out-of-range"

    def test_too_small(self):
        cfg = single(FULL, 0.05)  # 500*0.05/4.0 = 6.25 px < 20
        res = simulate_detection(overhead_pose(4.0), cfg, detector_for(cfg),
                                 np.random.default_rng(0))
        assert isinstance(res, NoDetection) and res.reason == "too-small"

    def test_out_of_view_when_too_close(self):
        cfg = single(FULL, 1.0)
        # half extent projects to 500*0.5/0.5 = 500 px > 320
        res = simulate_detection(overhead_pose(0.5), cfg, detector_for(cfg),
                                 np.random.default_rng(0))
        assert isinstance(res, NoDetection) and res.reason == "out-of-view"

    def test_family_mismatch(self):
        displayed = single(LONG, 0.5)
        believed = single(FULL, 0.5)
        res = simulate_detection(overhead_pose(2.0), displayed, detector_for(believed),
                                 np.random.default_rng(0))
        assert isinstance(res, NoDetection) and res.reason == "family-mismatch"

    def test_detection_monotone_in_distance(self):
        cfg = single(FULL, 0.5)
        det = detector_for(cfg)
        rng = np.random.default_rng(0)
        detected = [
            isinstance(simulate_detection(overhead_pose(h), cfg, det, rng), PoseEstimate)
            for h in np.linspace(1.0, 6.0, 40)
        ]
        # once detection fails going up in distance it never comes back
        first_fail = detected.index(False) if False in detected else len(detected)
        assert all(detected[:first_fail]) and not any(detected[first_fail:])


class TestEstimates:
    def test_noiseless_matched_estimate_is_exact(self):
        cfg = single(FULL, 0.5)
        true = overhead_pose(2.0, yaw=0.3)
        est = simulate_detection(true, cfg, detector_for(cfg), np.random.default_rng(0))
        assert isinstance(est, PoseEstimate)
        np.testing.assert_allclose(est.relative_pose.translation, true.translation, atol=1e-9)
        np.testing.assert_allclose(est.relative_pose.rotation, true.rotation, atol=1e-9)
        assert est.yaw == pytest.approx(0.3, abs=1e-9)
        assert est.computed_against == 0

    def test_halved_display_doubles_estimated_height(self):
        believed = single(FULL, 0.15, config_id=1)
        displayed = single(FULL, 0.075, config_id=2)
        est = simulate_detection(overhead_pose(1.0), displayed, detector_for(believed),
                                 np.random.default_rng(0))
        assert isinstance(est, PoseEstimate)
        assert est.relative_pose.translation[2] == pytest.approx(2.0, abs=1e-9)
        assert est.computed_against == 1

    def test_stale_scale_factor_is_believed_over_displayed(self):
        believed = single(FULL, 0.3, config_id=1)
        displayed = single(FULL, 0.2, config_id=2)
        true = Pose(rot_x(math.pi), [0.1, -0.2, 1.5], "marker", "camera")
        est = simulate_detection(true, displayed, detector_for(believed),
                                 np.random.default_rng(0))
        np.testing.assert_allclose(
            est.relative_pose.translation, np.array([0.1, -0.2, 1.5]) * 1.5, atol=1e-9
        )

    def test_long_range_family_gives_no_yaw_and_strips_rotation(self):
        cfg = single(LONG, 0.5)
        true = overhead_pose(2.0, yaw=0.7)
        est = simulate_detection(true, cfg, detector_for(cfg), np.random.default_rng(0))
        assert est.yaw is None
        # stripped rotation still maps the marker normal correctly
        np.testing.assert_allclose(est.relative_pose.rotation, rot_x(math.pi), atol=1e-9)
        assert relative_yaw(est.relative_pose.rotation) == pytest.approx(0.0, abs=1e-9)

    def test_reproducible_with_fixed_seed(self):
        fam = MarkerFamily.full_pose_default()  # noisy
        cfg = single(fam, 0.5)
        det = detector_for(cfg)
        a = simulate_detection(overhead_pose(2.0), cfg, det, np.random.default_rng(7))
        b = simulate_detection(overhead_pose(2.0), cfg, det, np.random.default_rng(7))
        assert np.array_equal(a.relative_pose.translation, b.relative_pose.translation)
        assert a.yaw == b.yaw

    def test_board_divides_noise_by_sqrt_cells(self):
        fam = MarkerFamily.full_pose_default(sigma_at_1m=0.02)
        screen = Screen(0.15, 0.15)
        board = MarkerConfig(
            config_id=0,
            family=fam,
            marker_size=0.04,
            board=board_layout(screen, 0.04, gap_fraction=0.1),
            screen_limit=0.15,
        )
        assert board.n_cells == 9
        est = simulate_detection(overhead_pose(0.5), board, detector_for(board),
                                 np.random.default_rng(0))
        assert isinstance(est, PoseEstimate)
        assert est.position_sigma == pytest.approx(0.02 * 0.5 / 3.0, abs=1e-12)

        # the reported sigma is the sigma actually applied
        rng = np.random.default_rng(123)
        zs = [
            simulate_detection(overhead_pose(0.5), board, detector_for(board), rng)
            .relative_pose.translation[2]
            for _ in range(3000)
        ]
        assert np.std(zs) == pytest.approx(est.position_sigma, rel=0.1)

    def test_capture_time_passthrough(self):
        cfg = single(FULL, 0.5)
        est = simulate_detection(overhead_pose(2.0), cfg, detector_for(cfg),
                                 np.random.default_rng(0), capture_time=12.5)
        assert est.capture_time == 12.5


# Scalar reference: the detector evaluated one cell at a time, each corner
# through geometry.project_point.


def reference_project_cell(true_pose, cell, k):
    """Project one cell; returns (fully_visible, footprint_px or None)."""
    center_x, center_y, size = cell
    h = size / 2.0
    corners = np.array(
        [
            [center_x - h, center_y - h, 0.0],
            [center_x + h, center_y - h, 0.0],
            [center_x + h, center_y + h, 0.0],
            [center_x - h, center_y + h, 0.0],
        ]
    )
    corners_cam = (true_pose.rotation @ corners.T).T + true_pose.translation
    if np.any(corners_cam[:, 2] <= 0.0):
        return False, None
    pixels = []
    visible = True
    for corner in corners_cam:
        if isinstance(project_point(corner, k), OutOfView):
            visible = False
        pixels.append((k.fx * corner[0] / corner[2] + k.cx, k.fy * corner[1] / corner[2] + k.cy))
    px = np.asarray(pixels)
    edges = np.linalg.norm(px - np.roll(px, -1, axis=0), axis=1)
    return visible, float(edges.max())


def reference_detection(true_pose, displayed, detector, rng, capture_time=0.0):
    """Returns (result, usable cell count or None before the cell gates)."""
    family = displayed.family
    t_true = true_pose.translation
    distance = float(np.linalg.norm(t_true))
    if distance > family.max_detection_range:
        return NoDetection("out-of-range"), None
    footprints = []
    usable = 0
    for cell in displayed.board:
        visible, footprint = reference_project_cell(true_pose, cell, detector.intrinsics)
        footprints.append(footprint)
        if visible and footprint is not None and footprint >= family.min_pixel_footprint:
            usable += 1
    if usable == 0:
        numeric = [f for f in footprints if f is not None]
        if numeric and all(f < family.min_pixel_footprint for f in numeric):
            return NoDetection("too-small"), 0
        return NoDetection("out-of-view"), 0
    believed = detector.believed_config
    if believed.family.kind is not family.kind:
        return NoDetection("family-mismatch"), usable
    scale = believed.marker_size / displayed.marker_size
    sigma = family.position_noise.sigma_at(distance) / math.sqrt(usable)
    t_est = t_true * scale + rng.normal(size=3) * sigma
    if family.yields_yaw:
        yaw_sigma = family.yaw_noise.sigma_at(distance) if family.yaw_noise else 0.0
        delta = float(rng.normal()) * yaw_sigma
        r_est = true_pose.rotation @ rot_z(-delta)
        yaw_est = relative_yaw(true_pose.rotation) + delta
    else:
        r_est = strip_yaw(true_pose.rotation)
        yaw_est = None
    estimate = PoseEstimate(
        relative_pose=Pose(r_est, t_est, true_pose.from_frame, true_pose.to_frame),
        yaw=yaw_est,
        computed_against=believed.config_id,
        capture_time=capture_time,
        position_sigma=sigma,
    )
    return estimate, usable


@st.composite
def camera_poses(draw):
    """Marker-to-camera pose of a camera 0.05-5 m above the marker plane,
    offset laterally, tilted up to 30 degrees and at any yaw."""
    h = draw(st.floats(0.05, 5.0))
    ox = draw(st.floats(-1.0, 1.0))
    oy = draw(st.floats(-1.0, 1.0))
    tilt = math.radians(30.0)
    rotation = (
        rot_x(draw(st.floats(-tilt, tilt)))
        @ rot_y(draw(st.floats(-tilt, tilt)))
        @ rot_x(math.pi)
        @ rot_z(-draw(st.floats(-math.pi, math.pi)))
    )
    return Pose(rotation, -rotation @ np.array([ox, oy, h]), "marker", "camera")


@st.composite
def boards(draw):
    kind = draw(st.sampled_from(["single", "grid", "scattered"]))
    if kind == "single":
        return ((0.0, 0.0, draw(st.floats(0.005, 1.0))),)
    if kind == "grid":
        # At most 32 x 32 cells: the screen holds nx + 0.5 pitches per axis.
        size = draw(st.floats(0.002, 0.3))
        gap = draw(st.floats(0.0, 0.5))
        pitch = size * (1.0 + gap)
        nx, ny = draw(st.integers(1, 32)), draw(st.integers(1, 32))
        return board_layout(Screen((nx + 0.5) * pitch, (ny + 0.5) * pitch), size, gap)
    # Cells on a 0.3 m lattice reaching 0.9 m out: low and tilted cameras
    # see some of them behind the camera or outside the frame.
    sites = draw(
        st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
            min_size=1,
            max_size=20,
            unique=True,
        )
    )
    return tuple(
        (i * 0.3, j * 0.3, draw(st.floats(0.01, 0.3))) for i, j in sites
    )


class TestBoardProjectionMatchesScalarReference:
    @given(
        pose=camera_poses(),
        board=boards(),
        long_range=st.booleans(),
        same_family=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_gate_and_bit_equal_estimate(self, pose, board, long_range, same_family, seed):
        noisy = (MarkerFamily.long_range_default() if long_range
                 else MarkerFamily.full_pose_default())
        other = (MarkerFamily.full_pose_default() if long_range
                 else MarkerFamily.long_range_default())
        size = max(cell[2] for cell in board)
        displayed = MarkerConfig(0, noisy, size, board, screen_limit=2.0)
        believed = single(noisy if same_family else other, 0.5, config_id=3)
        det = detector_for(believed)

        expected, usable = reference_detection(
            pose, displayed, det, np.random.default_rng(seed), capture_time=1.5
        )
        got = simulate_detection(pose, displayed, det, np.random.default_rng(seed),
                                 capture_time=1.5)

        assert type(got) is type(expected)
        if isinstance(expected, NoDetection):
            assert got.reason == expected.reason
            return
        assert got.position_sigma == expected.position_sigma
        assert got.position_sigma == (
            noisy.position_noise.sigma_at(float(np.linalg.norm(pose.translation)))
            / math.sqrt(usable)
        )
        assert np.array_equal(got.relative_pose.translation, expected.relative_pose.translation)
        assert np.array_equal(got.relative_pose.rotation, expected.relative_pose.rotation)
        assert got.yaw == expected.yaw
        assert got.computed_against == expected.computed_against == 3
        assert got.capture_time == expected.capture_time

    @given(pose=camera_poses(), size=st.floats(0.005, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_pixel_footprint_matches_reference(self, pose, size):
        _, expected = reference_project_cell(pose, (0.0, 0.0, size), K)
        if expected is None:
            with pytest.raises(ValueError, match="behind"):
                pixel_footprint(pose, size, K)
        else:
            assert pixel_footprint(pose, size, K) == expected
