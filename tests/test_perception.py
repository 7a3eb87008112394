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
    rot_z,
)
from markersim.marker import (
    MarkerConfig,
    MarkerFamily,
    NoiseProfile,
    Screen,
    board_corners,
    board_layout,
)
from markersim.perception import (
    DetectorParams,
    NoDetection,
    PoseEstimate,
    _project_board,
    _usable_cells,
    relative_yaw,
    simulate_detection,
    strip_yaw,
)

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480,
                     frame_period=1 / 30)


def rot_y(angle: float) -> np.ndarray:
    """Reference rotation about the y axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def pixel_footprint(true_pose: Pose, marker_size: float, k: CameraIntrinsics) -> float:
    """Projected edge length in pixels of a centered square marker, through
    the detector's board projection; raises if it is behind the camera."""
    if marker_size == 0.0:
        if true_pose.translation[2] <= 0.0:
            raise ValueError("marker is behind the camera")
        return 0.0
    _, footprint = _project_board(true_pose, board_corners(np.array([[0.0, 0.0, marker_size]])), k)
    if not footprint.size:
        raise ValueError("marker is behind the camera")
    return float(footprint[0])


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


class InfiniteNoise:
    """A noise source whose every draw is +inf."""

    def normal(self, size=None):
        return np.full(size, np.inf) if size is not None else np.inf


class TestNonFiniteEstimateRejected:
    """The estimate's translation takes outside values (noise draws, the
    believed/displayed size ratio), so it is checked as a Pose would be."""

    def test_infinite_position_noise(self):
        cfg = single(MarkerFamily.long_range_default(), 0.5)
        with pytest.raises(ValueError, match="translation has non-finite components"):
            simulate_detection(overhead_pose(2.0), cfg, detector_for(cfg), InfiniteNoise())

    def test_overflowing_size_ratio(self):
        # 1e9 m believed over 1e-300 m displayed; fx puts the tiny cell at 100 px.
        believed = single(FULL, 1e9, config_id=1, limit=1e9)
        detector = DetectorParams(believed, replace(K, fx=1e302, fy=1e302))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="translation has non-finite components"
        ):
            simulate_detection(overhead_pose(1.0), single(FULL, 1e-300), detector,
                               np.random.default_rng(0))


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


def assert_plain_gate_is_the_board_gate(pose, size, k):
    """The one-cell float gate of a plain marker agrees with _project_board:
    the same empty result when a corner is at or behind the camera, the same
    visible flag, and the same footprint to the bit, pinned by floors at the
    board footprint and at the next float above it."""
    cfg = single(FULL, size)
    visible, footprints = _project_board(pose, cfg._corners, k)
    if not footprints.size:
        for floor in (1.0, math.inf):
            assert _usable_cells(pose, cfg, k, floor) == NoDetection("out-of-view")
        return
    footprint = float(footprints[0])
    for floor in (footprint, math.nextafter(footprint, math.inf)):
        if footprint < floor:
            expected = NoDetection("too-small")
        else:
            expected = 1 if visible[0] else NoDetection("out-of-view")
        assert _usable_cells(pose, cfg, k, floor) == expected


class TestPlainMarkerGateMatchesBoardProjection:
    @given(pose=camera_poses(), size=st.floats(0.005, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_the_board_projection(self, pose, size):
        assert_plain_gate_is_the_board_gate(pose, size, K)

    def test_cell_partly_out_of_frame(self):
        # The cell's left edge projects to u = 445 px, inside the 640 px
        # image, and its right edge to u = 695 px, outside it.
        pose = Pose(rot_x(math.pi), [0.5, 0.0, 1.0], "marker", "camera")
        visible, footprints = _project_board(pose, single(FULL, 0.5)._corners, K)
        assert not visible[0] and footprints[0] == pytest.approx(250.0)
        assert_plain_gate_is_the_board_gate(pose, 0.5, K)

    @pytest.mark.parametrize("width, inside", [(445, True), (444, False)])
    def test_corner_on_the_image_border(self, width, inside):
        # Overhead at 1 m, the 0.5 m cell's right corners land on u = 445 px.
        k = replace(K, width=width)
        visible, _ = _project_board(overhead_pose(1.0), single(FULL, 0.5)._corners, k)
        assert visible[0] == inside
        assert_plain_gate_is_the_board_gate(overhead_pose(1.0), 0.5, k)

    def test_image_width_compares_as_a_float(self):
        # The right corners land on u = 2**53 + 16, the float nearest to the
        # width 2**53 + 15, so they are inside although the integer is smaller.
        k = replace(K, fx=2.0**50, fy=2.0**50, cx=2.0**53, width=2**53 + 15)
        visible, _ = _project_board(overhead_pose(1.0), single(FULL, 2.0**-45)._corners, k)
        assert visible[0]
        assert_plain_gate_is_the_board_gate(overhead_pose(1.0), 2.0**-45, k)

    def test_overflowing_edges_take_the_board_path(self):
        k = replace(K, fx=1.74e307, fy=1.74e307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_plain_gate_is_the_board_gate(overhead_pose(1.5), 0.15, k)

    def test_partly_overflowing_edges_take_the_board_path(self):
        # Camera z is the marker's x: corners 0 and 3 sit 1e-300 m in front of
        # the camera and corners 1 and 2 at 3e-300 m, all at camera x = 1 m.
        # The edges joining the two depths square past the float range, and
        # the two at one depth are 0, so only some edges are finite.
        permutation = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        pose = Pose(permutation, [1.0, 0.0, 2e-300], "marker", "camera")
        x, _, z = (pose.rotation @ single(FULL, 2e-300)._corners + pose.translation[:, None]).tolist()
        assert z == [1e-300, 3e-300, 3e-300, 1e-300]
        u = [K.fx * xi / zi + K.cx for xi, zi in zip(x, z)]
        squares = [(a - b) * (a - b) for a, b in zip(u, u[1:] + u[:1])]
        assert [math.isfinite(sq) for sq in squares] == [False, True, False, True]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_plain_gate_is_the_board_gate(pose, 2e-300, K)
