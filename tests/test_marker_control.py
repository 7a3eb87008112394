import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markersim.geometry import CameraIntrinsics, Pose, rot_x
from markersim.marker import FamilyKind, MarkerConfig, MarkerFamily, Screen
from markersim.marker_control import (
    SwitchPolicy,
    apply_update,
    bootstrap_config,
    select_marker,
)
from markersim.perception import DetectorParams, PoseEstimate

K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480,
                     frame_period=1 / 30)
SCREEN = Screen(0.15, 0.15)
POLICY = SwitchPolicy(1.2, 1.4, 0.5, 0.15)
LONG = MarkerFamily.long_range_default()
FULL = MarkerFamily.full_pose_default()


def estimate_at(distance: float) -> PoseEstimate:
    return PoseEstimate(
        relative_pose=Pose(rot_x(math.pi), [0.0, 0.0, distance], "marker", "camera"),
        yaw=None,
        computed_against=0,
        capture_time=0.0,
        position_sigma=0.0,
    )


def long_range_current(config_id=0):
    return bootstrap_config(LONG, SCREEN, config_id=config_id)


def full_pose_current(config_id=0, size=0.15):
    return MarkerConfig.single(config_id, FULL, size, 0.15)


def select(estimate, current, **kwargs):
    return select_marker(estimate, POLICY, K, SCREEN, current, LONG, FULL, **kwargs)


class TestFamilySelection:
    def test_far_keeps_long_range(self):
        assert select(estimate_at(2.0), long_range_current()) is None

    def test_far_switches_back_from_full_pose(self):
        new = select(estimate_at(2.0), full_pose_current())
        assert new.family.kind is FamilyKind.LONG_RANGE_POSITION_ONLY

    def test_close_switches_to_full_pose(self):
        new = select(estimate_at(1.0), long_range_current())
        assert new.family.kind is FamilyKind.SHORT_RANGE_FULL_POSE
        assert new.config_id == 1

    def test_hysteresis_band_keeps_current_family(self):
        assert select(estimate_at(1.3), full_pose_current()) is None
        assert select(estimate_at(1.3), long_range_current()) is None

    def test_tie_at_down_switch_keeps_current(self):
        # strict inequality: exactly 1.2 m is not "below 1.2"
        assert select(estimate_at(1.2), long_range_current()) is None

    def test_tie_at_up_switch_keeps_current(self):
        assert select(estimate_at(1.4), full_pose_current()) is None


class TestBootstrap:
    def test_no_estimate_no_current_emits_long_range_max(self):
        # the run starts from the bootstrap, before any estimate or command
        cfg = bootstrap_config(LONG, SCREEN)
        assert cfg.config_id == 0
        assert cfg.family.kind is FamilyKind.LONG_RANGE_POSITION_ONLY
        assert cfg.marker_size == pytest.approx(0.15)
        assert cfg.n_cells == 1

    def test_bootstrap_config_factory(self):
        cfg = bootstrap_config(LONG, Screen(0.3, 0.2), fill_factor=0.5)
        assert cfg.marker_size == pytest.approx(0.1)


class TestSizing:
    def test_sizes_clamped_to_screen(self):
        new = select(estimate_at(1.0), long_range_current())
        assert new.marker_size <= 0.15 + 1e-12

    def test_deadband_suppresses_small_rescale(self):
        # 2*h*tan(0.5*fov/2) with fov = 2*atan(0.48): size(h) ~ 0.4551*h;
        # h = 0.31 gives ~0.1411, a 6% step from 0.15 -> suppressed
        assert select(estimate_at(0.31), full_pose_current()) is None

    def test_large_rescale_commands_update(self):
        new = select(estimate_at(0.22), full_pose_current())
        assert new is not None
        assert new.marker_size < 0.15

    def test_board_fill_in_when_cells_fit(self):
        cfg = select(estimate_at(0.1), full_pose_current())
        assert cfg.family.kind is FamilyKind.SHORT_RANGE_FULL_POSE
        assert cfg.n_cells > 1
        assert cfg.marker_size == pytest.approx(cfg.board[0, 2])

    def test_family_change_overrides_deadband(self):
        # at 1.0 m the clamped size equals the current 0.15, but the family
        # differs, so a command is still issued
        new = select(estimate_at(1.0), long_range_current())
        assert new is not None
        assert new.marker_size == pytest.approx(0.15)

    @given(h=st.floats(0.01, 20.0))
    @settings(max_examples=150, deadline=None)
    def test_never_exceeds_screen_limit(self, h):
        new = select(estimate_at(h), full_pose_current())
        if new is not None:
            assert new.marker_size <= 0.15 + 1e-12

    def test_verbatim_size_rule_selectable(self):
        new = select(estimate_at(0.1), full_pose_current(), size_variant="verbatim")
        assert new is not None


class TestDescentProperties:
    def test_exactly_one_switch_under_noisy_descent(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            current = long_range_current()
            sigma = 0.05  # below half the 0.2 m hysteresis band
            switches = []
            for h in np.linspace(2.5, 0.05, 400):
                est = estimate_at(max(0.01, h + rng.normal() * sigma))
                new = select(est, current)
                if new is not None:
                    if new.family.kind is not current.family.kind:
                        switches.append(new.family.kind)
                    current = new
            assert switches == [FamilyKind.SHORT_RANGE_FULL_POSE]

    def test_sizes_non_increasing_in_noiseless_full_pose_descent(self):
        current = full_pose_current()
        sizes = [current.marker_size]
        for h in np.linspace(1.1, 0.05, 200):
            new = select(estimate_at(h), current)
            if new is not None:
                sizes.append(new.marker_size)
                current = new
        assert all(b <= a + 1e-12 for a, b in zip(sizes, sizes[1:]))
        assert len(sizes) > 3  # the scale rule actually engaged


class TestApplyUpdate:
    def detector(self, config_id=4):
        return DetectorParams(long_range_current(config_id), K)

    def test_in_order_update(self):
        config = long_range_current(5)
        updated = apply_update(self.detector(4), config)
        assert updated.believed_config is config

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="protocol violation"):
            apply_update(self.detector(4), long_range_current(6))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="protocol violation"):
            apply_update(self.detector(4), long_range_current(4))


class TestPolicyValidation:
    def test_inverted_band_rejected(self):
        with pytest.raises(ValueError):
            SwitchPolicy(1.4, 1.2, 0.5, 0.1)

    def test_scale_fraction_domain(self):
        with pytest.raises(ValueError):
            SwitchPolicy(1.2, 1.4, 0.0, 0.1)
