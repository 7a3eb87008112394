"""Closed-loop controller for the displayed marker: pick the family and scale
that best serve the current estimate, and apply confirmed updates to the
detector.

Family choice is distance-gated with hysteresis (a single switch point would
chatter under measurement noise), size follows the field-of-view scale rule,
and small full-pose markers are replicated into a screen-filling board.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import Fraction, NonNegative, Positive, check_fields
from .geometry import CameraIntrinsics, vector_norm
from .marker import (
    FamilyKind,
    MarkerConfig,
    MarkerFamily,
    Screen,
    board_layout,
    clamp_to_screen,
    optimal_marker_size,
)
from .perception import DetectorParams, PoseEstimate


@dataclass(frozen=True)
class SwitchPolicy:
    """Family switch thresholds (with hysteresis band), scale fraction for the
    size rule, and the relative size deadband that limits update traffic."""

    switch_to_full_pose_below: Positive = 1.2
    switch_to_long_range_above: Positive = 1.4
    scale_fraction: Fraction = 0.5
    rescale_deadband: NonNegative = 0.15

    def __post_init__(self):
        check_fields(self)
        if self.switch_to_full_pose_below >= self.switch_to_long_range_above:
            raise ValueError(
                f"hysteresis band is inverted: down-switch {self.switch_to_full_pose_below} "
                f"must lie below up-switch {self.switch_to_long_range_above}"
            )


def bootstrap_config(
    family: MarkerFamily, screen: Screen, fill_factor: float = 1.0, config_id: int = 0
) -> MarkerConfig:
    """Initial configuration: one marker of ``family`` at maximum screen size;
    with the long-range family the very first detection succeeds from as far
    as possible."""
    limit = screen.min_dim * fill_factor
    return MarkerConfig.single(config_id, family, limit, limit)


def select_marker(
    estimate: PoseEstimate,
    policy: SwitchPolicy,
    intrinsics: CameraIntrinsics,
    screen: Screen,
    current: MarkerConfig,
    long_range: MarkerFamily,
    full_pose: MarkerFamily,
    size_variant: str = "consistent",
    gap_fraction: float = 0.1,
    fill_factor: float = 1.0,
) -> MarkerConfig | None:
    """Decide the next marker configuration, or None for no change.

    Distance is the Euclidean camera-to-marker distance from the last valid
    estimate. Ties at the thresholds keep the current family (strict
    inequalities). A full-pose marker that leaves at least two extra cell
    widths of screen becomes a board sharing one coordinate frame.
    """
    h = vector_norm(estimate.relative_pose.translation)
    if h <= 0.0:
        return None

    if h < policy.switch_to_full_pose_below:
        kind = FamilyKind.SHORT_RANGE_FULL_POSE
    elif h > policy.switch_to_long_range_above:
        kind = FamilyKind.LONG_RANGE_POSITION_ONLY
    else:
        kind = current.family.kind
    family = full_pose if kind is FamilyKind.SHORT_RANGE_FULL_POSE else long_range

    size = clamp_to_screen(
        optimal_marker_size(intrinsics._full_fov, h, policy.scale_fraction, size_variant),
        screen,
        fill_factor,
    )
    if size <= 0.0:
        return None

    if (
        current.family.kind is kind
        and abs(size - current.marker_size) / current.marker_size < policy.rescale_deadband
    ):
        return None

    screen_limit = screen.min_dim * fill_factor
    if kind is FamilyKind.SHORT_RANGE_FULL_POSE and screen_limit - size >= 2.0 * size:
        board = board_layout(screen, size, gap_fraction)
    else:
        board = ((0.0, 0.0, size),)
    return MarkerConfig(
        config_id=current.config_id + 1,
        family=family,
        marker_size=size,
        board=board,
        screen_limit=screen_limit,
    )


def apply_update(detector: DetectorParams, config: MarkerConfig) -> DetectorParams:
    """Install a confirmed marker update into the detector.

    Updates must arrive in order, one config_id at a time; anything else is a
    protocol violation (the ordering is owned by the timing protocol).
    """
    expected = detector.believed_config.config_id + 1
    got = config.config_id
    if got != expected:
        raise ValueError(
            f"marker update protocol violation: expected config_id {expected}, got {got}"
        )
    return DetectorParams(believed_config=config, intrinsics=detector.intrinsics)
