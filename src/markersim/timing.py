"""Update-synchronization protocol between the marker display and the pose
detector.

Changing the displayed marker is racy: frames of the old marker processed
with new detector parameters, or frames of the new marker processed with old
parameters, both yield wrong poses. Every update therefore gets a timeline of
instants,

    issued_at            command transmitted to display and detector
    detector_confirm_at  detector has the new parameters (confirmed)
    display_at           new marker actually on the screen
    confirm_at           display confirmation received back
    pose_ready_at        worst-case first pose computed from the new marker

and pose estimates are stamped valid or stale against a suppression window.

Two schemes are provided. The safe scheme updates the detector immediately
and distrusts every capture until max(capture_loop_delay, confirm_delay) has
passed, wasting several frames per update. The optimized scheme, applicable
when the display confirmation is the only meaningfully jittery delay, defers
the detector update until just before ``pose_ready_at`` and distrusts the
captures from the display instant until the last one whose pose still comes
out before that switch: exactly the new-marker frames computed with old
parameters. Old-marker frames keep producing valid poses, and when the switch
is not held back by a late confirmation only one frame per update is lost, at
any frame phase.

``UpdateProtocol`` holds the event order at equal timestamps, the events
each update queues and the lookup of the window a capture falls in; the
engine in ``markersim.simulation`` and ``replay_update_frames`` both drive it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .domain import Domain, check_fields


@dataclass(frozen=True)
class DelaySpec:
    """A nonnegative delay, constant or uniformly jittered."""

    low: Annotated[float, Domain("[0, 1e6]")]
    high: Annotated[float | None, Domain("[0, 1e6]", optional=True)] = None

    def __post_init__(self):
        check_fields(self)
        if self.high is not None and self.high < self.low:
            raise ValueError(f"delay range is inverted: [{self.low}, {self.high}]")

    @classmethod
    def constant(cls, value: float) -> "DelaySpec":
        return cls(value, None)

    @classmethod
    def uniform(cls, low: float, high: float) -> "DelaySpec":
        return cls(low, high)

    @property
    def is_constant(self) -> bool:
        return self.high is None or self.high == self.low

    @property
    def minimum(self) -> float:
        return self.low

    @property
    def maximum(self) -> float:
        return self.low if self.high is None else self.high

    @property
    def mean(self) -> float:
        return self.low if self.high is None else (self.low + self.high) / 2.0

    @property
    def variance(self) -> float:
        if self.is_constant:
            return 0.0
        return (self.high - self.low) ** 2 / 12.0

    def sample(self, rng: np.random.Generator) -> float:
        if self.high is None:
            return self.low
        return float(rng.uniform(self.low, self.high))


@dataclass(frozen=True)
class DelayModel:
    """The per-update delay distributions. The frame period is the camera's
    (``CameraIntrinsics.frame_period``).

    ``display_confirm`` is the round trip to the display: the new marker is on
    screen at some instant inside it, so its samples are forced to be at least
    the display sample (a confirmation cannot precede the display).
    """

    detector_update: DelaySpec
    display: DelaySpec
    display_confirm: DelaySpec
    video: DelaySpec
    pose: DelaySpec

    def sample(self, rng: np.random.Generator) -> "DelaySample":
        """Draw one update's delays, in a fixed order for reproducibility."""
        detector_update = self.detector_update.sample(rng)
        display = self.display.sample(rng)
        display_confirm = max(self.display_confirm.sample(rng), display)
        video = self.video.sample(rng)
        pose = self.pose.sample(rng)
        return DelaySample(detector_update, display, display_confirm, video, pose)


@dataclass(frozen=True)
class DelaySample:
    """Concrete delays drawn for a single marker update."""

    detector_update: float
    display: float
    display_confirm: float
    video: float
    pose: float

    def __post_init__(self):
        for name in ("detector_update", "display", "display_confirm", "video", "pose"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} delay must be >= 0, got {getattr(self, name)}")
        if self.display_confirm < self.display:
            raise ValueError(
                f"display_confirm ({self.display_confirm}) cannot precede "
                f"display ({self.display})"
            )


@dataclass(frozen=True)
class UpdateTimeline:
    """Event instants for one marker update, plus the derived loop delays."""

    issued_at: float
    detector_confirm_at: float
    display_at: float
    confirm_at: float
    pose_ready_at: float
    capture_pose_delay: float
    capture_loop_delay: float
    sample: DelaySample
    frame_period: float

    def __post_init__(self):
        if not (self.issued_at <= self.detector_confirm_at):
            raise ValueError("detector confirmation cannot precede the command")
        if not (self.issued_at <= self.display_at <= self.confirm_at):
            raise ValueError("display/confirmation instants are out of order")
        if not (self.display_at <= self.pose_ready_at):
            raise ValueError("pose-ready instant cannot precede the display")


@dataclass(frozen=True)
class ValidityStamp:
    """Whether a pose estimate may be trusted, and why not."""

    valid: bool
    reason: str  # ok | within_wait_window | config_mismatch

    def __post_init__(self):
        if self.valid and self.reason != "ok":
            raise ValueError(f"a valid stamp must have reason 'ok', got '{self.reason}'")


def compute_safe_wait(capture_loop_delay: float, display_confirm_delay: float) -> float:
    """Conservative wait before trusting poses again: max of the two paths."""
    if capture_loop_delay < 0 or display_confirm_delay < 0:
        raise ValueError(
            f"delays must be >= 0, got {capture_loop_delay} and {display_confirm_delay}"
        )
    return max(capture_loop_delay, display_confirm_delay)


@dataclass(frozen=True)
class OptimizedConditions:
    """Applicability gates for the reduced wait.

    confirm_below_loop: the display confirmation always beats the capture
    loop. update_is_small: the detector update fits well inside a frame
    period (<= 1/4). capture_pose_constant: capture-to-pose time has
    coefficient of variation <= 5%. The thresholds operationalize
    qualitative requirements; the protocol only uses the booleans.
    """

    confirm_below_loop: bool
    update_is_small: bool
    capture_pose_constant: bool

    @property
    def all_hold(self) -> bool:
        return self.confirm_below_loop and self.update_is_small and self.capture_pose_constant


def evaluate_optimized_conditions(model: DelayModel, frame_period: float) -> OptimizedConditions:
    """Check the reduced-wait preconditions against delay distributions and
    the camera's frame period."""
    capture_loop_min = (
        model.display.minimum + frame_period + model.video.minimum + model.pose.minimum
    )
    confirm_below_loop = model.display_confirm.maximum < capture_loop_min
    update_is_small = model.detector_update.maximum <= 0.25 * frame_period
    cp_mean = frame_period + model.video.mean + model.pose.mean
    cp_std = (model.video.variance + model.pose.variance) ** 0.5
    capture_pose_constant = cp_std <= 0.05 * cp_mean
    return OptimizedConditions(confirm_below_loop, update_is_small, capture_pose_constant)


def schedule_update(issued_at: float, sample: DelaySample, frame_period: float) -> UpdateTimeline:
    """Lay out the event timeline for one update from sampled delays."""
    if frame_period <= 0:
        raise ValueError(f"frame_period must be > 0, got {frame_period}")
    capture_pose = frame_period + sample.video + sample.pose
    capture_loop = sample.display + capture_pose
    return UpdateTimeline(
        issued_at=issued_at,
        detector_confirm_at=issued_at + sample.detector_update,
        display_at=issued_at + sample.display,
        confirm_at=issued_at + sample.display_confirm,
        pose_ready_at=issued_at + sample.display + capture_pose,
        capture_pose_delay=capture_pose,
        capture_loop_delay=capture_loop,
        sample=sample,
        frame_period=frame_period,
    )


def detector_switch_time(timeline: UpdateTimeline, scheme: str) -> float:
    """When the detector starts computing against the new parameters.

    Safe scheme: at the (early) detector confirmation. Optimized scheme: the
    update is deferred so it completes at ``pose_ready_at``, but can only
    start once the display confirmation has arrived.
    """
    if scheme == "safe":
        return timeline.detector_confirm_at
    if scheme == "optimized":
        start = max(timeline.confirm_at, timeline.pose_ready_at - timeline.sample.detector_update)
        return start + timeline.sample.detector_update
    raise ValueError(f"unknown timing scheme '{scheme}'")


def wait_window(timeline: UpdateTimeline, scheme: str) -> tuple[float, float]:
    """Half-open capture-time interval whose estimates are distrusted.

    Safe: every capture from the command until the safe wait has elapsed.
    Optimized: every capture from the display instant (the first that can
    show the new marker) until the deferred switch, translated from
    pose-ready time to capture time by the transport and computation delay:
    the new-marker frames whose poses still come out with the old
    parameters. Captures before it show the old marker and captures after it
    reach the new parameters, so both stay valid. A capture exactly at the
    upper edge comes out at the switch instant, still with the old
    parameters (``PRIO_POSE_READY`` comes first); only the config check
    rejects it.
    """
    if scheme == "safe":
        wait = compute_safe_wait(timeline.capture_loop_delay, timeline.sample.display_confirm)
        return (timeline.issued_at, timeline.issued_at + wait)
    if scheme == "optimized":
        transport = timeline.sample.video + timeline.sample.pose
        return (timeline.display_at, detector_switch_time(timeline, scheme) - transport)
    raise ValueError(f"unknown timing scheme '{scheme}'")


def stamp_validity(
    estimate_capture_time: float,
    frame_config_id: int,
    detector_config_id: int,
    active_timeline: UpdateTimeline | None = None,
    scheme: str = "safe",
) -> ValidityStamp:
    """Stamp one estimate.

    A disagreement between the configuration displayed at capture and the one
    the pose was computed against is always a mismatch. Otherwise the capture
    is distrusted while it falls inside the scheme's wait window of the given
    update timeline; with no update in flight everything is ok.
    """
    if frame_config_id != detector_config_id:
        return ValidityStamp(False, "config_mismatch")
    if active_timeline is not None:
        lo, hi = wait_window(active_timeline, scheme)
        if lo <= estimate_capture_time < hi:
            return ValidityStamp(False, "within_wait_window")
    return ValidityStamp(True, "ok")


def update_complete_time(timeline: UpdateTimeline, scheme: str) -> float:
    """Instant after which the next queued marker update may start."""
    if scheme == "safe":
        _, window_end = wait_window(timeline, scheme)
        return max(window_end, timeline.confirm_at, timeline.detector_confirm_at)
    if scheme == "optimized":
        return detector_switch_time(timeline, scheme)
    raise ValueError(f"unknown timing scheme '{scheme}'")


# Event order at equal timestamps: a frame grabbed at the display instant
# already shows the new marker, and a pose coming out at the detector-update
# instant was still computed with the old parameters.
PRIO_DISPLAY = 0
PRIO_CONFIRM = 1
PRIO_GRAB = 2
PRIO_POSE_READY = 3
PRIO_DETECTOR_UPDATE = 4
PRIO_UPDATE_COMPLETE = 5


class UpdateProtocol:
    """The update protocol under one scheme. The driver owns the event queue,
    grabs frames at ``PRIO_GRAB``, delivers poses at ``PRIO_POSE_READY`` and
    acts on each protocol event as it pops."""

    def __init__(self, scheme: str):
        self.scheme = scheme
        self.timelines = []  # recent update timelines, newest last

    def issue(self, timeline: UpdateTimeline, payload, push):
        """Queue the update's four events via ``push(time, prio, kind, payload)``."""
        self.timelines.append(timeline)
        if len(self.timelines) > 8:
            self.timelines.pop(0)
        push(timeline.display_at, PRIO_DISPLAY, "display", payload)
        push(timeline.confirm_at, PRIO_CONFIRM, "confirmation", payload)
        push(detector_switch_time(timeline, self.scheme), PRIO_DETECTOR_UPDATE, "detector-update",
             payload)
        push(update_complete_time(timeline, self.scheme), PRIO_UPDATE_COMPLETE, "update-complete",
             payload)

    def window_of(self, capture_time: float) -> UpdateTimeline | None:
        """The update whose wait window holds ``capture_time``: the newest
        whose window has opened by then, if that window has not closed."""
        for timeline in reversed(self.timelines):
            lo, hi = wait_window(timeline, self.scheme)
            if capture_time >= lo:
                return timeline if capture_time < hi else None
        return None

    def stamp(self, capture_time: float, displayed_id: int, computed_against: int) -> ValidityStamp:
        """Stamp an estimate against the update whose window holds its capture."""
        return stamp_validity(capture_time, displayed_id, computed_against,
                              self.window_of(capture_time), self.scheme)


@dataclass(frozen=True)
class FrameOutcome:
    """One camera frame replayed through an update: what was displayed, what
    the detector believed when the pose came out, and the resulting stamp."""

    capture_time: float
    ready_time: float
    displayed_config: int
    believed_config: int
    stamp: ValidityStamp

    @property
    def mismatched(self) -> bool:
        return self.displayed_config != self.believed_config


def replay_update_frames(
    timeline: UpdateTimeline, scheme: str, frame_phase: float = 0.0
) -> list[FrameOutcome]:
    """Drive one update from config 0 to config 1 through ``UpdateProtocol``
    and stamp every camera frame it affects.

    Frames are grabbed at ``frame_phase + k * frame_period`` and their poses
    come out one transport-plus-computation delay later, computed against
    whatever the detector believes at that instant. The update's own
    video/pose sample is used for every frame; per-frame jitter is the
    engine's business. Runs from one capture loop before the command (frames
    still in the pipe when it is issued) until past every window.
    """
    protocol = UpdateProtocol(scheme)
    heap, seq = [], itertools.count()

    def push(time, prio, kind, payload=None):
        heapq.heappush(heap, (time, prio, next(seq), kind, payload))

    protocol.issue(timeline, 1, push)
    period = timeline.frame_period
    transport = timeline.sample.video + timeline.sample.pose
    horizon = max(
        wait_window(timeline, scheme)[1],
        detector_switch_time(timeline, scheme) - transport,
        timeline.pose_ready_at,
    ) + 2 * period
    start = timeline.issued_at - timeline.capture_pose_delay - period
    k = int(np.ceil((start - frame_phase) / period))
    while (capture := frame_phase + k * period) <= horizon:
        push(capture, PRIO_GRAB, "grab")
        k += 1

    displayed = believed = 0
    outcomes = []
    while heap:
        time, _, _, kind, payload = heapq.heappop(heap)
        if kind == "grab":
            push(time + transport, PRIO_POSE_READY, "pose-ready", (time, displayed))
        elif kind == "pose-ready":
            capture, shown = payload
            stamp = protocol.stamp(capture, shown, believed)
            outcomes.append(FrameOutcome(capture, time, shown, believed, stamp))
        elif kind == "display":
            displayed = payload
        elif kind == "detector-update":
            believed = payload
    return outcomes
