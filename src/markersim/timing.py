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

and an update's wait window alone stamps a pose stale: planned for the
longest transport the delays allow, it holds every frame the update corrupts.

Two schemes are provided. The safe scheme updates the detector immediately
and distrusts every capture around the command until max(capture loop,
confirm delay) has passed, wasting several frames per update. The optimized
scheme defers the detector update until just before ``pose_ready_at`` and
distrusts exactly the new-marker frames computed with old parameters: when
the switch is not held back by a late confirmation, one frame per update, at
any frame phase. It applies exactly when the transport from capture to pose
(``video`` plus ``pose``) is constant; the other delays may jitter freely.
Under transport jitter the engine runs the safe scheme instead, and
``summary.json`` reports ``timing_scheme`` as ``safe``. The engine audits
each stamp against the marker the screen showed, which a real detector
cannot know: ``hole_count``, the corrupted frames no window holds, reads 0.

``EventQueue`` holds the order of events at equal timestamps, one table
that puts the detector update before a pose coming out at its instant;
``UpdateProtocol`` holds the order of updates and every update's window. The
engine in ``markersim.simulation`` and ``replay_update_frames`` drive both.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from typing import Annotated

import numpy as np

from .domain import Domain, check_fields


@dataclass(frozen=True)
class DelaySpec:
    """A nonnegative delay, constant or uniformly jittered. A zero-width range
    is the constant: it is stored with ``high`` None and draws nothing."""

    low: Annotated[float, Domain("[0, 1e6]")]
    high: Annotated[float | None, Domain("[0, 1e6]", optional=True)] = None

    def __post_init__(self):
        check_fields(self)
        if self.high is not None and self.high < self.low:
            raise ValueError(f"delay range is inverted: [{self.low}, {self.high}]")
        if self.high == self.low:
            object.__setattr__(self, "high", None)

    @classmethod
    def constant(cls, value: float) -> "DelaySpec":
        return cls(value, None)

    @classmethod
    def uniform(cls, low: float, high: float) -> "DelaySpec":
        return cls(low, high)

    @property
    def upper(self) -> float:
        return self.low if self.high is None else self.high

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
        """Draw one update's delays, in a fixed order for reproducibility. The
        update plans for the longest transport, ``video.upper`` and
        ``pose.upper``, and draws none: each frame draws its own."""
        detector_update = self.detector_update.sample(rng)
        display = self.display.sample(rng)
        display_confirm = max(self.display_confirm.sample(rng), display)
        return DelaySample(detector_update, display, display_confirm,
                           self.video.upper, self.pose.upper)


@dataclass(frozen=True)
class DelaySample:
    """Concrete delays for a single marker update: ``video`` and ``pose`` are
    the longest transport the update plans for."""

    detector_update: float
    display: float
    display_confirm: float
    video: float
    pose: float

    def __post_init__(self):
        for name in ("detector_update", "display", "display_confirm", "video", "pose"):
            if not getattr(self, name) >= 0:  # NaN too
                raise ValueError(f"{name} delay must be >= 0, got {getattr(self, name)}")
        if self.display_confirm < self.display:
            raise ValueError(
                f"display_confirm ({self.display_confirm}) cannot precede "
                f"display ({self.display})"
            )


@dataclass(frozen=True)
class UpdateTimeline:
    """Event instants for one marker update, with its delays and frame period.
    ``schedule_update`` orders them, as ``DelaySample`` holds no negative delay."""

    issued_at: float
    detector_confirm_at: float
    display_at: float
    confirm_at: float
    pose_ready_at: float
    sample: DelaySample
    frame_period: float


@dataclass(frozen=True)
class ValidityStamp:
    """Whether a pose estimate may be trusted, and why not."""

    reason: str  # ok | within_wait_window

    @property
    def valid(self) -> bool:
        return self.reason == "ok"


def evaluate_optimized_conditions(model: DelayModel) -> bool:
    """Whether the optimized scheme is exact under ``model``: the video and
    pose delays, the transport from capture to pose, are both constant.

    With a constant transport ``tau``, a new-marker capture ``c`` gets its
    pose from the old parameters exactly when ``c < switch - tau``, so the
    window ``[display_at, switch - tau)`` holds every such frame, at any frame
    phase and under any jitter of the other delays. An old-marker capture
    comes out before ``display_at + tau``, ahead of the switch, which is no
    earlier than ``pose_ready_at = display_at + frame_period + tau``. If the
    transport jitters, a frame can draw one shorter than the longest
    transport, which the update plans for; at some phase it is grabbed in
    ``[switch - tau_max, switch - tau_frame)``, after the window, with its
    pose from the old parameters.
    """
    return model.video.high is None and model.pose.high is None


def schedule_update(issued_at: float, sample: DelaySample, frame_period: float) -> UpdateTimeline:
    """Lay out the event timeline for one update from sampled delays."""
    if frame_period <= 0:
        raise ValueError(f"frame_period must be > 0, got {frame_period}")
    return UpdateTimeline(
        issued_at=issued_at,
        detector_confirm_at=issued_at + sample.detector_update,
        display_at=issued_at + sample.display,
        confirm_at=issued_at + sample.display_confirm,
        pose_ready_at=issued_at + sample.display + (frame_period + sample.video + sample.pose),
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

    Safe: from ``min(issued_at, switch - tau_max)`` to ``max(issued_at + wait,
    switch)``, with ``switch`` the early detector confirmation, ``tau_max =
    video + pose`` and ``wait`` the longer of the capture loop and the display
    confirmation. A capture before it shows the old marker and its pose comes
    out before the switch; one from its end on shows the new marker (``wait
    >= display_confirm >= display``) and its pose comes out after the switch.
    A pose out at the switch instant gets the new parameters (``EventQueue``).
    Optimized: every capture from the display instant (the first that can
    show the new marker) until the deferred switch, translated from
    pose-ready time to capture time by the transport and computation delay:
    the new-marker frames whose poses still come out with the old
    parameters. Captures before it show the old marker and captures from
    its upper edge on reach the new parameters (at the switch instant the
    detector update comes first, ``EventQueue``), so both stay valid.
    """
    if scheme == "safe":
        sample, switch = timeline.sample, timeline.detector_confirm_at
        capture_loop = sample.display + (timeline.frame_period + sample.video + sample.pose)
        wait = max(capture_loop, sample.display_confirm)
        return (min(timeline.issued_at, switch - (sample.video + sample.pose)),
                max(timeline.issued_at + wait, switch))
    if scheme == "optimized":
        transport = timeline.sample.video + timeline.sample.pose
        return (timeline.display_at, detector_switch_time(timeline, scheme) - transport)
    raise ValueError(f"unknown timing scheme '{scheme}'")


_OK, _IN_WINDOW = ValidityStamp("ok"), ValidityStamp("within_wait_window")


def stamp_validity(in_window: bool) -> ValidityStamp:
    """Stamp one estimate: distrusted exactly when its capture falls inside
    an update's wait window. Stamps are immutable, so each verdict is one shared instance."""
    return _IN_WINDOW if in_window else _OK


def update_complete_time(timeline: UpdateTimeline, scheme: str) -> float:
    """Instant after which the next queued marker update may start: once its
    window has closed and the detector has switched, at or after ``confirm_at``."""
    return max(wait_window(timeline, scheme)[1], detector_switch_time(timeline, scheme))


# Event order at equal timestamps: a frame grabbed at the display instant
# already shows the new marker, and a pose coming out at the detector-update
# instant is computed with the new parameters. The engine's own events come
# after every update-protocol event.
_ORDER = {kind: rank for rank, kind in enumerate((
    "display", "confirmation", "grab", "detector-update", "pose-ready", "update-complete",
    "landing_trigger", "end"))}


class EventQueue:
    """Events ``(time, kind, payload)`` popped in time order, at equal times
    in the order of their kinds in ``_ORDER``, and otherwise as pushed."""

    def __init__(self):
        self._heap = []
        self._seq = itertools.count()

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: float, kind: str, payload=None):
        heappush(self._heap, (time, _ORDER[kind], next(self._seq), kind, payload))

    def pop(self) -> tuple:
        time, _, _, kind, payload = heappop(self._heap)
        return time, kind, payload


class UpdateProtocol:
    """The update protocol under one scheme. The driver owns the event queue,
    grabs frames and delivers poses on it, and acts on each protocol event as
    it pops.

    Updates run one at a time: a proposal made while one is in flight waits,
    and only the latest waiting one survives. ``window_of`` bisects over the
    starts of every update's wait window. That is exact, as both the starts
    and the ends rise in time order, in floats too: an update is issued no
    earlier than the previous one's ``update_complete_time``, the ``max`` of
    its window end and switch, and every update of a run plans for the same
    ``tau_max`` (``wait_window``). Safe windows may overlap, and then the
    last to open by a capture also ends last: outside it, outside all.
    """

    def __init__(self, scheme: str):
        self.scheme = scheme
        self._windows = []  # (start, end, timeline) of every issued update, in time order
        self._in_flight = False
        self._waiting = None

    def propose(self, payload) -> bool:
        """Whether ``payload`` may be issued now; if not, it waits instead of
        any proposal that waited before it."""
        if not self._in_flight:
            return True
        self._waiting = payload
        return False

    def complete(self):
        """End the update in flight; return the waiting proposal, or None."""
        payload, self._waiting, self._in_flight = self._waiting, None, False
        return payload

    def issue(self, timeline: UpdateTimeline, payload, queue: EventQueue):
        """Start an update: keep its window and queue its four events."""
        if self._in_flight:
            raise RuntimeError("an update is already in flight")
        self._in_flight = True
        self._windows.append((*wait_window(timeline, self.scheme), timeline))
        queue.push(timeline.display_at, "display", payload)
        queue.push(timeline.confirm_at, "confirmation", payload)
        queue.push(detector_switch_time(timeline, self.scheme), "detector-update", payload)
        queue.push(update_complete_time(timeline, self.scheme), "update-complete", payload)

    def window_of(self, capture_time: float) -> UpdateTimeline | None:
        """The update whose wait window holds ``capture_time``: the last to
        open by then, if its window has not closed."""
        i = bisect_right(self._windows, capture_time, key=itemgetter(0)) - 1
        if i >= 0 and capture_time < self._windows[i][1]:
            return self._windows[i][2]
        return None

    def stamp(self, capture_time: float) -> ValidityStamp:
        """Stamp an estimate by whether ``window_of`` finds its capture."""
        return stamp_validity(self.window_of(capture_time) is not None)


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
    protocol, queue = UpdateProtocol(scheme), EventQueue()
    protocol.issue(timeline, 1, queue)
    period = timeline.frame_period
    transport = timeline.sample.video + timeline.sample.pose
    horizon = max(wait_window(timeline, scheme)[1], timeline.pose_ready_at) + 2 * period
    start = timeline.issued_at - (period + timeline.sample.video + timeline.sample.pose) - period
    k = int(np.ceil((start - frame_phase) / period))
    while (capture := frame_phase + k * period) <= horizon:
        queue.push(capture, "grab")
        k += 1

    displayed = believed = 0
    outcomes = []
    while queue:
        time, kind, payload = queue.pop()
        if kind == "grab":
            queue.push(time + transport, "pose-ready", (time, displayed))
        elif kind == "pose-ready":
            capture, shown = payload
            stamp = protocol.stamp(capture)
            outcomes.append(FrameOutcome(capture, time, shown, believed, stamp))
        elif kind == "display":
            displayed = payload
        elif kind == "detector-update":
            believed = payload
    return outcomes
