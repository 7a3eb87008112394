"""Deterministic closed-loop simulation: a velocity-commanded kinematic camera
body, a fixed-rate capture pipeline with transport delays, the servo loop, the
marker control loop, and the update-synchronization protocol, all advanced by
one event queue.

Events carry exact timestamps. The vehicle state changes only at events:
between two events the body twist is constant, and the state moves by that
twist's exact rigid-body motion in one step. A run ends at the duration or at
the exact instant the vehicle is down or out of bounds, found by bisection
inside its segment. The trace rows, the k-th at ``k * tick_step``, are
sampled from a log of the events after the run (``TraceRows``), so the tick
sets only the trace cadence. Two runs with the same configuration and seed
produce byte-identical traces.
"""

from __future__ import annotations

import csv
import heapq
import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Pose, check_translation, invert, rot_x, rot_z, vector_norm
from .marker import FamilyKind, MarkerConfig
from .marker_control import apply_update, bootstrap_config, select_marker
from .pbvs import VelocityCommand, clamp_command, control_law, error_and_rotation, with_descent
from .perception import DetectorParams, NoDetection, camera_position_in_marker, simulate_detection
from .scenario import ScenarioConfig
from .timing import (PRIO_GRAB, PRIO_POSE_READY, UpdateProtocol, evaluate_optimized_conditions,
                     schedule_update)

# External events come after every update-protocol event at equal timestamps.
_PRIO_LANDING = 6
_PRIO_END = 9

# A row this close to the end instant, relative to it, is the end row: the
# product k * tick_step may miss the duration it names by an ulp or two.
_END_RTOL = 1e-12

# Per-step turn (rad) below which vehicle_step uses the Taylor series of its coefficients.
_SMALL_ANGLE = 1e-3


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return float(math.remainder(a, 2.0 * math.pi))


def camera_pose_in_marker(x: float, y: float, z: float, yaw: float, frame: str = "camera") -> Pose:
    """Pose of a downward-facing camera hovering over the marker plane.

    The camera optical axis points at the marker (camera z down), so the
    rotation is a yaw composed with a flip about x.
    """
    return Pose(rot_z(yaw) @ rot_x(math.pi), np.array([x, y, z]), frame, "marker")


def _vehicle_yaw(pose: Pose) -> float:
    """Heading of a camera-to-marker pose; equals relative_yaw of its inverse."""
    r = pose.rotation
    return math.atan2(r[1, 0], r[0, 0])


@dataclass(frozen=True)
class VehicleState:
    """Kinematic body (camera) pose in the marker/world frame plus sim time."""

    pose: Pose
    time: float


def vehicle_step(state: VehicleState, cmd: VelocityCommand, dt: float) -> VehicleState:
    """Move the body for ``dt`` under the constant body-frame twist ``cmd``:
    exactly ``pose · exp(dt·ξ)``. With ``φ = w·dt`` and ``θ = |φ|``, the
    rotation increment is Rodrigues' ``I + sin θ/θ [φ] + (1 - cos θ)/θ² [φ]²``,
    and the translation increment is ``v·dt`` times the left Jacobian
    ``I + (1 - cos θ)/θ² [φ] + (θ - sin θ)/θ³ [φ]²``. Zero ``w`` keeps the rotation."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not cmd.is_finite:
        raise ValueError("velocity command has non-finite components")
    px, py, pz = (cmd.linear * dt).tolist()
    wx, wy, wz = (cmd.angular * dt).tolist()
    if not (px or py or pz or wx or wy or wz):
        return VehicleState(state.pose, state.time + dt)
    th2 = wx * wx + wy * wy + wz * wz
    if th2 < _SMALL_ANGLE**2:  # Taylor series through θ⁴; the rest is below 1e-21
        a = 1.0 - th2 / 6.0 * (1.0 - th2 / 20.0)
        b = 0.5 - th2 / 24.0 * (1.0 - th2 / 30.0)
        c = 1.0 / 6.0 - th2 / 120.0 * (1.0 - th2 / 42.0)
    else:
        th = math.sqrt(th2)
        a, b = math.sin(th) / th, 2.0 * math.sin(0.5 * th) ** 2 / th2
        c = (1.0 - a) / th2
    r = state.pose.rotation
    qx, qy, qz = wy * pz - wz * py, wz * px - wx * pz, wx * py - wy * px  # φ × p
    t = state.pose.translation + r @ np.array([
        px + b * qx + c * (wy * qz - wz * qy),
        py + b * qy + c * (wz * qx - wx * qz),
        pz + b * qz + c * (wx * qy - wy * qx),
    ])
    if th2:  # r (I + a[φ] + b[φ]²), with [φ]² = φφᵀ - θ²I
        bxy, bxz, byz, ax, ay, az = b * wx * wy, b * wx * wz, b * wy * wz, a * wx, a * wy, a * wz
        r = r + r @ np.array([
            [-b * (wy * wy + wz * wz), bxy - az, bxz + ay],
            [bxy + az, -b * (wx * wx + wz * wz), byz - ax],
            [bxz - ay, byz + ax, -b * (wx * wx + wy * wy)],
        ])
    pose = Pose._unchecked(r, check_translation(t), state.pose.from_frame, state.pose.to_frame)
    return VehicleState(pose, state.time + dt)


class TickRecord(NamedTuple):
    """One trace row; est_* fields are the camera position in the marker frame
    according to the last estimate since the previous row (None when there was
    none)."""

    time: float
    x: float
    y: float
    z: float
    yaw: float
    distance: float
    detect_status: str
    validity: str
    est_x: float | None
    est_y: float | None
    est_z: float | None
    est_yaw: float | None
    displayed_config: int
    displayed_family: str
    displayed_size: float
    displayed_cells: int
    believed_config: int
    cmd_vx: float
    cmd_vy: float
    cmd_vz: float
    cmd_wz: float
    landing: int


class EventRecord(NamedTuple):
    """Marker-update-path event for the exportable protocol log."""

    time: float
    kind: str  # command | display | confirmation | detector-update | update-complete
    config_id: int


class _Entry(NamedTuple):
    """The engine after the handlers of one event; ``note`` holds a pose
    result's row cells (detect_status to est_yaw), None for other events."""

    time: float
    state: VehicleState
    cmd: VelocityCommand
    displayed: MarkerConfig
    believed: int
    landing: bool
    note: tuple | None


_NO_NOTE = ("", "", None, None, None, None)


class TraceRows(Sequence):
    """The trace rows of a finished run, sampled on demand from its event log.

    Row k is at ``k * tick_step``, for every such instant up to the end. It
    samples the motion from the last entry strictly before its instant, so it
    shows the state before the events there, and its notes are the last in
    ``[t_{k-1}, t_k)``. A run that ends between rows adds an end row: the
    last entry, with the last notes since the previous row.
    """

    def __init__(self, log: list[_Entry], tick_step: float):
        self._log, self._tick = log, tick_step
        end = log[-1].time
        last = int(end / tick_step) + 1
        while last * tick_step > end:
            last -= 1
        self._ticks = last + 1
        self._len = self._ticks + (last * tick_step < end * (1.0 - _END_RTOL))

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k):
        if isinstance(k, slice):
            return list(self)[k]
        return next(self._rows(range(self._len)[k]))

    def __iter__(self):
        return self._rows(0)

    def _rows(self, first: int):
        """The rows from ``first`` on, in one walk over the log from the last
        entry before the first row's notes begin."""
        log, tick, last = self._log, self._tick, len(self._log) - 1
        i = max(bisect_left(log, (first - 1) * tick, key=lambda entry: entry.time) - 1, 0)
        for k in range(first, self._len):
            end_row = k == self._ticks  # it takes every entry left
            t = log[-1].time if end_row else k * tick
            note = None
            while i < last and (end_row or log[i + 1].time < t):
                i += 1
                note = log[i].note or note
            yield _row(t, log[i], note)


def _row(t: float, entry: _Entry, note: tuple | None) -> TickRecord:
    state, shown, cmd = entry.state, entry.displayed, entry.cmd
    pose = state.pose if t == entry.time else vehicle_step(state, cmd, t - entry.time).pose
    p = pose.translation
    return TickRecord(
        t, float(p[0]), float(p[1]), float(p[2]), _vehicle_yaw(pose), vector_norm(p),
        *(note or _NO_NOTE),
        shown.config_id,
        "full_pose" if shown.family.kind is FamilyKind.SHORT_RANGE_FULL_POSE else "long_range",
        shown.marker_size, shown.n_cells, entry.believed,
        float(cmd.linear[0]), float(cmd.linear[1]), float(cmd.linear[2]), float(cmd.angular[2]),
        int(entry.landing),
    )


@dataclass
class SimTrace:
    """Full record of one run plus the counters the metrics derive from.

    ``records`` is the row sequence (a ``TraceRows`` for an engine run).
    ``stamps`` is the validity audit: one (capture_time, displayed_config_id,
    computed_against_id, reason) tuple per successful detection. A window
    dropout is a capture inside an update's wait window that gave no detection.
    """

    records: Sequence
    events: list
    stamps: list
    status: str  # landed | timeout | diverged
    touchdown_time: float | None
    final_state: tuple
    detection_count: int
    dropout_count: int
    invalid_count: int
    window_dropout_count: int
    marker_update_count: int
    family_switch_count: int
    max_detection_distance: float | None
    desired_yaw: float
    seed: int
    strategy: str
    scheme_requested: str
    scheme_effective: str
    size_rule: str


TRACE_COLUMNS = TickRecord._fields


class _Engine:
    def __init__(self, config: ScenarioConfig):
        self.cfg = config
        self.rng = np.random.default_rng(config.seed)
        x, y, z = config.initial_position
        self.state = VehicleState(camera_pose_in_marker(x, y, z, config.initial_yaw), 0.0)
        self.desired = invert(camera_pose_in_marker(0.0, 0.0, config.desired_height,
                                                    config.desired_yaw, "camera_desired"))

        # dynamic and static-long-range both start from the long-range
        # bootstrap so the first detection succeeds from far away
        family = (config.full_pose_family if config.strategy == "static-full-pose"
                  else config.long_range_family)
        initial = bootstrap_config(family, config.screen, config.fill_factor)
        self.displayed = initial
        self.detector = DetectorParams(believed_config=initial, intrinsics=config.intrinsics)
        self.commanded = initial

        conditions = evaluate_optimized_conditions(config.delays, config.intrinsics.frame_period)
        self.protocol = UpdateProtocol(config.timing_scheme if conditions.all_hold else "safe")

        self.cmd = VelocityCommand.zero()
        self.landing = False
        self.in_flight: MarkerConfig | None = None
        self.pending: MarkerConfig | None = None

        self.log: list[_Entry] = []
        self.events: list[EventRecord] = []
        self.stamp_audit: list[tuple] = []
        self.detections = self.dropouts = self.invalid = self.window_dropouts = 0
        self.updates = self.family_switches = 0
        self.max_detect_dist: float | None = None

        self.status = "running"
        self.touchdown_time: float | None = None
        self._heap = []
        self._seq = 0

    def _push(self, time: float, prio: int, kind: str, payload=None):
        heapq.heappush(self._heap, (time, prio, self._seq, kind, payload))
        self._seq += 1

    # -- motion, termination and the log ---------------------------------

    def _outcome(self, pose: Pose) -> str | None:
        # Leaving the bounds is checked first. At the exact crossing a landing
        # descent is down before it reaches the ground bound, at any speed.
        x, y, z = pose.translation
        if math.hypot(x, y) > self.cfg.bounds_radius or not -0.05 <= z <= self.cfg.bounds_height:
            return "diverged"
        if self.landing and z <= self.cfg.touchdown_height:
            return "landed"
        return None

    def _move_to(self, time: float) -> bool:
        """Move the vehicle to ``time`` under the held twist, or to the first
        instant on the way where it is down or out of bounds; return whether
        the run ended there."""
        start = self.state
        if time != start.time:
            self.state = VehicleState(vehicle_step(start, self.cmd, time - start.time).pose, time)
        if self._outcome(self.state.pose) is None:
            return False
        lo, hi = start.time, time
        if self._outcome(start.pose) is not None:
            self.state, hi = start, lo
        while lo < (mid := 0.5 * (lo + hi)) < hi:  # lo is short of the end, hi at or past it
            probe = VehicleState(vehicle_step(start, self.cmd, mid - start.time).pose, mid)
            if self._outcome(probe.pose) is None:
                lo = mid
            else:
                hi, self.state = mid, probe
        self.status = self._outcome(self.state.pose)
        if self.status == "landed":
            self.touchdown_time = self.state.time
        return True

    def _log_entry(self, note: tuple | None = None):
        self.log.append(_Entry(self.state.time, self.state, self.cmd, self.displayed,
                               self.detector.believed_config.config_id, self.landing, note))

    # -- event handlers ----------------------------------------------------

    def _on_grab(self, now: float, k: int):
        true_rel = invert(self.state.pose)  # marker -> camera
        transport = self.cfg.delays.video.sample(self.rng) + self.cfg.delays.pose.sample(self.rng)
        self._push(now + transport, PRIO_POSE_READY, "pose-ready", (now, true_rel, self.displayed))
        # on the frame grid, as rows are on theirs, so that coinciding instants are equal
        self._push((k + 1) * self.cfg.intrinsics.frame_period, PRIO_GRAB, "grab", k + 1)

    def _on_pose_ready(self, now: float, capture_time, true_rel, displayed_at_capture):
        result = simulate_detection(true_rel, displayed_at_capture, self.detector, self.rng,
                                    capture_time=capture_time)
        if isinstance(result, NoDetection):
            self.dropouts += 1
            self.window_dropouts += self.protocol.window_of(capture_time) is not None
            return (f"no-detection:{result.reason}", *_NO_NOTE[1:])
        self.detections += 1
        self.max_detect_dist = max(self.max_detect_dist or 0.0, vector_norm(true_rel.translation))
        shown = displayed_at_capture.config_id
        stamp = self.protocol.stamp(capture_time, shown, result.computed_against)
        self.stamp_audit.append((capture_time, shown, result.computed_against, stamp.reason))
        cam = camera_position_in_marker(result)
        note = ("detected", stamp.reason, float(cam[0]), float(cam[1]), float(cam[2]), result.yaw)
        if not stamp.valid:
            self.invalid += 1
            return note

        error, rotation = error_and_rotation(result, self.desired)
        cmd = clamp_command(control_law(error, self.cfg.gain, rotation),
                            self.cfg.max_linear_speed, self.cfg.max_angular_speed)
        if (
            not self.landing
            and self.cfg.landing_error_threshold is not None
            and math.hypot(cam[0], cam[1]) < self.cfg.landing_error_threshold
            # only arm once the vehicle is tracking near the desired height
            and abs(cam[2] - self.cfg.desired_height) < 2.0 * self.cfg.landing_error_threshold
        ):
            self.landing = True
        if self.landing:
            cmd = with_descent(cmd, self.cfg.descent_rate)
        self.cmd = cmd

        if self.cfg.strategy == "dynamic":
            cfg = self.cfg
            proposal = select_marker(
                result, cfg.policy, cfg.intrinsics, cfg.screen, self.commanded,
                cfg.long_range_family, cfg.full_pose_family, size_variant=cfg.size_rule,
                gap_fraction=cfg.gap_fraction, fill_factor=cfg.fill_factor,
            )
            if proposal is not None:
                if self.in_flight is not None:
                    self.pending = proposal  # coalesce: only the latest survives
                else:
                    self._start_update(proposal, now)
        return note

    def _start_update(self, marker: MarkerConfig, now: float):
        sample = self.cfg.delays.sample(self.rng)
        timeline = schedule_update(now, sample, self.cfg.intrinsics.frame_period)
        if marker.family.kind is not self.commanded.family.kind:
            self.family_switches += 1
        self.commanded = marker
        self.in_flight = marker
        self.updates += 1
        self.events.append(EventRecord(now, "command", marker.config_id))
        self.protocol.issue(timeline, marker, self._push)

    def _on_update_event(self, now: float, kind: str, marker: MarkerConfig):
        self.events.append(EventRecord(now, kind, marker.config_id))
        if kind == "display":
            self.displayed = marker
        elif kind == "detector-update":
            self.detector = apply_update(self.detector, marker)
        elif kind == "update-complete":
            self.in_flight = None
            if self.pending is not None:
                proposal, self.pending = self.pending, None
                self._start_update(proposal, now)

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimTrace:
        cfg = self.cfg
        self._push(0.0, PRIO_GRAB, "grab", 0)
        if cfg.landing_trigger_time is not None:
            self._push(cfg.landing_trigger_time, _PRIO_LANDING, "landing_trigger")
        self._push(cfg.duration, _PRIO_END, "end")

        self._log_entry()
        while True:  # the end event stops the loop at the latest
            time, _, _, kind, payload = heapq.heappop(self._heap)
            if self._move_to(time):
                break
            note = None
            if kind == "end":
                self.status = "timeout"
                break
            elif kind == "grab":
                self._on_grab(time, payload)
            elif kind == "pose-ready":
                note = self._on_pose_ready(time, *payload)
            elif kind == "landing_trigger":
                self.landing = True
                self.cmd = with_descent(self.cmd, cfg.descent_rate)
            else:
                self._on_update_event(time, kind, payload)
            self._log_entry(note)
        self._log_entry()  # the end row's state

        t = self.state.pose.translation
        return SimTrace(
            records=TraceRows(self.log, cfg.tick_step),
            events=self.events,
            stamps=self.stamp_audit,
            status=self.status,
            touchdown_time=self.touchdown_time,
            final_state=(float(t[0]), float(t[1]), float(t[2]), _vehicle_yaw(self.state.pose)),
            detection_count=self.detections,
            dropout_count=self.dropouts,
            invalid_count=self.invalid,
            window_dropout_count=self.window_dropouts,
            marker_update_count=self.updates,
            family_switch_count=self.family_switches,
            max_detection_distance=self.max_detect_dist,
            desired_yaw=cfg.desired_yaw,
            seed=cfg.seed,
            strategy=cfg.strategy,
            scheme_requested=cfg.timing_scheme,
            scheme_effective=self.protocol.scheme,
            size_rule=cfg.size_rule,
        )


def run_scenario(config: ScenarioConfig) -> SimTrace:
    """Run one scenario to touchdown, divergence, or the configured duration."""
    return _Engine(config).run()


def collect_metrics(trace: SimTrace) -> dict:
    """Summary record of a completed trace (the landing error is the
    horizontal distance from the marker center at touchdown)."""
    if not trace.records:
        raise ValueError("cannot summarize an empty trace")
    x, y, _, yaw = trace.final_state
    landed = trace.status == "landed"
    return {
        "status": trace.status,
        "landed": landed,
        "time_to_land": trace.touchdown_time if landed else None,
        "final_lateral_error": math.hypot(x, y),
        "final_yaw_error": abs(wrap_angle(yaw - trace.desired_yaw)),
        "initial_yaw_error": abs(wrap_angle(trace.records[0].yaw - trace.desired_yaw)),
        "touchdown_x": x if landed else None,
        "touchdown_y": y if landed else None,
        "detection_count": trace.detection_count,
        "dropout_count": trace.dropout_count,
        "invalid_count": trace.invalid_count,
        "window_dropout_count": trace.window_dropout_count,
        "marker_update_count": trace.marker_update_count,
        "family_switch_count": trace.family_switch_count,
        "max_detection_distance": trace.max_detection_distance,
        "seed": trace.seed,
        "strategy": trace.strategy,
        "timing_scheme": trace.scheme_effective,
        "size_rule": trace.size_rule,
    }


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def trace_to_csv(trace: SimTrace, path):
    """Write the per-tick records; one row per record, columns as documented
    in the README (SI units, radians)."""
    _write_csv(path, TRACE_COLUMNS, trace.records)


def events_to_csv(trace: SimTrace, path):
    """Write the marker-update protocol event log."""
    _write_csv(path, ("time", "event", "config_id"), trace.events)
