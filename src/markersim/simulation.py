"""Deterministic closed-loop simulation: a velocity-commanded kinematic camera
body, a fixed-rate capture pipeline with transport delays, the servo loop, the
marker control loop, and the update-synchronization protocol, all advanced by
one event queue.

Events carry exact timestamps. The vehicle state changes only at events:
between two events the body twist is constant, and the state moves by that
twist's exact rigid-body motion in one step. Trace rows are queue events too,
the k-th at ``k * tick_step``; a row samples the exact motion at its instant
without changing the state. So the tick sets only the trace cadence: the
path, the events and the rows at any shared instant do not depend on it.
Two runs with the same configuration and seed produce byte-identical traces.
"""

from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import Pose, check_translation, invert, rot_x, rot_z, vector_norm
from .marker import FamilyKind, MarkerConfig
from .marker_control import apply_update, bootstrap_config, select_marker
from .pbvs import VelocityCommand, clamp_command, control_law, error_and_rotation, with_descent
from .perception import (
    DetectorParams,
    NoDetection,
    camera_position_in_marker,
    simulate_detection,
)
from .scenario import ScenarioConfig
from .timing import (
    PRIO_GRAB,
    PRIO_POSE_READY,
    UpdateProtocol,
    evaluate_optimized_conditions,
    schedule_update,
)

# Trace rows come before every event at equal timestamps, so a row shows the
# state before the events at its instant; external events come after every
# update-protocol event.
_PRIO_RECORD = -1
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


@dataclass
class SimTrace:
    """Full record of one run plus the counters the metrics derive from.

    ``stamps`` is the validity audit: one (capture_time, displayed_config_id,
    computed_against_id, reason) tuple per successful detection.
    """

    records: list
    events: list
    stamps: list
    status: str  # landed | timeout | diverged
    touchdown_time: float | None
    final_state: tuple
    detection_count: int
    dropout_count: int
    invalid_count: int
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
        self.desired = invert(
            camera_pose_in_marker(0.0, 0.0, config.desired_height, config.desired_yaw, "camera_desired")
        )

        # dynamic and static-long-range both start from the long-range
        # bootstrap so the first detection succeeds from far away
        family = (
            config.full_pose_family
            if config.strategy == "static-full-pose"
            else config.long_range_family
        )
        initial = bootstrap_config(family, config.screen, config.fill_factor)
        self.displayed = initial
        self.detector = DetectorParams(believed_config=initial, intrinsics=config.intrinsics)
        self.commanded = initial

        scheme = config.timing_scheme
        if scheme == "optimized" and not evaluate_optimized_conditions(
            config.delays, config.intrinsics.frame_period
        ).all_hold:
            scheme = "safe"
        self.protocol = UpdateProtocol(scheme)

        self.cmd = VelocityCommand.zero()
        self.landing = False
        self.in_flight: MarkerConfig | None = None
        self.pending: MarkerConfig | None = None

        self.records: list[TickRecord] = []
        self.events: list[EventRecord] = []
        self.stamp_audit: list[tuple] = []
        self.detections = 0
        self.dropouts = 0
        self.invalid = 0
        self.updates = 0
        self.family_switches = 0
        self.max_detect_dist: float | None = None

        self.status = "running"
        self.touchdown_time: float | None = None
        self._note_detect = ""
        self._note_valid = ""
        self._note_est = (None, None, None, None)
        self._heap = []
        self._seq = 0

    def _push(self, time: float, prio: int, kind: str, payload=None):
        heapq.heappush(self._heap, (time, prio, self._seq, kind, payload))
        self._seq += 1

    # -- motion and recording ----------------------------------------------

    def _check_termination(self, time: float, pose: Pose) -> bool:
        # Leaving the bounds is checked first: a step that overshoots the
        # touchdown height far enough to pass below the ground is a crash.
        t = pose.translation
        if (
            math.hypot(t[0], t[1]) > self.cfg.bounds_radius
            or t[2] > self.cfg.bounds_height
            or t[2] < -0.05
        ):
            self.status = "diverged"
            return True
        if self.landing and t[2] <= self.cfg.touchdown_height:
            self.status = "landed"
            self.touchdown_time = time
            return True
        return False

    def _record(self, time: float, pose: Pose):
        t = pose.translation
        yaw = _vehicle_yaw(pose)
        est = self._note_est
        self.records.append(
            TickRecord(
                time=time,
                x=float(t[0]),
                y=float(t[1]),
                z=float(t[2]),
                yaw=yaw,
                distance=vector_norm(t),
                detect_status=self._note_detect,
                validity=self._note_valid,
                est_x=est[0],
                est_y=est[1],
                est_z=est[2],
                est_yaw=est[3],
                displayed_config=self.displayed.config_id,
                displayed_family="full_pose"
                if self.displayed.family.kind is FamilyKind.SHORT_RANGE_FULL_POSE
                else "long_range",
                displayed_size=self.displayed.marker_size,
                displayed_cells=self.displayed.n_cells,
                believed_config=self.detector.believed_config.config_id,
                cmd_vx=float(self.cmd.linear[0]),
                cmd_vy=float(self.cmd.linear[1]),
                cmd_vz=float(self.cmd.linear[2]),
                cmd_wz=float(self.cmd.angular[2]),
                landing=int(self.landing),
            )
        )
        self._note_detect = ""
        self._note_valid = ""
        self._note_est = (None, None, None, None)

    # -- event handlers ----------------------------------------------------

    def _on_grab(self, now: float, k: int):
        true_rel = invert(self.state.pose)  # marker -> camera
        transport = self.cfg.delays.video.sample(self.rng) + self.cfg.delays.pose.sample(self.rng)
        self._push(now + transport, PRIO_POSE_READY, "pose-ready", (now, true_rel, self.displayed))
        # on the frame grid, as rows are on theirs, so that coinciding instants are equal
        self._push((k + 1) * self.cfg.intrinsics.frame_period, PRIO_GRAB, "grab", k + 1)

    def _on_pose_ready(self, now: float, capture_time, true_rel, displayed_at_capture):
        result = simulate_detection(
            true_rel, displayed_at_capture, self.detector, self.rng, capture_time=capture_time
        )
        if isinstance(result, NoDetection):
            self.dropouts += 1
            self._note_detect = f"no-detection:{result.reason}"
            return
        self.detections += 1
        true_dist = vector_norm(true_rel.translation)
        if self.max_detect_dist is None or true_dist > self.max_detect_dist:
            self.max_detect_dist = true_dist
        stamp = self.protocol.stamp(
            capture_time, displayed_at_capture.config_id, result.computed_against
        )
        self.stamp_audit.append(
            (capture_time, displayed_at_capture.config_id, result.computed_against, stamp.reason)
        )
        self._note_detect = "detected"
        self._note_valid = stamp.reason
        cam = camera_position_in_marker(result)
        self._note_est = (float(cam[0]), float(cam[1]), float(cam[2]), result.yaw)
        if not stamp.valid:
            self.invalid += 1
            return

        error, rotation = error_and_rotation(result, self.desired)
        cmd = clamp_command(
            control_law(error, self.cfg.gain, rotation),
            self.cfg.max_linear_speed,
            self.cfg.max_angular_speed,
        )
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
            proposal = select_marker(
                result,
                self.cfg.policy,
                self.cfg.intrinsics,
                self.cfg.screen,
                self.commanded,
                self.cfg.long_range_family,
                self.cfg.full_pose_family,
                size_variant=self.cfg.size_rule,
                gap_fraction=self.cfg.gap_fraction,
                fill_factor=self.cfg.fill_factor,
            )
            if proposal is not None:
                if self.in_flight is not None:
                    self.pending = proposal  # coalesce: only the latest survives
                else:
                    self._start_update(proposal, now)

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
        self._push(0.0, _PRIO_RECORD, "record", 0)
        self._push(0.0, PRIO_GRAB, "grab", 0)
        if cfg.landing_trigger_time is not None:
            self._push(cfg.landing_trigger_time, _PRIO_LANDING, "landing_trigger")
        self._push(cfg.duration, _PRIO_END, "end")

        pose, posed_at = self.state.pose, 0.0
        while True:  # the end event stops the loop at the latest
            time, _, _, kind, payload = heapq.heappop(self._heap)
            if time != posed_at:
                # the exact motion from the last event's state under the held
                # twist; every event at one instant shares its pose
                pose = vehicle_step(self.state, self.cmd, time - self.state.time).pose
                posed_at = time
            if kind != "record":
                self.state = VehicleState(pose, time)
            if self._check_termination(time, pose):
                self._record(time, pose)
                break
            if kind == "record":
                self._record(time, pose)
                self._push((payload + 1) * cfg.tick_step, _PRIO_RECORD, "record", payload + 1)
            elif kind == "end":
                self.status = "timeout"
                if self.records[-1].time < time * (1.0 - _END_RTOL):
                    self._record(time, pose)
                break
            elif kind == "grab":
                self._on_grab(time, payload)
            elif kind == "pose-ready":
                self._on_pose_ready(time, *payload)
            elif kind == "landing_trigger":
                self.landing = True
                self.cmd = with_descent(self.cmd, cfg.descent_rate)
            else:
                self._on_update_event(time, kind, payload)

        t = pose.translation
        final_yaw = _vehicle_yaw(pose)
        return SimTrace(
            records=self.records,
            events=self.events,
            stamps=self.stamp_audit,
            status=self.status,
            touchdown_time=self.touchdown_time,
            final_state=(float(t[0]), float(t[1]), float(t[2]), final_yaw),
            detection_count=self.detections,
            dropout_count=self.dropouts,
            invalid_count=self.invalid,
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
        "marker_update_count": trace.marker_update_count,
        "family_switch_count": trace.family_switch_count,
        "max_detection_distance": trace.max_detection_distance,
        "seed": trace.seed,
        "strategy": trace.strategy,
        "timing_scheme": trace.scheme_effective,
        "size_rule": trace.size_rule,
    }


def trace_to_csv(trace: SimTrace, path):
    """Write the per-tick records; one row per record, columns as documented
    in the README (SI units, radians)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(trace.records)


def events_to_csv(trace: SimTrace, path):
    """Write the marker-update protocol event log."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time", "event", "config_id"))
        writer.writerows(trace.events)
