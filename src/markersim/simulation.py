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
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import is_
from typing import NamedTuple

import numpy as np

from .geometry import Pose, check_translation, inverse_of, invert, rot_x, rot_z, surely_within, vector_norm
from .marker import FamilyKind, MarkerConfig
from .marker_control import apply_update, bootstrap_config, select_marker
from .pbvs import VelocityCommand, servo_step, with_descent
from .perception import DetectorParams, NoDetection, simulate_detection
from .scenario import ScenarioConfig
from .timing import EventQueue, UpdateProtocol, evaluate_optimized_conditions, schedule_update

# A row this close to the end instant, relative to it, is the end row: the
# product k * tick_step may miss the duration it names by an ulp or two.
_END_RTOL = 1e-12

# Trace rows sampled per numpy pass: long enough to amortize the per-pass
# cost, short enough that a long trace's columns never sit in memory at once.
_BLOCK = 256

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


def _vehicle_yaw(state: VehicleState) -> float:
    """Heading of the vehicle's camera-to-marker pose; equals relative_yaw of its inverse."""
    return math.atan2(state.r[3], state.r[0])


class VehicleState:
    """Kinematic body (camera) pose in the marker/world frame plus sim time,
    held as ``r``, the rotation's nine entries row by row, ``t``, the
    translation, and ``frames``; ``pose`` builds the ``Pose`` on each access."""

    __slots__ = ("r", "t", "frames", "time")

    def __init__(self, pose: Pose, time: float):
        self.r, self.t = tuple(pose.rotation.ravel().tolist()), tuple(pose.translation.tolist())
        self.frames, self.time = (pose.from_frame, pose.to_frame), time

    @classmethod
    def _of(cls, r, t, frames, time) -> "VehicleState":
        state = object.__new__(cls)
        state.r, state.t, state.frames, state.time = r, t, frames, time
        return state

    @property
    def pose(self) -> Pose:
        return Pose._unchecked(np.array(self.r).reshape(3, 3), np.array(self.t), *self.frames)


def _se3_exp(r, t, p, w, coefficients):
    """The pose ``(r, t)`` moved by the twist increment ``(p, w) = (v·dt, ω·dt)``:
    ``(r, t) · exp(ξ)``. With ``φ = w`` and ``θ = |φ|``, the rotation increment is
    Rodrigues' ``I + a[φ] + b[φ]²`` and the translation increment is ``p`` times
    the left Jacobian ``I + b[φ] + c[φ]²``, where ``coefficients(θ²)`` gives
    ``a = sin θ/θ``, ``b = (1 - cos θ)/θ²`` and ``c = (θ - sin θ)/θ³``.

    ``r`` is the nine rotation entries row by row, ``t``, ``p`` and ``w`` three
    components each. Every product is written out and summed left to right, so
    the same components give the same bits as Python floats and as numpy
    columns. Returns ``θ²`` with the new rotation entries and translation."""
    (r00, r01, r02, r10, r11, r12, r20, r21, r22), (tx, ty, tz) = r, t
    (px, py, pz), (wx, wy, wz) = p, w
    th2 = wx * wx + wy * wy + wz * wz
    a, b, c = coefficients(th2)
    qx, qy, qz = wy * pz - wz * py, wz * px - wx * pz, wx * py - wy * px  # φ × p
    ux = px + b * qx + c * (wy * qz - wz * qy)
    uy = py + b * qy + c * (wz * qx - wx * qz)
    uz = pz + b * qz + c * (wx * qy - wy * qx)
    t = (tx + (r00 * ux + r01 * uy + r02 * uz),
         ty + (r10 * ux + r11 * uy + r12 * uz),
         tz + (r20 * ux + r21 * uy + r22 * uz))
    # r (I + a[φ] + b[φ]²), with [φ]² = φφᵀ - θ²I
    bxy, bxz, byz, ax, ay, az = b * wx * wy, b * wx * wz, b * wy * wz, a * wx, a * wy, a * wz
    m00, m01, m02 = -b * (wy * wy + wz * wz), bxy - az, bxz + ay
    m10, m11, m12 = bxy + az, -b * (wx * wx + wz * wz), byz - ax
    m20, m21, m22 = bxz - ay, byz + ax, -b * (wx * wx + wy * wy)
    r = (r00 + (r00 * m00 + r01 * m10 + r02 * m20), r01 + (r00 * m01 + r01 * m11 + r02 * m21),
         r02 + (r00 * m02 + r01 * m12 + r02 * m22), r10 + (r10 * m00 + r11 * m10 + r12 * m20),
         r11 + (r10 * m01 + r11 * m11 + r12 * m21), r12 + (r10 * m02 + r11 * m12 + r12 * m22),
         r20 + (r20 * m00 + r21 * m10 + r22 * m20), r21 + (r20 * m01 + r21 * m11 + r22 * m21),
         r22 + (r20 * m02 + r21 * m12 + r22 * m22))
    return th2, r, t


def _taylor(th2):
    """``a, b, c`` by their Taylor series through θ⁴; the rest is below 1e-21
    for θ under ``_SMALL_ANGLE``."""
    return (1.0 - th2 / 6.0 * (1.0 - th2 / 20.0),
            0.5 - th2 / 24.0 * (1.0 - th2 / 30.0),
            1.0 / 6.0 - th2 / 120.0 * (1.0 - th2 / 42.0))


def _closed_form(th2, th, sin_th, sin_half):
    a = sin_th / th
    return a, 2.0 * (sin_half * sin_half) / th2, (1.0 - a) / th2


def _coefficients(th2: float):
    if th2 < _SMALL_ANGLE**2:
        return _taylor(th2)
    th = math.sqrt(th2)
    return _closed_form(th2, th, math.sin(th), math.sin(0.5 * th))


def _each(fn, *columns) -> np.ndarray:
    """``fn`` of the ``math`` module applied element by element, so that a
    column gives the bits the scalar path gets."""
    return np.array(list(map(fn, *(c.tolist() for c in columns))), dtype=float)


def _coefficient_columns(th2: np.ndarray):
    # each form sees only the angles it is kept for, so neither can overflow or divide by 0
    small = th2 < _SMALL_ANGLE**2
    big = np.where(small, 1.0, th2)
    th = np.sqrt(big)
    closed = _closed_form(big, th, _each(math.sin, th), _each(math.sin, 0.5 * th))
    taylor = _taylor(np.where(small, th2, 0.0))
    return [np.where(small, near, far) for near, far in zip(taylor, closed)]


def vehicle_step(state: VehicleState, cmd: VelocityCommand, dt: float) -> VehicleState:
    """Move the body for ``dt`` under the constant body-frame twist ``cmd``:
    exactly ``pose · exp(dt·ξ)`` (``_se3_exp``), on the state's and the
    command's floats. Zero ``w`` keeps the rotation, and a zero twist the pose."""
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if not cmd.is_finite:
        raise ValueError("velocity command has non-finite components")
    vx, vy, vz, wx, wy, wz = cmd.twist
    p, w = (vx * dt, vy * dt, vz * dt), (wx * dt, wy * dt, wz * dt)
    if not any(p + w):
        return VehicleState._of(state.r, state.t, state.frames, state.time + dt)
    th2, r, t = _se3_exp(state.r, state.t, p, w, _coefficients)
    return VehicleState._of(r if th2 else state.r, check_translation(t), state.frames,
                            state.time + dt)


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
    """The engine after the handlers of one event. ``shown`` holds the
    displayed config's row cells (id, family label, size, cell count), and
    ``note`` a pose result's (detect_status to est_yaw), None for other events."""

    time: float
    state: VehicleState
    cmd: VelocityCommand
    shown: tuple
    believed: int
    landing: bool
    note: tuple | None


_NO_NOTE = ("", "", None, None, None, None)


def _cells(e: _Entry, note: tuple) -> tuple:
    """A row's cells past ``distance``: its note, then its entry's."""
    vx, vy, vz, _, _, wz = e.cmd.twist
    return (*note, *e.shown, e.believed, vx, vy, vz, wz, int(e.landing))


def _shown_cells(config: MarkerConfig) -> tuple:
    label = "full_pose" if config.family.kind is FamilyKind.SHORT_RANGE_FULL_POSE else "long_range"
    return config.config_id, label, config.marker_size, config.n_cells


class TraceRows(Sequence):
    """The trace rows of a finished run, sampled on demand from its event log.

    Row k is at ``k * tick_step``, for every such instant up to the end. It
    samples the motion from the last entry strictly before its instant, so it
    shows the state before the events there, and its notes are the last in
    ``[t_{k-1}, t_k)``. A run that ends between rows adds an end row: the
    last entry, with the last notes since the previous row.

    Rows are sampled ``_BLOCK`` at a time, in passes of ``vehicle_step``'s
    formula on numpy columns (``_rows``).
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
            return list(self._rows(np.arange(self._len)[k]))
        return next(self._rows(np.array([range(self._len)[k]])))

    def __iter__(self):
        return self._rows(np.arange(self._len))

    @cached_property
    def _stacked(self):
        """The entry times, and the times and cells of the notes after a
        no-note sentinel at -inf, stacked on first use."""
        log = self._log
        noted = [e for e in log if e.note]
        return (np.fromiter((e.time for e in log), float, len(log)),
                np.array([-math.inf] + [e.time for e in noted]),
                [_NO_NOTE] + [e.note for e in noted])

    def _rows(self, ks: np.ndarray):
        """The rows ``ks``, sampled ``_BLOCK`` at a time. Rows come in runs that
        share an entry and a note, and a run shares its cells past ``distance``."""
        log, notes, key = self._log, self._stacked[2], None
        for start in range(0, len(ks), _BLOCK):
            for row, i, k in self._sample(ks[start:start + _BLOCK]):
                if (i, k) != key:
                    key, rest = (i, k), _cells(log[i], notes[k])
                yield TickRecord._make(row + rest)

    def _sample(self, ks: np.ndarray):
        """Rows ``ks`` in one pass: their six sampled floats (time to
        distance), entry index and note index."""
        log, tick = self._log, self._tick
        times, note_times, _ = self._stacked
        end_row = ks == self._ticks
        t = np.where(end_row, times[-1], ks * tick)
        # each row's entry: the last strictly before it, the last of all at the end row
        j = np.where(end_row, len(log) - 1, np.maximum(times.searchsorted(t) - 1, 0))
        x, y, z, yaw = _sampled_columns(log, j, t - times[j])
        distance = np.sqrt(x * x + y * y + z * z)
        # each row's note: the last strictly before it, if at or after the previous row
        n = np.where(end_row, len(note_times) - 1, note_times.searchsorted(t) - 1)
        n = np.where(note_times[n] >= (ks - 1) * tick, n, 0)
        floats = zip(t.tolist(), x.tolist(), y.tolist(), z.tolist(), yaw.tolist(), distance.tolist())
        return zip(floats, j.tolist(), n.tolist())


def _sampled_columns(log: list[_Entry], j: np.ndarray, dt: np.ndarray):
    """x, y, z and yaw of ``log[j]`` moved for ``dt`` under its twist, as
    ``vehicle_step`` moves it, evaluated on numpy columns."""
    first = int(j.min())
    motion = np.array([(*e.state.r, *e.state.t, *e.cmd.twist)
                       for e in log[first:int(j.max()) + 1]]).T[:, j - first]
    r, xyz = motion[:9], motion[9:12]
    p, w = motion[12:15] * dt, motion[15:18] * dt
    th2, r_new, xyz_new = _se3_exp(r, xyz, p, w, _coefficient_columns)
    still = ~(p.any(axis=0) | w.any(axis=0))  # a zero twist keeps the pose
    x, y, z = (np.where(still, old, new) for old, new in zip(xyz, xyz_new))
    turned = th2 != 0  # and zero w the rotation
    yaw = _each(math.atan2, np.where(turned, r_new[3], r[3]), np.where(turned, r_new[0], r[0]))
    return x, y, z, yaw


@dataclass
class SimTrace:
    """Full record of one run, its configuration and the counts the metrics use.

    ``records`` is the row sequence (a ``TraceRows`` for an engine run).
    ``stamps`` is the validity audit: one (capture_time, displayed_config_id,
    computed_against_id, reason) tuple per successful detection. A hole is a
    stamp whose ids differ but whose reason is ``ok``: a corrupted frame no
    window holds. A window dropout is a capture inside an update's wait window
    that gave no detection.
    """

    records: Sequence
    events: list
    stamps: list
    status: str  # landed | timeout | diverged
    touchdown_time: float | None
    final_state: tuple
    initial_yaw: float
    detection_count: int
    dropout_count: int
    invalid_count: int
    window_dropout_count: int
    marker_update_count: int
    family_switch_count: int
    max_detection_distance: float | None
    config: ScenarioConfig
    scheme_effective: str  # the scheme the run used, safe when optimized does not apply


TRACE_COLUMNS = TickRecord._fields


class _Engine:
    def __init__(self, config: ScenarioConfig):
        self.cfg = config
        self.rng = np.random.default_rng(config.seed)
        x, y, z = config.initial_position
        self.state = VehicleState(camera_pose_in_marker(x, y, z, config.initial_yaw), 0.0)
        self.initial_yaw = _vehicle_yaw(self.state)
        self.desired = invert(camera_pose_in_marker(0.0, 0.0, config.desired_height,
                                                    config.desired_yaw, "camera_desired"))

        # dynamic and static-long-range both start from the long-range
        # bootstrap so the first detection succeeds from far away
        family = (config.full_pose_family if config.strategy == "static-full-pose"
                  else config.long_range_family)
        initial = bootstrap_config(family, config.screen, config.fill_factor)
        self.displayed, self.shown = initial, _shown_cells(initial)
        self.detector = DetectorParams(believed_config=initial, intrinsics=config.intrinsics)
        self.commanded = initial

        self.protocol = UpdateProtocol(
            config.timing_scheme if evaluate_optimized_conditions(config.delays) else "safe")

        self.cmd = VelocityCommand.zero()
        self.landing = False

        self.log: list[_Entry] = []
        self.events: list[EventRecord] = []
        self.stamp_audit: list[tuple] = []
        self.dropouts = self.window_dropouts = self.family_switches = 0
        self.max_detect_dist = 0.0  # reported as None when nothing was detected

        self.status = "running"
        self.queue = EventQueue()

    # -- motion, termination and the log ---------------------------------

    def _outcome(self, state: VehicleState) -> str | None:
        # Leaving the bounds is checked first. At the exact crossing a landing
        # descent is down before it reaches the ground bound, at any speed.
        x, y, z = state.t
        if math.hypot(x, y) > self.cfg.bounds_radius or not -0.05 <= z <= self.cfg.bounds_height:
            return "diverged"
        if self.landing and z <= self.cfg.touchdown_height:
            return "landed"
        return None

    def _move_to(self, time: float) -> bool:
        """Move the vehicle to ``time`` under the held twist, or to the first
        instant on the way where it is down or out of bounds; return whether
        the run ended there. A state is stamped with its instant itself, which
        ``start.time + dt`` can miss by an ulp."""
        start = self.state
        if time != start.time:  # vehicle_step returns a new state, restamped here in place
            self.state = vehicle_step(start, self.cmd, time - start.time)
            self.state.time = time
        if self._outcome(self.state) is None:
            return False
        lo, hi = start.time, time
        if self._outcome(start) is not None:
            self.state, hi = start, lo
        while lo < (mid := 0.5 * (lo + hi)) < hi:  # lo is short of the end, hi at or past it
            probe = vehicle_step(start, self.cmd, mid - start.time)
            probe.time = mid
            if self._outcome(probe) is None:
                lo = mid
            else:
                hi, self.state = mid, probe
        self.status = self._outcome(self.state)
        return True

    def _log_entry(self, note: tuple | None = None):
        self.log.append(_Entry(self.state.time, self.state, self.cmd, self.shown,
                               self.detector.believed_config.config_id, self.landing, note))

    # -- event handlers ----------------------------------------------------

    def _on_grab(self, now: float, k: int):
        rt, cam = inverse_of(np.array(self.state.r).reshape(3, 3), np.array(self.state.t))
        true_rel = Pose._unchecked(rt, cam, *self.state.frames[::-1])  # invert(state.pose)
        transport = self.cfg.delays.video.sample(self.rng) + self.cfg.delays.pose.sample(self.rng)
        self.queue.push(now + transport, "pose-ready", (now, true_rel, self.displayed))
        # on the frame grid, as rows are on theirs, so that coinciding instants are equal
        self.queue.push((k + 1) * self.cfg.intrinsics.frame_period, "grab", k + 1)

    def _on_pose_ready(self, now: float, capture_time, true_rel, displayed_at_capture):
        result = simulate_detection(true_rel, displayed_at_capture, self.detector, self.rng,
                                    capture_time=capture_time)
        if isinstance(result, NoDetection):
            self.dropouts += 1
            self.window_dropouts += self.protocol.window_of(capture_time) is not None
            return (f"no-detection:{result.reason}", *_NO_NOTE[1:])
        if not surely_within(true_rel.translation.tolist(), self.max_detect_dist):
            self.max_detect_dist = max(self.max_detect_dist, vector_norm(true_rel.translation))
        shown = displayed_at_capture.config_id
        stamp = self.protocol.stamp(capture_time)
        self.stamp_audit.append((capture_time, shown, result.computed_against, stamp.reason))
        if not stamp.valid:
            cam = inverse_of(result.relative_pose.rotation, result.relative_pose.translation)[1]
            return ("detected", stamp.reason, *cam.tolist(), result.yaw)

        cfg = self.cfg
        cam, linear, angular = servo_step(result, self.desired, cfg.gain, cfg.max_linear_speed,
                                          cfg.max_angular_speed)
        if (
            not self.landing
            and cfg.landing_error_threshold is not None
            and math.hypot(cam[0], cam[1]) < cfg.landing_error_threshold
            # only arm once the vehicle is tracking near the desired height
            and abs(cam[2] - cfg.desired_height) < 2.0 * cfg.landing_error_threshold
        ):
            self.landing = True
        if self.landing:
            linear[2] = float(cfg.descent_rate)  # with_descent's override, which makes it a float
        self.cmd = VelocityCommand._of((*linear, *angular))

        if cfg.strategy == "dynamic":
            proposal = select_marker(
                result, cfg.policy, cfg.intrinsics, cfg.screen, self.commanded,
                cfg.long_range_family, cfg.full_pose_family, size_variant=cfg.size_rule,
                gap_fraction=cfg.gap_fraction, fill_factor=cfg.fill_factor,
            )
            if proposal is not None and self.protocol.propose(proposal):
                self._start_update(proposal, now)
        return ("detected", stamp.reason, *cam, result.yaw)

    def _start_update(self, marker: MarkerConfig, now: float):
        sample = self.cfg.delays.sample(self.rng)
        timeline = schedule_update(now, sample, self.cfg.intrinsics.frame_period)
        if marker.family.kind is not self.commanded.family.kind:
            self.family_switches += 1
        self.commanded = marker
        self.events.append(EventRecord(now, "command", marker.config_id))
        self.protocol.issue(timeline, marker, self.queue)

    def _on_update_event(self, now: float, kind: str, marker: MarkerConfig):
        self.events.append(EventRecord(now, kind, marker.config_id))
        if kind == "display":
            self.displayed, self.shown = marker, _shown_cells(marker)
        elif kind == "detector-update":
            self.detector = apply_update(self.detector, marker)
        elif kind == "update-complete" and (proposal := self.protocol.complete()) is not None:
            self._start_update(proposal, now)

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimTrace:
        cfg, queue = self.cfg, self.queue
        queue.push(0.0, "grab", 0)
        if cfg.landing_trigger_time is not None:
            queue.push(cfg.landing_trigger_time, "landing_trigger")
        queue.push(cfg.duration, "end")

        self._log_entry()
        while True:  # the end event stops the loop at the latest
            time, kind, payload = queue.pop()
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

        x, y, z = self.state.t
        return SimTrace(
            records=TraceRows(self.log, cfg.tick_step),
            events=self.events,
            stamps=self.stamp_audit,
            status=self.status,
            touchdown_time=self.state.time if self.status == "landed" else None,
            final_state=(x, y, z, _vehicle_yaw(self.state)),
            initial_yaw=self.initial_yaw,
            detection_count=len(self.stamp_audit),
            dropout_count=self.dropouts,
            invalid_count=sum(stamp[3] != "ok" for stamp in self.stamp_audit),
            window_dropout_count=self.window_dropouts,
            marker_update_count=sum(e.kind == "command" for e in self.events),
            family_switch_count=self.family_switches,
            max_detection_distance=self.max_detect_dist if self.stamp_audit else None,
            config=cfg,
            scheme_effective=self.protocol.scheme,
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
    cfg, landed = trace.config, trace.status == "landed"
    return {
        "status": trace.status,
        "landed": landed,
        "time_to_land": trace.touchdown_time if landed else None,
        "final_lateral_error": math.hypot(x, y),
        "final_yaw_error": abs(wrap_angle(yaw - cfg.desired_yaw)),
        "initial_yaw_error": abs(wrap_angle(trace.initial_yaw - cfg.desired_yaw)),
        "touchdown_x": x if landed else None,
        "touchdown_y": y if landed else None,
        "detection_count": trace.detection_count,
        "dropout_count": trace.dropout_count,
        "invalid_count": trace.invalid_count,
        "hole_count": sum(shown != computed and reason == "ok"
                          for _, shown, computed, reason in trace.stamps),
        "window_dropout_count": trace.window_dropout_count,
        "marker_update_count": trace.marker_update_count,
        "family_switch_count": trace.family_switch_count,
        "max_detection_distance": trace.max_detection_distance,
        "seed": cfg.seed,
        "strategy": cfg.strategy,
        "timing_scheme": trace.scheme_effective,
        "size_rule": cfg.size_rule,
    }


class _Line:
    """A ``csv.writer`` target whose ``writerow`` returns the formatted line."""

    write = staticmethod(str)


def trace_to_csv(trace: SimTrace, path):
    """Write the per-tick records; one row per record, columns as documented
    in the README (SI units, radians). The bytes are ``csv.writer``'s: the six
    sampled floats (time to distance) of a row are their ``repr``, as csv
    writes a float, and the other cells are formatted by csv itself, once per
    run of rows that hold the same cell objects, as a ``TraceRows`` run does."""
    line = csv.writer(_Line).writerow
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(line(TRACE_COLUMNS))
        last = cells = None
        for row in trace.records:
            rest = row[6:]
            if last is None or not all(map(is_, rest, last)):  # objects, not values: 0.0 == -0.0
                last, cells = rest, line(rest)
            fh.write(f"{row[0]!r},{row[1]!r},{row[2]!r},{row[3]!r},{row[4]!r},{row[5]!r},{cells}")


def events_to_csv(trace: SimTrace, path):
    """Write the marker-update protocol event log."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time", "event", "config_id"))
        writer.writerows(trace.events)
