import bisect
import csv
import math
import re
import tempfile
from collections.abc import Sequence
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from markersim import geometry, perception, simulation, timing
from markersim.domain import Domain, declared
from markersim.geometry import CameraIntrinsics, Pose, _rotation_defect, fov_half_angle
from markersim.marker import MarkerConfig, MarkerFamily, NoiseProfile
from markersim.marker_control import SwitchPolicy
from markersim.pbvs import VelocityCommand
from markersim.perception import NoDetection
from markersim.scenario import (
    ScenarioConfig,
    nominal_landing_scenario,
    randomized_initial_conditions,
)
from markersim.simulation import (
    _SMALL_ANGLE,
    TRACE_COLUMNS,
    SimTrace,
    VehicleState,
    camera_pose_in_marker,
    collect_metrics,
    events_to_csv,
    run_scenario,
    trace_to_csv,
    vehicle_step,
)
from markersim.timing import DelayModel, DelaySpec


def quiet_families(config):
    """Config copy with every noise source zeroed."""
    zero = NoiseProfile(0.0, 0.0)
    return replace(
        config,
        long_range_family=replace(config.long_range_family, position_noise=zero),
        full_pose_family=replace(
            config.full_pose_family, position_noise=zero, yaw_noise=zero
        ),
    )


def constant_delays(value=0.0):
    return DelayModel(
        detector_update=DelaySpec.constant(value),
        display=DelaySpec.constant(value),
        display_confirm=DelaySpec.constant(value),
        video=DelaySpec.constant(value),
        pose=DelaySpec.constant(value),
    )


class TestVehicleStep:
    def test_hover_is_exact(self):
        state = VehicleState(camera_pose_in_marker(0.1, 0.2, 1.0, 0.3), 0.0)
        after = vehicle_step(state, VelocityCommand.zero(), 0.1)
        assert after.time == pytest.approx(0.1)
        assert np.abs(after.pose.translation - state.pose.translation).max() < 1e-12
        assert np.abs(after.pose.rotation - state.pose.rotation).max() < 1e-12

    def test_forward_step(self):
        state = VehicleState(camera_pose_in_marker(0.0, 0.0, 1.0, 0.0), 0.0)
        cmd = VelocityCommand(np.array([1.0, 0.0, 0.0]), np.zeros(3))
        after = vehicle_step(state, cmd, 0.1)
        # body x is aligned with the marker x axis at zero yaw
        np.testing.assert_allclose(after.pose.translation, [0.1, 0.0, 1.0], atol=1e-12)

    def test_pure_rotation_step(self):
        state = VehicleState(camera_pose_in_marker(0.0, 0.0, 1.0, 0.0), 0.0)
        cmd = VelocityCommand(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        after = vehicle_step(state, cmd, 0.1)
        np.testing.assert_allclose(after.pose.translation, state.pose.translation, atol=1e-12)
        rel = state.pose.rotation.T @ after.pose.rotation
        angle = math.acos(min(1.0, (np.trace(rel) - 1.0) / 2.0))
        assert angle == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize(
        "angle",
        [0.0, 1e-9, _SMALL_ANGLE * (1 - 1e-6), _SMALL_ANGLE * (1 + 1e-6), 0.1, math.pi, 10.0],
    )
    def test_step_is_the_se3_exponential(self, angle):
        # pose · exp(dt·ξ), with scipy's matrix exponential of the 4x4 twist
        def hat(w):
            return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])

        rng = np.random.default_rng(7)
        for _ in range(20):
            start = np.eye(4)
            start[:3, :3], start[:3, 3] = expm(hat(rng.normal(size=3))), rng.normal(size=3)
            dt = rng.uniform(0.001, 1.0)
            axis = rng.normal(size=3)
            cmd = VelocityCommand(rng.normal(size=3), axis / np.linalg.norm(axis) * angle / dt)
            twist = np.zeros((4, 4))
            twist[:3, :3], twist[:3, 3] = hat(cmd.angular * dt), cmd.linear * dt
            expected = start @ expm(twist)
            state = VehicleState(Pose(start[:3, :3], start[:3, 3], "body", "world"), 0.0)
            after = vehicle_step(state, cmd, dt).pose
            np.testing.assert_allclose(after.rotation, expected[:3, :3], rtol=0, atol=1e-12)
            np.testing.assert_allclose(after.translation, expected[:3, 3], rtol=0, atol=1e-12)

    def test_coefficient_columns_are_the_float_coefficients(self):
        # element by element, on both sides of _SMALL_ANGLE, and with no
        # overflow warning from the discarded form at huge angles
        th2 = np.array([0.0, 1e-300, 1e-8, (_SMALL_ANGLE * (1 - 1e-9))**2, _SMALL_ANGLE**2,
                        0.01, 1.0, 10.0, 1e160, 1e300])
        columns = simulation._coefficient_columns(th2)
        for i, value in enumerate(th2.tolist()):
            assert bits(*(column[i] for column in columns)) == bits(*simulation._coefficients(value))

    def test_no_angular_velocity_keeps_rotation_bits(self):
        state = VehicleState(camera_pose_in_marker(0.1, 0.2, 1.0, 0.3), 0.0)
        cmd = VelocityCommand(np.array([0.4, -0.2, 0.3]), np.zeros(3))
        after = vehicle_step(state, cmd, 0.01)
        assert after.pose.rotation.tobytes() == state.pose.rotation.tobytes()

    def test_descent_moves_toward_marker(self):
        state = VehicleState(camera_pose_in_marker(0.0, 0.0, 1.0, 0.0), 0.0)
        cmd = VelocityCommand(np.array([0.0, 0.0, 0.3]), np.zeros(3))
        after = vehicle_step(state, cmd, 0.1)
        assert after.pose.translation[2] == pytest.approx(0.97, abs=1e-12)

    def test_long_hover_stays_put(self):
        state = VehicleState(camera_pose_in_marker(0.0, 0.0, 2.0, 0.5), 0.0)
        for _ in range(100):
            state = vehicle_step(state, VelocityCommand.zero(), 0.01)
        np.testing.assert_allclose(state.pose.translation, [0.0, 0.0, 2.0], atol=1e-12)

    def test_non_finite_command_rejected(self):
        state = VehicleState(camera_pose_in_marker(0.0, 0.0, 1.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            vehicle_step(state, VelocityCommand(np.array([np.nan, 0, 0]), np.zeros(3)), 0.1)

    def test_overflowing_step_rejected(self):
        state = VehicleState(camera_pose_in_marker(0.0, 0.0, 1.0, 0.0), 0.0)
        cmd = VelocityCommand(np.array([1e300, 0.0, 0.0]), np.zeros(3))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match="translation has non-finite components"
        ):
            vehicle_step(state, cmd, 1e10)

    def test_nonpositive_dt_rejected(self):
        state = VehicleState(camera_pose_in_marker(0.0, 0.0, 1.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            vehicle_step(state, VelocityCommand.zero(), 0.0)

    @pytest.mark.parametrize("pose", [
        camera_pose_in_marker(-0.0, 0.5, 1.0, -0.0),
        Pose(expm(np.array([[0.0, -0.3, 0.2], [0.3, 0.0, -0.1], [-0.2, 0.1, 0.0]])),
             np.array([1e-300, -2.5, 7.0]), "body", "world"),
    ])
    def test_state_gives_back_the_pose_it_was_built_from(self, pose):
        state = VehicleState(pose, 0.25)
        assert state.time == 0.25
        assert state.pose.rotation.tobytes() == pose.rotation.tobytes()
        assert state.pose.translation.tobytes() == pose.translation.tobytes()  # -0.0 kept
        assert (state.pose.from_frame, state.pose.to_frame) == (pose.from_frame, pose.to_frame)


def test_records_do_not_depend_on_the_tick():
    # The vehicle moves only at events, the run ends at the exact crossing,
    # and rows are sampled from the event log after the run, so a tick only
    # sets where the rows fall: the rows at equal instants agree bit for bit,
    # and so do the end, the events and the stamps.
    notes = [TRACE_COLUMNS.index(name) for name in
             ("detect_status", "validity", "est_x", "est_y", "est_z", "est_yaw")]
    state = [i for i in range(len(TRACE_COLUMNS)) if i not in notes]
    nominal = nominal_landing_scenario()
    for base in [nominal] + [randomized_initial_conditions(nominal, 9, i) for i in range(4)]:
        runs = [run_scenario(replace(base, tick_step=t)) for t in (0.016, 0.01, 0.004, 0.002, 0.001)]
        coarse = runs[0]
        for trace in runs[1:]:
            assert (trace.status, trace.touchdown_time, trace.final_state) == (
                coarse.status, coarse.touchdown_time, coarse.final_state)
            assert trace.events == coarse.events
            assert trace.stamps == coarse.stamps
            rows = {r.time: r for r in trace.records}
            shared = [r for r in coarse.records if r.time in rows]
            assert len(shared) >= len(coarse.records) // 6  # 0.016 and 0.01 share every fifth coarse row
            for r in shared:
                assert [r[i] for i in state] == [rows[r.time][i] for i in state]
            # A row's notes are the last detection since the previous row: a
            # coarse row's notes are the last notes of the finer rows over
            # the same interval.
            noted = [r for r in trace.records if r.detect_status]
            noted_times = [r.time for r in noted]
            for prev, cur in zip(coarse.records, coarse.records[1:]):
                if prev.time in rows and cur.time in rows:
                    k = bisect.bisect_right(noted_times, cur.time) - 1
                    last = noted[k] if k >= 0 and noted[k].time > prev.time else None
                    expected = [last[i] for i in notes] if last else ["", "", None, None, None, None]
                    assert [cur[i] for i in notes] == expected


@pytest.mark.parametrize("case", ["landing", "12-fps", "jittered", "timeout"])
def test_every_state_is_stamped_with_its_event_time(case, monkeypatch):
    """Each log entry after an event, and its state, carry the event's own
    time, not ``start.time + dt``, which can miss it by an ulp: at 12 fps with
    8 ms of transport, ``0.008 + (1/12 - 0.008) != 1/12``."""
    nominal = nominal_landing_scenario()
    config = {
        "landing": nominal,
        "12-fps": replace(nominal, intrinsics=replace(nominal.intrinsics, frame_period=1 / 12),
                          delays=replace(nominal.delays, video=DelaySpec.constant(0.005),
                                         pose=DelaySpec.constant(0.003))),
        "jittered": replace(nominal, delays=replace(nominal.delays, video=DelaySpec.uniform(
            0.0, 0.030), pose=DelaySpec.uniform(0.0, 0.020))),
        "timeout": replace(nominal, duration=3.0),
    }[case]
    popped = []
    pop = timing.EventQueue.pop

    def recording(queue):
        event = pop(queue)
        popped.append(event[0])
        return event

    monkeypatch.setattr(timing.EventQueue, "pop", recording)
    trace = run_scenario(config)
    log = trace.records._log
    # the start, one entry per event but the one that ends the run, and the end state
    assert len(log) == len(popped) + 1 > 100
    assert log[0].time == log[0].state.time == 0.0
    assert [(e.time, e.state.time) for e in log[1:-1]] == [(t, t) for t in popped[:-1]]
    end = log[-1]
    assert end.time == end.state.time
    assert end.time == popped[-1] if trace.status == "timeout" else end.time <= popped[-1]
    assert trace.status == ("timeout" if case == "timeout" else "landed")


@pytest.mark.parametrize("duration, tick_step", [(60.0, 0.01), (4.0, 0.001)])
def test_timeout_writes_one_row_per_tick_and_one_at_the_end(duration, tick_step):
    # The k-th row is taken at k * tick_step, not at a sum of ticks that
    # drifts off the end instant.
    config = nominal_landing_scenario(
        landing_error_threshold=None, duration=duration, tick_step=tick_step
    )
    trace = run_scenario(config)
    assert trace.status == "timeout"
    assert len(trace.records) == round(duration / tick_step) + 1
    assert [r.time for r in trace.records] == [k * tick_step for k in range(len(trace.records))]


class TestEquilibrium:
    def test_stationary_at_goal(self):
        base = nominal_landing_scenario()
        config = replace(
            quiet_families(base),
            delays=constant_delays(),
            initial_position=(0.0, 0.0, 2.5),
            initial_yaw=0.0,
            landing_error_threshold=None,
            landing_trigger_time=None,
            duration=5.0,
        )
        trace = run_scenario(config)
        assert trace.status == "timeout"
        final = trace.records[-1]
        assert abs(final.x) < 1e-9 and abs(final.y) < 1e-9
        assert final.z == pytest.approx(2.5, abs=1e-9)
        assert trace.dropout_count == 0
        assert trace.invalid_count == 0
        assert trace.marker_update_count == 0
        assert trace.family_switch_count == 0
        assert all(r == "ok" for _, _, _, r in trace.stamps)


@pytest.fixture(scope="module")
def landing_trace():
    return run_scenario(nominal_landing_scenario())


class TestLandingScenario:
    @pytest.fixture
    def trace(self, landing_trace):
        return landing_trace

    def test_lands(self, trace):
        assert trace.status == "landed"
        assert trace.touchdown_time is not None

    def test_exactly_one_family_switch(self, trace):
        assert trace.family_switch_count == 1

    def test_yaw_corrected_only_after_switch(self, trace):
        records = trace.records
        initial_yaw = records[0].yaw
        switch_index = next(
            i for i, r in enumerate(records) if r.displayed_family == "full_pose"
        )
        before = records[: switch_index + 1]
        # the long-range family observes no yaw, so heading holds exactly
        assert all(abs(r.yaw - initial_yaw) < 1e-9 for r in before)
        assert abs(records[-1].yaw) < 0.1 * abs(initial_yaw)

    def test_marker_shrinks_during_final_descent(self, trace):
        sizes = [r.displayed_size for r in trace.records]
        assert sizes[0] == pytest.approx(0.15)
        assert sizes[-1] < 0.05

    def test_board_fill_in_happened(self, trace):
        assert any(r.displayed_cells > 1 for r in trace.records)

    def test_no_ok_stamp_on_mismatch(self, trace):
        assert all(
            not (reason == "ok" and frame != detector)
            for _, frame, detector, reason in trace.stamps
        )
        # the race actually occurred and was caught
        assert any(frame != detector for _, frame, detector, _ in trace.stamps)

    def test_commands_follow_valid_estimates(self, trace):
        records = trace.records
        for prev, cur in zip(records, records[1:]):
            cmd_changed = (
                (prev.cmd_vx, prev.cmd_vy, prev.cmd_vz, prev.cmd_wz)
                != (cur.cmd_vx, cur.cmd_vy, cur.cmd_vz, cur.cmd_wz)
            )
            if cmd_changed and prev.landing == cur.landing:
                assert cur.validity == "ok"

    def test_record_times_strictly_increasing(self, trace):
        times = [r.time for r in trace.records]
        assert all(b > a for a, b in zip(times, times[1:]))


class TestStaticStrategies:
    def test_static_full_pose_blind_above_range(self):
        config = replace(nominal_landing_scenario(), strategy="static-full-pose", duration=10.0)
        trace = run_scenario(config)
        assert trace.status == "timeout"
        assert trace.detection_count == 0
        assert trace.dropout_count > 100
        assert trace.max_detection_distance is None
        assert all(r.detect_status != "detected" for r in trace.records if r.detect_status)

    def test_static_long_range_lands_without_yaw_correction(self):
        config = replace(nominal_landing_scenario(), strategy="static-long-range")
        trace = run_scenario(config)
        metrics = collect_metrics(trace)
        assert trace.status == "landed"
        assert metrics["final_yaw_error"] >= 0.8 * metrics["initial_yaw_error"]
        assert trace.marker_update_count == 0


class TestDeterminism:
    def test_traces_byte_identical(self, tmp_path):
        config = nominal_landing_scenario()
        paths = []
        for tag in ("a", "b"):
            trace = run_scenario(config)
            t = tmp_path / f"trace_{tag}.csv"
            e = tmp_path / f"events_{tag}.csv"
            trace_to_csv(trace, t)
            events_to_csv(trace, e)
            paths.append((t.read_bytes(), e.read_bytes()))
        assert paths[0] == paths[1]

    def test_csv_cells_round_trip_every_value(self, landing_trace, tmp_path):
        trace_path, events_path = tmp_path / "trace.csv", tmp_path / "events.csv"
        trace_to_csv(landing_trace, trace_path)
        events_to_csv(landing_trace, events_path)
        kinds = set()
        for path, header, records in (
            (trace_path, TRACE_COLUMNS, landing_trace.records),
            (events_path, ("time", "event", "config_id"), landing_trace.events),
        ):
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == list(header)
            assert len(rows) == len(records) + 1
            for record, row in zip(records, rows[1:]):
                assert len(row) == len(record)
                for value, cell in zip(record, row):
                    kinds.add(type(value))
                    if value is None:
                        assert cell == ""
                    elif type(value) is float:
                        assert float(cell).hex() == value.hex()
                    else:
                        assert type(value) in (int, str) and cell == str(value)
        # every kind of cell occurs, and no other
        assert kinds == {type(None), float, int, str}

    def test_trace_header_is_readme_column_order(self, tmp_path):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Trace CSV columns", 1)[1].split("```")[1]
        documented = [
            name.strip()
            for line in block.strip().splitlines()
            for name in re.split(r"\s{2,}", line)[0].split(",")
            if name.strip()
        ]
        path = tmp_path / "trace.csv"
        trace_to_csv(run_scenario(replace(nominal_landing_scenario(), duration=0.05)), path)
        assert path.read_text(encoding="utf-8").splitlines()[0].split(",") == documented

    def test_different_seeds_differ(self):
        base = nominal_landing_scenario()
        a = run_scenario(base)
        b = run_scenario(replace(base, seed=1))
        assert [r.time for r in a.records] != [r.time for r in b.records] or (
            a.final_state != b.final_state
        )


class TestMetrics:
    def make_trace(self, status="landed", x=0.03, y=0.04, yaw=0.1, touchdown=9.0):
        from markersim.simulation import TickRecord

        record = TickRecord(
            time=0.0, x=0.5, y=0.0, z=2.5, yaw=0.5, distance=2.55,
            detect_status="", validity="", est_x=None, est_y=None, est_z=None,
            est_yaw=None, displayed_config=0, displayed_family="long_range",
            displayed_size=0.15, displayed_cells=1, believed_config=0,
            cmd_vx=0.0, cmd_vy=0.0, cmd_vz=0.0, cmd_wz=0.0, landing=0,
        )
        return SimTrace(
            records=[record], events=[], stamps=[], status=status,
            touchdown_time=touchdown if status == "landed" else None,
            final_state=(x, y, 0.015, yaw), initial_yaw=0.5, detection_count=10, dropout_count=1,
            invalid_count=2, window_dropout_count=1, marker_update_count=3, family_switch_count=1,
            max_detection_distance=2.5, config=nominal_landing_scenario(),
            scheme_effective="optimized",
        )

    def test_lateral_error_is_euclidean(self):
        m = collect_metrics(self.make_trace(x=0.03, y=0.04))
        assert m["final_lateral_error"] == pytest.approx(0.05, abs=1e-12)
        assert m["time_to_land"] == 9.0

    def test_perfect_touchdown(self):
        m = collect_metrics(self.make_trace(x=0.0, y=0.0))
        assert m["final_lateral_error"] == 0.0

    def test_non_landing_run_has_no_time_to_land(self):
        m = collect_metrics(self.make_trace(status="timeout"))
        assert m["time_to_land"] is None
        assert m["landed"] is False

    def test_empty_trace_rejected(self):
        trace = self.make_trace()
        trace.records = []
        with pytest.raises(ValueError):
            collect_metrics(trace)

    def test_initial_yaw_error_from_first_record(self):
        # the first record's yaw is the initial heading, which the run keeps
        # apart: the summary reads the row count and no row
        class LengthOnly(Sequence):
            def __len__(self):
                return 1

            def __getitem__(self, k):
                raise AssertionError("collect_metrics read a row")

        trace = self.make_trace()
        trace.records = LengthOnly()
        m = collect_metrics(trace)
        assert m["initial_yaw_error"] == pytest.approx(0.5)


def test_window_dropouts_complete_the_update_loss():
    """Every capture inside an update's wait window is lost to the update:
    stamped invalid when detected, a window dropout when not."""
    captures, timelines = [], []

    def detect(*args, capture_time):
        captures.append(capture_time)
        return perception.simulate_detection(*args, capture_time=capture_time)

    def schedule(*args):
        timelines.append(timing.schedule_update(*args))
        return timelines[-1]

    nominal, lost, dropouts = nominal_landing_scenario(), 0, 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "simulate_detection", detect)
        mp.setattr(simulation, "schedule_update", schedule)
        for i in range(8):
            captures.clear()
            timelines.clear()
            trace = run_scenario(randomized_initial_conditions(nominal, 2026, i))
            assert trace.scheme_effective == "optimized"
            windows = [timing.wait_window(tl, "optimized") for tl in timelines]
            inside = sum(any(lo <= c < hi for lo, hi in windows) for c in captures)
            assert trace.invalid_count + trace.window_dropout_count == inside
            lost += inside
            dropouts += trace.window_dropout_count
    assert lost and dropouts  # some window frames gave no detection


class TestSchemeFallback:
    def run_with(self, **delays):
        base = replace(nominal_landing_scenario(), duration=8.0)
        return run_scenario(replace(base, delays=replace(base.delays, **delays)))

    def test_optimized_falls_back_when_conditions_fail(self):
        trace = self.run_with(video=DelaySpec.uniform(0.002, 0.008))
        assert trace.config.timing_scheme == "optimized"
        assert trace.scheme_effective == "safe"

    def test_slow_confirmation_stays_optimized(self):
        trace = self.run_with(display_confirm=DelaySpec.uniform(0.05, 0.5))
        assert trace.scheme_effective == "optimized"

    def test_a_zero_width_range_runs_as_the_constant(self, tmp_path):
        # it draws nothing, so every later draw is the constant's
        outputs = []
        for video in (DelaySpec.uniform(0.005, 0.005), DelaySpec.constant(0.005)):
            trace = self.run_with(video=video)
            trace_to_csv(trace, tmp_path / "trace.csv")
            events_to_csv(trace, tmp_path / "events.csv")
            outputs.append(((tmp_path / "trace.csv").read_bytes(),
                            (tmp_path / "events.csv").read_bytes(), collect_metrics(trace)))
        assert outputs[0] == outputs[1]


def test_constant_transport_keeps_every_mismatch_in_a_window():
    """Under constant transport the optimized windows hold every mismatched
    stamp, however widely the detector update, the display and its
    confirmation jitter. Delays are drawn by numpy, so no capture ties with a
    window edge."""
    rng = np.random.default_rng(15)
    timelines, mismatched = [], 0

    def schedule(*args):
        timelines.append(timing.schedule_update(*args))
        return timelines[-1]

    def jittered(high):
        return DelaySpec(*sorted(rng.uniform(0.0, high, 2)))

    nominal = nominal_landing_scenario()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "schedule_update", schedule)
        for i in range(20):
            display = jittered(0.1)
            delays = DelayModel(
                detector_update=jittered(0.05),
                display=display,
                display_confirm=DelaySpec(display.low, display.high + rng.uniform(0.0, 0.2)),
                video=DelaySpec.constant(rng.uniform(0.0, 0.02)),
                pose=DelaySpec.constant(rng.uniform(0.0, 0.01)),
            )
            timelines.clear()
            config = randomized_initial_conditions(replace(nominal, delays=delays), 15, i)
            trace = run_scenario(config)
            assert trace.scheme_effective == "optimized"
            windows = [timing.wait_window(tl, "optimized") for tl in timelines]
            for capture, shown, computed, _ in trace.stamps:
                if shown != computed:
                    mismatched += 1
                    assert any(lo <= capture < hi for lo, hi in windows)
    assert mismatched > 20  # every run loses frames to its updates


@pytest.mark.parametrize("scheme", ["safe", "optimized"])
def test_every_mismatch_lies_in_a_window(scheme):
    """The windows hold every mismatched stamp, so ``hole_count`` reads 0.
    The detector update, the display and its confirmation jitter in every
    model, the detector update up to past the safe wait, and the transport
    in every other model, where the optimized scheme falls back to safe.
    Delays are drawn by numpy, so no capture ties with a window edge."""
    rng = np.random.default_rng(1)
    timelines, mismatched = [], 0

    def schedule(*args):
        timelines.append(timing.schedule_update(*args))
        return timelines[-1]

    def jittered(high):
        return DelaySpec(*sorted(rng.uniform(0.0, high, 2)))

    nominal = replace(nominal_landing_scenario(), timing_scheme=scheme)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "schedule_update", schedule)
        for i in range(20):
            display = jittered(0.1)
            video, pose = jittered(0.02), jittered(0.01)
            if i % 2:
                video, pose = DelaySpec.constant(video.low), DelaySpec.constant(pose.low)
            delays = DelayModel(
                detector_update=jittered(0.15),
                display=display,
                display_confirm=DelaySpec(display.low, display.high + rng.uniform(0.0, 0.2)),
                video=video,
                pose=pose,
            )
            timelines.clear()
            config = randomized_initial_conditions(replace(nominal, delays=delays), 1, i)
            trace = run_scenario(config)
            windows = [timing.wait_window(tl, trace.scheme_effective) for tl in timelines]
            for capture, shown, computed, _ in trace.stamps:
                if shown != computed:
                    mismatched += 1
                    assert any(lo <= capture < hi for lo, hi in windows)
            assert collect_metrics(trace)["hole_count"] == 0
    assert mismatched > 20  # every run loses frames to its updates


class TestDivergence:
    def test_runaway_vehicle_reports_diverged(self):
        config = replace(
            nominal_landing_scenario(),
            initial_position=(0.0, 0.0, 2.5),
            bounds_height=3.0,
            desired_height=5.0,  # drives the vehicle up past the bound
            duration=30.0,
        )
        trace = run_scenario(config)
        assert trace.status == "diverged"
        # the run ends where it crosses the bound, not at the next event
        assert 3.0 < trace.final_state[2] <= 3.0 + 2 * math.ulp(3.0)
        assert trace.records[-1].z == trace.final_state[2]


class TestExactEnd:
    def descent(self, **changes):
        """A quiet, delay-free hover at 0.5 m, landing triggered at 0.5 s."""
        return replace(
            quiet_families(nominal_landing_scenario()),
            **{"delays": constant_delays(), "initial_position": (0.0, 0.0, 0.5),
               "desired_height": 0.5, "landing_error_threshold": None,
               "landing_trigger_time": 0.5, "duration": 2.0, **changes},
        )

    @pytest.mark.parametrize("descent_rate", [100.0, 1e6])
    def test_fast_descent_lands_at_the_crossing(self, descent_rate):
        # The end is the first instant the vehicle is down, however far the
        # segment it happens in would carry it: a landing descent reaches the
        # touchdown height before the ground bound at any rate.
        trace = run_scenario(self.descent(descent_rate=descent_rate))
        assert trace.status == "landed"
        expected = 0.5 + 0.48 / descent_rate
        assert abs(trace.touchdown_time - expected) <= 2 * math.ulp(expected)
        # within the distance one float step of time moves the vehicle
        z = trace.final_state[2]
        assert 0.02 - descent_rate * math.ulp(trace.touchdown_time) < z <= 0.02
        assert trace.records[-1].time == trace.touchdown_time

    def test_landing_armed_below_the_touchdown_height_ends_at_once(self):
        trace = run_scenario(self.descent(initial_position=(0.0, 0.0, 0.01), landing_trigger_time=0.505))
        assert trace.status == "landed"
        assert trace.touchdown_time == 0.505
        assert trace.final_state[2] == 0.01
        assert trace.records[-1].time == 0.505 and trace.records[-1].landing == 1


def test_an_integer_descent_rate_writes_its_floats_trace(tmp_path):
    """The engine builds its command from floats, so a descent rate given as
    an int writes the trace.csv of the same rate given as a float."""
    written = []
    for rate in (1, 1.0):
        trace = run_scenario(replace(nominal_landing_scenario(), descent_rate=rate))
        assert trace.status == "landed"
        trace_to_csv(trace, tmp_path / "trace.csv")
        written.append((tmp_path / "trace.csv").read_bytes())
    assert written[0] == written[1]


def domain_values(domain: Domain, like=None):
    """Every value ``domain`` accepts; a tuple ``like`` gives a tuple field's length."""
    if domain.choices:
        return st.sampled_from(domain.choices)
    low = domain.low if math.isfinite(domain.low) else None
    high = domain.high if math.isfinite(domain.high) else None
    if domain.integer:
        values = st.integers(
            None if low is None else math.floor(low) + (not domain.low_closed),
            None if high is None else math.ceil(high) - (not domain.high_closed),
        )
    else:
        values = st.floats(
            low, high,
            exclude_min=low is not None and not domain.low_closed,
            exclude_max=high is not None and not domain.high_closed,
            allow_nan=False, allow_infinity=False,
        )
    if isinstance(like, tuple):
        values = st.tuples(*[values] * len(like))
    return st.none() | values if domain.optional else values


def draw_fields(draw, default, **given):
    """``default`` with every declared field not ``given`` drawn from its domain."""
    values = {
        name: draw(domain_values(rule, getattr(default, name)))
        for name, rule in declared(type(default)).items()
        if isinstance(rule, Domain) and name not in given
    }
    return replace(default, **values, **given)


def field_values(cls, name):
    return domain_values(declared(cls)[name])


@st.composite
def valid_configs(draw):
    """ScenarioConfigs drawn from the declared domains, each field from its
    whole domain less what a cross-field rule excludes. Only ``duration``,
    ``tick_step`` and ``frame_period`` are bounded, to keep each run short."""
    base = ScenarioConfig()
    width = draw(field_values(CameraIntrinsics, "width"))
    height = draw(field_values(CameraIntrinsics, "height"))
    fx, fy = draw(field_values(CameraIntrinsics, "fx")), draw(field_values(CameraIntrinsics, "fy"))
    assume(min(math.atan(width / (2.0 * fx)), math.atan(height / (2.0 * fy))) < math.pi / 2.0)
    intrinsics = draw_fields(
        draw, base.intrinsics, width=width, height=height, fx=fx, fy=fy,
        frame_period=draw(st.floats(0.01, 0.1)),
        cx=draw(st.floats(0, float(width), exclude_min=True, exclude_max=True)),
        cy=draw(st.floats(0, float(height), exclude_min=True, exclude_max=True)),
    )

    def family(default: MarkerFamily):
        yields_yaw = draw(st.booleans())
        return draw_fields(
            draw, default, yields_yaw=yields_yaw,
            position_noise=draw_fields(draw, NoiseProfile(0.0, 0.0)),
            yaw_noise=draw_fields(draw, NoiseProfile(0.0, 0.0)) if yields_yaw else None,
        )

    def delay():
        low, high = draw(field_values(DelaySpec, "low")), draw(field_values(DelaySpec, "high"))
        return DelaySpec(low) if high is None else DelaySpec(*sorted((low, high)))

    below = draw(field_values(SwitchPolicy, "switch_to_full_pose_below"))
    above = draw(field_values(SwitchPolicy, "switch_to_long_range_above"))
    assume(below != above)
    below, above = sorted((below, above))
    policy = draw_fields(
        draw, base.policy, switch_to_full_pose_below=below, switch_to_long_range_above=above
    )
    size_rule = draw(field_values(ScenarioConfig, "size_rule"))
    fov = 2.0 * fov_half_angle(intrinsics)
    assume(size_rule != "verbatim" or fov * policy.scale_fraction < math.pi / 2.0)
    screen = draw_fields(draw, base.screen)
    fill_factor = draw(field_values(ScenarioConfig, "fill_factor"))
    assume(screen.min_dim * fill_factor > 0)
    return draw_fields(
        draw, base,
        tick_step=draw(st.floats(0.001, 1.0)),
        intrinsics=intrinsics,
        screen=screen,
        fill_factor=fill_factor,
        long_range_family=family(base.long_range_family),
        full_pose_family=family(base.full_pose_family),
        policy=policy,
        size_rule=size_rule,
        delays=DelayModel(**{name: delay() for name in
                             ("detector_update", "display", "display_confirm", "video", "pose")}),
        duration=draw(st.floats(0.0, 1.0, exclude_min=True)),
    )


def run_csv(config) -> tuple[str, bytes, bytes]:
    """Run ``config`` and return its status and csv bytes, once its update
    windows are checked: their starts and their ends each rise in time order,
    each stamp agrees with a search over all of them, and no stamp is a hole."""
    timelines = []

    def schedule(*args):
        timelines.append(timing.schedule_update(*args))
        return timelines[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "schedule_update", schedule)
        trace = run_scenario(config)
    windows = [timing.wait_window(tl, trace.scheme_effective) for tl in timelines]
    for edges in zip(*windows):
        assert list(edges) == sorted(edges)
    for capture, shown, computed, reason in trace.stamps:
        inside = any(lo <= capture < hi for lo, hi in windows)
        assert reason == ("within_wait_window" if inside else "ok")
        assert inside or shown == computed
    with tempfile.TemporaryDirectory() as tmp:
        trace_path, events_path = Path(tmp) / "trace.csv", Path(tmp) / "events.csv"
        trace_to_csv(trace, trace_path)
        events_to_csv(trace, events_path)
        return trace.status, trace_path.read_bytes(), events_path.read_bytes()


@st.composite
def landing_configs(draw):
    """Batch landing starts at any yaw, under every scheme, strategy and size
    rule: unlike ``valid_configs`` draws, these detect, servo and turn."""
    config = replace(
        nominal_landing_scenario(),
        timing_scheme=draw(field_values(ScenarioConfig, "timing_scheme")),
        strategy=draw(field_values(ScenarioConfig, "strategy")),
        size_rule=draw(field_values(ScenarioConfig, "size_rule")),
        batch_yaw_half_range=draw(field_values(ScenarioConfig, "batch_yaw_half_range")),
    )
    seed, index = draw(st.integers(0, 2**16)), draw(st.integers(0, 49))
    return randomized_initial_conditions(config, seed, index)


@given(st.one_of(valid_configs(), landing_configs()))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_valid_config_runs_to_an_end_and_repeats(config):
    # run_csv also checks each run's update windows and every stamp against them
    status, trace, events = run_csv(config)
    assert status in ("landed", "timeout", "diverged")
    assert run_csv(config) == (status, trace, events)


@given(landing_configs())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_optimized_distrusts_only_mismatched_frames(config):
    """The optimized window holds exactly the new-marker captures whose poses
    come out before the detector switch, so every frame the engine distrusts
    was shown with one marker and computed against another."""
    trace = run_scenario(replace(config, timing_scheme="optimized"))
    assert trace.scheme_effective == "optimized"
    assert all(shown != computed for _, shown, computed, reason in trace.stamps if reason != "ok")


@given(st.one_of(valid_configs(), landing_configs()))
@example(nominal_landing_scenario())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_engine_made_rotations_stay_proper(config):
    """Poses that vehicle_step, invert, the engine's inverse of the state and
    simulate_detection make skip Pose's rotation check; every one a run makes
    stays within the 1e-9 geometry promises for library-made rotations."""
    defects, calls = [], dict.fromkeys(("vehicle_step", "invert", "simulate_detection"), 0)

    def tracked(name, fn, poses_of):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += 1
            defects.extend(_rotation_defect(pose.rotation) for pose in poses_of(args, result))
            return result

        return wrapper

    def detection_poses(args, result):
        # the true pose the engine built from the state, and the estimate made from it
        return [args[0]] + ([] if isinstance(result, NoDetection) else [result.relative_pose])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "vehicle_step",
                   tracked("vehicle_step", vehicle_step, lambda args, state: [state.pose]))
        mp.setattr(simulation, "invert", tracked("invert", geometry.invert, lambda args, p: [p]))
        mp.setattr(simulation, "simulate_detection",
                   tracked("simulate_detection", perception.simulate_detection, detection_poses))
        trace = run_scenario(config)
    # every camera frame whose pose came out before the end went through the wrapper
    assert calls["simulate_detection"] == trace.detection_count + trace.dropout_count
    if calls["simulate_detection"]:  # then the vehicle moved, and every wrapper ran
        assert min(calls.values()) > 0
    assert max(defects) <= 1e-9


def test_max_detection_distance_is_the_largest_detected_distance():
    """The engine takes no norm of a detection that the float bound shows is no
    farther than the farthest so far, and still reports the largest
    ``vector_norm`` over every detection. The run starts below its goal
    height, so the distance rises and the largest moves many times."""
    config = replace(nominal_landing_scenario(), initial_position=(0.02, -0.01, 0.5),
                     desired_height=1.0)
    distances = []

    def recorded(true_rel, *args, **kwargs):
        result = perception.simulate_detection(true_rel, *args, **kwargs)
        if not isinstance(result, NoDetection):
            distances.append(geometry.vector_norm(true_rel.translation))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "simulate_detection", recorded)
        trace = run_scenario(config)
    assert len(distances) == trace.detection_count > 50
    assert trace.max_detection_distance == max(distances)
    assert len(set(np.maximum.accumulate(distances).tolist())) > 20


@given(st.one_of(valid_configs(), landing_configs()), st.floats(0.001, 1.0), st.floats(0.001, 1.0))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_the_run_does_not_depend_on_the_tick(config, tick_a, tick_b):
    """Two ticks give bit-identical ends, events and stamps, and equal rows
    at every instant both sample (notes aside: they describe the interval
    since the previous row)."""
    # a is the sparser run: its rows are looked up among b's
    (tick_a, a), (tick_b, b) = sorted(
        ((t, run_scenario(replace(config, tick_step=t))) for t in (tick_a, tick_b)),
        key=lambda run: len(run[1].records),
    )
    assert (a.status, a.touchdown_time, a.final_state) == (b.status, b.touchdown_time, b.final_state)
    assert a.events == b.events
    assert a.stamps == b.stamps
    notes = {"detect_status", "validity", "est_x", "est_y", "est_z", "est_yaw"}
    state = [i for i, name in enumerate(TRACE_COLUMNS) if name not in notes]
    b_rows = list(b.records)
    b_index = {b_rows[-1].time: len(b_rows) - 1}
    b_index.update((k * tick_b, k) for k in range(len(b_rows) - 1))
    shared = 0
    for row in a.records:
        if row.time in b_index:
            other = b_rows[b_index[row.time]]
            assert [row[i] for i in state] == [other[i] for i in state]
            shared += 1
    assert shared >= 1  # the start at least


def bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def check_rows_are_vehicle_steps(trace, tick_step) -> set:
    """Assert that every row's pose is ``vehicle_step``'s from its entry, bit
    for bit, that the first row's yaw is the run's initial heading, and that
    single rows and slices are the rows of the whole pass; return the kinds of
    motion the rows sampled."""
    rows, log = list(trace.records), trace.records._log
    assert bits(trace.initial_yaw) == bits(rows[0].yaw)
    times, kinds = [e.time for e in log], set()
    for k, row in enumerate(rows):
        if row.time == k * tick_step:  # a tick row: the last entry strictly before it
            entry = log[max(bisect.bisect_left(times, row.time) - 1, 0)]
        else:  # the end row
            assert k == len(rows) - 1
            entry = log[-1]
        dt = row.time - entry.time
        if dt == 0:
            pose = entry.state.pose
        else:
            pose = vehicle_step(entry.state, entry.cmd, dt).pose
            w = entry.cmd.angular * dt
            if not (np.any(entry.cmd.linear * dt) or np.any(w)):
                kinds.add("zero twist")
            else:
                kinds.add("small" if w.dot(w) < _SMALL_ANGLE**2 else "large")
        x, y, z = pose.translation.tolist()
        yaw = math.atan2(pose.rotation[1, 0], pose.rotation[0, 0])
        assert bits(row.x, row.y, row.z, row.yaw) == bits(x, y, z, yaw)  # -0.0 and 0.0 apart
        assert row.distance == math.sqrt(x * x + y * y + z * z)
    n = len(rows)
    for k in sorted({0, 1, n // 2, n - 2, n - 1, -1, -n} & set(range(-n, n))):
        assert trace.records[k] == rows[k]
    for part in (slice(None), slice(None, None, 7), slice(3, 11), slice(-4, None),
                 slice(None, None, -5), slice(n, None)):
        assert trace.records[part] == rows[part]
    with pytest.raises(IndexError):
        trace.records[n]
    return kinds


@given(st.one_of(valid_configs(), landing_configs()))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_rows_are_vehicle_steps_from_their_entries(config):
    check_rows_are_vehicle_steps(run_scenario(config), config.tick_step)


def test_rows_cover_every_branch_of_the_step():
    # A hover at a 1 ms tick samples a zero twist before the first command,
    # and turns by less than _SMALL_ANGLE per row; the nominal landing's
    # 10 ms rows turn by more. A zero twist keeps a -0.0 coordinate.
    nominal = nominal_landing_scenario()
    hover = replace(nominal, landing_error_threshold=None, duration=1.0, tick_step=0.001,
                    initial_position=(-0.0, -0.0, 2.5))
    kinds = set()
    for config in (nominal, hover):
        kinds |= check_rows_are_vehicle_steps(run_scenario(config), config.tick_step)
    assert kinds == {"zero twist", "small", "large"}


def test_a_single_row_is_sampled_by_the_row_pass(monkeypatch):
    trace = run_scenario(replace(nominal_landing_scenario(), duration=0.5))
    rows, n = list(trace.records), len(trace.records)
    sampled = []
    sample = simulation.TraceRows._sample

    def spy(self, ks):
        sampled.append(ks.tolist())
        return sample(self, ks)

    monkeypatch.setattr(simulation.TraceRows, "_sample", spy)
    assert [trace.records[k] for k in (0, 7, -1)] == [rows[0], rows[7], rows[-1]]
    assert sampled == [[0], [7], [n - 1]]


def test_the_log_holds_no_marker_config():
    trace = run_scenario(nominal_landing_scenario())
    assert trace.marker_update_count
    assert not any(isinstance(field, MarkerConfig) for e in trace.records._log for field in e)
    assert {e.shown for e in trace.records._log} == {
        (r.displayed_config, r.displayed_family, r.displayed_size, r.displayed_cells)
        for r in trace.records
    }


def hand_built_trace():
    """A trace whose rows hold None, -0.0 next to 0.0, and strings csv must quote."""
    first = simulation.TickRecord(
        time=0.0, x=-0.0, y=0.0, z=2.5, yaw=-0.0, distance=2.5,
        detect_status='no-detection:"odd"', validity="", est_x=None, est_y=None, est_z=None,
        est_yaw=None, displayed_config=0, displayed_family="long,range",
        displayed_size=0.15, displayed_cells=1, believed_config=0,
        cmd_vx=-0.0, cmd_vy=0.0, cmd_vz=0.0, cmd_wz=-0.0, landing=0,
    )
    second = first._replace(time=0.5)  # the same cell objects as the first row
    third = second._replace(time=1.0, cmd_vx=0.0)  # its cells equal the second's, yet print apart
    fourth = third._replace(time=1.5, est_x=1e-300, landing=1)
    return replace(TestMetrics().make_trace(), records=[first, second, third, fourth, fourth])


@pytest.mark.parametrize("case", ["nominal", "hover", "hand-built"])
def test_trace_csv_is_csv_writers_bytes(case, tmp_path):
    nominal = nominal_landing_scenario()
    trace = {
        "nominal": lambda: run_scenario(nominal),
        "hover": lambda: run_scenario(replace(nominal, landing_error_threshold=None,
                                              duration=1.0, tick_step=0.001)),
        "hand-built": hand_built_trace,
    }[case]()
    trace_to_csv(trace, tmp_path / "trace.csv")
    with open(tmp_path / "reference.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        writer.writerows(trace.records)
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
