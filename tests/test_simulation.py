import bisect
import csv
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from markersim import geometry, pbvs, perception, simulation, timing
from markersim.domain import Domain, declared
from markersim.geometry import CameraIntrinsics, Pose, _rotation_defect, fov_half_angle
from markersim.marker import MarkerFamily, NoiseProfile
from markersim.marker_control import SwitchPolicy
from markersim.pbvs import VelocityCommand
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
            final_state=(x, y, 0.015, yaw), detection_count=10, dropout_count=1,
            invalid_count=2, window_dropout_count=1, marker_update_count=3, family_switch_count=1,
            max_detection_distance=2.5, desired_yaw=0.0, seed=0,
            strategy="dynamic", scheme_requested="optimized",
            scheme_effective="optimized", size_rule="consistent",
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
        m = collect_metrics(self.make_trace())
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
    def test_optimized_falls_back_when_conditions_fail(self):
        base = nominal_landing_scenario()
        slow_confirm = DelayModel(
            detector_update=base.delays.detector_update,
            display=base.delays.display,
            display_confirm=DelaySpec.uniform(0.05, 0.5),
            video=base.delays.video,
            pose=base.delays.pose,
        )
        trace = run_scenario(replace(base, delays=slow_confirm, duration=8.0))
        assert trace.scheme_requested == "optimized"
        assert trace.scheme_effective == "safe"


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
    trace = run_scenario(config)
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
@settings(max_examples=60, deadline=None, derandomize=True)
def test_engine_made_rotations_stay_proper(config):
    """Poses that vehicle_step, invert and compose make skip Pose's rotation
    check; every one a run makes stays within the 1e-9 geometry promises for
    library-made rotations."""
    defects = []

    def tracked(fn, pose_of):
        def wrapper(*args):
            result = fn(*args)
            defects.append(_rotation_defect(pose_of(result).rotation))
            return result

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulation, "vehicle_step", tracked(vehicle_step, lambda state: state.pose))
        for module, name in ((simulation, "invert"), (perception, "invert"), (pbvs, "invert"),
                             (pbvs, "compose")):
            mp.setattr(module, name, tracked(getattr(geometry, name), lambda pose: pose))
        run_scenario(config)
    assert defects and max(defects) <= 1e-9


@given(st.one_of(valid_configs(), landing_configs()), st.floats(0.001, 1.0), st.floats(0.001, 1.0))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_the_run_does_not_depend_on_the_tick(config, tick_a, tick_b):
    """Two ticks give bit-identical ends, events and stamps, and equal rows
    at every instant both sample (notes aside: they describe the interval
    since the previous row)."""
    # a is the sparser run: its rows are all built, b's only where they share an instant
    (tick_a, a), (tick_b, b) = sorted(
        ((t, run_scenario(replace(config, tick_step=t))) for t in (tick_a, tick_b)),
        key=lambda run: len(run[1].records),
    )
    assert (a.status, a.touchdown_time, a.final_state) == (b.status, b.touchdown_time, b.final_state)
    assert a.events == b.events
    assert a.stamps == b.stamps
    notes = {"detect_status", "validity", "est_x", "est_y", "est_z", "est_yaw"}
    state = [i for i, name in enumerate(TRACE_COLUMNS) if name not in notes]
    b_index = {b.records[-1].time: len(b.records) - 1}
    b_index.update((k * tick_b, k) for k in range(len(b.records) - 1))
    shared = 0
    for row in a.records:
        if row.time in b_index:
            other = b.records[b_index[row.time]]
            assert [row[i] for i in state] == [other[i] for i in state]
            shared += 1
    assert shared >= 1  # the start at least
