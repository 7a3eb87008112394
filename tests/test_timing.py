import numpy as np
import pytest

from markersim.timing import (
    DelayModel,
    DelaySample,
    DelaySpec,
    OptimizedConditions,
    compute_safe_wait,
    detector_switch_time,
    evaluate_optimized_conditions,
    replay_update_frames,
    schedule_update,
    stamp_validity,
    update_complete_time,
    wait_window,
)

FRAME = 1.0 / 30.0


def nominal_sample(display_confirm=0.050):
    return DelaySample(
        detector_update=0.005,
        display=0.030,
        display_confirm=display_confirm,
        video=0.005,
        pose=0.002,
    )


def nominal_model(confirm=DelaySpec.uniform(0.035, 0.060)):
    return DelayModel(
        detector_update=DelaySpec.constant(0.005),
        display=DelaySpec.constant(0.030),
        display_confirm=confirm,
        video=DelaySpec.constant(0.005),
        pose=DelaySpec.constant(0.002),
    )


class TestSafeWait:
    def test_max_of_the_two(self):
        assert compute_safe_wait(0.050, 0.080) == 0.080

    def test_equal_case(self):
        assert compute_safe_wait(0.070, 0.070) == 0.070

    def test_from_scheduled_timeline(self):
        # display 0.030 + (frame 0.033 + video 0.005 + pose 0.002) = 0.070,
        # confirmation 0.050 -> wait 0.070
        sample = DelaySample(0.005, 0.030, 0.050, 0.005, 0.002)
        timeline = schedule_update(0.0, sample, 0.033)
        assert timeline.capture_loop_delay == pytest.approx(0.070, abs=1e-12)
        assert compute_safe_wait(
            timeline.capture_loop_delay, sample.display_confirm
        ) == pytest.approx(0.070, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            compute_safe_wait(-0.01, 0.05)


class TestOptimizedWait:
    """When the optimized scheme applies; ``TestOptimizedScheme`` tests its
    window."""

    @pytest.mark.parametrize(
        "conds",
        [
            OptimizedConditions(False, True, True),
            OptimizedConditions(True, False, True),
            OptimizedConditions(True, True, False),
        ],
    )
    def test_not_applicable_when_any_condition_fails(self, conds):
        assert not conds.all_hold
        assert OptimizedConditions(True, True, True).all_hold

    def test_condition_evaluation_nominal(self):
        conds = evaluate_optimized_conditions(nominal_model(), FRAME)
        assert conds.all_hold

    def test_condition_fails_on_slow_confirm(self):
        conds = evaluate_optimized_conditions(
            nominal_model(confirm=DelaySpec.uniform(0.035, 0.2)), FRAME
        )
        assert not conds.confirm_below_loop and not conds.all_hold

    def test_condition_fails_on_jittery_transport(self):
        model = DelayModel(
            detector_update=DelaySpec.constant(0.005),
            display=DelaySpec.constant(0.030),
            display_confirm=DelaySpec.constant(0.040),
            video=DelaySpec.uniform(0.0, 0.03),
            pose=DelaySpec.constant(0.002),
        )
        assert not evaluate_optimized_conditions(model, FRAME).capture_pose_constant


class TestScheduleUpdate:
    def test_instantaneous_system(self):
        timeline = schedule_update(1.0, DelaySample(0.0, 0.0, 0.0, 0.0, 0.0), FRAME)
        assert timeline.issued_at == timeline.detector_confirm_at == timeline.display_at
        assert timeline.display_at == timeline.confirm_at
        assert timeline.pose_ready_at == pytest.approx(1.0 + FRAME)

    def test_event_sums(self):
        sample = DelaySample(0.005, 0.030, 0.050, 0.005, 0.002)
        timeline = schedule_update(2.0, sample, 0.033)
        assert timeline.display_at == pytest.approx(2.030)
        assert timeline.confirm_at == pytest.approx(2.050)
        assert timeline.pose_ready_at == pytest.approx(2.070)
        assert timeline.capture_pose_delay == pytest.approx(0.040)
        assert timeline.capture_loop_delay == pytest.approx(0.070)

    def test_identities_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sample = DelaySample(
                detector_update=rng.uniform(0, 0.02),
                display=(d := rng.uniform(0, 0.1)),
                display_confirm=d + rng.uniform(0, 0.1),
                video=rng.uniform(0, 0.02),
                pose=rng.uniform(0, 0.01),
            )
            frame = rng.uniform(0.01, 0.05)
            tl = schedule_update(rng.uniform(0, 100), sample, frame)
            assert tl.capture_pose_delay == frame + sample.video + sample.pose
            assert tl.capture_loop_delay == sample.display + tl.capture_pose_delay
            assert tl.pose_ready_at == tl.display_at + tl.capture_pose_delay

    def test_confirmation_before_display_rejected(self):
        with pytest.raises(ValueError):
            DelaySample(0.005, 0.030, 0.020, 0.005, 0.002)

    def test_sampling_enforces_confirm_after_display(self):
        model = DelayModel(
            detector_update=DelaySpec.constant(0.0),
            display=DelaySpec.constant(0.05),
            display_confirm=DelaySpec.uniform(0.0, 0.01),  # would precede display
            video=DelaySpec.constant(0.0),
            pose=DelaySpec.constant(0.0),
        )
        sample = model.sample(np.random.default_rng(0))
        assert sample.display_confirm >= sample.display


class TestStamping:
    def test_steady_state_ok(self):
        stamp = stamp_validity(5.0, 3, 3, None, "safe")
        assert stamp.valid and stamp.reason == "ok"

    def test_mismatch_always_flagged(self):
        stamp = stamp_validity(5.0, 4, 3, None, "optimized")
        assert not stamp.valid and stamp.reason == "config_mismatch"

    def test_safe_window_suppresses_capture(self):
        timeline = schedule_update(10.0, nominal_sample(), FRAME)
        lo, hi = wait_window(timeline, "safe")
        assert lo == 10.0
        assert hi == pytest.approx(10.0 + timeline.capture_loop_delay)
        inside = stamp_validity((lo + hi) / 2, 7, 7, timeline, "safe")
        assert not inside.valid and inside.reason == "within_wait_window"
        after = stamp_validity(hi + 1e-6, 7, 7, timeline, "safe")
        assert after.valid

    def test_valid_stamp_reason_consistency(self):
        from markersim.timing import ValidityStamp

        with pytest.raises(ValueError):
            ValidityStamp(True, "config_mismatch")


class TestOptimizedScheme:
    def test_switch_deferred_to_pose_ready(self):
        timeline = schedule_update(0.0, nominal_sample(), FRAME)
        # confirm_at = 0.050 < pose_ready - detector_update = 0.0703 - 0.005
        assert detector_switch_time(timeline, "optimized") == pytest.approx(
            timeline.pose_ready_at
        )
        assert detector_switch_time(timeline, "safe") == pytest.approx(0.005)

    def test_switch_waits_for_late_confirmation(self):
        timeline = schedule_update(0.0, nominal_sample(display_confirm=0.068), FRAME)
        # confirmation arrives after pose_ready - detector_update; the update
        # can only start at the confirmation
        assert detector_switch_time(timeline, "optimized") == pytest.approx(0.068 + 0.005)

    def test_old_marker_frames_stay_valid(self):
        timeline = schedule_update(0.2005, nominal_sample(), FRAME)
        outcomes = replay_update_frames(timeline, "optimized", frame_phase=0.0)
        old_before = [
            o for o in outcomes
            if o.capture_time < timeline.display_at and o.ready_time <= timeline.issued_at + 0.05
        ]
        assert old_before and all(o.stamp.valid for o in old_before)
        assert all(o.displayed_config == o.believed_config == 0 for o in old_before)

    def test_exactly_one_frame_invalidated_nominal(self):
        rng = np.random.default_rng(11)
        for i in range(10):
            t0 = 0.4 * i  # display lands mid-frame: 0.03 after a grid point
            timeline = schedule_update(
                t0, nominal_sample(display_confirm=float(rng.uniform(0.035, 0.060))), FRAME
            )
            outcomes = replay_update_frames(timeline, "optimized", frame_phase=0.0)
            invalid = [o for o in outcomes if not o.stamp.valid]
            mismatched = [o for o in outcomes if o.mismatched]
            assert len(mismatched) == 1
            assert len(invalid) == 1
            assert invalid[0].mismatched

    def test_safe_scheme_wastes_more_frames_than_optimized(self):
        timeline = schedule_update(0.4005, nominal_sample(), FRAME)
        safe_invalid = [
            o for o in replay_update_frames(timeline, "safe") if not o.stamp.valid
        ]
        opt_invalid = [
            o for o in replay_update_frames(timeline, "optimized") if not o.stamp.valid
        ]
        assert len(opt_invalid) == 1
        assert len(safe_invalid) > len(opt_invalid)

    def test_update_complete_ordering(self):
        timeline = schedule_update(0.0, nominal_sample(), FRAME)
        assert update_complete_time(timeline, "optimized") == detector_switch_time(
            timeline, "optimized"
        )
        assert update_complete_time(timeline, "safe") >= timeline.confirm_at


def random_physical_sample(rng):
    """Delay draws with the physical orderings the protocol assumes: the
    detector update fits within a frame period, confirmation follows display."""
    frame = rng.uniform(1 / 60, 1 / 15)
    display = rng.uniform(0.0, 3.0 * frame)
    sample = DelaySample(
        detector_update=rng.uniform(0.0, frame),
        display=display,
        display_confirm=display + rng.uniform(0.0, 2.0 * frame),
        video=rng.uniform(0.0, 0.3 * frame),
        pose=rng.uniform(0.0, 0.2 * frame),
    )
    return sample, frame


class TestSafetyProperty:
    def test_safe_scheme_never_validates_a_mismatch(self):
        rng = np.random.default_rng(2024)
        mismatches = 0
        for _ in range(500):
            sample, frame = random_physical_sample(rng)
            timeline = schedule_update(rng.uniform(0.0, 1.0), sample, frame)
            for o in replay_update_frames(timeline, "safe", frame_phase=rng.uniform(0, frame)):
                assert not (o.stamp.valid and o.mismatched)
                mismatches += o.mismatched
        assert mismatches > 0  # the race actually occurred in the sample set


class TestOptimizedWindowIsTheMismatch:
    """The optimized window runs from the display instant to the last capture
    whose pose comes out before the detector switch: it distrusts exactly the
    frames the update corrupts."""

    def test_criterion_2_delays_lose_one_frame_at_any_phase(self):
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            sample = nominal_sample(display_confirm=float(rng.uniform(0.035, 0.060)))
            timeline = schedule_update(float(rng.uniform(0.0, 10.0)), sample, FRAME)
            phase = float(rng.uniform(0.0, FRAME))
            invalid = [o for o in replay_update_frames(timeline, "optimized", phase)
                       if not o.stamp.valid]
            assert len(invalid) == 1 and invalid[0].mismatched

    def test_distrusted_exactly_when_mismatched(self):
        rng = np.random.default_rng(2026)
        updates, mismatched = 10_000, 0
        for _ in range(updates):
            sample, frame = random_physical_sample(rng)
            timeline = schedule_update(rng.uniform(0.0, 2.0), sample, frame)
            lo, hi = wait_window(timeline, "optimized")
            for o in replay_update_frames(timeline, "optimized", rng.uniform(0.0, frame)):
                assert (not o.stamp.valid) == o.mismatched == (lo <= o.capture_time < hi)
                mismatched += o.mismatched
        assert mismatched >= updates  # the window spans at least one frame period


def reference_replay(timeline, scheme, frame_phase):
    """The protocol restated analytically, as a reference for the event-driven
    replay: a frame shows the new marker iff it is captured at or after the
    display instant, its pose is computed with the new parameters iff it comes
    out strictly after the detector switch, and it is stamped against the one
    update's window."""
    period = timeline.frame_period
    transport = timeline.sample.video + timeline.sample.pose
    switch = detector_switch_time(timeline, scheme)
    hi = wait_window(timeline, scheme)[1]
    horizon = max(hi, switch - transport, timeline.pose_ready_at) + 2 * period
    start = timeline.issued_at - timeline.capture_pose_delay - period
    rows = []
    k = int(np.ceil((start - frame_phase) / period))
    while (capture := frame_phase + k * period) <= horizon:
        ready = capture + transport
        displayed = int(capture >= timeline.display_at)
        believed = int(ready > switch)
        stamp = stamp_validity(capture, displayed, believed, timeline, scheme)
        rows.append((capture, ready, displayed, believed, stamp.reason))
        k += 1
    return rows


def dyadic(x, q=2.0**-8):
    return round(x / q) * q


class TestReplayMatchesAnalyticReference:
    @pytest.mark.parametrize("grid", [False, True], ids=["continuous", "dyadic"])
    @pytest.mark.parametrize("phase", ["random", "zero"])
    @pytest.mark.parametrize("scheme", ["safe", "optimized"])
    def test_same_frames(self, scheme, phase, grid):
        # On the dyadic grid every sum is exact, so captures land exactly on
        # display instants and poses exactly on detector switches: the
        # equal-timestamp event order decides those frames.
        rng = np.random.default_rng(31)
        display_ties = switch_ties = 0
        for _ in range(500):
            sample, frame = random_physical_sample(rng)
            issued = rng.uniform(0.0, 2.0)
            frame_phase = rng.uniform(0.0, frame) if phase == "random" else 0.0
            if grid:
                sample = DelaySample(*(dyadic(getattr(sample, f)) for f in (
                    "detector_update", "display", "display_confirm", "video", "pose")))
                frame, issued, frame_phase = dyadic(frame), dyadic(issued), dyadic(frame_phase)
            timeline = schedule_update(issued, sample, frame)
            expected = reference_replay(timeline, scheme, frame_phase)
            got = [
                (o.capture_time, o.ready_time, o.displayed_config, o.believed_config,
                 o.stamp.reason)
                for o in replay_update_frames(timeline, scheme, frame_phase)
            ]
            assert got == expected
            switch = detector_switch_time(timeline, scheme)
            display_ties += any(c == timeline.display_at for c, *_ in expected)
            switch_ties += any(r == switch for _, r, *_ in expected)
        if grid:
            assert display_ties > 0 and switch_ties > 0
