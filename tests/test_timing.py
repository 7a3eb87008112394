import numpy as np
import pytest

from markersim.timing import (
    _ORDER,
    DelayModel,
    DelaySample,
    DelaySpec,
    EventQueue,
    UpdateProtocol,
    ValidityStamp,
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
    """The safe window runs from the first old-marker capture whose pose comes
    out after the switch, here at 2.0 - (0.125 + 0.125), until the longer of
    the capture loop and the display confirmation has elapsed (dyadic delays,
    so every sum is exact: the capture loop is 0.25 + (0.5 + 0.125 + 0.125) =
    1.0)."""

    @pytest.mark.parametrize("confirm, end", [(0.5, 3.0), (1.5, 3.5), (1.0, 3.0)],
                             ids=["capture-loop-longer", "confirmation-longer", "tie"])
    def test_window(self, confirm, end):
        timeline = schedule_update(2.0, DelaySample(0.0, 0.25, confirm, 0.125, 0.125), 0.5)
        s = timeline.sample
        assert s.display + (timeline.frame_period + s.video + s.pose) == 1.0
        assert wait_window(timeline, "safe") == (1.75, end)


def transport_model(video, pose, confirm=DelaySpec.uniform(0.035, 0.060)):
    return DelayModel(
        detector_update=DelaySpec.constant(0.005),
        display=DelaySpec.constant(0.030),
        display_confirm=confirm,
        video=video,
        pose=pose,
    )


class TestOptimizedWait:
    """When the optimized scheme applies: exactly when the transport from
    capture to pose is constant. ``TestOptimizedScheme`` tests its window."""

    @pytest.mark.parametrize(
        "video, pose",
        [
            (DelaySpec.constant(0.005), DelaySpec.uniform(0.001, 0.003)),
            (DelaySpec.uniform(0.002, 0.008), DelaySpec.uniform(0.001, 0.003)),
        ],
        ids=["pose", "both"],
    )
    def test_not_applicable_when_transport_jitters(self, video, pose):
        assert not evaluate_optimized_conditions(transport_model(video, pose))

    def test_condition_evaluation_nominal(self):
        assert evaluate_optimized_conditions(nominal_model())

    def test_a_zero_width_range_is_constant(self):
        assert DelaySpec.uniform(0.005, 0.005) == DelaySpec.constant(0.005)
        model = transport_model(DelaySpec.uniform(0.005, 0.005), DelaySpec.constant(0.002))
        assert evaluate_optimized_conditions(model)

    def test_slow_confirmation_stays_optimized(self):
        assert evaluate_optimized_conditions(nominal_model(confirm=DelaySpec.uniform(0.035, 0.2)))

    def test_condition_fails_on_jittery_transport(self):
        model = DelayModel(
            detector_update=DelaySpec.constant(0.005),
            display=DelaySpec.constant(0.030),
            display_confirm=DelaySpec.constant(0.040),
            video=DelaySpec.uniform(0.0, 0.03),
            pose=DelaySpec.constant(0.002),
        )
        assert not evaluate_optimized_conditions(model)

    def test_transport_jitter_lets_a_mismatch_out_of_the_window(self):
        """A model that passed the three former threshold gates, and a frame
        that draws a shorter transport than its update: it shows the new
        marker, its pose comes out before the switch, and it lies after the
        window, so it is a hole, stamped valid. That is why the engine runs
        the safe scheme under transport jitter."""
        model = transport_model(DelaySpec.uniform(0.002, 0.008), DelaySpec.uniform(0.001, 0.003))
        video, pose = model.video, model.pose
        loop_min = model.display.low + FRAME + video.low + pose.low
        assert model.display_confirm.high < loop_min  # confirmation beats the capture loop
        assert model.detector_update.low <= 0.25 * FRAME  # a constant update <= T/4
        mean = FRAME + (video.low + video.high) / 2 + (pose.low + pose.high) / 2
        variance = ((video.high - video.low) ** 2 + (pose.high - pose.low) ** 2) / 12
        assert variance ** 0.5 <= 0.05 * mean  # capture-to-pose variation <= 5%
        assert not evaluate_optimized_conditions(model)

        timeline = schedule_update(0.0032, DelaySample(0.005, 0.030, 0.050, 0.007, 0.0025), FRAME)
        protocol = UpdateProtocol("optimized")
        protocol.issue(timeline, 1, EventQueue())
        lo, hi = wait_window(timeline, "optimized")
        assert lo == pytest.approx(0.0332) and hi == pytest.approx(0.0665333)
        capture = 2 * FRAME
        ready = capture + 0.004  # this frame's video + pose, inside both ranges
        switch = detector_switch_time(timeline, "optimized")
        assert switch == pytest.approx(0.0760333)
        displayed, believed = int(capture >= timeline.display_at), int(ready >= switch)
        assert (displayed, believed) == (1, 0)
        assert protocol.window_of(capture) is None
        assert protocol.stamp(capture).valid


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
        assert 0.033 + sample.video + sample.pose == pytest.approx(0.040)
        assert sample.display + (0.033 + sample.video + sample.pose) == pytest.approx(0.070)

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
            capture_pose = frame + sample.video + sample.pose
            assert tl.frame_period == frame and tl.sample == sample
            assert tl.pose_ready_at == tl.display_at + capture_pose
            assert tl.issued_at <= tl.detector_confirm_at
            assert tl.issued_at <= tl.display_at <= tl.confirm_at
            assert tl.display_at <= tl.pose_ready_at

    @pytest.mark.parametrize("name", ["detector_update", "display", "display_confirm", "video",
                                      "pose"])
    @pytest.mark.parametrize("value", [-0.001, float("nan")])
    def test_negative_delay_rejected(self, name, value):
        delays = dict(detector_update=0.005, display=0.030, display_confirm=0.050, video=0.005,
                      pose=0.002)
        with pytest.raises(ValueError, match=f"{name} delay must be >= 0"):
            DelaySample(**{**delays, name: value})

    def test_confirmation_before_display_rejected(self):
        with pytest.raises(ValueError):
            DelaySample(0.005, 0.030, 0.020, 0.005, 0.002)

    def test_the_update_plans_for_the_longest_transport(self):
        # it draws the three protocol delays and no transport: each frame draws its own
        model = DelayModel(
            detector_update=DelaySpec.uniform(0.0, 0.01),
            display=DelaySpec.uniform(0.02, 0.03),
            display_confirm=DelaySpec.uniform(0.035, 0.060),
            video=DelaySpec.uniform(0.002, 0.008),
            pose=DelaySpec.uniform(0.001, 0.003),
        )
        rng, reference = np.random.default_rng(3), np.random.default_rng(3)
        sample = model.sample(rng)
        drawn = [float(reference.uniform(spec.low, spec.high))
                 for spec in (model.detector_update, model.display, model.display_confirm)]
        assert (sample.detector_update, sample.display, sample.display_confirm) == tuple(drawn)
        assert (sample.video, sample.pose) == (model.video.upper, model.pose.upper)
        assert (model.video.upper, model.pose.upper) == (0.008, 0.003)
        assert rng.bit_generator.state == reference.bit_generator.state

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
        stamp = stamp_validity(False)
        assert stamp.valid and stamp.reason == "ok"

    def test_safe_window_suppresses_capture(self):
        timeline = schedule_update(10.0, nominal_sample(), FRAME)
        protocol = UpdateProtocol("safe")
        protocol.issue(timeline, 7, EventQueue())
        lo, hi = wait_window(timeline, "safe")
        assert lo == timeline.detector_confirm_at - 0.007
        s = timeline.sample
        assert hi == pytest.approx(10.0 + (s.display + (FRAME + s.video + s.pose)))
        inside = protocol.stamp((lo + hi) / 2)
        assert not inside.valid and inside.reason == "within_wait_window"
        after = protocol.stamp(hi + 1e-6)
        assert after.valid

    def test_valid_stamp_reason_consistency(self):
        for reason in ("ok", "within_wait_window"):
            assert ValidityStamp(reason).valid == (reason == "ok")

    def test_each_verdict_is_one_shared_stamp(self):
        for in_window, reason in ((False, "ok"), (True, "within_wait_window")):
            assert stamp_validity(in_window) is stamp_validity(in_window) == ValidityStamp(reason)

    def test_a_pose_out_at_the_switch_is_in_the_window(self):
        """A safe update on delays that are multiples of 2^-7 s, and an
        old-marker frame grabbed before the command at exactly ``switch -
        transport``: its pose comes out at the switch instant, where the
        detector update comes first, so it is computed with the new
        parameters, and the half-open window opens at its capture."""
        q = 2.0**-7
        sample = DelaySample(detector_update=q, display=4 * q, display_confirm=6 * q,
                             video=3 * q, pose=q)
        timeline = schedule_update(1.0, sample, 4 * q)
        switch = timeline.detector_confirm_at
        capture = switch - (sample.video + sample.pose)
        assert capture == 1.0 - 3 * q < timeline.issued_at
        assert wait_window(timeline, "safe")[0] == capture
        (frame,) = [o for o in replay_update_frames(timeline, "safe", frame_phase=q)
                    if o.capture_time == capture]
        assert frame.ready_time == switch
        assert (frame.displayed_config, frame.believed_config) == (0, 1)
        assert frame.stamp.reason == "within_wait_window"


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


class TestEventQueue:
    def test_equal_times_pop_in_the_order_of_kinds(self):
        queue = EventQueue()
        for kind in reversed(list(_ORDER)):
            queue.push(1.0, kind)
        queue.push(0.5, "end")
        popped = []
        while queue:
            popped.append(queue.pop())
        assert popped == [(0.5, "end", None)] + [(1.0, kind, None) for kind in _ORDER]

    def test_one_kind_at_one_instant_pops_as_pushed(self):
        queue = EventQueue()
        queue.push(2.0, "pose-ready", "first")
        queue.push(2.0, "pose-ready", "second")
        assert [queue.pop(), queue.pop()] == [(2.0, "pose-ready", "first"),
                                              (2.0, "pose-ready", "second")]
        assert not queue

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            EventQueue().push(0.0, "no-such-event")


class TestUpdateProtocol:
    def test_a_proposal_waits_for_the_update_in_flight(self):
        protocol, issued = UpdateProtocol("safe"), []

        def issue(payload, at):
            protocol.issue(schedule_update(at, nominal_sample(), FRAME), payload, EventQueue())
            issued.append(payload)

        assert protocol.propose("a")
        issue("a", 0.0)
        assert not protocol.propose("b")
        assert not protocol.propose("c")  # replaces "b"
        with pytest.raises(RuntimeError):
            issue("c", 0.01)
        assert protocol.complete() == "c"
        issue("c", 0.1)
        assert protocol.complete() is None  # "c" is not handed over twice
        assert protocol.propose("d")
        issue("d", 0.2)
        assert issued == ["a", "c", "d"]

    @pytest.mark.parametrize("scheme", ["safe", "optimized"])
    def test_every_window_is_kept(self, scheme):
        # ten back-to-back updates, each issued at the previous one's completion
        protocol, timelines, issued = UpdateProtocol(scheme), [], 0.0
        for payload in range(10):
            timelines.append(schedule_update(issued, nominal_sample(), FRAME))
            assert protocol.propose(payload)
            protocol.issue(timelines[-1], payload, EventQueue())
            assert protocol.complete() is None
            issued = update_complete_time(timelines[-1], scheme)
        for timeline in timelines:
            lo, hi = wait_window(timeline, scheme)
            capture = (lo + hi) / 2
            assert protocol.window_of(capture) is timeline
            assert protocol.stamp(capture).reason == "within_wait_window"
            assert protocol.window_of(hi) is not timeline  # half-open

    def test_overlapping_safe_windows_find_the_later_update(self):
        # a detector update faster than the transport opens each safe window
        # before its command, inside the previous update's window
        protocol, timelines, issued = UpdateProtocol("safe"), [], 0.0
        for payload in range(2):
            timelines.append(schedule_update(issued, nominal_sample(), FRAME))
            protocol.issue(timelines[-1], payload, EventQueue())
            protocol.complete()
            issued = update_complete_time(timelines[-1], "safe")
        (_, first_end), (second_start, _) = (wait_window(tl, "safe") for tl in timelines)
        assert second_start < timelines[1].issued_at == first_end
        capture = (second_start + first_end) / 2
        assert protocol.window_of(capture) is timelines[1]
        assert protocol.stamp(capture).reason == "within_wait_window"


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

    def check_distrusted_exactly_when_mismatched(self, grid):
        rng = np.random.default_rng(2026)
        updates, mismatched = 10_000, 0
        for _ in range(updates):
            sample, frame = random_physical_sample(rng)
            issued, phase = rng.uniform(0.0, 2.0), rng.uniform(0.0, frame)
            if grid:
                sample, frame, issued, phase = on_dyadic_grid(sample, frame, issued, phase)
            timeline = schedule_update(issued, sample, frame)
            lo, hi = wait_window(timeline, "optimized")
            for o in replay_update_frames(timeline, "optimized", phase):
                assert (not o.stamp.valid) == o.mismatched == (lo <= o.capture_time < hi)
                mismatched += o.mismatched
        assert mismatched >= updates  # the window spans at least one frame period

    def test_distrusted_exactly_when_mismatched(self):
        self.check_distrusted_exactly_when_mismatched(grid=False)

    def test_distrusted_exactly_when_mismatched_on_the_dyadic_grid(self):
        # captures land exactly on display instants and poses exactly on
        # detector switches, where the order of equal timestamps decides
        self.check_distrusted_exactly_when_mismatched(grid=True)


def reference_replay(timeline, scheme, frame_phase):
    """The protocol restated analytically, as a reference for the event-driven
    replay: a frame shows the new marker iff it is captured at or after the
    display instant, its pose is computed with the new parameters iff it comes
    out at or after the detector switch, and it is stamped against the one
    update's window."""
    period = timeline.frame_period
    transport = timeline.sample.video + timeline.sample.pose
    switch = detector_switch_time(timeline, scheme)
    lo, hi = wait_window(timeline, scheme)
    horizon = max(hi, switch - transport, timeline.pose_ready_at) + 2 * period
    start = timeline.issued_at - (period + timeline.sample.video + timeline.sample.pose) - period
    rows = []
    k = int(np.ceil((start - frame_phase) / period))
    while (capture := frame_phase + k * period) <= horizon:
        ready = capture + transport
        displayed = int(capture >= timeline.display_at)
        believed = int(ready >= switch)
        stamp = stamp_validity(lo <= capture < hi)
        rows.append((capture, ready, displayed, believed, stamp.reason))
        k += 1
    return rows


def dyadic(x, q=2.0**-8):
    return round(x / q) * q


def on_dyadic_grid(sample, frame, issued, phase):
    """The delays, frame period, issue instant and frame phase rounded to
    multiples of 2^-8 s, so that every sum the protocol forms is exact."""
    sample = DelaySample(*(dyadic(getattr(sample, f)) for f in (
        "detector_update", "display", "display_confirm", "video", "pose")))
    return sample, dyadic(frame), dyadic(issued), dyadic(phase)


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
                sample, frame, issued, frame_phase = on_dyadic_grid(sample, frame, issued,
                                                                    frame_phase)
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
