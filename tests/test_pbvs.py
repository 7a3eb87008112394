import math

import numpy as np
import pytest

from markersim.geometry import (
    AngleAxis,
    Pose,
    _axis_angle,
    angle_axis_to_rotation,
    invert,
    rot_x,
    rot_z,
    vector_norm,
)
from markersim.pbvs import (
    FeatureVector,
    VelocityCommand,
    clamp_command,
    compute_error,
    control_law,
    error_and_rotation,
    servo_step,
    with_descent,
)
from markersim.perception import PoseEstimate
from markersim.simulation import VehicleState, camera_pose_in_marker, vehicle_step

ROT_X_180 = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])


def estimate_from_camera_pose(x, y, z, yaw, with_yaw=True):
    pose = camera_pose_in_marker(x, y, z, yaw)
    rel = invert(pose)
    return PoseEstimate(
        relative_pose=rel,
        yaw=yaw if with_yaw else None,
        computed_against=0,
        capture_time=0.0,
        position_sigma=0.0,
    )


def desired_pose(height, yaw=0.0):
    return invert(camera_pose_in_marker(0.0, 0.0, height, yaw, frame="camera_desired"))


class TestComputeError:
    def test_zero_at_goal(self):
        est = estimate_from_camera_pose(0.0, 0.0, 1.5, 0.0)
        e = compute_error(est, desired_pose(1.5))
        assert np.linalg.norm(e.translation) < 1e-12
        assert e.rotation.angle < 1e-12

    def test_camera_above_goal_hand_composition(self):
        # Oracle, worked by hand with literal matrices: desired camera 1.5 m
        # over the marker, current camera 2.5 m (1 m behind the goal along the
        # optical axis). T_desired<-marker = (Rx(pi), (0,0,1.5)),
        # T_marker<-camera = (Rx(pi), (0,0,2.5)); composing gives rotation I
        # and translation Rx(pi)@(0,0,2.5) + (0,0,1.5) = (0,0,-1).
        est = estimate_from_camera_pose(0.0, 0.0, 2.5, 0.0)
        e, r = error_and_rotation(est, desired_pose(1.5))
        np.testing.assert_allclose(r, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(e.translation, [0.0, 0.0, -1.0], atol=1e-12)
        assert e.rotation.angle < 1e-12
        # the resulting command moves the camera toward the marker
        cmd = control_law(e, 1.0, r)
        assert cmd.linear[2] > 0

    def test_pure_yaw_offset(self):
        # camera yawed by +psi relative to the goal: rotation error is a pure
        # z rotation of magnitude psi (hand derivation gives Rz(-psi))
        psi = math.pi / 2
        est = estimate_from_camera_pose(0.0, 0.0, 1.5, psi)
        e, r = error_and_rotation(est, desired_pose(1.5))
        assert np.linalg.norm(e.translation) < 1e-12
        assert e.rotation.angle == pytest.approx(psi, abs=1e-12)
        np.testing.assert_allclose(np.abs(e.rotation.axis), [0.0, 0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(r, rot_z(-psi), atol=1e-12)

    def test_lateral_offset_maps_into_desired_axes(self):
        est = estimate_from_camera_pose(0.3, 0.0, 1.5, 0.0)
        e = compute_error(est, desired_pose(1.5))
        # desired frame x axis is the marker x axis (camera flipped about x)
        np.testing.assert_allclose(e.translation, [0.3, 0.0, 0.0], atol=1e-12)

    def test_missing_yaw_zeroes_rotation_z(self):
        est = estimate_from_camera_pose(0.2, -0.1, 2.0, 0.8, with_yaw=False)
        # a position-only detector strips yaw from the reported rotation
        from markersim.perception import strip_yaw

        stripped = PoseEstimate(
            relative_pose=Pose(
                strip_yaw(est.relative_pose.rotation),
                est.relative_pose.translation,
                "marker",
                "camera",
            ),
            yaw=None,
            computed_against=0,
            capture_time=0.0,
            position_sigma=0.0,
        )
        e, r = error_and_rotation(stripped, desired_pose(2.0))
        assert e.rotation.as_vector()[2] == 0.0
        cmd = control_law(e, 1.0, r)
        assert cmd.angular[2] == 0.0


class TestControlLaw:
    def test_zero_error_zero_command(self):
        e = FeatureVector(np.zeros(3), AngleAxis(np.array([0.0, 0.0, 1.0]), 0.0))
        cmd = control_law(e, 1.0, np.eye(3))
        assert np.all(cmd.linear == 0.0) and np.all(cmd.angular == 0.0)

    def test_translation_substitution(self):
        e = FeatureVector(np.array([1.0, 0.0, 0.0]), AngleAxis(np.array([0.0, 0.0, 1.0]), 0.0))
        cmd = control_law(e, 1.0, np.eye(3))
        np.testing.assert_allclose(cmd.linear, [-1.0, 0.0, 0.0], atol=1e-12)

    def test_rotation_substitution(self):
        e = FeatureVector(np.zeros(3), AngleAxis(np.array([0.0, 0.0, 1.0]), math.pi / 2))
        cmd = control_law(e, 0.5, np.eye(3))
        np.testing.assert_allclose(cmd.angular, [0.0, 0.0, -math.pi / 4], atol=1e-12)

    def test_rotated_frame_translation(self):
        e = FeatureVector(np.array([0.0, 1.0, 0.0]), AngleAxis(np.array([0.0, 0.0, 1.0]), 0.0))
        r = rot_z(math.pi / 2)
        cmd = control_law(e, 1.0, r)
        np.testing.assert_allclose(cmd.linear, -r.T @ np.array([0.0, 1.0, 0.0]), atol=1e-12)

    def test_linear_in_error(self):
        rng = np.random.default_rng(5)
        t = rng.normal(size=3)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        e1 = FeatureVector(t, AngleAxis(axis, 0.4))
        e2 = FeatureVector(3.0 * t, AngleAxis(axis, 1.2))
        r = rot_z(0.3) @ rot_x(0.1)
        c1 = control_law(e1, 0.7, r)
        c2 = control_law(e2, 0.7, r)
        np.testing.assert_allclose(c2.linear, 3.0 * c1.linear, atol=1e-12)
        np.testing.assert_allclose(c2.angular, 3.0 * c1.angular, atol=1e-12)

    def test_zero_iff_zero(self):
        e = FeatureVector(np.array([1e-9, 0.0, 0.0]), AngleAxis(np.array([0.0, 0.0, 1.0]), 0.0))
        cmd = control_law(e, 1.0, np.eye(3))
        assert np.linalg.norm(cmd.linear) > 0.0

    def test_gain_must_be_positive(self):
        e = FeatureVector(np.zeros(3), AngleAxis(np.array([0.0, 0.0, 1.0]), 0.0))
        with pytest.raises(ValueError):
            control_law(e, 0.0, np.eye(3))


class TestCommandShaping:
    def test_clamp_preserves_direction(self):
        cmd = VelocityCommand(np.array([3.0, 4.0, 0.0]), np.array([0.0, 0.0, 2.0]))
        clamped = clamp_command(cmd, 1.0, 1.0)
        assert np.linalg.norm(clamped.linear) == pytest.approx(1.0)
        np.testing.assert_allclose(clamped.linear, [0.6, 0.8, 0.0], atol=1e-12)
        assert clamped.angular[2] == pytest.approx(1.0)

    def test_clamp_leaves_slow_commands_alone(self):
        cmd = VelocityCommand(np.array([0.1, 0.0, 0.0]), np.array([0.0, 0.0, 0.1]))
        clamped = clamp_command(cmd, 1.0, 1.0)
        np.testing.assert_allclose(clamped.linear, cmd.linear)

    def test_descent_override_keeps_lateral(self):
        cmd = VelocityCommand(np.array([0.2, -0.1, -0.5]), np.array([0.0, 0.0, 0.3]))
        down = with_descent(cmd, 0.3)
        np.testing.assert_allclose(down.linear, [0.2, -0.1, 0.3])
        np.testing.assert_allclose(down.angular, cmd.angular)


class TestVelocityCommand:
    def test_arrays_are_read_only_copies(self):
        linear = np.array([0.1, 0.2, 0.3])
        cmd = VelocityCommand(linear, np.zeros(3))
        linear[0] = np.nan  # the caller's array, not the command's
        assert cmd.is_finite and cmd.linear[0] == 0.1
        for array in (cmd.linear, cmd.angular):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = np.nan

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_component_decided_at_construction(self, value):
        assert not VelocityCommand(np.zeros(3), np.array([0.0, value, 0.0])).is_finite
        assert not VelocityCommand(np.array([value, 0.0, 0.0]), np.zeros(3)).is_finite

    @pytest.mark.parametrize("value", [0.25, -0.0, math.inf, -math.inf, math.nan])
    def test_the_engine_form_is_the_public_form(self, value):
        """``_of``, the engine's command from six floats, has the public
        constructor's twist bits and finiteness, with ``value`` in each place."""
        for i in range(6):
            twist = tuple(value if j == i else 0.1 * (j + 1) for j in range(6))
            engine, public = VelocityCommand._of(twist), VelocityCommand(twist[:3], twist[3:])
            assert bits(*engine.twist) == bits(*public.twist)
            assert engine.is_finite == public.is_finite == math.isfinite(value)


def bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def random_servo_cases(rng, n):
    """(estimate, desired, gain) over both families, rotation errors at and
    near 0, near pi and between, and gains and offsets that put the command
    past either speed clamp or both."""
    angles = (0.0, 1e-12, 1e-9, math.pi - 5e-7, math.pi - 1e-9, math.pi, None)
    for k in range(n):
        desired = desired_pose(rng.uniform(0.3, 3.0), rng.uniform(-math.pi, math.pi))
        angle = angles[k % len(angles)]
        axis = rng.normal(size=3)
        error = angle_axis_to_rotation(AngleAxis(
            axis / np.linalg.norm(axis), rng.uniform(0.0, math.pi) if angle is None else angle))
        # the estimate whose rotation error from the goal is ``error``
        rotation = error.T @ desired.rotation
        translation = rng.normal(size=3) * rng.choice([0.01, 0.3, 3.0])
        yaw = None if (k // len(angles)) % 2 else 0.0
        estimate = PoseEstimate(Pose(rotation, translation, "marker", "camera"), yaw, 0, 0.0, 0.0)
        yield estimate, desired, rng.uniform(0.2, 3.0)


class TestServoStep:
    def test_bits_of_the_api_chain(self):
        """The engine's servo step (``servo_step``, then the descent override
        and one ``VelocityCommand._of``) has the bits of the API chain."""
        branches, clamps = set(), set()
        rng = np.random.default_rng(19)
        for estimate, desired, gain in random_servo_cases(rng, 700):
            max_linear, max_angular = rng.choice([0.5, 1.0]), rng.choice([0.5, 1.0])
            descent = rng.choice([None, 0.3])
            cam, linear, angular = servo_step(estimate, desired, gain, max_linear, max_angular)
            error, rotation = error_and_rotation(estimate, desired)
            raw = control_law(error, gain, rotation)
            reference = clamp_command(raw, max_linear, max_angular)
            if descent is not None:
                linear[2] = descent
                reference = with_descent(reference, descent)
            cmd = VelocityCommand._of((*linear, *angular))
            assert cmd.is_finite
            assert bits(*cam) == invert(estimate.relative_pose).translation.tobytes()
            assert bits(*cmd.twist) == bits(*reference.linear, *reference.angular)
            # the law itself is numpy's product and scaling
            assert raw.linear.tobytes() == (-gain * (rotation.T @ error.translation)).tobytes()
            assert raw.angular.tobytes() == (-gain * error.rotation.as_vector()).tobytes()

            angle = _axis_angle(rotation)[1]
            branch = "zero" if angle == 0.0 else "near-pi" if math.pi - angle < 1e-6 else "generic"
            branches.add((estimate.yaw is None, branch))
            clamps.add((vector_norm(raw.linear) > max_linear,
                        vector_norm(raw.angular) > max_angular))
        assert branches == {(yawless, branch) for yawless in (True, False)
                            for branch in ("zero", "near-pi", "generic")}
        assert {(True, True), (True, False), (False, True)} <= clamps

    def test_frames_must_chain(self):
        """``servo_step`` checks, as ``compose`` does, that the estimate's marker
        frame is the one the goal starts from, with the same message."""
        estimate = estimate_from_camera_pose(0.1, 0.2, 1.5, 0.3)
        desired = Pose(ROT_X_180, [0.0, 0.0, 1.0], "screen", "camera_desired")
        with pytest.raises(ValueError) as api:
            error_and_rotation(estimate, desired)
        with pytest.raises(ValueError, match="expects frame 'screen'") as engine:
            servo_step(estimate, desired, 1.0, 1.0, 1.0)
        assert str(engine.value) == str(api.value)


class TestClosedLoop:
    def test_exponential_convergence_single_pose(self):
        gain, dt = 1.0, 1e-3
        state = VehicleState(camera_pose_in_marker(0.6, -0.4, 3.2, 0.9), 0.0)
        desired = desired_pose(2.5)
        est = lambda s: PoseEstimate(invert(s.pose), 0.0, 0, s.time, 0.0)
        e0 = compute_error(est(state), desired).magnitude()
        for k in range(2000):
            e, r = error_and_rotation(est(state), desired)
            state = vehicle_step(state, control_law(e, gain, r), dt)
        e_end = compute_error(est(state), desired).magnitude()
        assert e_end == pytest.approx(e0 * math.exp(-gain * 2.0), rel=0.02)

    def test_yaw_moves_toward_goal(self):
        state = VehicleState(camera_pose_in_marker(0.0, 0.0, 2.5, 0.4), 0.0)
        desired = desired_pose(2.5)
        for _ in range(200):
            e, r = error_and_rotation(
                PoseEstimate(invert(state.pose), 0.4, 0, 0.0, 0.0), desired
            )
            state = vehicle_step(state, control_law(e, 1.0, r), 1e-2)
        from markersim.simulation import _vehicle_yaw

        assert abs(_vehicle_yaw(state)) < 0.4 * math.exp(-1.5)
