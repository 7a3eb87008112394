import math

import numpy as np
import pytest

from markersim.geometry import AngleAxis, Pose, invert, rot_x, rot_z
from markersim.pbvs import (
    FeatureVector,
    VelocityCommand,
    clamp_command,
    compute_error,
    control_law,
    error_and_rotation,
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

        assert abs(_vehicle_yaw(state.pose)) < 0.4 * math.exp(-1.5)
