import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import markersim
from markersim.geometry import (
    AngleAxis,
    CameraIntrinsics,
    OutOfView,
    Pose,
    _rotation_defect,
    angle_axis_to_rotation,
    compose,
    fov_half_angle,
    invert,
    project_point,
    rot_x,
    rot_z,
    rotation_to_angle_axis,
    vector_norm,
)


def rot_y(angle: float) -> np.ndarray:
    """Reference rotation about the y axis."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


# Hand-written literals, independent of the rot_* helpers.
ROT_Z_90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
ROT_X_180 = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])


def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return angle_axis_to_rotation(AngleAxis(axis, rng.uniform(0.0, math.pi - 1e-3)))


def random_pose(rng, from_frame="a", to_frame="b"):
    return Pose(random_rotation(rng), rng.uniform(-5, 5, size=3), from_frame, to_frame)


class TestPose:
    def test_compose_identity(self):
        rng = np.random.default_rng(1)
        p = random_pose(rng)
        q = compose(p, Pose(np.eye(3), np.zeros(3), "a", "a"))
        np.testing.assert_allclose(q.rotation, p.rotation, atol=1e-12)
        np.testing.assert_allclose(q.translation, p.translation, atol=1e-12)

    def test_compose_inverse_is_identity(self):
        rng = np.random.default_rng(2)
        p = random_pose(rng)
        q = compose(p, invert(p))
        np.testing.assert_allclose(q.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(q.translation, np.zeros(3), atol=1e-9)
        assert q.from_frame == "b" and q.to_frame == "b"

    def test_compose_hand_example(self):
        # a rotates by 90 deg about z and shifts x by 1; b shifts x by 1.
        # Composed translation: Rz(90) @ (1,0,0) + (1,0,0) = (1,1,0).
        a = Pose(ROT_Z_90, [1.0, 0.0, 0.0], "mid", "top")
        b = Pose(np.eye(3), [1.0, 0.0, 0.0], "base", "mid")
        c = compose(a, b)
        np.testing.assert_allclose(c.translation, [1.0, 1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(c.rotation, ROT_Z_90, atol=1e-12)
        assert c.from_frame == "base" and c.to_frame == "top"

    def test_compose_frame_mismatch_names_both_frames(self):
        a = Pose(np.eye(3), np.zeros(3), "x", "y")
        b = Pose(np.eye(3), np.zeros(3), "p", "q")
        with pytest.raises(ValueError, match="'x'.*'q'"):
            compose(a, b)

    def test_rejects_non_orthonormal_rotation(self):
        bad = np.eye(3) * 1.01
        with pytest.raises(ValueError, match="rotation"):
            Pose(bad, np.zeros(3), "a", "b")

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3), "a", "b")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", [(0, 0), (1, 2), (2, 1)])
    def test_rejects_non_finite_rotation(self, index, value):
        bad = np.eye(3)
        bad[index] = value
        with pytest.raises(ValueError, match="rotation"):
            Pose(bad, np.zeros(3), "a", "b")

    def test_defect_matches_matrix_form(self):
        # The largest entry of |R^T R - I| or |det R - 1|, worked by hand.
        shear = np.eye(3)
        shear[0, 1] = 1e-3  # R^T R holds 1e-3 off the diagonal and 1e-6 on it; det R = 1
        for r, defect in ((ROT_Z_90, 0.0), (ROT_X_180, 0.0), (np.eye(3) * 1.01, 0.030301),
                          (np.diag([1.0, 1.0, -1.0]), 2.0), (shear, 1e-3)):
            assert _rotation_defect(r) == pytest.approx(defect, rel=1e-9, abs=1e-15)
        rng = np.random.default_rng(4)
        assert max(_rotation_defect(random_rotation(rng)) for _ in range(200)) < 1e-14
        for value in (math.nan, math.inf, -math.inf):
            bad = np.eye(3)
            bad[1, 2] = value
            assert not math.isfinite(_rotation_defect(bad))  # with no RuntimeWarning

    def test_vector_norm_equals_numpy(self):
        rng = np.random.default_rng(5)
        for v in rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-8, 8, size=(500, 1)):
            assert vector_norm(v) == float(np.linalg.norm(v))

    def test_pose_invariants_tight(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_pose(rng)
            r = p.rotation
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
            assert abs(np.linalg.det(r) - 1.0) < 1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_compose_associative(self, seed):
        rng = np.random.default_rng(seed)
        a = random_pose(rng, "c", "d")
        b = random_pose(rng, "b", "c")
        c = random_pose(rng, "a", "b")
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        np.testing.assert_allclose(left.rotation, right.rotation, atol=1e-9)
        np.testing.assert_allclose(left.translation, right.translation, atol=1e-9)

    def test_package_exports_no_private_name(self):
        # Pose._unchecked skips both checks; only the library may reach it.
        assert not [name for name in markersim.__all__ if name.startswith("_")]


class TestAngleAxis:
    def test_identity_rotation_is_zero_angle(self):
        aa = rotation_to_angle_axis(np.eye(3))
        assert aa.angle == 0.0
        np.testing.assert_allclose(aa.axis, [0.0, 0.0, 1.0])

    def test_quarter_turn_about_z(self):
        aa = rotation_to_angle_axis(ROT_Z_90)
        assert aa.angle == pytest.approx(math.pi / 2, abs=1e-12)
        np.testing.assert_allclose(aa.axis, [0.0, 0.0, 1.0], atol=1e-12)

    def test_half_turn_branch_fixes_axis_sign(self):
        aa = rotation_to_angle_axis(ROT_X_180)
        assert aa.angle == pytest.approx(math.pi, abs=1e-9)
        np.testing.assert_allclose(aa.axis, [1.0, 0.0, 0.0], atol=1e-9)

    def test_half_turn_oblique_axis(self):
        axis = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        r = angle_axis_to_rotation(AngleAxis(axis, math.pi))
        aa = rotation_to_angle_axis(r)
        assert aa.angle == pytest.approx(math.pi, abs=1e-7)
        np.testing.assert_allclose(aa.axis, axis, atol=1e-7)

    def test_symmetric_matrix_off_the_identity_by_rounding_is_zero_angle(self):
        # The trace misses 3 by an ulp, so acos reads 2.1e-8 rad, but the skew
        # part that gives the axis is exactly zero: the rotation is the identity.
        r = np.eye(3)
        r[2, 2] = 1.0 - 2.0**-51
        aa = rotation_to_angle_axis(r)
        assert aa.angle == 0.0
        np.testing.assert_array_equal(aa.axis, [0.0, 0.0, 1.0])

    def test_non_orthonormal_input_rejected(self):
        with pytest.raises(ValueError):
            rotation_to_angle_axis(np.eye(3) + 1e-3)

    @given(
        st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1),
        st.floats(1e-6, math.pi - 1e-5),
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, ax, ay, az, angle):
        v = np.array([ax, ay, az])
        n = np.linalg.norm(v)
        if n < 1e-3:
            v = np.array([0.0, 0.0, 1.0])
            n = 1.0
        aa = AngleAxis(v / n, angle)
        r = angle_axis_to_rotation(aa)
        back = rotation_to_angle_axis(r)
        np.testing.assert_allclose(angle_axis_to_rotation(back), r, atol=1e-7)
        assert 0.0 <= back.angle <= math.pi

    def test_rot_helpers_match_rodrigues(self):
        for builder, axis in ((rot_x, [1, 0, 0]), (rot_y, [0, 1, 0]), (rot_z, [0, 0, 1])):
            r = builder(0.7)
            expected = angle_axis_to_rotation(AngleAxis(np.array(axis, dtype=float), 0.7))
            np.testing.assert_allclose(r, expected, atol=1e-12)


class TestProjection:
    K = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480,
                         frame_period=1 / 30)

    def test_optical_axis_hits_principal_point(self):
        assert project_point([0.0, 0.0, 2.0], self.K) == (320.0, 240.0)

    def test_pinhole_formula(self):
        u, v = project_point([0.1, 0.0, 1.0], self.K)
        assert u == pytest.approx(370.0, abs=1e-12)  # 500*0.1/1 + 320
        assert v == pytest.approx(240.0, abs=1e-12)

    def test_behind_camera(self):
        res = project_point([0.0, 0.0, -1.0], self.K)
        assert isinstance(res, OutOfView) and res.reason == "behind-camera"

    def test_outside_frame(self):
        res = project_point([10.0, 0.0, 1.0], self.K)
        assert isinstance(res, OutOfView) and res.reason == "outside-frame"

    @given(
        st.floats(-0.5, 0.5), st.floats(-0.3, 0.3), st.floats(0.5, 5.0),
        st.floats(0.01, 100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_consistency(self, x, y, z, lam):
        a = project_point([x, y, z], self.K)
        b = project_point([lam * x, lam * y, lam * z], self.K)
        if isinstance(a, OutOfView):
            assert isinstance(b, OutOfView)
        else:
            assert a[0] == pytest.approx(b[0], abs=1e-9)
            assert a[1] == pytest.approx(b[1], abs=1e-9)


class TestFov:
    def test_square_sensor(self):
        k = CameraIntrinsics(500.0, 500.0, 320.0, 320.0, 640, 640, 1 / 30)
        assert fov_half_angle(k) == pytest.approx(0.5693131911006619, abs=1e-12)

    def test_unit_tangent_gives_quarter_pi(self):
        k = CameraIntrinsics(320.0, 320.0, 320.0, 320.0, 640, 640, 1 / 30)
        assert fov_half_angle(k) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_height_limited(self):
        k = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480, 1 / 30)
        assert fov_half_angle(k) == pytest.approx(0.44751997515716985, abs=1e-12)

    def test_full_fov_is_worked_out_once_per_instance(self):
        """``select_marker`` reads the full field of view each frame from the
        intrinsics, which work it out at construction; equality ignores it."""
        k = CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480, 1 / 30)
        wide = CameraIntrinsics(250.0, 250.0, 320.0, 240.0, 640, 480, 1 / 30)
        for intrinsics in (k, wide):
            assert intrinsics._full_fov == 2.0 * fov_half_angle(intrinsics)
        assert wide._full_fov > k._full_fov
        assert k == CameraIntrinsics(500.0, 500.0, 320.0, 240.0, 640, 480, 1 / 30)
        assert "_full_fov" not in repr(k)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(fx=0.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480, frame_period=0.03),
            dict(fx=500.0, fy=500.0, cx=700.0, cy=240.0, width=640, height=480, frame_period=0.03),
            dict(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480, frame_period=0.0),
        ],
    )
    def test_invalid_intrinsics(self, kwargs):
        with pytest.raises(ValueError):
            CameraIntrinsics(**kwargs)
