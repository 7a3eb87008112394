import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from markersim.marker import (
    FamilyKind,
    MarkerConfig,
    MarkerFamily,
    NoiseProfile,
    Screen,
    board_layout,
    camera_freedom_angle,
    clamp_to_screen,
    optimal_marker_size,
)

SQUARE_SCREEN = Screen(0.15, 0.15)


class TestSizeRule:
    def test_zero_distance_gives_zero(self):
        assert optimal_marker_size(0.5, 0.0, 1.0) == 0.0

    def test_consistent_variant_direct_evaluation(self):
        # 2 * 2 * tan(1 * 0.5 / 2) = 4 * tan(0.25)
        assert optimal_marker_size(0.5, 2.0, 1.0, "consistent") == pytest.approx(
            1.021367684884145, abs=1e-12
        )

    def test_verbatim_variant_direct_evaluation(self):
        # 2 * 2 * tan(0.5 * 0.5) = 4 * tan(0.25)
        assert optimal_marker_size(0.5, 2.0, 0.5, "verbatim") == pytest.approx(
            1.021367684884145, abs=1e-12
        )

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0001])
    def test_scale_fraction_domain(self, bad):
        with pytest.raises(ValueError):
            optimal_marker_size(0.5, 2.0, bad)

    def test_verbatim_tangent_pole(self):
        with pytest.raises(ValueError, match="pole"):
            optimal_marker_size(1.7, 2.0, 1.0, "verbatim")

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            optimal_marker_size(0.5, 2.0, 0.5, "exact")

    @staticmethod
    def assert_increasing(size, lo, hi):
        """``size(lo) <= size(hi)`` for ``lo < hi``, strictly once they differ by more than 1e-9
        relative: ``2·h·tan(·)`` rounds inputs one ulp apart to one size."""
        assert size(lo) <= size(hi)
        if hi - lo > 1e-9 * hi:
            assert size(lo) < size(hi)

    @given(
        fov=st.floats(0.05, 1.5),
        h1=st.floats(0.01, 20.0),
        h2=st.floats(0.01, 20.0),
        s=st.floats(0.01, 1.0),
    )
    # heights one ulp apart, both sized 0.01863192919888145 (verbatim at s 0.5, consistent at 1.0)
    @example(fov=1.5, h1=0.01, h2=0.010000000000000002, s=0.5)
    @example(fov=1.5, h1=0.01, h2=0.010000000000000002, s=1.0)
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_in_distance(self, fov, h1, h2, s):
        if h1 == h2:
            return
        lo, hi = sorted((h1, h2))
        # the verbatim pole is at fov * s = pi/2, beyond fov <= 1.5 and s <= 1
        for rule in ("consistent", "verbatim"):
            self.assert_increasing(lambda h: optimal_marker_size(fov, h, s, rule), lo, hi)

    @given(
        fov=st.floats(0.05, 1.5),
        h=st.floats(0.01, 20.0),
        s1=st.floats(0.01, 0.99),
        s2=st.floats(0.01, 0.99),
    )
    @settings(max_examples=100, deadline=None)
    def test_strictly_increasing_in_scale_fraction(self, fov, h, s1, s2):
        if s1 == s2:
            return
        lo, hi = sorted((s1, s2))
        self.assert_increasing(lambda s: optimal_marker_size(fov, h, s), lo, hi)


class TestFreedomAngle:
    def test_point_marker_leaves_half_fov(self):
        assert camera_freedom_angle(0.5, 0.0, 2.0) == pytest.approx(0.25, abs=1e-12)

    def test_consistency_with_size_rule_at_full_scale(self):
        size = optimal_marker_size(0.5, 2.0, 1.0, "consistent")
        assert camera_freedom_angle(0.5, size, 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_negative_when_marker_overflows(self):
        size = optimal_marker_size(0.5, 2.0, 1.0, "consistent")
        expected = 0.25 - math.atan(size / 2.0)  # oracle: direct formula at h = 1
        assert expected < 0
        assert camera_freedom_angle(0.5, size, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            camera_freedom_angle(0.5, 0.1, 0.0)

    @given(
        fov=st.floats(0.05, 1.5),
        h=st.floats(0.05, 20.0),
        m1=st.floats(1e-4, 2.0),
        m2=st.floats(1e-4, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_decreasing_in_size_increasing_in_distance(self, fov, h, m1, m2):
        if abs(m1 - m2) > 1e-9:
            lo, hi = sorted((m1, m2))
            assert camera_freedom_angle(fov, hi, h) < camera_freedom_angle(fov, lo, h)
        assert camera_freedom_angle(fov, m1, h) < camera_freedom_angle(fov, m1, 2 * h)


class TestClamp:
    def test_under_limit_untouched(self):
        assert clamp_to_screen(0.10, SQUARE_SCREEN) == 0.10

    def test_capped_at_screen_limit(self):
        assert clamp_to_screen(0.80, SQUARE_SCREEN) == 0.15

    def test_zero(self):
        assert clamp_to_screen(0.0, SQUARE_SCREEN) == 0.0

    def test_fill_factor(self):
        assert clamp_to_screen(0.80, SQUARE_SCREEN, fill_factor=0.8) == pytest.approx(0.12)


class TestBoardLayout:
    def test_single_cell_when_cell_fills_screen(self):
        cells = board_layout(SQUARE_SCREEN, 0.15, gap_fraction=0.0)
        assert cells.tolist() == [[0.0, 0.0, 0.15]]

    def test_three_by_three(self):
        assert len(board_layout(SQUARE_SCREEN, 0.05, gap_fraction=0.0)) == 9

    def test_rectangular_screen_per_axis_floors(self):
        assert len(board_layout(Screen(0.15, 0.10), 0.05, gap_fraction=0.0)) == 6

    def test_cell_larger_than_screen_rejected(self):
        with pytest.raises(ValueError):
            board_layout(SQUARE_SCREEN, 0.2)

    @given(
        w=st.floats(0.05, 1.0),
        h=st.floats(0.05, 1.0),
        frac=st.floats(0.05, 1.0),
        gap=st.floats(0.0, 0.8),
    )
    @settings(max_examples=150, deadline=None)
    def test_cells_disjoint_and_inside_screen(self, w, h, frac, gap):
        screen = Screen(w, h)
        cells = board_layout(screen, frac * screen.min_dim, gap_fraction=gap)
        assert len(cells) >= 1
        x, y, size = cells.T
        assert (np.abs(x) + size / 2 <= w / 2 + 1e-9).all()
        assert (np.abs(y) + size / 2 <= h / 2 + 1e-9).all()
        # Every pair, in row blocks of at most ~2**20 pairs to bound memory.
        block = max(1, 2**20 // len(cells))
        for start in range(0, len(cells), block):
            rows = slice(start, start + block)
            half = (size[rows, None] + size) / 2
            apart = (np.abs(x[rows, None] - x) >= half - 1e-9) | (
                np.abs(y[rows, None] - y) >= half - 1e-9
            )
            own = np.arange(apart.shape[0])
            apart[own, start + own] = True
            assert apart.all()

    @given(
        w=st.floats(0.05, 1.0),
        h=st.floats(0.05, 1.0),
        frac=st.floats(0.05, 1.0),
        gap=st.floats(0.0, 0.99),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_cell_reference(self, w, h, frac, gap):
        screen = Screen(w, h)
        size = frac * screen.min_dim
        cells = board_layout(screen, size, gap)
        assert cells.dtype == np.float64 and cells.shape[1] == 3
        expected = np.array(reference_board_layout(screen, size, gap))
        assert cells.tobytes() == expected.tobytes()


def reference_board_layout(screen, cell_size, gap_fraction):
    """The per-cell layout loop: one (center_x, center_y, size) tuple per
    cell, y outer and x inner."""
    pitch = cell_size * (1.0 + gap_fraction)
    nx = max(1, int(math.floor(screen.width / pitch + 1e-9)))
    ny = max(1, int(math.floor(screen.height / pitch + 1e-9)))
    return [
        ((i - (nx - 1) / 2.0) * pitch, (j - (ny - 1) / 2.0) * pitch, cell_size)
        for j in range(ny)
        for i in range(nx)
    ]


class TestTypes:
    def test_noise_profile_power_law(self):
        p = NoiseProfile(0.02, 1.0)
        assert p.sigma_at(3.0) == pytest.approx(0.06)
        assert NoiseProfile(0.02, 0.0).sigma_at(13.0) == 0.02

    def test_family_defaults_carry_measured_ranges(self):
        full = MarkerFamily.full_pose_default()
        longr = MarkerFamily.long_range_default()
        assert full.max_detection_range == 4.4 and full.yields_yaw
        assert longr.max_detection_range == 13.181 and not longr.yields_yaw
        assert longr.yaw_noise is None

    def test_yaw_noise_without_yaw_rejected(self):
        with pytest.raises(ValueError):
            MarkerFamily(
                kind=FamilyKind.LONG_RANGE_POSITION_ONLY,
                max_detection_range=10.0,
                min_pixel_footprint=20.0,
                yields_yaw=False,
                position_noise=NoiseProfile(0.01, 0.0),
                yaw_noise=NoiseProfile(0.01, 0.0),
            )

    def test_marker_config_requires_size_within_screen_limit(self):
        fam = MarkerFamily.full_pose_default()
        with pytest.raises(ValueError):
            MarkerConfig.single(0, fam, 0.2, 0.15)
        with pytest.raises(ValueError):
            MarkerConfig.single(0, fam, 0.0, 0.15)

    def test_marker_config_rejects_overlapping_cells(self):
        fam = MarkerFamily.full_pose_default()
        with pytest.raises(ValueError, match="overlap"):
            MarkerConfig(
                config_id=0,
                family=fam,
                marker_size=0.05,
                board=((0.0, 0.0, 0.05), (0.01, 0.0, 0.05)),
                screen_limit=0.15,
            )


def board_config(cells):
    return MarkerConfig(
        config_id=0,
        family=MarkerFamily.full_pose_default(),
        marker_size=0.1,
        board=cells,
        screen_limit=2.0,
    )


def reference_overlap_error(cells):
    """The pairwise overlap check, one Python comparison per pair."""
    for i, (ax, ay, asize) in enumerate(cells):
        for bx, by, bsize in cells[i + 1 :]:
            half = (asize + bsize) / 2.0
            if abs(ax - bx) < half - 1e-12 and abs(ay - by) < half - 1e-12:
                return (
                    f"board cells overlap: ({ax}, {ay}) and "
                    f"({bx}, {by}) with sizes {asize}, {bsize}"
                )
    return None


class TestBoardCellValues:
    def test_first_bad_cell_in_board_order_is_named(self):
        cells = [(0.0, 0.0, -1.0), (float("nan"), 0.0, 0.1)]
        with pytest.raises(ValueError, match=r"^board cell 0 at \(0\.0, 0\.0\) with size -1\.0:"):
            board_config(cells)
        # values are printed as floats whatever the input type
        with pytest.raises(ValueError, match=r"^board cell 0 at \(0\.0, 0\.0\) with size -1\.0:"):
            board_config([(0, 0, -1)])

    @pytest.mark.parametrize(
        "bad",
        [
            (float("nan"), 0.0, 0.1),
            (0.0, float("inf"), 0.1),
            (0.5, 0.0, 0.0),
            (0.5, 0.0, float("nan")),
            (0.5, 0.0, float("inf")),
        ],
    )
    def test_non_finite_or_non_positive_cell_rejected(self, bad):
        with pytest.raises(ValueError, match="^board cell 1 at"):
            board_config([(-0.5, 0.0, 0.1), bad, (0.0, 0.0, -1.0)])


class TestBoardOverlap:
    def test_first_pair_in_board_order_is_named(self):
        # Sorted by x, the (0.0, 0.01) pair comes first; in board order the
        # (0.5, 0.53) pair does.
        cells = [
            (0.5, 0.0, 0.1),
            (0.0, 0.0, 0.1),
            (0.52, 0.2, 0.1),
            (0.53, 0.0, 0.1),
            (0.01, 0.0, 0.1),
        ]
        with pytest.raises(ValueError) as err:
            board_config(cells)
        assert str(err.value) == (
            "board cells overlap: (0.5, 0.0) and (0.53, 0.0) with sizes 0.1, 0.1"
        )

    def test_abutting_cells_accepted(self):
        cells = [
            (0.0, 0.0, 0.1),
            (0.1, 0.0, 0.1),
            (0.1, 0.1, 0.1),
            (0.0, -0.1, 0.1),
        ]
        assert board_config(cells).n_cells == 4
        grid = board_layout(Screen(0.3, 0.2), 0.01, gap_fraction=0.0)
        assert board_config(grid).n_cells == 600

    def test_only_the_largest_size_reaches_the_overlap(self):
        # The overlapping pair is 0.28 apart in x, farther than the small
        # size, with two cells between them in x order.
        cells = [
            (0.1, 1.0, 0.1),
            (0.2, 1.0, 0.1),
            (0.0, 0.0, 0.5),
            (0.28, 0.0, 0.1),
        ]
        with pytest.raises(ValueError) as err:
            board_config(cells)
        assert str(err.value) == (
            "board cells overlap: (0.0, 0.0) and (0.28, 0.0) with sizes 0.5, 0.1"
        )

    def test_one_cell_board_accepted(self):
        assert board_config([(0.3, -0.2, 0.1)]).n_cells == 1

    @given(
        st.lists(
            st.tuples(
                st.integers(-8, 8),
                st.integers(-8, 8),
                st.sampled_from([0.05, 0.1, 0.15, 0.3]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_reference(self, raw):
        # Centers on a 0.05 m lattice make abutting and equal-x cells common.
        cells = [(i * 0.05, j * 0.05, size) for i, j, size in raw]
        expected = reference_overlap_error(cells)
        if expected is None:
            assert board_config(cells).board.tolist() == [list(c) for c in cells]
        else:
            with pytest.raises(ValueError) as err:
                board_config(cells)
            assert str(err.value) == expected


class TestBoardArray:
    @pytest.mark.parametrize(
        "board, message",
        [
            ([(0.0, 0.1), (0.2, 0.1)], r"\(n, 3\) array .* got shape \(2, 2\)"),
            ((0.0, 0.0, 0.1), r"\(n, 3\) array .* got shape \(3,\)"),
            ([[(0.0, 0.0, 0.1)]], r"\(n, 3\) array .* got shape \(1, 1, 3\)"),
            ([(0.0, 0.0, 0.1), (0.2, 0.0)], r"\(n, 3\) array"),
            ([(0.0, 0.0, "x")], r"\(n, 3\) array"),
            ((), "^board must contain at least one cell$"),
            (np.empty((0, 3)), "^board must contain at least one cell$"),
        ],
    )
    def test_malformed_board_rejected(self, board, message):
        with pytest.raises(ValueError, match=message):
            board_config(board)

    def test_board_is_a_read_only_float_copy(self):
        rows = np.array([[0, 0, 1], [2, 0, 1]])
        config = board_config(rows)
        rows[0, 0] = 5
        assert config.board.dtype == np.float64
        assert config.board.tolist() == [[0.0, 0.0, 1.0], [2.0, 0.0, 1.0]]
        with pytest.raises(ValueError, match="read-only"):
            config.board[0, 0] = 1.0
        assert config.n_cells == len(config.board) == 2

    def test_configs_compare_by_identity(self):
        config = board_config([(0.0, 0.0, 0.1)])
        assert config == config and config != board_config([(0.0, 0.0, 0.1)])
        assert len({config, config}) == 1
