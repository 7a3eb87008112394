"""Marker families, their physical layout on a finite display, and sizing rules.

A displayed configuration is always a board of one or more square cells that
share a single coordinate frame centered on the screen; a plain marker is the
one-cell case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Annotated

import numpy as np

from .domain import Domain, Positive, check_fields


class FamilyKind(str, Enum):
    """The two detection roles a displayed pattern can play."""

    LONG_RANGE_POSITION_ONLY = "long_range_position_only"
    SHORT_RANGE_FULL_POSE = "short_range_full_pose"


@dataclass(frozen=True)
class NoiseProfile:
    """Position/angle noise that scales with distance: sigma(h) = s1 * h**exp."""

    sigma_at_1m: Annotated[float, Domain("[0, 1e6]")]
    range_exponent: Annotated[float, Domain("[0, 10]")]

    def __post_init__(self):
        check_fields(self)

    def sigma_at(self, distance: float) -> float:
        if distance < 0:
            raise ValueError(f"distance must be >= 0, got {distance}")
        return self.sigma_at_1m * distance**self.range_exponent


@dataclass(frozen=True)
class MarkerFamily:
    """Detection characteristics of one marker family.

    Family parameters are data, not code. The defaults below mirror two
    widely used systems: a full-pose square-tag family (Aruco-style, accuracy
    degrading with distance) and a long-range circular family (Whycon-style,
    nearly constant accuracy but no yaw observability).
    """

    kind: FamilyKind
    max_detection_range: Annotated[float, Domain("(0, 1e6]")]
    min_pixel_footprint: Annotated[float, Domain("[1, inf)")]
    yields_yaw: bool
    position_noise: NoiseProfile
    yaw_noise: NoiseProfile | None = None

    def __post_init__(self):
        check_fields(self)
        if not self.yields_yaw and self.yaw_noise is not None:
            raise ValueError("yaw_noise must be absent when the family yields no yaw")

    @classmethod
    def full_pose_default(cls, sigma_at_1m: float = 0.02, yaw_sigma_at_1m: float = 0.03) -> "MarkerFamily":
        return cls(
            kind=FamilyKind.SHORT_RANGE_FULL_POSE,
            max_detection_range=4.4,
            min_pixel_footprint=20.0,
            yields_yaw=True,
            position_noise=NoiseProfile(sigma_at_1m, 1.0),
            yaw_noise=NoiseProfile(yaw_sigma_at_1m, 1.0),
        )

    @classmethod
    def long_range_default(cls, sigma: float = 0.02) -> "MarkerFamily":
        return cls(
            kind=FamilyKind.LONG_RANGE_POSITION_ONLY,
            max_detection_range=13.181,
            min_pixel_footprint=20.0,
            yields_yaw=False,
            position_noise=NoiseProfile(sigma, 0.0),
            yaw_noise=None,
        )


@dataclass(frozen=True)
class Screen:
    """Physical display surface."""

    width: Positive
    height: Positive

    def __post_init__(self):
        check_fields(self)

    @property
    def min_dim(self) -> float:
        return min(self.width, self.height)


# Corner offsets of a cell in units of its half size, counter-clockwise.
_CORNER_X = np.array([-1.0, 1.0, 1.0, -1.0])
_CORNER_Y = np.array([-1.0, -1.0, 1.0, 1.0])


def board_corners(cells: np.ndarray) -> np.ndarray:
    """Marker-frame corners of cells given as rows (center_x, center_y, size).

    Returns a (3, 4n) array whose rows are x, y and z (all 0), with four
    consecutive columns per cell.
    """
    half = cells[:, 2:] / 2.0
    corners = np.zeros((3, len(cells), 4))
    corners[0] = cells[:, :1] + _CORNER_X * half
    corners[1] = cells[:, 1:2] + _CORNER_Y * half
    return corners.reshape(3, -1)


def _first_overlap(cells: np.ndarray) -> tuple[int, int] | None:
    """First overlapping pair (i, j), i < j, in board order, or None.

    Two cells overlap when their centers are closer than the mean of their
    sizes, less 1e-12, along both axes. A sweep over the cells sorted by x
    compares each cell with the one k places further on, for k = 1, 2, ...,
    and drops a cell once that x distance reaches the largest cell size:
    sorted x distances only grow with k, so no later partner can overlap.
    Memory stays O(n).
    """
    n = len(cells)
    if n < 2:
        return None
    order = np.argsort(cells[:, 0], kind="stable")
    x, y, size = cells[order].T
    reach = np.fmax.reduce(size) - 1e-12
    best = None
    left = np.arange(n - 1)
    k = 1
    while left.size:
        left = left[left + k < n]
        right = left + k
        dx = x[right] - x[left]
        near = dx < reach
        left, right, dx = left[near], right[near], dx[near]
        half = (size[left] + size[right]) / 2.0 - 1e-12
        hit = (dx < half) & (np.abs(y[left] - y[right]) < half)
        if hit.any():
            a, b = order[left[hit]], order[right[hit]]
            first, second = np.minimum(a, b), np.maximum(a, b)
            i = int(first.min())
            pair = (i, int(second[first == i].min()))
            best = pair if best is None else min(best, pair)
        k += 1
    return best


@dataclass(frozen=True, eq=False)
class MarkerConfig:
    """One displayable marker configuration (the 3D-model side of the
    detector parametrization).

    ``config_id`` increases by one with every issued update so that stale
    detector state is identifiable. ``board`` takes any array-like of
    (center_x, center_y, size) rows and is stored as a read-only (n, 3) float
    array. Configs compare by identity: compare ``config_id`` instead.
    """

    config_id: int
    family: MarkerFamily
    marker_size: float
    board: np.ndarray
    screen_limit: float

    def __post_init__(self):
        if self.config_id < 0:
            raise ValueError(f"config_id must be >= 0, got {self.config_id}")
        if not (0.0 < self.marker_size <= self.screen_limit + 1e-12):
            raise ValueError(
                f"marker_size must lie in (0, {self.screen_limit}], got {self.marker_size}"
            )
        rows = "board must be an (n, 3) array of (center_x, center_y, size) rows"
        try:
            cells = np.array(self.board, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{rows}: {exc}") from exc
        if cells.size == 0:
            raise ValueError("board must contain at least one cell")
        if cells.ndim != 2 or cells.shape[1] != 3:
            raise ValueError(f"{rows}, got shape {cells.shape}")
        bad = ~(np.isfinite(cells).all(axis=1) & (cells[:, 2] > 0))
        if bad.any():
            i = int(bad.argmax())
            x, y, size = cells[i].tolist()
            raise ValueError(
                f"board cell {i} at ({x}, {y}) with size {size}: "
                "centers must be finite and sizes finite and positive"
            )
        pair = _first_overlap(cells)
        if pair is not None:
            (ax, ay, asize), (bx, by, bsize) = cells[list(pair)].tolist()
            raise ValueError(
                f"board cells overlap: ({ax}, {ay}) and ({bx}, {by}) with sizes {asize}, {bsize}"
            )
        cells.flags.writeable = False
        corners = board_corners(cells)
        corners.flags.writeable = False
        object.__setattr__(self, "board", cells)
        # Not a field, so repr shows only the board itself.
        object.__setattr__(self, "_corners", corners)

    @classmethod
    def single(
        cls, config_id: int, family: MarkerFamily, marker_size: float, screen_limit: float
    ) -> "MarkerConfig":
        return cls(
            config_id=config_id,
            family=family,
            marker_size=marker_size,
            board=((0.0, 0.0, marker_size),),
            screen_limit=screen_limit,
        )

    @property
    def n_cells(self) -> int:
        return len(self.board)


def optimal_marker_size(
    fov: float, distance: float, scale_fraction: float, variant: str = "consistent"
) -> float:
    """Marker edge length that occupies ``scale_fraction`` of the field of view.

    ``fov`` is the full camera vision angle. The default "consistent" rule,
    2*h*tan(s*fov/2), makes scale_fraction = 1 exactly fill the field of view
    (camera_freedom_angle == 0). The "verbatim" rule 2*h*tan(fov*s) is kept
    selectable; it grows past the FOV for s near 1 and hits a tangent pole at
    fov*s = pi/2.
    """
    if not (0.0 < scale_fraction <= 1.0):
        raise ValueError(f"scale_fraction must lie in (0, 1], got {scale_fraction}")
    if not (0.0 < fov < math.pi):
        raise ValueError(f"fov must lie in (0, pi), got {fov}")
    if distance < 0:
        raise ValueError(f"distance must be >= 0, got {distance}")
    if variant == "consistent":
        return 2.0 * distance * math.tan(scale_fraction * fov / 2.0)
    if variant == "verbatim":
        arg = fov * scale_fraction
        if arg >= math.pi / 2.0:
            raise ValueError(
                f"verbatim size rule hits the tangent pole: fov*scale_fraction = {arg:.4f} >= pi/2"
            )
        return 2.0 * distance * math.tan(arg)
    raise ValueError(f"unknown size rule variant '{variant}'")


def camera_freedom_angle(fov: float, marker_size: float, distance: float) -> float:
    """Angular margin left for camera motion once the marker is sized.

    fov/2 - atan(size / (2 h)); negative means the marker overflows the half
    field of view and callers must treat it as "no freedom".
    """
    if distance <= 0:
        raise ValueError(f"distance must be > 0, got {distance}")
    return fov / 2.0 - math.atan(marker_size / (2.0 * distance))


def clamp_to_screen(desired_size: float, screen: Screen, fill_factor: float = 1.0) -> float:
    """Cap a desired marker size at the largest square the display can show."""
    if desired_size < 0:
        raise ValueError(f"desired_size must be >= 0, got {desired_size}")
    if not (0.0 < fill_factor <= 1.0):
        raise ValueError(f"fill_factor must lie in (0, 1], got {fill_factor}")
    return min(desired_size, screen.min_dim * fill_factor)


# A large screen over a close camera would otherwise ask for billions of cells.
MAX_BOARD_CELLS = 10_000


def board_layout(screen: Screen, cell_size: float, gap_fraction: float = 0.1) -> np.ndarray:
    """Regular centered grid of cells filling the screen, as (n, 3) rows of
    (center_x, center_y, size), row by row (y outer, x inner).

    floor(dim / (cell_size * (1 + gap_fraction))) cells per axis, at least one
    and at most MAX_BOARD_CELLS in all (x first). All cells share the
    screen-centered coordinate frame.
    """
    if cell_size <= 0 or cell_size > screen.min_dim:
        raise ValueError(
            f"cell_size must lie in (0, {screen.min_dim}] for a {screen.width}x{screen.height} "
            f"screen, got {cell_size}"
        )
    if not (0.0 <= gap_fraction < 1.0):
        raise ValueError(f"gap_fraction must lie in [0, 1), got {gap_fraction}")
    pitch = cell_size * (1.0 + gap_fraction)
    # Epsilon guards the floor against float artifacts (0.15/0.05 < 3.0).
    nx = max(1, int(min(MAX_BOARD_CELLS, screen.width / pitch + 1e-9)))
    ny = max(1, int(min(MAX_BOARD_CELLS // nx, screen.height / pitch + 1e-9)))
    cells = np.empty((ny, nx, 3))
    cells[:, :, 0] = (np.arange(nx) - (nx - 1) / 2.0) * pitch
    cells[:, :, 1] = ((np.arange(ny) - (ny - 1) / 2.0) * pitch)[:, None]
    cells[:, :, 2] = cell_size
    return cells.reshape(-1, 3)
