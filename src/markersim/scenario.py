"""Scenario configuration: everything a simulation run needs, with a strict
JSON loader (unknown keys are rejected so typos fail fast, all quantities SI,
angles in radians). Each field declares its domain once, in its annotation,
and every config checks its fields against those declarations when built.
The JSON walker parses each leaf's type from the one table ``_SCHEMA`` and
checks the value against the declaration of the attribute it sets, so a
malformed or out-of-range value is a ValueError naming its JSON path. A
``null`` family or noise profile means its defaults.

An empty JSON document gives the bundled landing scenario: a 30 Hz VGA camera
over a 15 cm display, long-range marker bootstrap, family switch at 1.2 m
with hysteresis, tracking height 2.5 m, constant-rate descent.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Annotated

import numpy as np

from .domain import (Domain, Finite, Fraction, NonNegative, OptionalNonNegative, Positive,
                     check_fields, declared)
from .geometry import CameraIntrinsics, fov_half_angle
from .marker import MarkerFamily, NoiseProfile, Screen
from .marker_control import SwitchPolicy
from .timing import DelayModel, DelaySpec

STRATEGIES = ("dynamic", "static-full-pose", "static-long-range")
TIMING_SCHEMES = ("safe", "optimized")
SIZE_RULES = ("consistent", "verbatim")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete parameter set for one run; defaults are the bundled landing
    scenario."""

    intrinsics: CameraIntrinsics = CameraIntrinsics(
        fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480, frame_period=1.0 / 30.0
    )
    screen: Screen = Screen(width=0.15, height=0.15, refresh_delay=0.0)
    long_range_family: MarkerFamily = MarkerFamily.long_range_default()
    full_pose_family: MarkerFamily = field(
        default_factory=lambda: replace(MarkerFamily.full_pose_default(), max_detection_range=1.5)
    )
    policy: SwitchPolicy = SwitchPolicy()
    delays: DelayModel = DelayModel(
        detector_update=DelaySpec.constant(0.005),
        display=DelaySpec.constant(0.030),
        display_confirm=DelaySpec.uniform(0.035, 0.060),
        video=DelaySpec.constant(0.005),
        pose=DelaySpec.constant(0.002),
        frame_period=1.0 / 30.0,
        safety_margin=None,
    )
    gain: Annotated[float, Domain("(0, 1e6]")] = 0.8
    max_linear_speed: Positive = 1.0
    max_angular_speed: Positive = 1.0
    descent_rate: Annotated[float, Domain("(0, 1e6]")] = 0.3
    initial_position: Annotated[tuple[float, float, float], Domain("[-1e6, 1e6]")] = (0.4, -0.3, 2.5)
    initial_yaw: Finite = math.radians(30.0)
    desired_height: Annotated[float, Domain("(0, 1e6]")] = 2.5
    desired_yaw: Finite = 0.0
    landing_trigger_time: OptionalNonNegative = None
    landing_error_threshold: Annotated[float | None, Domain("(0, inf)", optional=True)] = 0.10
    duration: Positive = 60.0
    tick_step: Positive = 0.01
    timing_scheme: Annotated[str, Domain(choices=TIMING_SCHEMES)] = "optimized"
    size_rule: Annotated[str, Domain(choices=SIZE_RULES)] = "consistent"
    strategy: Annotated[str, Domain(choices=STRATEGIES)] = "dynamic"
    touchdown_height: Positive = 0.02
    bounds_radius: Positive = 10.0
    bounds_height: Positive = 30.0
    batch_offset_radius: NonNegative = 0.5
    batch_yaw_half_range: Annotated[float, Domain(f"[0, {math.pi}]")] = math.radians(45.0)
    gap_fraction: Annotated[float, Domain("[0, 1)")] = 0.1
    fill_factor: Fraction = 1.0
    seed: Annotated[int, Domain("[0, inf)", integer=True)] = 0

    def __post_init__(self):
        check_fields(self)
        if self.size_rule == "verbatim" and not (
            2.0 * fov_half_angle(self.intrinsics) * self.policy.scale_fraction < math.pi / 2.0
        ):
            raise ValueError("the verbatim size rule needs fov * scale_fraction < pi/2")
        if not self.screen.min_dim * self.fill_factor > 0:
            raise ValueError(
                f"the largest marker, screen.min_dim * fill_factor, must be > 0, got "
                f"{self.screen.min_dim} * {self.fill_factor}"
            )
        if self.delays.frame_period != self.intrinsics.frame_period:
            raise ValueError(
                "delay model frame_period must equal the camera frame_period "
                f"({self.delays.frame_period} != {self.intrinsics.frame_period})"
            )


def nominal_landing_scenario(**overrides) -> ScenarioConfig:
    """The bundled landing scenario, optionally with field overrides."""
    return replace(ScenarioConfig(), **overrides) if overrides else ScenarioConfig()


# --- strict JSON parsing ----------------------------------------------------
# A leaf parser checks the JSON type and returns the value to store, or raises
# a ValueError naming the path; _walk then checks it against the declaration
# of the attribute it sets.


def _number(value, path: str, kind: str = "a number") -> float:
    if not (isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)):
        raise ValueError(f"'{path}' must be {kind}, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if type(value) is int:
        return value
    if not _number(value, path).is_integer():
        raise ValueError(f"'{path}' must be an integer, got {value!r}")
    return int(value)


def _boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"'{path}' must be a boolean, got {value!r}")
    return value


def _as_is(value, path: str):
    return value  # the field's declared choices are its only type


def _vector(value, path: str, count: int = 3, shape: str = "a 3-element list") -> tuple[float, ...]:
    if not (isinstance(value, (list, tuple)) and len(value) == count):
        raise ValueError(f"'{path}' must be {shape}, got {value!r}")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _delay_spec(value, path: str) -> DelaySpec:
    high = None
    if isinstance(value, dict) and value:
        _check_object(value, ("constant", "uniform"), path)
        if len(value) > 1:
            raise ValueError(f"'{path}' must give either 'constant' or 'uniform', not both")
        if "uniform" in value:
            path = f"{path}.uniform"
            low, high = _vector(value["uniform"], path, 2, "a [lo, hi] list")
        else:
            path = f"{path}.constant"
            low = _number(value["constant"], path)
    else:
        low = _number(value, path, "a number, {'constant': x} or {'uniform': [lo, hi]}")
    bounds = declared(DelaySpec)
    bounds["low"].check(low, path)
    bounds["high"].check(high, path)
    return DelaySpec(low, high)


# Marker families: JSON name -> ScenarioConfig attribute, and their leaves.
_FAMILIES = {"long_range": "long_range_family", "full_pose": "full_pose_family"}
_FAMILY = {
    "max_detection_range": _number,
    "min_pixel_footprint": _number,
    "yields_yaw": _boolean,
    **{f"{profile}.{leaf}": _number for profile in ("position_noise", "yaw_noise")
       for leaf in ("sigma_at_1m", "range_exponent")},
}

# The scenario schema: JSON leaf path -> (parser, ScenarioConfig attribute
# path(s) that the parsed value sets). Every other path is a JSON object.
_SCHEMA = {
    "camera.fx": (_number, "intrinsics.fx"),
    "camera.fy": (_number, "intrinsics.fy"),
    "camera.cx": (_number, "intrinsics.cx"),
    "camera.cy": (_number, "intrinsics.cy"),
    "camera.width": (_integer, "intrinsics.width"),
    "camera.height": (_integer, "intrinsics.height"),
    "camera.frame_period": (_number, "intrinsics.frame_period", "delays.frame_period"),
    "screen.width": (_number, "screen.width"),
    "screen.height": (_number, "screen.height"),
    "screen.refresh_delay": (_number, "screen.refresh_delay"),
    **{f"families.{name}.{leaf}": (parse, f"{attr}.{leaf}")
       for name, attr in _FAMILIES.items() for leaf, parse in _FAMILY.items()},
    "policy.switch_to_full_pose_below": (_number, "policy.switch_to_full_pose_below"),
    "policy.switch_to_long_range_above": (_number, "policy.switch_to_long_range_above"),
    "policy.scale_fraction": (_number, "policy.scale_fraction"),
    "policy.rescale_deadband": (_number, "policy.rescale_deadband"),
    "delays.detector_update": (_delay_spec, "delays.detector_update"),
    "delays.display": (_delay_spec, "delays.display"),
    "delays.display_confirm": (_delay_spec, "delays.display_confirm"),
    "delays.video": (_delay_spec, "delays.video"),
    "delays.pose": (_delay_spec, "delays.pose"),
    "delays.safety_margin": (_number, "delays.safety_margin"),
    "controller.gain": (_number, "gain"),
    "controller.max_linear_speed": (_number, "max_linear_speed"),
    "controller.max_angular_speed": (_number, "max_angular_speed"),
    "controller.descent_rate": (_number, "descent_rate"),
    "landing.trigger_time": (_number, "landing_trigger_time"),
    "landing.error_threshold": (_number, "landing_error_threshold"),
    "initial.position": (_vector, "initial_position"),
    "initial.yaw": (_number, "initial_yaw"),
    "desired.height": (_number, "desired_height"),
    "desired.yaw": (_number, "desired_yaw"),
    "run.duration": (_number, "duration"),
    "run.tick_step": (_number, "tick_step"),
    "run.timing_scheme": (_as_is, "timing_scheme"),
    "run.size_rule": (_as_is, "size_rule"),
    "run.strategy": (_as_is, "strategy"),
    "run.touchdown_height": (_number, "touchdown_height"),
    "run.bounds_radius": (_number, "bounds_radius"),
    "run.bounds_height": (_number, "bounds_height"),
    "run.seed": (_integer, "seed"),
    "batch.offset_radius": (_number, "batch_offset_radius"),
    "batch.yaw_half_range": (_number, "batch_yaw_half_range"),
    "marker.gap_fraction": (_number, "gap_fraction"),
    "marker.fill_factor": (_number, "fill_factor"),
}


def _check_object(section, allowed, path: str):
    if not isinstance(section, dict):
        raise ValueError(f"'{path}' must be a JSON object, got {type(section).__name__}")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ValueError(f"unknown config key(s) {unknown} in '{path}' (allowed: {sorted(allowed)})")


def _declaration(attribute: str):
    """The Domain declared for a dotted ScenarioConfig attribute path, if any."""
    rule = ScenarioConfig
    for name in attribute.split("."):
        rule = declared(rule).get(name)
    return rule if isinstance(rule, Domain) else None


def _walk(section, path: str, updates: dict, present: set):
    """Check the JSON object at ``path`` ("" for the document) against _SCHEMA:
    each leaf's value goes to ``updates`` and each object's path to ``present``."""
    prefix = f"{path}." if path else ""
    allowed = {leaf[len(prefix):].partition(".")[0] for leaf in _SCHEMA if leaf.startswith(prefix)}
    _check_object(section, allowed, path or "config")
    present.add(path)
    for key, value in section.items():
        child = prefix + key
        if child in _SCHEMA:
            parse, *targets = _SCHEMA[child]
            domain = _declaration(targets[0])  # a leaf's targets share one declaration
            if not (value is None and domain and domain.optional):
                value = parse(value, child)
                if domain:
                    domain.check(value, child)
            updates.update(dict.fromkeys(targets, value))
        elif value is not None or not path:
            # a null family or noise profile means its defaults
            _walk(value, child, updates, present)


def _build(obj, updates: dict):
    """``obj`` with dotted attribute paths set, each nested dataclass replaced
    once, in field order, from the path's own update if it has one."""
    changes, nested = {}, {}
    for path, value in updates.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            changes[head] = value
    for f in fields(obj):
        if f.name in nested:
            changes[f.name] = _build(changes.get(f.name, getattr(obj, f.name)), nested[f.name])
    return replace(obj, **changes)


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON document.

    Every section and key is optional (defaults are the bundled scenario),
    but unknown keys and malformed values anywhere raise a ValueError naming
    the offending field.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"config document must be a JSON object, got {type(doc).__name__}")
    updates, present = {}, set()
    _walk(doc, "", updates, present)
    base = ScenarioConfig()
    for name, attr in _FAMILIES.items():
        # No yaw, no yaw noise; a family gaining yaw with no default starts at zero.
        default = getattr(base, attr)
        yields_yaw = updates.get(f"{attr}.yields_yaw", default.yields_yaw)
        if not yields_yaw and f"families.{name}.yaw_noise" in present:
            raise ValueError(f"'families.{name}.yaw_noise' must be null when yields_yaw is false")
        if yields_yaw != (default.yaw_noise is not None):
            updates[f"{attr}.yaw_noise"] = NoiseProfile(0.0, 0.0) if yields_yaw else None
    refresh = updates.get("screen.refresh_delay", base.screen.refresh_delay)
    if refresh > 0:
        # The display path includes the physical refresh of the screen.
        display = updates.get("delays.display", base.delays.display)
        high = None if display.high is None else display.high + refresh
        updates["delays.display"] = DelaySpec(display.low + refresh, high)
    return _build(base, updates)


def load_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def randomized_initial_conditions(
    config: ScenarioConfig, seed_base: int, index: int
) -> ScenarioConfig:
    """Per-run initial conditions for batch experiments.

    Lateral offset uniform over a disc of ``batch_offset_radius`` and yaw
    uniform in +-``batch_yaw_half_range``; the run seed becomes
    ``seed_base + index``.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed_base, index)))
    radius = config.batch_offset_radius * math.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    yaw = rng.uniform(-config.batch_yaw_half_range, config.batch_yaw_half_range)
    return replace(
        config,
        initial_position=(
            radius * math.cos(angle),
            radius * math.sin(angle),
            config.initial_position[2],
        ),
        initial_yaw=yaw,
        seed=seed_base + index,
    )
