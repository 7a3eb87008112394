"""Print one sha256 per group of scenario runs and kind of output.

The kinds are every output a run makes: ``trace`` and ``events`` (its
``trace.csv`` and ``events.csv``), ``summary`` (its ``summary.json``, as
``markersim run`` writes them) and ``stamps`` (its validity stamps). A change
that moves one kind of output shows which. The groups:

- ``criterion6-<scheme>``: the 50 randomized landing starts of acceptance
  criterion 6 (seed base 2026), under each timing scheme;
- ``jittered``: 10 of those starts with a jittered transport (video
  U(0, 30) ms, pose U(0, 20) ms), which fall back to the safe scheme;
- ``static-full-pose``: 10 starts (seed base 2026) 0.8 m over the marker
  with the full-pose family shown throughout and a 0.6 m goal, so yaw is
  servoed from the first frame;
- ``near-pi``: the nominal landing from headings within 1e-7 and 1e-3 of
  pi and at 3 rad, with no yaw noise, so the first full-pose estimates put
  the rotation error within 1e-6 of pi;
- ``static-long-range``: 10 starts with the long-range family throughout,
  whose estimates carry no yaw;
- ``landing-trigger``: 10 starts whose descent is started at 4 s by the
  landing trigger rather than by the error threshold;
- ``rising-clamped``: 10 starts within 0.1 m of the point 0.5 m over the
  marker, under a 1.0 m goal, so the detection distance rises; the goal
  heading is 2.5 rad and the limits are 0.2 m/s and 0.05 rad/s, so both
  speed clamps bind;
- ``<workload>``: inputs 0-4 of each benchmark workload at seed 1, built
  from the overrides in ``perfbench/workloads.py``.

The ``config`` group runs nothing: it digests the scenario loader. Its
``repr`` kind hashes the config loaded from ``scenarios/landing.json`` and,
for each leaf of the JSON schema, the config with only that leaf set to
another accepted value; its ``errors`` kind hashes each leaf's error text for
the value ``"x"``.

Two checkouts produce the same outputs of a kind when its digests match:

    python scripts/output_digest.py > new.txt
    python scripts/output_digest.py /path/to/other/checkout > old.txt
    diff old.txt new.txt

The optional argument is the checkout whose ``markersim`` and ``perfbench``
are imported (default: the one holding this script). Files are written only
under a temporary directory.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
import tempfile
from dataclasses import replace
from operator import attrgetter
from pathlib import Path

checkout = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
sys.path[:0] = [str(checkout / "src"), str(checkout)]

# imported after the path is set, from the checkout named above
from markersim.marker import MarkerFamily  # noqa: E402
from markersim.scenario import (  # noqa: E402
    _SCHEMA, SIZE_RULES, STRATEGIES, TIMING_SCHEMES, load_scenario, nominal_landing_scenario,
    randomized_initial_conditions, scenario_from_dict)
from markersim.simulation import (  # noqa: E402
    collect_metrics, events_to_csv, run_scenario, trace_to_csv)
from markersim.timing import DelaySpec  # noqa: E402
from perfbench import workloads  # noqa: E402


def groups():
    """(name, configs) of every input group."""
    nominal = nominal_landing_scenario()
    for scheme in ("optimized", "safe"):
        base = replace(nominal, timing_scheme=scheme)
        yield f"criterion6-{scheme}", [randomized_initial_conditions(base, 2026, i)
                                       for i in range(50)]
    delays = replace(nominal.delays, video=DelaySpec.uniform(0.0, 0.030),
                     pose=DelaySpec.uniform(0.0, 0.020))
    jittered = replace(nominal, delays=delays)
    yield "jittered", [randomized_initial_conditions(jittered, 2026, i) for i in range(10)]
    full_pose = replace(nominal, strategy="static-full-pose", initial_position=(0.0, 0.0, 0.8),
                        desired_height=0.6)
    yield "static-full-pose", [randomized_initial_conditions(full_pose, 2026, i)
                               for i in range(10)]
    exact_yaw = replace(nominal,
                        full_pose_family=MarkerFamily.full_pose_default(yaw_sigma_at_1m=0.0))
    yield "near-pi", [replace(exact_yaw, initial_yaw=yaw)
                      for yaw in (math.pi - 1e-7, -math.pi + 1e-7, math.pi - 1e-3, 3.0)]
    long_range = replace(nominal, strategy="static-long-range")
    yield "static-long-range", [randomized_initial_conditions(long_range, 2026, i)
                                for i in range(10)]
    trigger = replace(nominal, landing_trigger_time=4.0, landing_error_threshold=None)
    yield "landing-trigger", [randomized_initial_conditions(trigger, 2026, i) for i in range(10)]
    rising = replace(nominal, initial_position=(0.0, 0.0, 0.5), desired_height=1.0,
                     desired_yaw=2.5, max_linear_speed=0.2, max_angular_speed=0.05,
                     batch_offset_radius=0.1)
    yield "rising-clamped", [randomized_initial_conditions(rising, 2026, i) for i in range(10)]
    base = json.loads(workloads.LANDING.read_text(encoding="utf-8"))
    extra = {"board-heavy": workloads.BOARD_HEAVY, "trace-hover": workloads.TRACE_HOVER}
    for name in workloads.WORKLOADS:
        config = scenario_from_dict(workloads._merge(base, extra.get(name, {})))
        yield name, [randomized_initial_conditions(config, 1, i) for i in range(5)]


def other_value(value):
    """A different value of the same kind that the scenario still accepts."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return 0.9 * value if value else 0.5
    if isinstance(value, str):
        choices = next(c for c in (STRATEGIES, TIMING_SCHEMES, SIZE_RULES) if value in c)
        return next(c for c in choices if c != value)
    if isinstance(value, tuple):
        return [0.9 * v for v in value]
    if value is None:
        return 0.5
    return 0.9 * value.low  # a DelaySpec, as a constant delay


def loader_texts():
    """(kind, text) of each scenario loader outcome of the ``config`` group."""
    yield "repr", repr(load_scenario(checkout / "scenarios" / "landing.json"))
    for leaf, (_, target) in _SCHEMA.items():
        doc = {}
        if leaf.startswith("families.long_range.yaw_noise."):
            # long_range has no yaw noise to change until it yields yaw
            doc = {"families": {"long_range": {"yields_yaw": True}}}
        *parents, key = leaf.split(".")
        for kind, value in (("repr", other_value(attrgetter(target)(scenario_from_dict(doc)))),
                            ("errors", "x")):
            changed = copy.deepcopy(doc)
            section = changed
            for name in parents:
                section = section.setdefault(name, {})
            section[key] = value
            try:
                text = repr(scenario_from_dict(changed))
            except ValueError as exc:
                text = str(exc)
            yield kind, text


KINDS = ("trace", "events", "summary", "stamps")


def run_bytes(config, out: Path) -> tuple[bytes, ...]:
    """The bytes of each kind of output of one run, in the order of ``KINDS``."""
    trace = run_scenario(config)
    trace_to_csv(trace, out / "trace.csv")
    events_to_csv(trace, out / "events.csv")
    summary = json.dumps(collect_metrics(trace), indent=2, sort_keys=True) + "\n"
    return ((out / "trace.csv").read_bytes(), (out / "events.csv").read_bytes(),
            summary.encode(), repr(trace.stamps).encode())


def main():
    outcomes = list(loader_texts())
    for kind in ("repr", "errors"):
        texts = [text for k, text in outcomes if k == kind]
        digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
        print(f"{'config':20s} {len(texts):3d} texts {kind:8s} {digest}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, configs in groups():
            digests = [hashlib.sha256() for _ in KINDS]
            for config in configs:
                for digest, data in zip(digests, run_bytes(config, Path(tmp))):
                    digest.update(data)
            for kind, digest in zip(KINDS, digests):
                print(f"{name:20s} {len(configs):3d} runs  {kind:8s} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
