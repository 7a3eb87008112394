"""Span tracing of markersim's public layer functions, from outside the
program.

``Tracer.install`` rebinds each traced function in every markersim module
namespace that refers to it (and ``MarkerConfig.__post_init__`` on its
class), so callers that look the name up at call time go through a wrapper
that records a span: name, start, end, parent span and run id. Spans stay in
memory in flat arrays; ``uninstall`` restores the originals. Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import os
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

from markersim.perception import NoDetection


def _cells(true_pose, displayed, *args, **kwargs):
    return displayed.n_cells


def _after_detection(counters, result, true_pose, displayed, *args, **kwargs):
    if isinstance(result, NoDetection):
        counters["no_detection." + result.reason] += 1
        if result.reason == "out-of-range":
            return
    else:
        counters["estimates"] += 1
    counters["cells_projected"] += displayed.n_cells


def _after_config(counters, result, config):
    counters["cells_built"] += len(config.board)


def _after_select(counters, result, *args, **kwargs):
    counters["proposals"] += result is not None


def _after_stamp(counters, result, *args, **kwargs):
    counters["invalid_stamps"] += not result.valid


def _after_run(counters, result, *args, **kwargs):
    counters["records"] += len(result.records)


def _after_trace_csv(counters, result, trace, path):
    counters["trace_bytes"] += os.path.getsize(path)


# (span name, module, attribute path, tag of the call, hook on the result).
# A span's layer is the first component of its name.
SPANS = (
    ("geometry.check_rotation", "markersim.geometry", "check_rotation", None, None),
    ("geometry.project_point", "markersim.geometry", "project_point", None, None),
    ("marker.MarkerConfig", "markersim.marker", "MarkerConfig.__post_init__", None, _after_config),
    ("marker.board_layout", "markersim.marker", "board_layout", None, None),
    ("perception.simulate_detection", "markersim.perception", "simulate_detection", _cells,
     _after_detection),
    ("marker_control.select_marker", "markersim.marker_control", "select_marker", None,
     _after_select),
    ("marker_control.apply_update", "markersim.marker_control", "apply_update", None, None),
    ("pbvs.error_and_rotation", "markersim.pbvs", "error_and_rotation", None, None),
    ("pbvs.control_law", "markersim.pbvs", "control_law", None, None),
    ("pbvs.clamp_command", "markersim.pbvs", "clamp_command", None, None),
    ("pbvs.with_descent", "markersim.pbvs", "with_descent", None, None),
    ("timing.schedule_update", "markersim.timing", "schedule_update", None, None),
    ("timing.stamp_validity", "markersim.timing", "stamp_validity", None, _after_stamp),
    ("timing.wait_window", "markersim.timing", "wait_window", None, None),
    ("timing.detector_switch_time", "markersim.timing", "detector_switch_time", None, None),
    ("timing.update_complete_time", "markersim.timing", "update_complete_time", None, None),
    ("timing.evaluate_optimized_conditions", "markersim.timing", "evaluate_optimized_conditions",
     None, None),
    ("simulation.vehicle_step", "markersim.simulation", "vehicle_step", None, None),
    ("simulation.run_scenario", "markersim.simulation", "run_scenario", None, _after_run),
    ("simulation.collect_metrics", "markersim.simulation", "collect_metrics", None, None),
    ("simulation.trace_to_csv", "markersim.simulation", "trace_to_csv", None, _after_trace_csv),
    ("simulation.events_to_csv", "markersim.simulation", "events_to_csv", None, None),
    ("scenario.load_scenario", "markersim.scenario", "load_scenario", None, None),
    ("scenario.randomized_initial_conditions", "markersim.scenario",
     "randomized_initial_conditions", None, None),
    ("cli.main", "markersim.cli", "main", None, None),
    ("cli.run_batch", "markersim.cli", "run_batch", None, None),
)

# Each call of this span starts a new scenario run (a new run id).
RUN_ROOT = "scenario.randomized_initial_conditions"

LAYERS = tuple(dict.fromkeys(s[0].split(".", 1)[0] for s in SPANS))


class Tracer:
    def __init__(self):
        self.names = [s[0] for s in SPANS]
        self.name = array("i")
        self.tag = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self._stack = []
        self._run_id = -1
        self._restore = []

    def _wrap(self, index, fn, tag, after):
        name, tags, parent, run = self.name, self.tag, self.parent, self.run
        start, end, stack, counters = self.start, self.end, self._stack, self.counters
        new_run = self.names[index] == RUN_ROOT

        def traced(*args, **kwargs):
            if new_run:
                self._run_id += 1
            i = len(name)
            name.append(index)
            tags.append(tag(*args, **kwargs) if tag else 0)
            parent.append(stack[-1] if stack else -1)
            run.append(self._run_id)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if after:
                after(counters, result, *args, **kwargs)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "markersim" or n.startswith("markersim.")]
        for index, (_, module_name, attr, tag, after) in enumerate(SPANS):
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(index, original, tag, after)
            targets = [owner] if path else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._restore.append((target, key, original))
                        setattr(target, key, wrapper)

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore.clear()

    def save(self, path):
        """Write the spans, as recorded, to a NumPy ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            tag=np.frombuffer(self.tag, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )

    def times(self):
        """Per-span arrays: name index, tag, inclusive and self seconds, and
        whether the span is a root (has no parent)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        children = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(children, parent[nested], dur[nested])
        return name, np.frombuffer(self.tag, dtype=np.int32), dur, dur - children, ~nested

    def layer_metrics(self) -> dict:
        """Per-layer metrics (name -> (value, unit)) of everything traced."""
        name, tag, dur, self_s, root = self.times()
        ix = {n: i for i, n in enumerate(self.names)}
        host = float(dur[root].sum())
        c = self.counters

        def sel(*spans):
            return np.isin(name, [ix[s] for s in spans])

        def calls(*spans):
            return int(sel(*spans).sum())

        def own(*spans):
            return float(self_s[sel(*spans)].sum())

        def per_call_us(mask):
            n = int(mask.sum())
            return float(dur[mask].sum()) / n * 1e6 if n else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        det = name == ix["perception.simulate_detection"]
        servo = ("pbvs.error_and_rotation", "pbvs.control_law", "pbvs.clamp_command",
                 "pbvs.with_descent")
        protocol = [s for s in self.names if s.startswith("timing.")]
        stamps = calls("timing.stamp_validity")
        selects = calls("marker_control.select_marker")
        detections = calls("perception.simulate_detection")
        layer = np.array([n.split(".", 1)[0] for n in self.names])
        m = {
            "geometry.check_rotation.calls": (calls("geometry.check_rotation"), "count"),
            "geometry.check_rotation.self_s": (own("geometry.check_rotation"), "s"),
            "geometry.project_point.calls": (calls("geometry.project_point"), "count"),
            "geometry.project_point.self_s": (own("geometry.project_point"), "s"),
            "simulation.vehicle_step.calls": (calls("simulation.vehicle_step"), "count"),
            "simulation.vehicle_step.self_s": (own("simulation.vehicle_step"), "s"),
            "simulation.vehicle_step.us_per_call":
                (per_call_us(name == ix["simulation.vehicle_step"]), "us"),
            "simulation.run_scenario.self_s": (own("simulation.run_scenario"), "s"),
            "simulation.records": (c["records"], "count"),
            "simulation.trace_bytes": (c["trace_bytes"], "bytes"),
            "simulation.csv_share":
                (ratio(own("simulation.trace_to_csv", "simulation.events_to_csv"), host), "ratio"),
            "perception.simulate_detection.calls": (detections, "count"),
            "perception.simulate_detection.self_s": (own("perception.simulate_detection"), "s"),
            "perception.cells_projected": (c["cells_projected"], "count"),
            "perception.us_per_cell":
                (ratio(float(dur[det].sum()) * 1e6, c["cells_projected"]), "us"),
            "perception.us_per_call.cells_1": (per_call_us(det & (tag == 1)), "us"),
            "perception.calls.cells_1": (int((det & (tag == 1)).sum()), "count"),
            "perception.calls.cells_2-100": (int((det & (tag > 1) & (tag <= 100)).sum()), "count"),
            "perception.calls.cells_101-1000":
                (int((det & (tag > 100) & (tag <= 1000)).sum()), "count"),
            "perception.calls.cells_gt1000": (int((det & (tag > 1000)).sum()), "count"),
            "perception.detect_yield": (ratio(c["estimates"], detections), "ratio"),
        }
        for reason in ("out-of-range", "too-small", "out-of-view", "family-mismatch"):
            m["perception.no_detection." + reason] = (c["no_detection." + reason], "count")
        m.update({
            "marker.MarkerConfig.builds": (calls("marker.MarkerConfig"), "count"),
            "marker.MarkerConfig.validate_s": (own("marker.MarkerConfig"), "s"),
            "marker.cells_built": (c["cells_built"], "count"),
            "marker.board_layout.calls": (calls("marker.board_layout"), "count"),
            "marker_control.select_marker.calls": (selects, "count"),
            "marker_control.select_marker.self_s": (own("marker_control.select_marker"), "s"),
            "marker_control.proposal_yield": (ratio(c["proposals"], selects), "ratio"),
            "marker_control.apply_update.calls": (calls("marker_control.apply_update"), "count"),
            "pbvs.servo.calls": (calls("pbvs.error_and_rotation"), "count"),
            "pbvs.servo.self_s": (own(*servo), "s"),
            "timing.schedule_update.calls": (calls("timing.schedule_update"), "count"),
            "timing.stamp_validity.calls": (stamps, "count"),
            "timing.protocol.self_s": (own(*protocol), "s"),
            "timing.invalid_frac": (ratio(c["invalid_stamps"], stamps), "ratio"),
            "scenario.load_scenario.s":
                (per_call_us(name == ix["scenario.load_scenario"]) / 1e6, "s"),
            "scenario.randomized_initial_conditions.self_s":
                (own("scenario.randomized_initial_conditions"), "s"),
            "cli.self_s": (own("cli.main", "cli.run_batch"), "s"),
            "share.marker_validate_plus_detection":
                (ratio(own("marker.MarkerConfig", "perception.simulate_detection"), host), "ratio"),
            "share.vehicle_step_plus_csv":
                (ratio(own("simulation.vehicle_step", "simulation.trace_to_csv"), host), "ratio"),
        })
        for lay in LAYERS:
            share = float(self_s[layer[name] == lay].sum()) / host if host else 0.0
            m["share." + lay] = (share, "ratio")
        return m

    def span_table(self):
        """(span name, calls, self seconds, share of traced host time), by
        falling self time."""
        name, _, dur, self_s, root = self.times()
        host = float(dur[root].sum()) or 1.0
        rows = [(n, int((name == i).sum()), float(self_s[name == i].sum()))
                for i, n in enumerate(self.names)]
        rows = [(n, k, s, s / host) for n, k, s in rows if k]
        return sorted(rows, key=lambda r: -r[2])
