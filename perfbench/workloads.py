"""The benchmark's three closed-loop workloads.

Each workload builds its scenario from the bundled ``scenarios/landing.json``
plus fixed overrides, derives every run's inputs from the benchmark seed, and
runs one scenario run at a time: the next run starts when the previous one
ends. A run returns its ``collect_metrics`` summary, the simulated seconds it
covered, the host seconds the program spent on it, and the reason its output
check failed (None when it passed).

Callers look markersim functions up as module attributes at call time
(``simulation.run_scenario``, ``cli.main``, ...), so the traced run can
rebind them.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import markersim.cli as cli
import markersim.scenario as scenario
import markersim.simulation as simulation

ROOT = Path(__file__).resolve().parent.parent
LANDING = ROOT / "scenarios" / "landing.json"
OUT = ROOT / ".perfbench_out"

# Acceptance criterion 6: a landed run ends within this lateral distance.
LATERAL_BOUND_M = 0.10

# Near touchdown the full-pose board grows to about a thousand cells, so the
# O(n^2) board validation in MarkerConfig and per-cell projection in
# simulate_detection take most of the host time. descent_rate 0.1 and
# touchdown_height 0.03 keep one run under a second, so a 30 s window holds
# enough runs for a tail percentile.
BOARD_HEAVY = {
    "screen": {"width": 0.3, "height": 0.3},
    "desired": {"height": 0.2},
    "policy": {"scale_fraction": 0.25},
    "controller": {"descent_rate": 0.1},
    "run": {"touchdown_height": 0.03},
}

# Hover without landing at a 1 ms record tick: the trace write path. A 4 s
# run gives 4001 rows per trace.csv and about 0.6 s of host time.
TRACE_HOVER = {
    "landing": {"error_threshold": None},
    "run": {"tick_step": 0.001, "duration": 4.0},
}

WORKLOADS = ("landing-batch", "board-heavy", "trace-hover")


@dataclass
class Run:
    summary: dict
    sim_s: float
    host_s: float
    error: str | None


def _merge(doc: dict, overrides: dict) -> dict:
    out = copy.deepcopy(doc)
    for key, value in overrides.items():
        if isinstance(value, dict):
            out[key] = _merge(out.get(key, {}), value)
        else:
            out[key] = value
    return out


class Workload:
    """Scenario inputs for one workload and seed, plus a scratch directory
    inside the checkout that ``close`` removes."""

    def __init__(self, name: str, seed: int, overrides: dict | None = None):
        self.name = name
        self.seed = seed
        self.dir = OUT / f"{name}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        base = json.loads(LANDING.read_text(encoding="utf-8"))
        extra = {"board-heavy": BOARD_HEAVY, "trace-hover": TRACE_HOVER}.get(name, {})
        self.doc = _merge(_merge(base, extra), overrides or {})
        self.path = self.dir / "scenario.json"
        self.path.write_text(json.dumps(self.doc), encoding="utf-8")
        self.config = scenario.load_scenario(self.path)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def run(self, index: int) -> Run:
        if self.name == "trace-hover":
            return self._run_cli(index)
        t0 = perf_counter()
        config = scenario.randomized_initial_conditions(self.config, self.seed, index)
        trace = simulation.run_scenario(config)
        summary = simulation.collect_metrics(trace)
        host = perf_counter() - t0
        return Run(summary, trace.records[-1].time, host, _check_landed(summary))

    def run_first(self, n: int) -> list[Run]:
        """Inputs 0 to n-1 in one pass: one ``cli.run_batch`` call for the
        batch workloads (host time split evenly), ``run`` for the hover."""
        if self.name == "trace-hover":
            return [self._run_cli(i) for i in range(n)]
        t0 = perf_counter()
        config = scenario.load_scenario(self.path)  # load inside the (traced) pass
        summaries = cli.run_batch(config, n, self.seed, jobs=1)
        host = (perf_counter() - t0) / n
        return [Run(s, float("nan"), host, _check_landed(s)) for s in summaries]

    def _run_cli(self, index: int) -> Run:
        config = scenario.randomized_initial_conditions(self.config, self.seed, index)
        doc = copy.deepcopy(self.doc)
        doc["initial"] = {"position": list(config.initial_position), "yaw": config.initial_yaw}
        doc["run"]["seed"] = config.seed
        path = self.dir / "run.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = self.dir / "run"
        argv = ["run", "--config", str(path), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(argv)
            host = perf_counter() - t0
        if code != 0:
            return Run({}, 0.0, host, f"markersim run exited {code}")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        with open(out / "trace.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        events = (out / "events.csv").read_text(encoding="utf-8").splitlines()
        rows = len(lines) - 1
        expected = round(self.config.duration / self.config.tick_step) + 1
        error = None
        if summary["status"] != "timeout":
            error = f"status {summary['status']}, expected timeout"
        elif rows != expected:
            error = f"trace.csv has {rows} rows, expected {expected}"
        elif events != ["time,event,config_id"]:
            error = f"events.csv has {len(events) - 1} events, expected none"
        return Run(summary, float(lines[-1].split(",", 1)[0]), host, error)


def _check_landed(summary: dict) -> str | None:
    if not summary["landed"]:
        return f"status {summary['status']}, expected landed"
    if not summary["final_lateral_error"] <= LATERAL_BOUND_M:
        return f"lateral error {summary['final_lateral_error']:.4f} m > {LATERAL_BOUND_M} m"
    return None


def frames_lost_per_update(summaries: list[dict]) -> float:
    """Sum of invalid frames over the sum of marker updates (0 without updates)."""
    updates = sum(s.get("marker_update_count", 0) for s in summaries)
    return sum(s.get("invalid_count", 0) for s in summaries) / updates if updates else 0.0


def mean_lateral_error(summaries: list[dict]) -> float:
    """Mean final lateral error of the landed runs, or of all runs when none
    landed (the hover workload never lands)."""
    landed = [s for s in summaries if s.get("landed")] or [s for s in summaries if s]
    return math.fsum(s["final_lateral_error"] for s in landed) / len(landed) if landed else 0.0
