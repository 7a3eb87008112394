"""markersim benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload landing-batch --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times scenario runs back to back for ``--seconds``
(untraced) and prints the end-to-end metrics. With ``--trace 1`` it runs a
fixed number of inputs, untraced and traced in turn, and prints the per-layer
metrics; a fixed input set makes the traced counts repeat exactly for a seed.
Both modes check every run's output and print, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "markersim").is_dir():
    sys.exit(f"error: no markersim sources under {ROOT}")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import markersim.cli as cli  # noqa: E402
import markersim.scenario as scenario  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    LANDING, OUT, WORKLOADS, Run, Workload, frames_lost_per_update, mean_lateral_error,
)

SETUP_REPEATS = 7
# On a shared machine the speed of identical work swings by 2x from one run
# to the next and drifts by 15% over minutes. A fixed pure-Python loop, timed
# just before and just after each run, tracks that speed, so every host time
# is rescaled to the speed at which the loop takes REFERENCE_S.
REFERENCE_S = 0.008
# Inputs of the traced run, per workload: a few seconds of untraced host time.
# The spans and counts come from the first traced pass; the tracing overhead
# is the median over alternating untraced and traced passes.
TRACED_RUNS = {"landing-batch": 12, "board-heavy": 4, "trace-hover": 6}
OVERHEAD_PAIRS = 3
JOBS_PROBE_RUNS = 10
JOBS_PROBE_PASSES = 3


def reference_s() -> float:
    """Host seconds of the fixed reference loop, run now."""
    t0 = perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return perf_counter() - t0


def _setup_s(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time, raw and rescaled, of a fresh interpreter that
    imports markersim and loads the workload's scenario."""
    raw, refs = [], [reference_s()]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                       check=True, cwd=ROOT)
        raw.append(perf_counter() - t0)
        refs.append(reference_s())
    return statistics.median(raw), statistics.median(_rescale(raw, refs))


def _rescale(raw: list[float], refs: list[float]) -> list[float]:
    """Scale ``raw[i]`` by the reference loop timed just before
    (``refs[i]``) and just after (``refs[i + 1]``) it."""
    return [t * 2 * REFERENCE_S / (refs[i] + refs[i + 1]) for i, t in enumerate(raw)]


def _attempt(wl, index: int):
    try:
        return wl.run(index)
    except Exception as exc:  # a raising run is a failed run, not a crash
        return Run({}, 0.0, 0.0, f"{type(exc).__name__}: {exc}")


def measure(wl, seconds: float) -> dict:
    """Closed loop: inputs 0, 1, 2, ... back to back for ``seconds``.

    Input 0 runs once more before the window as a warm-up; its summary must
    equal the timed one (same seed, same process). The reference loop runs
    between runs.
    """
    warm = _attempt(wl, 0)
    runs, refs = [], [reference_s()]
    start = perf_counter()
    while perf_counter() - start < seconds:
        runs.append(_attempt(wl, len(runs)))
        refs.append(reference_s())
    errors = [r.error for r in [warm] + runs if r.error]
    if not (warm.error or runs[0].error) and warm.summary != runs[0].summary:
        errors.append("input 0 gave different summaries on repeat")
    raw = [r.host_s for r in runs]
    host = sorted(_rescale(raw, refs))
    n = len(host)
    beyond = min(10, n - 1)
    summaries = [r.summary for r in runs]
    return {
        "attempted": n + 1,
        "failed": len(errors),
        "errors": errors,
        "samples": n,
        "tail_pct": math.floor(100 * (n - beyond) / n),
        "metrics": {
            "runs_per_s": (n / math.fsum(host), "runs/s"),
            "sim_s_per_host_s": (math.fsum(r.sim_s for r in runs) / math.fsum(host), "s/s"),
            "run_s_p50": (statistics.median(host), "s"),
            "run_s_tail": (host[n - 1 - beyond], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "report": {
            "failed_frac": (len(errors) / (n + 1), "ratio"),
            "frames_lost_per_update": (frames_lost_per_update(summaries), "frames/update"),
            "lateral_error_m_mean": (mean_lateral_error(summaries), "m"),
            "raw_runs_per_s": (n / math.fsum(raw), "runs/s"),
            "raw_run_s_p50": (statistics.median(raw), "s"),
        },
    }


def _jobs_probe(seed: int):
    """``cli.run_batch`` on the landing scenario at --jobs 1 and --jobs 2:
    speedups of each pass, and whether the aggregates ever differed."""
    config = scenario.load_scenario(LANDING)
    speedups, mismatch = [], False
    for p in range(JOBS_PROBE_PASSES):
        elapsed, aggregates = {}, {}
        for jobs in ((1, 2) if p % 2 == 0 else (2, 1)):
            t0 = perf_counter()
            summaries = cli.run_batch(config, JOBS_PROBE_RUNS, seed, jobs=jobs)
            elapsed[jobs] = perf_counter() - t0
            aggregates[jobs] = cli.aggregate_summaries(summaries)
        speedups.append(elapsed[1] / elapsed[2])
        mismatch |= aggregates[1] != aggregates[2]
    return speedups, mismatch


def traced(wl, runs: int, spans_path: Path | None = None) -> dict:
    """The first ``runs`` inputs, untraced and traced in turn; per-layer
    metrics from the first traced pass, and the ``--jobs`` probe."""
    warm = _attempt(wl, 0)
    errors = [warm.error] if warm.error else []
    tracer, passes, refs = None, [], [reference_s()]
    for _ in range(OVERHEAD_PAIRS):
        t0 = perf_counter()
        reference = wl.run_first(runs)
        passes.append(perf_counter() - t0)
        refs.append(reference_s())
        pass_tracer = Tracer()
        pass_tracer.install()
        try:
            t0 = perf_counter()
            result = wl.run_first(runs)
            passes.append(perf_counter() - t0)
        finally:
            pass_tracer.uninstall()
        refs.append(reference_s())
        if tracer is None:
            tracer = pass_tracer
        errors += [r.error for r in reference + result if r.error]
        if [r.summary for r in reference] != [r.summary for r in result]:
            errors.append("traced and untraced passes gave different summaries")
    scaled = _rescale(passes, refs)
    overhead = statistics.median(t / u - 1.0 for u, t in zip(scaled[::2], scaled[1::2]))
    speedups, mismatch = _jobs_probe(wl.seed)
    if mismatch:
        errors.append("run_batch aggregates differ between --jobs 1 and --jobs 2")
    speedup = statistics.median(speedups)
    metrics = tracer.layer_metrics()
    metrics.update({
        "timing.frames_lost_per_update":
            (frames_lost_per_update([r.summary for r in result]), "frames/update"),
        "cli.run_batch.jobs2_speedup": (speedup, "x"),
        "cli.run_batch.jobs2_speedup_spread": ((max(speedups) - min(speedups)) / speedup, "ratio"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    if spans_path is not None:
        tracer.save(spans_path)
    return {
        "attempted": 1 + 2 * runs * OVERHEAD_PAIRS + JOBS_PROBE_PASSES,
        "failed": len(errors),
        "errors": errors,
        "samples": runs,
        "metrics": metrics,
        "spans": tracer.span_table(),
        "report": {"jobs2_speedups": (speedups, "x")},
    }


def _machine() -> str:
    import numpy
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} machine={platform.machine()}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)


    setup = (None, None) if args.trace else _setup_s(args.workload, args.seed)
    wl = Workload(args.workload, args.seed)
    try:
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            res = traced(wl, TRACED_RUNS[args.workload], spans)
        else:
            res = measure(wl, args.seconds)
            res["metrics"] = {"setup_s": (setup[1], "s"), **res["metrics"]}
            res["report"]["raw_setup_s"] = (setup[0], "s")
    finally:
        wl.close()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(_machine())
    if args.trace:
        print(f"traced inputs: {res['samples']}; spans written to {spans.relative_to(ROOT)}")
        print(f"{'span':42} {'calls':>9} {'self_s':>9} {'share':>6}")
        for name, calls, self_s, share in res["spans"]:
            print(f"{name:42} {calls:9d} {self_s:9.4f} {share:6.1%}")
    else:
        print(f"runs timed: {res['samples']}; run_s_tail is p{res['tail_pct']}")
    for name, (value, unit) in {**res["metrics"], **res["report"]}.items():
        print(f"{name:48} {value} {unit}")
    for error in res["errors"]:
        print(f"FAILED: {error}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
