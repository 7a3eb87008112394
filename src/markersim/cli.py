"""Command-line front end: single runs, seeded batches, and strategy
comparisons over one scenario config.

Exit codes: 0 success, 1 configuration/usage error, 2 simulation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .scenario import (
    STRATEGIES,
    SIZE_RULES,
    TIMING_SCHEMES,
    ScenarioConfig,
    load_scenario,
    nominal_landing_scenario,
    randomized_initial_conditions,
)
from .simulation import collect_metrics, events_to_csv, run_scenario, trace_to_csv


def _write_json(doc: dict, path: Path):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else None


def _std(values):
    values = list(values)
    if len(values) < 2:
        return 0.0 if values else None
    m = _mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def aggregate_summaries(summaries: list[dict]) -> dict:
    """Batch statistics; lateral-error stats are over the landed runs."""
    landed = [s for s in summaries if s["landed"]]
    return {
        "runs": len(summaries),
        "landed": len(landed),
        "success_rate": len(landed) / len(summaries) if summaries else None,
        "mean_lateral_error": _mean(s["final_lateral_error"] for s in landed),
        "std_lateral_error": _std(s["final_lateral_error"] for s in landed),
        "mean_time_to_land": _mean(s["time_to_land"] for s in landed),
        "mean_invalid_count": _mean(s["invalid_count"] for s in summaries),
        "mean_marker_update_count": _mean(s["marker_update_count"] for s in summaries),
        "diverged": sum(1 for s in summaries if s["status"] == "diverged"),
    }


def _batch_run(args) -> dict:
    config, seed_base, index = args
    run_config = randomized_initial_conditions(config, seed_base, index)
    trace = run_scenario(run_config)
    summary = collect_metrics(trace)
    summary["run_index"] = index
    return summary


def run_batch(config: ScenarioConfig, n: int, seed_base: int, jobs: int = 1) -> list[dict]:
    """N seeded runs with randomized initial conditions; results are ordered
    by run index and independent of the job count."""
    tasks = [(config, seed_base, i) for i in range(n)]
    workers = min(jobs, n)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_batch_run, tasks))
    else:
        summaries = [_batch_run(t) for t in tasks]
    return summaries


def _write_batch(summaries: list[dict], out: Path, **extra) -> dict:
    """Write one summary per run and the aggregate, with ``extra`` keys, to ``out``."""
    for summary in summaries:
        _write_json(summary, out / f"run_{summary['run_index']:03d}.json")
    agg = {**aggregate_summaries(summaries), **extra}
    _write_json(agg, out / "aggregate.json")
    return agg


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    names = ("seed", "strategy", "timing_scheme", "size_rule")
    overrides = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
    return replace(config, **overrides) if overrides else config


def _load_config(args) -> tuple[ScenarioConfig, Path]:
    """The command's config, then its ``--out`` directory, created once the config holds."""
    config = load_scenario(args.config) if args.config else nominal_landing_scenario()
    config, out = _apply_overrides(config, args), Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return config, out


def _cmd_run(args) -> int:
    config, out = _load_config(args)
    trace = run_scenario(config)
    trace_to_csv(trace, out / "trace.csv")
    events_to_csv(trace, out / "events.csv")
    summary = collect_metrics(trace)
    _write_json(summary, out / "summary.json")
    print(f"status={summary['status']} "
          f"lateral_error={summary['final_lateral_error']:.4f} "
          f"yaw_error={summary['final_yaw_error']:.4f} "
          f"updates={summary['marker_update_count']}")
    return 2 if trace.status == "diverged" else 0


def _cmd_batch(args) -> int:
    config, out = _load_config(args)
    summaries = run_batch(config, args.n, config.seed, jobs=args.jobs)
    agg = _write_batch(summaries, out, seed_base=config.seed)
    mean_err = agg["mean_lateral_error"]
    print(f"runs={agg['runs']} landed={agg['landed']} "
          f"mean_lateral_error={mean_err if mean_err is None else round(mean_err, 4)}")
    return 2 if agg["diverged"] else 0


_COMPARE_FIELDS = (
    ("runs", "runs"),
    ("landed", "landed"),
    ("mean_time_to_land", "mean_t_land[s]"),
    ("mean_lateral_error", "mean_lat_err[m]"),
    ("mean_invalid_count", "mean_invalid"),
    ("mean_marker_update_count", "mean_updates"),
    ("diverged", "diverged"),
)


def _cmd_compare(args) -> int:
    config, out = _load_config(args)
    aggregates = {}
    for strategy in STRATEGIES:
        # identical seeds across strategies: differences are attributable to
        # the marker strategy alone
        summaries = run_batch(replace(config, strategy=strategy), args.n, config.seed,
                              jobs=args.jobs)
        (out / strategy).mkdir(exist_ok=True)
        aggregates[strategy] = _write_batch(summaries, out / strategy)
    _write_json(aggregates, out / "comparison.json")

    def cell(value):
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    header = ["strategy"] + [label for _, label in _COMPARE_FIELDS]
    rows = [[strategy] + [cell(agg[key]) for key, _ in _COMPARE_FIELDS]
            for strategy, agg in aggregates.items()]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return 2 if any(agg["diverged"] for agg in aggregates.values()) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markersim",
        description="Adaptive screen-marker landing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "run one scenario, write trace.csv, events.csv and summary.json"),
        ("batch", "run N seeded scenarios, write per-run summaries and aggregate stats"),
        ("compare", "run all marker strategies on one scenario with identical seeds"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="scenario JSON (omit for the bundled landing scenario)")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="seed / batch seed base")
        p.add_argument("--timing-scheme", choices=TIMING_SCHEMES, default=None)
        p.add_argument("--size-rule", choices=SIZE_RULES, default=None,
                       help="marker size rule variant")
        if name in ("run", "batch"):
            p.add_argument("--strategy", choices=STRATEGIES, default=None)
        if name in ("batch", "compare"):
            p.add_argument("--n", type=int, default=50 if name == "batch" else 1,
                           help="number of runs (per strategy for compare)")
            p.add_argument("--jobs", type=int, default=1, help="concurrent runs")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are config errors here
        return 0 if exc.code in (0, None) else 1
    for flag in ("n", "jobs"):
        if getattr(args, flag, 1) < 1:
            print(f"error: --{flag} must be >= 1", file=sys.stderr)
            return 1
    handler = {"run": _cmd_run, "batch": _cmd_batch, "compare": _cmd_compare}[args.command]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # simulation failure
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
