"""Self-test of the benchmark at tiny size (about a minute):

- every metric BENCHMARK.json names is emitted, with its unit, by each
  workload in both modes, and the runs pass their output checks;
- a forced failure (a scenario that diverges at once) is counted in
  ``failed`` and ``failed_frac``;
- without the markersim sources the benchmark exits non-zero and prints no
  result.

    python3 perfbench/selftest.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import OUT, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _check_metrics(metrics: dict, expected: dict, where: str):
    assert set(metrics) == set(expected), f"{where}: {sorted(set(metrics) ^ set(expected))}"
    for name, unit in expected.items():
        value, got = metrics[name]
        assert got == unit, f"{where}: {name} has unit {got}, declared {unit}"
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{where}: {name}={value}"


def test_end_to_end_line(workload: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, result
    metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    _check_metrics(metrics, _units("end_to_end"), f"{workload} --trace 0")
    for name in ("failed_frac", "frames_lost_per_update", "lateral_error_m_mean"):
        assert f"\n{name} " in proc.stdout, f"{workload}: {name} not reported"


def test_per_layer(workload: str):
    run.JOBS_PROBE_RUNS = 2
    wl = Workload(workload, 3)
    try:
        res = run.traced(wl, 1)
    finally:
        wl.close()
    assert res["failed"] == 0, res["errors"]
    _check_metrics(res["metrics"], _units("per_layer"), f"{workload} --trace 1")
    assert res["metrics"]["simulation.vehicle_step.calls"][0] > 0


def test_forced_failure():
    wl = Workload("landing-batch", 3, overrides={"run": {"bounds_height": 1.0}})
    try:
        res = run.measure(wl, 0.5)
    finally:
        wl.close()
    assert res["failed"] == res["attempted"] >= 2, res
    assert res["report"]["failed_frac"][0] == 1.0
    assert all("diverged" in e for e in res["errors"]), res["errors"]


def test_bare_directory():
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        test_end_to_end_line(workload)
        test_per_layer(workload)
        print(f"ok: {workload} emits every declared metric")
    test_forced_failure()
    print("ok: a diverging scenario is counted as failed")
    test_bare_directory()
    print("ok: no result without the markersim sources")


if __name__ == "__main__":
    main()
