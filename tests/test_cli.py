import copy
import dataclasses
import json
import re
from operator import attrgetter
from pathlib import Path

import pytest

from markersim.cli import main
from markersim.scenario import (
    _SCHEMA,
    SIZE_RULES,
    STRATEGIES,
    TIMING_SCHEMES,
    load_scenario,
    nominal_landing_scenario,
    scenario_from_dict,
)

SCENARIO_JSON = Path(__file__).resolve().parent.parent / "scenarios" / "landing.json"


def quick_config(tmp_path, **run_overrides) -> str:
    """A fast-landing config: start low enough that the descent is short."""
    doc = {
        "initial": {"position": [0.1, -0.05, 0.9], "yaw": 0.3},
        "desired": {"height": 0.9},
        "landing": {"error_threshold": 0.05},
        "run": {"duration": 15.0, "seed": 5, **run_overrides},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestConfigLoading:
    def test_bundled_scenario_matches_defaults(self):
        assert load_scenario(SCENARIO_JSON) == nominal_landing_scenario()

    def test_empty_document_is_nominal(self):
        from markersim.scenario import scenario_from_dict

        assert scenario_from_dict({}) == nominal_landing_scenario()

    def test_unknown_top_level_key_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"cameraz": {}}', encoding="utf-8")
        with pytest.raises(ValueError, match="cameraz"):
            load_scenario(path)

    def test_unknown_nested_key_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"policy": {"switch_below": 1.0}}', encoding="utf-8")
        with pytest.raises(ValueError, match="switch_below"):
            load_scenario(path)

    def test_command_lag_key_is_unknown(self):
        with pytest.raises(ValueError, match=r"unknown config key\(s\) \['command_lag'\] in 'controller'"):
            scenario_from_dict({"controller": {"command_lag": 0.0}})

    @pytest.mark.parametrize("section, key, value", [
        ("delays", "safety_margin", None),  # the optimized window opens at the display instant
        ("screen", "refresh_delay", 0.02),  # delays.display is the whole display delay
    ])
    def test_removed_keys_are_unknown(self, section, key, value, tmp_path, capsys):
        doc = {section: {key: value}}
        with pytest.raises(ValueError, match=re.escape(f"['{key}'] in '{section}'")):
            scenario_from_dict(doc)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err

    def test_invalid_json_diagnosed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_scenario(path)

    def test_bad_delay_shape_diagnosed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"delays": {"video": {"gaussian": [0, 1]}}}', encoding="utf-8")
        with pytest.raises(ValueError, match="delays.video"):
            load_scenario(path)


MALFORMED = [
    ({"delays": {"video": {"uniform": 5}}}, "delays.video.uniform"),
    ({"delays": {"video": {"constant": None}}}, "delays.video.constant"),
    ({"camera": 5}, "camera"),
    ({"families": 5}, "families"),
    ({"initial": {"position": [None, 1, 2]}}, "initial.position"),
    ({"initial": {"position": ["3", 1, 2]}}, "initial.position"),
    ({"controller": {"gain": None}}, "controller.gain"),
    ({"controller": {"gain": 10**400}}, "controller.gain"),
    ({"run": {"seed": 1.7}}, "run.seed"),
    ({"camera": {"width": 1.5}}, "camera.width"),
    ({"controller": {"gain": float("nan")}}, "controller.gain"),
    ({"camera": {"fx": float("inf")}}, "camera.fx"),
    ({"delays": {"video": {"constant": float("nan")}}}, "delays.video.constant"),
    ({"run": {"seed": -1}}, "run.seed"),
    ({"run": {"touchdown_height": -1}}, "run.touchdown_height"),
    ({"run": {"bounds_radius": -1}}, "run.bounds_radius"),
    ({"run": {"bounds_height": -1}}, "run.bounds_height"),
    ({"desired": {"height": -1}}, "desired.height"),
    ({"landing": {"error_threshold": -0.1}}, "landing.error_threshold"),
    ({"controller": {"max_linear_speed": -1}}, "controller.max_linear_speed"),
    ({"run": {"tick_step": 0}}, "run.tick_step"),
    ({"marker": {"fill_factor": 2.0}}, "marker.fill_factor"),
    ({"marker": {"gap_fraction": -0.5}}, "marker.gap_fraction"),
    ({"controller": {"descent_rate": 1e308}}, "controller.descent_rate"),
]


@pytest.mark.parametrize("doc, path", MALFORMED)
def test_malformed_value_is_config_error(doc, path, tmp_path, capsys):
    with pytest.raises(ValueError, match=re.escape(f"'{path}")):
        scenario_from_dict(doc)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "simulation failed" not in err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, value",
    [
        ("duration", NAN),
        ("touchdown_height", NAN),
        ("max_linear_speed", NAN),
        ("gain", NAN),
        ("descent_rate", NAN),
        ("landing_trigger_time", NAN),
        ("bounds_radius", INF),
        ("initial_yaw", -INF),
        ("initial_position", (0.4, NAN, 2.5)),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", True),
        ("touchdown_height", -1.0),
        ("bounds_radius", -1.0),
        ("bounds_height", -1.0),
        ("desired_height", -1.0),
        ("landing_error_threshold", -0.1),
        ("max_linear_speed", -1.0),
        ("tick_step", 0.0),
        ("descent_rate", 1e308),
        ("fill_factor", 2.0),
        ("gap_fraction", -0.5),
        # a field of a nested config, by its attribute path
        ("screen.width", NAN),
        ("intrinsics.fx", NAN),
        ("long_range_family.position_noise.sigma_at_1m", NAN),
        ("delays.video.low", NAN),
    ],
)
def test_python_config_rejects_non_finite_values_and_bad_seed(field, value):
    *owners, name = field.split(".")
    config = nominal_landing_scenario()
    owner = attrgetter(".".join(owners))(config) if owners else config
    with pytest.raises(ValueError, match=f"^'?{name}'? must"):
        dataclasses.replace(owner, **{name: value})


def _leaves(doc, path=""):
    """JSON leaf paths of a document, descending only into schema objects."""
    for key, value in doc.items():
        child = f"{path}.{key}" if path else key
        if isinstance(value, dict) and child not in _SCHEMA:
            yield from _leaves(value, child)
        else:
            yield child


def _attributes(obj, path=""):
    """Dotted attribute path -> value for every leaf of a nested dataclass."""
    if not dataclasses.is_dataclass(obj):
        return {path: obj}
    out = {}
    for f in dataclasses.fields(obj):
        out.update(_attributes(getattr(obj, f.name), f"{path}.{f.name}" if path else f.name))
    return out


def _other_value(value):
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


# Each leaf's JSON kind, written out rather than read from _SCHEMA: leaf ->
# what its error for the value "x" says it must be. Every other leaf is a
# number; the integer leaves also reject 1.5.
NOT_A = {
    "families.long_range.yields_yaw": "a boolean",
    "families.full_pose.yields_yaw": "a boolean",
    "run.timing_scheme": f"one of {TIMING_SCHEMES}",
    "run.size_rule": f"one of {SIZE_RULES}",
    "run.strategy": f"one of {STRATEGIES}",
    "initial.position": "a 3-element list",
    **{f"delays.{name}": "a number, {'constant': x} or {'uniform': [lo, hi]}"
       for name in ("detector_update", "display", "display_confirm", "video", "pose")},
}
INTEGERS = ("camera.width", "camera.height", "run.seed")


class TestSchema:
    @pytest.mark.parametrize("leaf", sorted(_SCHEMA))
    def test_each_leaf_rejects_a_value_of_another_kind(self, leaf):
        assert set(NOT_A) | set(INTEGERS) <= set(_SCHEMA)
        wrong = [("x", NOT_A.get(leaf, "a number"))]
        if leaf in INTEGERS:
            wrong.append((1.5, "an integer"))
        for value, kind in wrong:
            doc = value
            for name in reversed(leaf.split(".")):
                doc = {name: doc}
            with pytest.raises(ValueError) as error:
                scenario_from_dict(doc)
            assert str(error.value) == f"'{leaf}' must be {kind}, got {value!r}"

    def test_bundled_scenario_spells_out_every_leaf(self):
        doc = json.loads(SCENARIO_JSON.read_text(encoding="utf-8"))
        # long_range yields no yaw, so the file gives it no yaw_noise
        omitted = {leaf for leaf in _SCHEMA if leaf.startswith("families.long_range.yaw_noise.")}
        assert set(_leaves(doc)) == set(_SCHEMA) - omitted

    def test_each_attribute_is_set_by_one_leaf_of_its_name(self):
        targets = [(leaf, t) for leaf, (_, t) in _SCHEMA.items()]
        assert all(t.endswith(leaf.rpartition(".")[2]) for leaf, t in targets)
        assert len({t for _, t in targets}) == len(targets)

    @pytest.mark.parametrize("leaf", sorted(_SCHEMA))
    def test_each_leaf_sets_exactly_its_attributes(self, leaf):
        _, target = _SCHEMA[leaf]
        doc = {}
        if leaf.startswith("families.long_range.yaw_noise."):
            # long_range has no yaw noise to change until it yields yaw
            doc = {"families": {"long_range": {"yields_yaw": True}}}
        before = scenario_from_dict(copy.deepcopy(doc))
        *parents, key = leaf.split(".")
        section = doc
        for name in parents:
            section = section.setdefault(name, {})
        section[key] = _other_value(attrgetter(target)(before))
        old, new = _attributes(before), _attributes(scenario_from_dict(doc))
        changed = {p for p in old.keys() | new.keys() if old.get(p, "absent") != new.get(p, "absent")}
        expected = {target}
        # the rule that links two fields
        if key == "yields_yaw":
            expected.add(target.replace("yields_yaw", "yaw_noise"))
        owners = {next((t for t in expected if p == t or p.startswith(f"{t}.")), p) for p in changed}
        assert owners == expected


class TestRunCommand:
    def test_run_writes_outputs(self, tmp_path, capsys):
        config = quick_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", config, "--out", str(out)])
        assert code == 0
        assert (out / "trace.csv").exists()
        assert (out / "events.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["status"] == "landed"
        assert "status=landed" in capsys.readouterr().out

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 1

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"florb": 1}', encoding="utf-8")
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "florb" in capsys.readouterr().err

    def test_unknown_strategy_is_config_error(self, tmp_path, capsys):
        config = quick_config(tmp_path)
        code = main(["run", "--config", config, "--out", str(tmp_path / "o"),
                     "--strategy", "holographic"])
        assert code == 1
        assert "holographic" in capsys.readouterr().err

    def test_unknown_subcommand_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_seed_override(self, tmp_path):
        config = quick_config(tmp_path)
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        main(["run", "--config", config, "--out", str(out_a), "--seed", "9"])
        main(["run", "--config", config, "--out", str(out_b), "--seed", "9"])
        main(["run", "--config", config, "--out", str(out_c), "--seed", "10"])
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        assert (out_a / "trace.csv").read_bytes() != (out_c / "trace.csv").read_bytes()


class TestBatchCommand:
    def test_batch_outputs_and_reproducibility(self, tmp_path):
        config = quick_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = main(["batch", "--config", config, "--out", str(out),
                         "--n", "4", "--seed", "77"])
            assert code == 0
        for name in ("aggregate.json", "run_000.json", "run_003.json"):
            assert (out_a / name).exists()
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        agg = json.loads((out_a / "aggregate.json").read_text())
        assert agg["runs"] == 4
        assert agg["landed"] == 4

    def test_batch_jobs_match_serial(self, tmp_path):
        config = quick_config(tmp_path)
        out_serial, out_parallel = tmp_path / "s", tmp_path / "p"
        main(["batch", "--config", config, "--out", str(out_serial), "--n", "4", "--seed", "3"])
        main(["batch", "--config", config, "--out", str(out_parallel), "--n", "4",
              "--seed", "3", "--jobs", "2"])
        assert (out_serial / "aggregate.json").read_bytes() == (
            out_parallel / "aggregate.json"
        ).read_bytes()

    def test_bad_n_rejected(self, tmp_path):
        assert main(["batch", "--config", quick_config(tmp_path),
                     "--out", str(tmp_path / "o"), "--n", "0"]) == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_bad_jobs_rejected(self, tmp_path, capsys, jobs):
        assert main(["batch", "--config", quick_config(tmp_path),
                     "--out", str(tmp_path / "o"), "--jobs", jobs]) == 1
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_pool_has_at_most_one_worker_per_run(self, tmp_path, monkeypatch):
        # A stand-in pool that records its size and runs the tasks in this
        # process: no worker is started.
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("markersim.cli.ProcessPoolExecutor", RecordingPool)
        config = quick_config(tmp_path)
        for n in ("3", "1"):
            assert main(["batch", "--config", config, "--out", str(tmp_path / n),
                         "--n", n, "--jobs", "5000"]) == 0
        assert sizes == [3]


class TestCompareCommand:
    def test_compare_table_and_files(self, tmp_path, capsys):
        config = quick_config(tmp_path)
        out = tmp_path / "cmp"
        code = main(["compare", "--config", config, "--out", str(out), "--seed", "4"])
        assert code == 0
        comparison = json.loads((out / "comparison.json").read_text())
        assert set(comparison) == {"dynamic", "static-full-pose", "static-long-range"}
        printed = capsys.readouterr().out
        assert "strategy" in printed and "dynamic" in printed
        for strategy in comparison:
            assert (out / strategy / "run_000.json").exists()

    def test_compare_uses_identical_seeds(self, tmp_path):
        config = quick_config(tmp_path)
        out = tmp_path / "cmp"
        main(["compare", "--config", config, "--out", str(out), "--seed", "4"])
        seeds = {
            s: json.loads((out / s / "run_000.json").read_text())["seed"]
            for s in ("dynamic", "static-full-pose", "static-long-range")
        }
        assert len(set(seeds.values())) == 1


class TestSchemeFlags:
    def test_timing_scheme_flag_applies(self, tmp_path):
        config = quick_config(tmp_path)
        out = tmp_path / "safe"
        code = main(["run", "--config", config, "--out", str(out), "--timing-scheme", "safe"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["timing_scheme"] == "safe"

    def test_size_rule_flag_applies(self, tmp_path):
        config = quick_config(tmp_path)
        out = tmp_path / "verbatim"
        code = main(["run", "--config", config, "--out", str(out), "--size-rule", "verbatim"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["size_rule"] == "verbatim"
