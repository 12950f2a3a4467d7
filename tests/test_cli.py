import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import logging
import math
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from invman import cli, errors, flow, invariance, scenario
from invman.cli import load_config, main
from invman.flow import FlowResult, run_flow
from invman.invariance import MAX_SAMPLED_ENTRIES, SystemSpec, reduced_matrix, verdicts

from helpers import FrameBuilt, must_not_build_frame, schema_paths

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DATA = Path(__file__).resolve().parent / "data"


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


NILPOTENT_CONFIG = {
    "m": 2,
    "n": 1,
    "coeff": [["0", "1"], ["0", "0"]],
    "chart": [["1", "0"]],
    "comp_chart": [["0", "1"]],
    "grid": {"start": 0.0, "end": 2.0, "count": 21},
}


# Y and X stay finite, but Y C+(t0) - C+(t) X leaves the float range from t = 3.48 on.
CONJUGACY_OVERFLOW = dict(NILPOTENT_CONFIG, coeff=[["200", "0"], ["0", "200"]], chart=[["1e-6", "0"]],
                          window=[0.0, 3.5], step=1e-3)


# P A - A P leaves the float range; with 1e307 the defect is finite, but defect @ P is not.
DEFECT_OVERFLOW = dict(NILPOTENT_CONFIG, coeff=[["1e308"] * 2] * 2, chart=[["1", "10"]], window=[0.0, 0.0])
DEFECT_MAIN_OVERFLOW = dict(DEFECT_OVERFLOW, coeff=[["1e307"] * 2] * 2)


def _quiet_main(argv):
    """``main(argv)`` with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


class TestCheck:
    def test_block_diagonal_all_assertions_pass(self, capsys):
        config = str(CONFIGS / "block_diagonal.json")
        for assertion in ("joint", "mn", "complement"):
            assert main(["check", "--config", config, "--assert", assertion]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "defect" in out

    def test_nilpotent_joint_fails_with_residual_reported(self, tmp_path, capsys):
        config = _write(tmp_path, NILPOTENT_CONFIG)
        rc = main(["check", "--config", config, "--assert", "joint"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "1.000e+00" in out  # |defect| of the constant shear is exactly 1
        assert main(["check", "--config", config, "--assert", "mn"]) == 0
        assert main(["check", "--config", config, "--assert", "complement"]) == 1

    def test_no_assertion_reports_and_exits_zero(self, tmp_path):
        config = _write(tmp_path, NILPOTENT_CONFIG)
        assert main(["check", "--config", config]) == 0

    def test_malformed_expression_exits_2_with_offset(self, tmp_path, capsys):
        bad = dict(NILPOTENT_CONFIG, chart=[["sin(", "0"]])
        rc = main(["check", "--config", _write(tmp_path, bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "offset" in err

    def test_entry_parse_error_prints_its_offset_once(self, tmp_path, capsys):
        bad = dict(NILPOTENT_CONFIG, coeff=[["t+x", "1"], ["0", "0"]])
        assert main(["check", "--config", _write(tmp_path, bad)]) == 2
        assert capsys.readouterr().err == (
            "config error: config key 'coeff': entry (0,0): unknown identifier 'x' (offset 2)\n"
        )

    @pytest.mark.parametrize("changes, key", [
        ({"tolerence": 1e-12}, "tolerence"),
        ({"grid": dict(NILPOTENT_CONFIG["grid"], extra=1)}, "extra"),
    ], ids=["top_level", "grid"])
    def test_a_key_load_config_does_not_read_exits_2(self, tmp_path, capsys, changes, key):
        # A misspelt key is refused, not ignored: "tolerence" would otherwise judge at the default tolerance.
        assert main(["check", "--config", _write(tmp_path, dict(NILPOTENT_CONFIG, **changes))]) == 2
        assert capsys.readouterr() == ("", f"config error: unknown config key {key!r}\n")

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
    def test_every_shipped_config_loads(self, path):
        load_config(str(path))

    @pytest.mark.parametrize("structure", list(scenario.Structure))
    def test_every_generated_config_key_is_read(self, tmp_path, structure):
        # The keys to_config writes, and the run window a config may add.
        config = scenario.to_config(scenario.random_scenario(structure), metadata={"kind": structure.value})
        assert set(config) == set(cli._CONFIG_KEYS) - {"window"}
        load_config(_write(tmp_path, dict(config, window=[0.0, 1.0])))

    @pytest.mark.parametrize("scale", ["1e-150", "1e-160", "1e-200", "1e-300", "1e300"])
    def test_moore_penrose_chart_scale_leaves_the_report_unchanged(self, tmp_path, capsys, scale):
        # Unscaled, the Gram matrix C C^T of these charts underflows or overflows.
        config = dict(json.loads((CONFIGS / "nilpotent_shear.json").read_text()), chart=[["1", "0"]])
        del config["comp_chart"]
        assert main(["check", "--config", _write(tmp_path, config)]) == 0
        unit = capsys.readouterr().out
        config["chart"] = [[scale, "0"]]
        assert main(["check", "--config", _write(tmp_path, config)]) == 0
        assert capsys.readouterr() == (unit, "")
        assert "subspace (mn) invariance PASS" in unit

    @pytest.mark.parametrize("entry", ["1e155*(1 + t)", "1e308"])
    def test_huge_finite_defect_is_a_fail_verdict(self, tmp_path, capsys, entry):
        # The squares of the defect overflow; its norm does not.
        config = dict(NILPOTENT_CONFIG, coeff=[["0", entry], [entry, "0"]])
        assert main(["check", "--config", _write(tmp_path, config)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "joint invariance        FAIL" in out and "inf" not in out

    @pytest.mark.parametrize("changes, message", [
        ({"coeff": [["0", "1.7e308"], ["1.7e308", "0"]]}, "residual 'defect' is not finite at t=0.0"),
        # Moore-Penrose route: C+ of a subnormal chart, or dC+ of a chart near 1e-300 that moves, overflows.
        ({"comp_chart": None, "chart": [["1e-300 + t", "0"]]}, "right inverse of the chart is not finite at t=0.0"),
        ({"comp_chart": None, "chart": [["1e-320", "0"]]}, "right inverse of the chart is not finite at t=0.0"),
        ({"comp_chart": None, "chart": [["1e-300 + 1e10*t", "0"]]}, "right inverse of the chart is not finite at t=0.0"),
        # Stacked route: the inverse of a subnormal stack, or the derivative of a tiny moving one, overflows.
        ({"chart": [["1e-320", "0"]], "comp_chart": [["0", "1e-320"]]},
         "inverse of the stacked frame is not finite at t=0.0"),
        ({"chart": [["1e-300 + t", "0"]], "comp_chart": [["0", "1e-300 + t"]]},
         "inverse of the stacked frame is not finite at t=0.0"),
        ({"chart": [["1e-320 + (t - 1)^2", "0"]], "comp_chart": [["0", "1e-320 + (t - 1)^2"]]},
         "inverse of the stacked frame is not finite at t=1.0"),
    ], ids=["defect", "moving_tiny_chart", "subnormal_chart", "fast_tiny_chart",
            "subnormal_stack", "moving_tiny_stack", "later_subnormal_stack"])
    @pytest.mark.parametrize("command", ["check", "reduce", "flow"])
    def test_defect_norm_past_the_float_range_is_a_numerical_failure(
        self, tmp_path, capsys, changes, message, command
    ):
        config = dict(NILPOTENT_CONFIG, **changes)
        assert main([command, "--config", _write(tmp_path, config)]) == 3
        assert capsys.readouterr() == ("", f"numerical failure: {message}\n")

    @pytest.mark.parametrize("config, message", [
        (DEFECT_OVERFLOW, "residual 'defect' is not finite at t=0.0"),
        (DEFECT_MAIN_OVERFLOW, "residual 'defect_main' is not finite at t=0.0"),
    ], ids=["defect", "defect_main"])
    @pytest.mark.parametrize("command", ["check", "reduce", "flow"])
    def test_defect_past_the_float_range_exits_3_without_a_warning(self, tmp_path, capsys, config, message, command):
        assert _quiet_main([command, "--config", _write(tmp_path, config)]) == 3
        assert capsys.readouterr() == ("", f"numerical failure: {message}\n")

    @pytest.mark.parametrize("changes, message", [
        # Singular from t=0.1 on, while at t=0.0 the derivative of the inverse already overflows.
        ({"chart": [["1e-300 + t", "0"]], "comp_chart": [["0", "1e-300"]]},
         "inverse of the stacked frame is not finite at t=0.0"),
        # The chart is zero at t=0.1, while at t=0.0 its dC+ overflows.
        ({"chart": [["(0.1 - t)*(1e-299 + t)", "0"]], "comp_chart": None},
         "right inverse of the chart is not finite at t=0.0"),
        ({"chart": [["t - 0.1", "0"]], "comp_chart": [["0", "1e-300"]]},
         "stacked frame is singular at t=0.0: invert: singular to tolerance (pivot 1.000e-300 <= 1.000e-10 in column 1)"),
    ], ids=["stacked", "moore_penrose", "singular_first"])
    def test_the_earliest_offending_time_wins(self, tmp_path, capsys, changes, message):
        config = dict(NILPOTENT_CONFIG, grid={"start": 0.0, "end": 2.0, "count": 21}, **changes)
        assert main(["check", "--config", _write(tmp_path, config)]) == 3
        assert capsys.readouterr() == ("", f"numerical failure: {message}\n")

    def test_grid_span_past_the_float_range_exits_2_before_sampling(self, tmp_path, capsys):
        config = dict(NILPOTENT_CONFIG, grid={"start": -1e308, "end": 1e308, "count": 3}, window=[0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", _write(tmp_path, config)]) == 2
        assert capsys.readouterr().err == "config error: grid from -1e+308 to 1e+308 spans more than the float range\n"

    def test_missing_key_exits_2(self, tmp_path, capsys):
        rc = main(["check", "--config", _write(tmp_path, {"m": 2, "n": 1})])
        assert rc == 2
        assert "coeff" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command", ["check", "reduce", "flow"])
    def test_config_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"m": 2, "n": 1, \xff}')
        assert main([command, "--config", str(path)]) == 2
        assert capsys.readouterr() == ("", (
            f"config error: cannot read config {str(path)!r}: "
            "'utf-8' codec can't decode byte 0xff in position 17: invalid start byte\n"
        ))

    def test_integer_literal_past_the_digit_limit_exits_2(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"m": 2, "n": 1, "seed": 1' + "0" * 4300 + "}")
        assert main(["check", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command, option", [
        ("check", {"tolerance": "abc"}),
        ("check", {"tolerance": math.nan}),
        ("check", {"grid": {"start": 0.0, "end": 2.0, "count": 2.5}}),
        ("flow", {"window": ["a", "b"]}),
        ("flow", {"trials": "x"}),
        ("flow", {"step": math.nan}),
        ("flow", {"step": math.inf}),
        ("flow", {"seed": 1.7}),
        ("flow", {"seed": -1}),
        ("check", {"n": True}),
    ])
    def test_malformed_run_option_exits_2(self, tmp_path, capsys, command, option):
        config = _write(tmp_path, dict(NILPOTENT_CONFIG, **option))
        assert main([command, "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("command, option", [
        ("check", {"grid": {"start": 0.0, "end": 2.0, "count": 10**15}}),
        ("flow", {"step": 1e-300}),
        ("flow", {"window": [-1e308, 1e308]}),
        ("flow", {"trials": 10**6}),
    ])
    def test_oversized_sampling_exits_2_before_allocating(self, tmp_path, capsys, command, option):
        config = _write(tmp_path, dict(NILPOTENT_CONFIG, **option))
        tracemalloc.start()
        try:
            assert main([command, "--config", config]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        err = capsys.readouterr().err
        if "window" in option:  # a span past the float range: the march's finite-window rule refuses it first
            assert err == "config error: step must be in (0, inf) over a finite window, got h=0.001, " \
                          "window=(-1e+308, 1e+308)\n"
        else:
            assert err.startswith("config error:") and str(MAX_SAMPLED_ENTRIES) in err

    @pytest.mark.parametrize("step, trials", [(1e-300, 1), (1e-9, 1), (1e-3, 10**6)])
    def test_over_budget_march_is_refused_with_the_library_text(self, tmp_path, step, trials):
        spec, _ = load_config(_write(tmp_path, NILPOTENT_CONFIG, "within.json"))
        with pytest.raises(ValueError, match="MAX_SAMPLED_ENTRIES") as raised:
            run_flow(spec, h=step, trials=trials, t_span=(0.0, 1.0))
        past = dict(NILPOTENT_CONFIG, step=step, trials=trials, window=[0.0, 1.0])
        with pytest.raises(errors.ConfigError) as refused:
            load_config(_write(tmp_path, past))
        assert str(refused.value) == str(raised.value)

    @pytest.mark.parametrize("option, refuse", [
        ({"tolerance": -1}, lambda spec: verdicts(spec, -1.0)),
        ({"trials": 0}, lambda spec: run_flow(spec, trials=0)),
        ({"seed": -1}, lambda spec: run_flow(spec, seed=-1)),
        ({"step": 0}, lambda spec: run_flow(spec, h=0.0, t_span=(0.0, 2.0))),
        ({"grid": {"start": 0.0, "end": 1.0, "count": MAX_SAMPLED_ENTRIES // 4 + 1}},
         lambda spec: SystemSpec(spec.coeff, spec.chart, t_grid=np.broadcast_to(0.0, MAX_SAMPLED_ENTRIES // 4 + 1))),
    ], ids=["tolerance", "trials", "seed", "step", "grid_count"])
    def test_run_option_is_refused_with_the_library_text(self, tmp_path, option, refuse):
        spec, _ = load_config(_write(tmp_path, NILPOTENT_CONFIG, "within.json"))
        with pytest.raises(ValueError) as raised:
            refuse(spec)
        with pytest.raises(errors.ConfigError) as refused:
            load_config(_write(tmp_path, dict(NILPOTENT_CONFIG, **option)))
        assert str(refused.value) == str(raised.value)

    @pytest.mark.parametrize("option, message", [
        ({"step": 1.0, "window": [0.0, 1e308]}, "step 1.0 over window (0.0, 1e+308) takes inf half steps x 10 entries"),
        ({"grid": {"start": 0.0, "end": 1.0, "count": 10**400}}, "t_grid takes inf points x 4 entries"),
    ], ids=["half_steps", "grid_count"])
    def test_a_count_past_the_float_range_is_refused_as_inf(self, tmp_path, capsys, option, message):
        assert main(["check", "--config", _write(tmp_path, dict(NILPOTENT_CONFIG, **option))]) == 2
        assert capsys.readouterr().err == f"config error: {message}, more than MAX_SAMPLED_ENTRIES = 67108864\n"

    def test_march_budget_is_checked_exactly_without_building_the_grid(self, tmp_path):
        # m = 2, trials = 1: 16 777 215 half steps of 2 x 2 entries is just under 2^26, one step more is past it
        within = dict(NILPOTENT_CONFIG, step=1.0, trials=1, window=[0.0, 8388607.0])
        tracemalloc.start()
        try:
            _, opts = load_config(_write(tmp_path, within))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert opts.window == (0.0, 8388607.0) and peak < 2**20
        with pytest.raises(errors.ConfigError, match="takes 1.678e\\+07 half steps x 4 entries, more than"):
            load_config(_write(tmp_path, dict(within, window=[0.0, 8388608.0]), "past.json"))

    @pytest.mark.parametrize("entry, shown", [
        (None, " must be a finite number, got None"),
        ([1], " must be a finite number, got [1]"),
        ({"a": 1}, " must be a finite number, got {'a': 1}"),
        (True, " must be a finite number, got True"),
        (math.inf, " must be a finite number, got inf"),
        (10**400, " must be a finite number, got 1000"),
        ("1e400", ": number '1e400' is out of range (offset 0)"),
        ("(" * 300 + "t" + ")" * 300, ": expression nests deeper than 100 levels"),
        ("+".join(["t"] * 3000), ": expression nests deeper than 100 levels"),
    ])
    def test_malformed_matrix_entry_exits_2_naming_it(self, tmp_path, capsys, entry, shown):
        bad = dict(NILPOTENT_CONFIG, coeff=[["0", "1"], ["0", entry]])
        assert main(["check", "--config", _write(tmp_path, bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key 'coeff': entry (1,1){shown}")

    def test_over_deep_chart_exits_2_before_differentiating(self, tmp_path, capsys):
        bad = dict(NILPOTENT_CONFIG, chart=[["+".join(["t"] * 900), "0"]])
        assert main(["check", "--config", _write(tmp_path, bad)]) == 2
        assert "config key 'chart': entry (0,0): expression nests deeper" in capsys.readouterr().err

    @pytest.mark.parametrize("coeff", [[], [[], []], [["0", "1"], ["0"]]])
    def test_empty_or_ragged_matrix_exits_2(self, tmp_path, capsys, coeff):
        assert main(["check", "--config", _write(tmp_path, dict(NILPOTENT_CONFIG, coeff=coeff))]) == 2
        assert capsys.readouterr().err.startswith("config error: config key 'coeff': matrix function")

    def test_missing_file_exits_2(self):
        assert main(["check", "--config", "/nonexistent/nowhere.json"]) == 2

    @pytest.mark.parametrize("payload, message", [
        (dict(NILPOTENT_CONFIG, comp_chart=[["1", "0"], ["0", "1"]]),
         "config key 'comp_chart' has shape (2, 2), expected (1, 2)"),
        ([1, 2], "config {path!r} must be a JSON object"),
        (dict(NILPOTENT_CONFIG, n=2), "dimensions must be integers with 0 < n < m, got m=2, n=2"),
        (dict(NILPOTENT_CONFIG, grid={"start": 0.0, "end": 2.0, "count": 1}), "grid needs count >= 2 and end > start"),
        (dict(NILPOTENT_CONFIG, grid={"start": 2.0, "end": 2.0, "count": 5}), "grid needs count >= 2 and end > start"),
        (dict(NILPOTENT_CONFIG, window=[0.0]), "window must be a [t0, t1] pair"),
        (dict(NILPOTENT_CONFIG, window={"t0": 0.0, "t1": 1.0}), "window must be a [t0, t1] pair"),
        (dict(NILPOTENT_CONFIG, grid={"start": 0.0, "end": 5e-324, "count": 3}), "t_grid must be strictly increasing"),
    ])
    def test_inconsistent_config_exits_2_with_its_message(self, tmp_path, capsys, payload, message):
        path = _write(tmp_path, payload)
        assert main(["check", "--config", path]) == 2
        assert capsys.readouterr() == ("", f"config error: {message.format(path=path)}\n")

    def test_singular_stack_exits_3(self, tmp_path, capsys):
        bad = dict(NILPOTENT_CONFIG, comp_chart=[["2", "0"]])
        rc = main(["check", "--config", _write(tmp_path, bad)])
        assert rc == 3
        assert "singular" in capsys.readouterr().err

    def test_pole_on_grid_exits_3(self, tmp_path, capsys):
        bad = dict(NILPOTENT_CONFIG, coeff=[["1/(t - 1)", "0"], ["0", "0"]])
        assert main(["check", "--config", _write(tmp_path, bad)]) == 3
        assert "entry (0,0) at t=1.0: division by zero" in capsys.readouterr().err

    @pytest.mark.parametrize("option, message", [
        ({"comp_chart": [["2", "0"]]}, "stacked frame is singular at t=0.0: "),
        ({"chart": [["t - 1", "0"]], "comp_chart": None}, "chart loses full row rank at t=1.0: "),
        ({"coeff": [["exp(1000*t)", "0"], ["0", "0"]]}, "entry (0,0) is not finite at t=0.8"),
        ({"coeff": [["1e200^2", "0"], ["0", "0"]]}, "entry (0,0) is not finite at t=0.0"),
    ])
    def test_numerical_failure_prints_its_time_as_a_float(self, tmp_path, capsys, option, message):
        config = _write(tmp_path, dict(NILPOTENT_CONFIG, **option))
        assert main(["check", "--config", config]) == 3
        err = capsys.readouterr().err
        assert message in err and "np.float64" not in err

    def test_omitted_run_options_load_the_documented_defaults(self, tmp_path):
        bare = {key: NILPOTENT_CONFIG[key] for key in ("m", "n", "coeff", "chart")}
        spec, opts = load_config(_write(tmp_path, bare))
        assert (opts.tolerance, opts.h, opts.seed, opts.trials) == (1e-8, 1e-3, 42, 5)
        assert opts.grid == {"start": 0.0, "end": 5.0, "count": 201}
        np.testing.assert_array_equal(spec.t_grid, np.linspace(0.0, 5.0, 201))
        assert opts.window == (0.0, 5.0)

    def test_json_report_schema_golden(self, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["check", "--config", str(CONFIGS / "block_diagonal.json"), "--json", str(out)])
        assert rc == 0
        paths = schema_paths(json.loads(out.read_text()))
        golden = (DATA / "check_schema.golden").read_text().splitlines()
        assert paths == golden


class TestReduce:
    def test_nilpotent_reduces_to_zero(self, tmp_path):
        config = _write(tmp_path, NILPOTENT_CONFIG)
        out = tmp_path / "reduce.json"
        assert main(["reduce", "--config", config, "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        reduced = np.asarray(payload["reduced"])
        np.testing.assert_allclose(reduced, np.zeros_like(reduced), atol=1e-12)
        assert payload["conjugacy"]["max_embedding_residual"] <= 1e-7

    def test_upper_triangular_scenario_allowed(self, tmp_path):
        out = tmp_path / "reduce.json"
        rc = main(["reduce", "--config", str(CONFIGS / "upper_triangular.json"), "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["conjugacy"]["max_embedding_residual"] <= 1e-7
        assert payload["verdicts"]["main_invariant"] is True

    def test_lower_triangular_refused_with_residual(self, capsys):
        rc = main(["reduce", "--config", str(CONFIGS / "lower_triangular.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "not invariant" in err

    def test_a_refused_reduce_is_reported_by_main_as_a_failed_precondition(self, capsys):
        assert main(["reduce", "--config", str(CONFIGS / "full.json")]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("precondition failed: conjugacy_check: the subspace is not invariant")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["nilpotent_shear", "upper_triangular"])
    def test_reduced_equals_pointwise_reduced_matrix(self, tmp_path, name):
        config = str(CONFIGS / f"{name}.json")
        out = tmp_path / "reduce.json"
        assert main(["reduce", "--config", config, "--json", str(out)]) == 0
        spec, _ = load_config(config)
        expected = [reduced_matrix(spec, t).tolist() for t in spec.t_grid]
        assert json.loads(out.read_text())["reduced"] == expected

    def test_conjugacy_past_the_float_range_exits_3_naming_its_time(self, tmp_path, capsys):
        assert _quiet_main(["reduce", "--config", _write(tmp_path, CONJUGACY_OVERFLOW)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: residual 'conjugacy_embedding' is not finite at t=3.48\n"

    def test_reduced_matrix_past_the_float_range_exits_3_naming_its_time(self, tmp_path, capsys):
        # R = (dC/dt + C A) C+ = 1e309 on the whole grid; the zero-length window never marches it.
        config = dict(NILPOTENT_CONFIG, coeff=[["1e308", "0"], ["0", "1"]], chart=[["10", "0"]], window=[0.0, 0.0])
        assert _quiet_main(["reduce", "--config", _write(tmp_path, config)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "numerical failure: reduced matrix 'R' is not finite at t=0.0\n"

    def test_schema_golden(self, tmp_path):
        out = tmp_path / "reduce.json"
        main(["reduce", "--config", str(CONFIGS / "block_diagonal.json"), "--json", str(out)])
        paths = schema_paths(json.loads(out.read_text()))
        golden = (DATA / "reduce_schema.golden").read_text().splitlines()
        assert paths == golden


class TestFlow:
    def test_emits_json_and_csv(self, tmp_path):
        out = tmp_path / "flow.json"
        csv_dir = tmp_path / "curves"
        rc = main([
            "flow",
            "--config", str(CONFIGS / "block_diagonal.json"),
            "--json", str(out),
            "--csv", str(csv_dir),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["max"]["drift_mn"] <= 1e-7
        assert payload["max"]["drift_complement"] <= 1e-7
        lines = (csv_dir / "residuals.csv").read_text().splitlines()
        assert lines[0] == "t,drift_mn,drift_complement,conjugacy_residual"
        assert len(lines) == len(payload["t"]) + 1

    def test_deterministic_output(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            csv_dir = tmp_path / name
            main([
                "flow",
                "--config", str(CONFIGS / "upper_triangular.json"),
                "--json", str(out),
                "--csv", str(csv_dir),
            ])
            outs.append((out.read_bytes(), (csv_dir / "residuals.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_a_trajectory_past_the_square_range_gives_finite_json_and_csv(self, tmp_path, capsys):
        config = dict(NILPOTENT_CONFIG, coeff=[["200", "0"], ["0", "200"]], chart=[["cos(t)", "sin(t)"]],
                      comp_chart=[["-sin(t)", "cos(t)"]], window=[0.0, 2.0], step=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["flow", "--config", _write(tmp_path, config), "--csv", str(tmp_path / "csv")]) == 0
        out, err = capsys.readouterr()
        assert err == ""

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        payload = json.loads(out, parse_constant=refuse)
        assert 0.0 < payload["max"]["drift_mn"] < 1.0 and 0.0 < payload["max"]["drift_complement"] < 1.0
        rows = (tmp_path / "csv" / "residuals.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(x)) for row in rows for x in row.split(",")[:3])

    def test_integration_overflow_exits_3(self, tmp_path, capsys):
        config = dict(NILPOTENT_CONFIG, coeff=[["200", "0"], ["0", "0"]], window=[0.0, 5.0])
        assert main(["flow", "--config", _write(tmp_path, config)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numerical failure: integration overflow at step ")
        assert "Traceback" not in err

    def test_conjugacy_past_the_float_range_exits_3_naming_its_time(self, tmp_path, capsys):
        argv = ["flow", "--config", _write(tmp_path, CONJUGACY_OVERFLOW), "--csv", str(tmp_path / "csv")]
        assert _quiet_main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: residual 'conjugacy_embedding' is not finite at t=3.48\n"
        assert not (tmp_path / "csv").exists()

    @pytest.mark.parametrize("command", ["reduce", "flow"])
    def test_reduced_matrix_past_the_float_range_at_a_half_step_names_that_time(self, tmp_path, capsys, command):
        # C A = 1e308 (1 + 9t) leaves the float range first at the half step t = 0.09025 of h = 0.0095.
        config = dict(NILPOTENT_CONFIG, coeff=[["1e8", "0"], ["0", "1"]], chart=[["1e300*(1 + 9*t)", "0"]],
                      comp_chart=[["0", "1e300"]], window=[0.0, 0.095], step=0.01)
        assert _quiet_main([command, "--config", _write(tmp_path, config)]) == 3
        assert capsys.readouterr() == ("", "numerical failure: reduced matrix 'R' is not finite at t=0.09025\n")

    def test_reduced_matrix_past_the_float_range_exits_3_naming_its_time(self, tmp_path, capsys):
        # As for reduce: R = 1e309 on the whole grid, and the zero-length window samples it at t0.
        config = dict(NILPOTENT_CONFIG, coeff=[["1e308", "0"], ["0", "1"]], chart=[["10", "0"]], window=[0.0, 0.0])
        assert _quiet_main(["flow", "--config", _write(tmp_path, config)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "numerical failure: reduced matrix 'R' is not finite at t=0.0\n"

    def test_schema_golden(self, tmp_path):
        out = tmp_path / "flow.json"
        main(["flow", "--config", str(CONFIGS / "block_diagonal.json"), "--json", str(out)])
        paths = schema_paths(json.loads(out.read_text()))
        golden = (DATA / "flow_schema.golden").read_text().splitlines()
        assert paths == golden

    @pytest.mark.parametrize("name, invariant, window", [
        ("block_diagonal", True, [0.0, 0.5]),
        ("lower_triangular", False, [0.0, 0.5]),  # the conjugacy curve is not formed: a nan column
        ("block_diagonal", True, [0.25, 0.25]),  # a zero-length window: one row, the start alone
    ])
    def test_csv_bytes_are_what_csv_writer_writes(self, tmp_path, name, invariant, window):
        config = dict(json.loads((CONFIGS / f"{name}.json").read_text()), window=window, step=1e-2)
        out, csv_dir = tmp_path / "flow.json", tmp_path / "csv"
        assert main(["flow", "--config", _write(tmp_path, config), "--json", str(out), "--csv", str(csv_dir)]) == 0
        payload = json.loads(out.read_text())
        assert payload["main_invariant"] is invariant
        conjugacy = payload["conjugacy_residual"] or [math.nan] * len(payload["t"])
        assert len(payload["t"]) == (1 if window[0] == window[1] else 51)
        want = io.StringIO(newline="")
        writer = csv.writer(want, lineterminator="\r\n")
        writer.writerow(["t", "drift_mn", "drift_complement", "conjugacy_residual"])
        for row in zip(payload["t"], payload["drift_mn"], payload["drift_complement"], conjugacy):
            writer.writerow([repr(x) for x in row])
        got = (csv_dir / "residuals.csv").read_bytes()
        assert got == want.getvalue().encode()
        assert got.count(b"\r\n") == len(payload["t"]) + 1 and b"\n" not in got.replace(b"\r\n", b"")
        assert got.endswith(b",nan\r\n") is not invariant


# Floats the emitter must spell as json does, beside any other float.
_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7]), st.floats())
_STRINGS = st.one_of(st.text(), st.sampled_from(["", "t^2", "\u00e9", "\u2028", "\U0001f600", "\x00\"\\"]))
_JSON_VALUES = st.recursive(
    st.one_of(_FLOATS, st.integers(), st.booleans(), st.none(), _STRINGS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5), st.dictionaries(_STRINGS, inner, max_size=5), st.lists(_FLOATS, max_size=5),
        st.lists(_STRINGS, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES)
@example(value={"t": [0.0, -0.0, 5e-324, 1e16], "nan": [math.nan, math.inf, -math.inf], "": [], "e": {}})
@example(value=[[1.5, 2], [True, 1.0], [None, "\u00e9"], [[]], [{}], 1e16, -math.inf])
def test_the_emitter_writes_what_json_dumps_writes(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


# Each stack shape the reports write: a curve or grid (N,), a stack of 1 x 1 or n x n matrices, and size 0.
_EDGE_FLOATS = st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf])


@st.composite
def _stacks(draw):
    points, n = draw(st.integers(0, 6)), draw(st.integers(0, 3))
    shape = draw(st.sampled_from([(points,), (points, 1, 1), (points, n, n)]))
    return draw(arrays(np.float64, shape, elements=st.one_of(_EDGE_FLOATS, st.floats())))


@settings(max_examples=200, deadline=None)
@given(stack=_stacks())
@example(stack=np.array([-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf]))
@example(stack=np.zeros((0, 2, 2)))
@example(stack=np.zeros((2, 0, 0)))
def test_a_stack_is_written_as_json_dumps_writes_its_nested_lists(stack):
    nested = stack.tolist()
    assert cli._json(stack) == json.dumps(nested, indent=2, sort_keys=True)
    assert cli._json({"reduced": stack}) == json.dumps({"reduced": nested}, indent=2, sort_keys=True)
    flat = stack.ravel().tolist()
    assert cli._json(cli._Reprs(map(float.__repr__, flat))) == json.dumps(flat, indent=2)


class TestOneRenderingPerNumber:
    """A flow report's JSON numbers and its CSV cells are the same float reprs, rendered once."""

    def _flow(self, tmp_path, monkeypatch, config, result=None):
        """The FlowResult that ``flow`` wrote (``result`` if given, else run_flow's), its JSON text and CSV bytes."""
        run, results = cli.run_flow, []

        def capture(spec, **kwargs):
            results.append(run(spec, **kwargs) if result is None else result)
            return results[0]

        monkeypatch.setattr(cli, "run_flow", capture)
        out, csv_dir = tmp_path / "flow.json", tmp_path / "csv"
        assert main(["flow", "--config", _write(tmp_path, config), "--json", str(out), "--csv", str(csv_dir)]) == 0
        return results[0], out.read_text(), (csv_dir / "residuals.csv").read_bytes()

    def test_csv_rows_are_the_cli_csv_rows_and_the_json_number_texts(self, tmp_path, monkeypatch):
        result, text, got = self._flow(tmp_path, monkeypatch, dict(NILPOTENT_CONFIG, window=[0.0, 0.5], step=1e-2))
        header, *rows = csv.reader(io.StringIO(got.decode(), newline=""))
        assert rows == [list(row) for row in result.csv_rows()]
        payload = json.loads(text, parse_float=str)
        assert [list(row) for row in zip(*(payload[key] or ["nan"] * len(rows) for key in header))] == rows

    def test_non_finite_values_are_json_constants_and_csv_reprs(self, tmp_path, monkeypatch):
        ts = np.array([0.0, 0.5, 1.0])
        result = FlowResult(ts=ts, drift_mn=np.array([math.nan, math.inf, -math.inf]), drift_complement=ts / 8,
                            conjugacy_residuals=None, main_invariant=False, seed=1, h=0.5, trials=1,
                            window=(0.0, 1.0))
        _, text, got = self._flow(tmp_path, monkeypatch, NILPOTENT_CONFIG, result)
        assert '"drift_mn": [\n    NaN,\n    Infinity,\n    -Infinity\n  ]' in text
        assert got.split(b"\r\n")[1:4] == [b"0.0,nan,0.0,nan", b"0.5,inf,0.0625,nan", b"1.0,-inf,0.125,nan"]


def test_a_standalone_reduce_leaves_numpy_random_unimported(monkeypatch):
    # Run as its own process: the conjugacy march launches no state, so it draws no coefficients.
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).resolve().parents[1]))
    script = (
        "import contextlib, io, sys\n"
        "from invman import cli\n"
        f"argv = ['reduce', '--config', {str(CONFIGS / 'block_diagonal.json')!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = cli.main(argv)\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 False\n", "")


# The digest and size of every `generate` output of the benchmark's pool (see perfbench/pin_digests.py).
PINNED_DIGESTS = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "generate_digests.json").read_text())


class TestGenerate:
    @pytest.mark.parametrize("kind, expected", [
        ("block_diagonal", {"joint": True, "mn": True, "complement": True}),
        ("upper_triangular", {"joint": False, "mn": True, "complement": False}),
        ("lower_triangular", {"joint": False, "mn": False, "complement": True}),
        ("full", {"joint": False, "mn": False, "complement": False}),
    ])
    def test_round_trip_reproduces_embedded_verdicts(self, tmp_path, kind, expected):
        out = tmp_path / "gen.json"
        assert main(["generate", "--kind", kind, "--seed", "11", "--out", str(out)]) == 0
        config = json.loads(out.read_text())
        assert config["expected_verdicts"] == expected

        report = tmp_path / "report.json"
        assert main(["check", "--config", str(out), "--json", str(report)]) == 0
        verdicts = json.loads(report.read_text())["verdicts"]
        assert verdicts == {
            "joint_invariant": expected["joint"],
            "main_invariant": expected["mn"],
            "complement_kernel_condition": expected["complement"],
        }

    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--kind", "full", "--seed", "7", "--out", str(a)])
        main(["generate", "--kind", "full", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("options, message", [
        (["--m", "3", "--n", "5"], "need 0 < n < m, got n=5, m=3"),
        (["--m", "0"], "need 0 < n < m, got n=2, m=0"),
        (["--m", "-3"], "need 0 < n < m, got n=2, m=-3"),
        (["--m", "578"], "t_grid takes 201 points x 334084 entries, "
                         f"more than MAX_SAMPLED_ENTRIES = {MAX_SAMPLED_ENTRIES}"),
        (["--m", str(10**9)], f"t_grid takes 201 points x {10**18} entries, "
                              f"more than MAX_SAMPLED_ENTRIES = {MAX_SAMPLED_ENTRIES}"),
        (["--seed", "-1"], "random_scenario: seed must be >= 0, got -1"),
    ], ids=["n_past_m", "m_zero", "m_negative", "m_past_bound", "m_huge", "seed_negative"])
    def test_bad_arguments_exit_2_before_building(self, tmp_path, capsys, monkeypatch, options, message):
        # The library's refusals and texts: random_scenario checks its arguments before it builds a frame.
        monkeypatch.setattr(scenario, "random_frame", must_not_build_frame)
        out = tmp_path / "gen.json"
        assert main(["generate", "--kind", "full", "--out", str(out), *options]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not out.exists()

    def test_largest_m_within_the_sampling_bound_is_built(self, tmp_path, monkeypatch):
        monkeypatch.setattr(scenario, "random_frame", must_not_build_frame)
        with pytest.raises(FrameBuilt, match="m=577"):
            main(["generate", "--kind", "full", "--m", "577", "--out", str(tmp_path / "gen.json")])

    @pytest.mark.parametrize("pool", sorted({key.rsplit("/", 1)[0] for key in PINNED_DIGESTS}))
    def test_pool_is_byte_identical_to_the_pinned_digests(self, tmp_path, pool):
        kind, m = pool.split("/")
        out = tmp_path / "gen.json"
        seeds = sorted(int(key.rsplit("/", 1)[1]) for key in PINNED_DIGESTS if key.startswith(pool + "/"))
        assert len(seeds) == 30
        for seed in seeds:
            argv = ["generate", "--kind", kind, "--seed", str(seed), "--m", m, "--n", str(int(m) // 2),
                    "--out", str(out)]
            assert main(argv) == 0
            data = out.read_bytes()
            want = PINNED_DIGESTS[f"{pool}/{seed}"]
            assert (hashlib.sha256(data).hexdigest(), len(data)) == (want["sha256"], want["bytes"]), seed

    def test_unwritable_path_exits_2(self, tmp_path):
        rc = main(["generate", "--kind", "full", "--seed", "1", "--out", str(tmp_path / "no" / "dir.json")])
        assert rc == 2

    def test_shipped_configs_are_regenerable(self):
        # configs/ was produced by this command; seeds are recorded inside
        for path in sorted(CONFIGS.glob("*.json")):
            config = json.loads(path.read_text())
            meta = config.get("metadata", {})
            if "generator_seed" not in meta:
                continue
            import tempfile

            with tempfile.NamedTemporaryFile(suffix=".json") as handle:
                rc = main([
                    "generate",
                    "--kind", meta["kind"],
                    "--seed", str(meta["generator_seed"]),
                    "--out", handle.name,
                ])
                assert rc == 0
                assert json.loads(Path(handle.name).read_text()) == config


@pytest.mark.parametrize("level, logged", [("info", True), (None, False)])
def test_each_main_logs_to_its_own_stderr_at_its_own_level(tmp_path, monkeypatch, level, logged):
    if level is None:
        monkeypatch.delenv("INVMAN_LOG", raising=False)
    else:
        monkeypatch.setenv("INVMAN_LOG", level)
    config = _write(tmp_path, NILPOTENT_CONFIG)
    errs = []
    for name in ("o0", "o1"):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(["flow", "--config", config, "--csv", str(tmp_path / name)]) == 0
        errs.append(err.getvalue())
    assert errs == [f"INFO:invman:wrote {tmp_path / name / 'residuals.csv'}\n" if logged else ""
                    for name in ("o0", "o1")]


@pytest.mark.parametrize("level, logged", [
    ("INFO", True), ("Debug", True), ("warning", False), ("NOTSET", False), ("bogus", False),
])
def test_the_wrote_line_follows_invman_log_in_any_letter_case(tmp_path, monkeypatch, capsys, level, logged):
    monkeypatch.setenv("INVMAN_LOG", level)
    assert main(["flow", "--config", _write(tmp_path, NILPOTENT_CONFIG), "--csv", str(tmp_path / "o")]) == 0
    target = tmp_path / "o" / "residuals.csv"
    assert capsys.readouterr().err == (f"INFO:invman:wrote {target}\n" if logged else "")


def test_main_leaves_the_process_logging_state_alone(tmp_path, monkeypatch):
    monkeypatch.setenv("INVMAN_LOG", "debug")
    logger = logging.getLogger("invman")
    before = (logger.level, list(logger.handlers), logger.propagate)
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["flow", "--config", _write(tmp_path, NILPOTENT_CONFIG), "--csv", str(tmp_path / "o")]) == 0
    assert (logger.level, list(logger.handlers), logger.propagate) == before


def test_an_invman_log_other_than_info_or_debug_keeps_stderr_empty_from_a_shell(monkeypatch):
    # Only info and debug print anything; any other value is ignored.  Run as its own process, as from a shell.
    monkeypatch.setenv("INVMAN_LOG", "BASIC_FORMAT")
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "invman.cli", "check", "--config", str(CONFIGS / "full.json")],
        capture_output=True,
        text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert "FAIL" in done.stdout


@pytest.mark.parametrize("command, option, target", [
    ("check", "--json", "missing/report.json"),
    ("reduce", "--json", "missing/report.json"),
    ("flow", "--json", "missing/report.json"),
    ("flow", "--csv", "a_file"),
    ("generate", "--out", "missing/gen.json"),
])
def test_unwritable_output_exits_2_naming_the_path(tmp_path, capsys, command, option, target):
    (tmp_path / "a_file").write_text("")
    path = str(tmp_path / target)
    if command == "generate":
        argv = ["generate", "--kind", "full", "--seed", "1"]
    else:
        argv = [command, "--config", _write(tmp_path, NILPOTENT_CONFIG)]
    assert main([*argv, option, path]) == 2
    assert capsys.readouterr().err.startswith(f"{command}: cannot write {path!r}: [Errno ")


_MUTANTS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.just(1e308),
    st.text(max_size=12),
    st.sampled_from([
        "sin(", "t^t", "1/(t - 1)", "t^-1", "exp(exp(t*100))", "1e400", "1e200^2",
        "(" * 300 + "t" + ")" * 300, "-" * 3000 + "t", "+".join(["t"] * 3000),
    ]),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_shipped_config_exits_with_a_code_not_a_traceback(data):
    path = data.draw(st.sampled_from(sorted(CONFIGS.glob("*.json"))))
    config = json.loads(path.read_text())
    value = data.draw(_MUTANTS)
    if data.draw(st.booleans()):
        config[data.draw(st.sampled_from(sorted(config)))] = value
    else:
        rows = config[data.draw(st.sampled_from(["coeff", "chart", "comp_chart"]))]
        row = rows[data.draw(st.integers(0, len(rows) - 1))]
        row[data.draw(st.integers(0, len(row) - 1))] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "config.json"
        target.write_text(json.dumps(config))
        # Warnings are recorded, as the command prints them, not raised: an entry
        # such as 1e308 overflows to inf, and numpy warns about it.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True):
            warnings.simplefilter("always")
            rc = main(["check", "--config", str(target)])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()


def test_a_zero_padded_exponent_past_the_int_digit_limit_checks(tmp_path, capsys):
    config = json.loads((CONFIGS / "nilpotent_shear.json").read_text())
    config["coeff"][0][1] = "t^" + "0" * 5000 + "3"
    assert main(["check", "--config", _write(tmp_path, config)]) == 0
    assert capsys.readouterr().err == ""


def _error_instance(cls):
    """An instance of an invman error class, built with the arguments its constructor takes."""
    arguments = {
        errors.ParseError: ("bad token", 3),
        errors.IntegrationOverflowError: (4, 0.5),
        errors.PreconditionError: ("not invariant", 0.25),
    }
    return cls(*arguments.get(cls, ("went wrong",)))


# The exit code and stderr prefix of each concrete error class, as main() reports it.
_REPORTED_AS = {
    "ConfigError": (2, "config error: "),
    "ParseError": (2, "config error: "),
    "PreconditionError": (1, "precondition failed: "),
    "EvaluationError": (3, "numerical failure: "),
    "SingularMatrixError": (3, "numerical failure: "),
    "RankDeficiencyError": (3, "numerical failure: "),
    "FrameError": (3, "numerical failure: "),
    "ScenarioError": (3, "numerical failure: "),
    "IntegrationOverflowError": (3, "numerical failure: "),
    "ShapeError": (3, "error: "),
}


def _raising_main(monkeypatch, exc):
    def load_config(path):
        raise exc

    monkeypatch.setattr(cli, "load_config", load_config)
    return main(["check", "--config", "unused.json"])


def test_every_error_class_exits_with_its_kind_code_and_prefix(monkeypatch, capsys):
    classes = [
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, errors.InvmanError) and not value.__subclasses__()
    ]
    assert sorted(cls.__name__ for cls in classes) == sorted(_REPORTED_AS)
    for cls in classes:
        exc = _error_instance(cls)
        code, prefix = _REPORTED_AS[cls.__name__]
        assert _raising_main(monkeypatch, exc) == code, cls.__name__
        assert capsys.readouterr() == ("", f"{prefix}{exc}\n"), cls.__name__


class _ContradictedVerdict(errors.NumericalError):
    """A numerical failure kind that main() has never heard of by name."""


def test_a_new_numerical_error_class_is_a_numerical_failure(monkeypatch, capsys):
    assert _raising_main(monkeypatch, _ContradictedVerdict("the flow contradicts the verdict")) == 3
    assert capsys.readouterr() == ("", "numerical failure: the flow contradicts the verdict\n")


def test_main_builds_one_parser_per_process(monkeypatch):
    # Run as its own process, so that no earlier main() call has built the parser yet.
    monkeypatch.setenv("PYTHONPATH", str(Path(cli.__file__).resolve().parents[1]))
    script = (
        "import contextlib, io\n"
        "from invman import cli\n"
        "built = []\n"
        "build = cli.build_parser\n"
        "cli.build_parser = lambda: built.append(1) or build()\n"
        f"argv = ['check', '--config', {str(CONFIGS / 'full.json')!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for _ in range(3)]\n"
        "print(codes, len(built))\n"
    )
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[0, 0, 0] 1\n", "")


def test_build_parser_returns_a_new_parser_each_call():
    assert cli.build_parser() is not cli.build_parser()


class TestNoStateCarriesBetweenCalls:
    def test_assert_is_not_kept(self, capsys):
        config = str(CONFIGS / "full.json")
        assert main(["check", "--config", config, "--assert", "mn"]) == 1
        assert main(["check", "--config", config]) == 0

    def test_csv_is_not_kept(self, tmp_path, capsys):
        config = _write(tmp_path, NILPOTENT_CONFIG)
        assert main(["flow", "--config", config, "--csv", str(tmp_path / "first")]) == 0
        assert (tmp_path / "first" / "residuals.csv").is_file()
        before = sorted(tmp_path.rglob("*"))
        assert main(["flow", "--config", config]) == 0
        assert sorted(tmp_path.rglob("*")) == before

    def test_an_argparse_error_then_a_good_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["check"])
        assert exited.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert main(["check", "--config", _write(tmp_path, NILPOTENT_CONFIG)]) == 0

    def test_version_then_a_good_call(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--version"])
        assert exited.value.code == 0
        assert capsys.readouterr().out.startswith("invman ")
        assert main(["check", "--config", _write(tmp_path, NILPOTENT_CONFIG)]) == 0

    def test_generate_then_check_run_their_own_handlers(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        assert main(["generate", "--kind", "block_diagonal", "--seed", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(["check", "--config", str(out), "--assert", "joint"]) == 0
        assert capsys.readouterr().out.startswith("grid: ")


class TestOneVerdictTable:
    """Every verdict the CLI reads or writes is a row of ``invariance._VERDICTS``: key, report field, curve."""

    KEYS = [key for key, _, _, _ in invariance._VERDICTS]
    FIELDS = [field for _, field, _, _ in invariance._VERDICTS]

    def test_the_rows_follow_expected_verdicts_and_name_report_fields_and_curves(self):
        assert len(invariance._VERDICTS) == len(scenario.ExpectedVerdicts._fields)
        report_fields = {f.name for f in dataclasses.fields(invariance.InvarianceReport)}
        for _, field, curve, _ in invariance._VERDICTS:
            assert field in report_fields and curve in invariance._CURVES

    def test_the_assert_choices_are_the_keys(self):
        (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (assertion,) = [a for a in subparsers.choices["check"]._actions if a.dest == "assertion"]
        assert assertion.choices == sorted(self.KEYS)

    def test_to_config_writes_the_keys_in_verdict_order(self):
        s = scenario.random_scenario(scenario.Structure.UPPER_TRIANGULAR, seed=4)
        expected = scenario.to_config(s)["expected_verdicts"]
        assert list(expected) == self.KEYS
        assert list(expected.values()) == list(scenario.expected_verdicts(s))

    def test_the_report_writes_the_fields(self):
        report = verdicts(load_config(str(CONFIGS / "upper_triangular.json"))[0])
        assert list(report.to_dict()["verdicts"]) == self.FIELDS

    def test_check_reads_each_field_and_the_max_of_its_curve(self, monkeypatch, capsys):
        read = []

        class Recording:
            def __init__(self, report):
                self._report = report

            def __getattr__(self, name):
                read.append(name)
                return getattr(self._report, name)

        monkeypatch.setattr(cli, "verdicts", lambda spec, tol: Recording(verdicts(spec, tol)))
        assert main(["check", "--config", str(CONFIGS / "upper_triangular.json")]) == 0
        lines = [[f"max_{curve}", field] for _, field, curve, _ in invariance._VERDICTS]
        assert read == ["to_dict", *sum(lines, [])]  # the payload, then each line's max and verdict
        capsys.readouterr()

    @pytest.mark.parametrize("key, code", [("joint", 1), ("mn", 0), ("complement", 1)])
    def test_each_assertion_exits_by_its_own_verdict(self, key, code, capsys):
        assert main(["check", "--config", str(CONFIGS / "upper_triangular.json"), "--assert", key]) == code
        lines = capsys.readouterr().out.splitlines()
        assert lines[1 + self.KEYS.index(key)].endswith("PASS" if code == 0 else "FAIL")


class TestOneFlowCurveTable:
    def _result(self, conjugacy):
        ts = np.array([0.0, 0.5, 1.0])
        return FlowResult(ts=ts, drift_mn=ts / 4, drift_complement=ts / 8, conjugacy_residuals=conjugacy,
                          main_invariant=conjugacy is not None, seed=1, h=0.5, trials=1, window=(0.0, 1.0))

    def test_a_missing_conjugacy_curve_is_null_in_json_and_nan_in_csv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_flow", lambda spec, **kwargs: self._result(None))
        out = tmp_path / "flow.json"
        assert main(["flow", "--config", str(CONFIGS / "full.json"), "--json", str(out), "--csv", str(tmp_path)]) == 0
        payload = json.loads(out.read_text())
        assert payload["conjugacy_residual"] is None and payload["max"]["conjugacy_residual"] is None
        assert payload["max"]["drift_mn"] == 0.25 and payload["drift_complement"] == [0.0, 0.0625, 0.125]
        rows = list(csv.reader((tmp_path / "residuals.csv").read_text().splitlines()))
        assert rows[0] == ["t", *flow._FLOW_CURVES]
        assert [row[-1] for row in rows[1:]] == ["nan"] * 3

    def test_every_curve_is_a_json_list_with_its_max_and_a_csv_column(self):
        result = self._result(np.array([1e-9, 2e-9, 3e-9]))
        payload, rows = result.to_dict(), list(result.csv_rows())
        assert set(payload["max"]) == set(flow._FLOW_CURVES)
        for column, (key, field) in enumerate(flow._FLOW_CURVES.items(), start=1):
            curve = getattr(result, field)
            assert payload[key] == curve.tolist() and payload["max"][key] == float(np.max(curve))
            assert [float(row[column]) for row in rows] == curve.tolist()
