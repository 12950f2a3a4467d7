import contextlib
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
from hypothesis import given, settings
from hypothesis import strategies as st

from invman import cli
from invman.cli import MAX_SAMPLED_ENTRIES, load_config, main
from invman.invariance import reduced_matrix

from helpers import schema_paths

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
        assert err.startswith("config error:") and str(MAX_SAMPLED_ENTRIES) in err

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


class _Built(Exception):
    pass


def _must_not_build(kind, m, n, seed):
    raise _Built(f"random_scenario called with m={m}, n={n}")


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
        (["--m", "3", "--n", "5"], "generate needs 0 < n < m, got m=3, n=5"),
        (["--m", "0"], "generate needs 0 < n < m, got m=0, n=2"),
        (["--m", "-3"], "generate needs 0 < n < m, got m=-3, n=2"),
        (["--m", "578"], "generate --m 578 would sample 201 points of 578x578 matrices, "
                         f"more than {MAX_SAMPLED_ENTRIES} entries"),
        (["--m", str(10**9)], f"generate --m {10**9} would sample 201 points of {10**9}x{10**9} matrices, "
                              f"more than {MAX_SAMPLED_ENTRIES} entries"),
        (["--seed", "-1"], "generate needs a seed >= 0, got -1"),
    ], ids=["n_past_m", "m_zero", "m_negative", "m_past_bound", "m_huge", "seed_negative"])
    def test_bad_arguments_exit_2_before_building(self, tmp_path, capsys, monkeypatch, options, message):
        monkeypatch.setattr(cli, "random_scenario", _must_not_build)
        out = tmp_path / "gen.json"
        assert main(["generate", "--kind", "full", "--out", str(out), *options]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")
        assert not out.exists()

    def test_largest_m_within_the_sampling_bound_is_built(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "random_scenario", _must_not_build)
        with pytest.raises(_Built, match="m=577"):
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


def test_log_level_naming_no_level_falls_back_to_warning(monkeypatch):
    # logging.BASIC_FORMAT is a string, not a level.  Run as its own process, as from a shell.
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
