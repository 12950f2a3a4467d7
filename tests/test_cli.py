import contextlib
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_defect_norm_past_the_float_range_is_a_numerical_failure(self, tmp_path, capsys):
        config = dict(NILPOTENT_CONFIG, coeff=[["0", "1.7e308"], ["1.7e308", "0"]])
        assert main(["check", "--config", _write(tmp_path, config)]) == 3
        assert capsys.readouterr() == ("", "numerical failure: residual 'defect' is not finite at t=0.0\n")

    def test_missing_key_exits_2(self, tmp_path, capsys):
        rc = main(["check", "--config", _write(tmp_path, {"m": 2, "n": 1})])
        assert rc == 2
        assert "coeff" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["check", "--config", str(path)]) == 2

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

    def test_integration_overflow_exits_3(self, tmp_path, capsys):
        config = dict(NILPOTENT_CONFIG, coeff=[["200", "0"], ["0", "0"]], window=[0.0, 5.0])
        assert main(["flow", "--config", _write(tmp_path, config)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numerical failure: integration overflow at step ")
        assert "Traceback" not in err

    def test_schema_golden(self, tmp_path):
        out = tmp_path / "flow.json"
        main(["flow", "--config", str(CONFIGS / "block_diagonal.json"), "--json", str(out)])
        paths = schema_paths(json.loads(out.read_text()))
        golden = (DATA / "flow_schema.golden").read_text().splitlines()
        assert paths == golden


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
