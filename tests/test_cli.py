import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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
