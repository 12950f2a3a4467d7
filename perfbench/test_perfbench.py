"""Checks of the benchmark's own machinery.

Run from the root of the repository:

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import invman.cli
import invman.flow
import run
import workloads
from tracer import TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent


def _traced_summary(tracer, fn):
    tracer.active = True
    try:
        fn()
    finally:
        tracer.active = False
    return tracer.summary()


def test_tracer_wraps_every_binding_and_nests_spans():
    tracer = Tracer()
    tracer.install(TARGETS + [("gone", "invman.flow", "no_such_function", None, None)])
    assert tracer.absent == ["invman.flow.no_such_function"]
    for module, name in [
        (invman.flow, "frame_samples"),
        (invman.flow, "verdicts"),
        (invman.cli, "verdicts"),
        (invman.cli, "reduced_matrix"),
        (invman.cli, "run_flow"),
        (invman.cli, "load_config"),
    ]:
        assert hasattr(getattr(module, name), "__wrapped__"), f"{module.__name__}.{name}"

    config = str(ROOT / "configs" / "nilpotent_shear.json")
    summary = _traced_summary(tracer, lambda: invman.cli.load_config(config))
    spans = summary["spans"]
    assert spans["cli.load_config"]["calls"] == 1
    assert spans["matexpr.build"]["calls"] == 3  # coeff, chart, comp_chart
    outer = spans["cli.load_config"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - spans["matexpr.build"]["total_s"])
    for entry in spans.values():
        assert 0.0 <= entry["self_s"] <= entry["total_s"]


def _worker(plan: Path, result: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(plan), str(result), "traced"],
        cwd=ROOT, env=env, check=True, timeout=120,
    )
    return json.loads(result.read_text())


def test_counts_repeat_exactly_and_outputs_pass_the_gate(tmp_path):
    config = str(ROOT / "configs" / "upper_triangular.json")
    flow_config = dict(json.loads(Path(config).read_text()), window=[0.0, 0.05])
    flow_path = tmp_path / "flow.json"
    flow_path.write_text(json.dumps(flow_config))
    jobs = [
        workloads._cli_job("check", config, tmp_path / "check"),
        workloads._cli_job("reduce", str(flow_path), tmp_path / "reduce"),
        workloads._cli_job("flow", str(flow_path), tmp_path / "flow", csv=True),
        {"cmd": "pointwise", "config": config, "ts": [0.5, 1.5, 2.5]},
    ]
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(jobs))
    first = _worker(plan, tmp_path / "first.json")
    second = _worker(plan, tmp_path / "second.json")

    assert all(r["ok"] for r in first["records"]), [r["why"] for r in first["records"]]
    assert first["trace"]["counters"] == second["trace"]["counters"]
    assert first["trace"]["counters"]["invariance.frame_points"] > 0
    calls = {k: v["calls"] for k, v in first["trace"]["spans"].items()}
    assert calls == {k: v["calls"] for k, v in second["trace"]["spans"].items()}
    assert [r["bytes"] for r in first["records"]] == [r["bytes"] for r in second["records"]]


def test_moore_penrose_configs_drop_the_complementary_chart():
    config = workloads.moore_penrose_config("full", 3, seed=7)
    assert "comp_chart" not in config
    assert config["expected_verdicts"] == {"joint": False, "mn": False, "complement": False}


def test_quantile_is_the_harrell_davis_estimate():
    assert run._quantile(range(1, 102), 0.5) == pytest.approx(51.0)
    assert run._quantile([5.0], 0.9) == pytest.approx(5.0)
    # scipy.stats.mstats.hdquantiles([1, 2], prob=[0.9]) reads 1.96561.
    assert run._quantile([1.0, 2.0], 0.9) == pytest.approx(1.96561, abs=1e-3)


def test_pool_seeds_are_distinct_within_a_tier():
    pool = json.loads(workloads.DIGESTS.read_text())
    rng = random.Random(0)
    for _ in range(50):
        seeds = workloads.pool_seeds(rng, pool, "full", 3, [workloads.SMALL] * 3 + [workloads.LARGE] * 3)
        assert len(set(seeds)) == 6
