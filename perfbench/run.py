"""invman benchmark: end-to-end latency and outside-in per-layer spans.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

The inputs come from --seed.  Each pass runs the workload once in a fresh
interpreter (worker.py), one pass at a time; passes repeat for about S
seconds, and each invocation's duration is its median over the passes.
However slow the program, a run ends within RUN_BUDGET_S seconds: it takes
fewer passes when they would not fit, and a pass still running at the end of
the budget is killed and fails the run.
With --trace 0 every pass is untraced and the end-to-end metrics are
reported; timed ones are in units of a reference loop timed right after
each invocation (workloads.reference_s).  With --trace 1
passes alternate untraced/traced; the per-layer metrics come from the
traced passes and ``trace.overhead_s`` is the traced minus the untraced
median pass time.  The last line of stdout is a JSON object with the keys
correct, attempted, failed and metrics.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# Single-threaded BLAS in this process and in every worker it starts.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
MIN_PASSES = 5      # untraced passes per run, at least, if they fit in RUN_BUDGET_S
TRACED_PASSES = 2   # with --trace 1: untraced and traced passes, at least
# A run of one workload ends within RUN_BUDGET_S seconds however slow the
# program gets: it takes fewer passes when they would not fit, and a pass that
# runs past the budget is killed and fails the run.
RUN_BUDGET_S = 150.0
# setup_s is each pass's import time divided by reference_s() timed right
# after it in the same interpreter, times REFERENCE_NOMINAL_S: about what
# reference_s() takes on the 2-vCPU VM where the bounds were set.  It reads as
# seconds of import there, and the machine's drift cancels (see NOTES.md).
REFERENCE_NOMINAL_S = 3.0e-3

# name -> unit; every one is reported on every workload.  Unit "ref" is one
# run of workloads.reference_s(), timed in the same passes (see NOTES.md).
END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "call_p50_ref": "ref",
    "call_p90_ref": "ref",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# per-layer metric -> (unit, what it reads from a traced pass)
PER_LAYER = {
    "matexpr.build_s": ("s", ("total", "matexpr.build")),
    "matexpr.build_calls": ("count", ("calls", "matexpr.build")),
    "matexpr.eval_grid_s": ("s", ("total", "matexpr.eval_grid")),
    "matexpr.eval_grid_calls": ("count", ("calls", "matexpr.eval_grid")),
    "matexpr.eval_grid_entries": ("count", ("counter", "matexpr.eval_grid_entries")),
    "matexpr.eval_s": ("s", ("total", "matexpr.eval")),
    "matexpr.eval_calls": ("count", ("calls", "matexpr.eval")),
    "matexpr.to_strings_s": ("s", ("total", "matexpr.to_strings")),
    "scenario.random_scenario_s": ("s", ("total", "scenario.random_scenario")),
    "scenario.to_config_s": ("s", ("total", "scenario.to_config")),
    "linalg.invert_calls": ("count", ("calls", "linalg.invert")),
    "linalg.invert_s": ("s", ("total", "linalg.invert")),
    "linalg.rank_calls": ("count", ("calls", "linalg.rank")),
    "linalg.rank_s": ("s", ("total", "linalg.rank")),
    "linalg.pinv_calls": ("count", ("calls", "linalg.pinv")),
    "linalg.pinv_self_s": ("s", ("self", "linalg.pinv")),
    "invariance.frame_samples_calls": ("count", ("calls", "invariance.frame_samples")),
    "invariance.frame_points": ("count", ("counter", "invariance.frame_points")),
    "invariance.frame_samples_self_s": ("s", ("self", "invariance.frame_samples")),
    "invariance.verdicts_calls": ("count", ("calls", "invariance.verdicts")),
    "invariance.verdicts_self_s": ("s", ("self", "invariance.verdicts")),
    "invariance.reduced_matrix_calls": ("count", ("calls", "invariance.reduced_matrix")),
    "invariance.pointwise_s": ("s", ("total", "invariance.pointwise", "invariance.reduced_matrix")),
    "manifold.build_frame_calls": ("count", ("calls", "manifold.build_frame")),
    "manifold.build_frame_s": ("s", ("total", "manifold.build_frame")),
    "manifold.identity_checks_s": ("s", ("total", "manifold.identity_checks")),
    "flow.drift_self_s": ("s", ("self", "flow.drift")),
    "flow.conjugacy_self_s": ("s", ("self", "flow.conjugacy")),
    "flow.integrate_self_s": ("s", ("self", "flow.integrate")),
    "flow.steps": ("count", ("counter", "flow.steps")),
    "cli.load_config_s": ("s", ("total", "cli.load_config")),
    "cli.self_s": ("s", ("self", "cli.main")),
    "cli.output_bytes": ("bytes", ("bytes",)),
    "cmd.check_s": ("s", ("command", "check")),
    "cmd.reduce_s": ("s", ("command", "reduce")),
    "cmd.flow_s": ("s", ("command", "flow")),
    "cmd.generate_s": ("s", ("command", "generate")),
    "trace.overhead_s": ("s", ("overhead",)),
}


def _pass_wall(records) -> float:
    return sum(r["seconds"] for r in records)


def _typical_records(passes) -> list[dict]:
    """One record per invocation: its median duration over the passes, in seconds and in ref.

    ``ref`` divides each duration by the reference loop timed right after
    that invocation, before the median is taken.  The machine's speed moves
    by up to 1.7x from one pass to the next, and this cancels it where one
    reference time for the whole run does not (see NOTES.md).  A median per
    invocation drops a slow moment inside one pass.  The fastest repetition
    is no steadier: short bursts of speed come and go, and a minimum follows
    them.
    """
    seconds: dict[str, list[float]] = {}
    refs: dict[str, list[float]] = {}
    cmds: dict[str, str] = {}
    for p in passes:
        for r in p["records"]:
            seconds.setdefault(r["key"], []).append(r["seconds"])
            refs.setdefault(r["key"], []).append(r["seconds"] / r["ref_s"])
            cmds[r["key"]] = r["cmd"]
    return [
        {"cmd": cmds[k], "seconds": statistics.median(seconds[k]), "ref": statistics.median(refs[k])}
        for k in seconds
    ]


def _quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all order statistics.

    A workload has as few as 18 invocations, whose durations cluster by
    command and size; a single order statistic jumps between clusters from
    one seed to the next, where this estimate moves smoothly (see NOTES.md).
    """
    import numpy as np  # after the BLAS thread pin above

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cells = 100_000
    u = (np.arange(cells) + 0.5) / cells
    log_pdf = (a - 1.0) * np.log(u) + (b - 1.0) * np.log1p(-u)
    cdf = np.concatenate([[0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, cells + 1), cdf))
    return float(weights @ x)


def _layer_value(source, traced: dict) -> float:
    kind, *names = source
    spans = traced["trace"]["spans"]
    if kind == "calls":
        return sum(spans.get(n, {}).get("calls", 0) for n in names)
    if kind == "total":
        return sum(spans.get(n, {}).get("total_s", 0.0) for n in names)
    if kind == "self":
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)
    if kind == "counter":
        return traced["trace"]["counters"].get(names[0], 0)
    if kind == "bytes":
        return sum(r["bytes"] for r in traced["records"])
    raise ValueError(kind)


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in (root / "src" / "invman").rglob("*.py"))


class Worker:
    """Starts worker.py on one plan and reads back its result."""

    def __init__(self, root: Path, plan: Path):
        self.root, self.plan = root, plan
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(HERE)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def run(self, mode: str, timeout: float) -> dict:
        """Raises subprocess.TimeoutExpired, after killing the worker, past ``timeout`` seconds."""
        result = self.plan.with_name(f"result-{mode}.json")
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(self.plan), str(result), mode],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(result.read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    import workloads

    deadline = perf_counter() + RUN_BUDGET_S
    workdir = root / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plain, traced, timed_out = [], [], None
    try:
        jobs = workloads.prepare(workload, seed, root, workdir)
        plan = workdir / "plan.json"
        plan.write_text(json.dumps(jobs))
        worker = Worker(root, plan)
        started = perf_counter()
        while True:
            mode = "traced" if trace and len(plain) > len(traced) else "plain"
            try:
                (traced if mode == "traced" else plain).append(worker.run(mode, deadline - perf_counter()))
            except subprocess.TimeoutExpired:
                timed_out = f"a {mode} pass ran past the run's {RUN_BUDGET_S:g}-s budget and was killed"
                break
            done = len(plain) + len(traced)
            now = perf_counter()
            next_end = now + (now - started) / done
            enough = min(len(plain), len(traced)) >= TRACED_PASSES if trace else len(plain) >= MIN_PASSES
            if (enough and next_end - started > seconds) or next_end > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in plain + traced for r in p["records"]]
    failures = [r["why"] for r in records if not r["ok"]]
    # ok_share counts invocations, not records: a failure in any pass fails
    # the invocation.  A killed pass counts as one more failed invocation.
    invocations = {r["key"] for r in records}
    failed = {r["key"] for r in records if not r["ok"]}
    if timed_out:
        failures.append(timed_out)
        invocations.add("killed pass")
        failed.add("killed pass")
    result = {
        "workload": workload,
        "correct": not failures,
        "attempted": len(records) + bool(timed_out),
        "failed": len(failures),
        "failures": failures[:10],
        "failed_invocations": (len(failed), len(invocations)),
        "passes": {"plain": len(plain), "traced": len(traced)},
        "absent": sorted({a for p in traced for a in p["trace"]["absent"]}),
        "seconds": {},
        "metrics": {},
    }
    if not plain or (trace and not traced):
        return result  # nothing to measure from
    typical = _typical_records(plain)

    if trace:
        metrics = {}
        for name, (unit, source) in PER_LAYER.items():
            kind = source[0]
            if kind == "command":
                metrics[name] = sum(r["seconds"] for r in typical if r["cmd"] == source[1])
            elif kind == "overhead":
                metrics[name] = _pass_wall(_typical_records(traced)) - _pass_wall(typical)
            else:
                metrics[name] = statistics.median([_layer_value(source, p) for p in traced])
    latencies = [r["seconds"] for r in typical]
    latencies_ref = [r["ref"] for r in typical]
    seconds = {
        "wall_s": _pass_wall(typical),
        "call_p50_s": _quantile(latencies, 0.5),
        "call_p90_s": _quantile(latencies, 0.9),
        "reference_s": statistics.median(r["ref_s"] for p in plain for r in p["records"]),
        "import_s": statistics.median(p["setup_s"] for p in plain),
    }
    if not trace:
        metrics = {
            "setup_s": statistics.median(p["setup_s"] / p["setup_ref_s"] for p in plain) * REFERENCE_NOMINAL_S,
            "wall_ref": sum(latencies_ref),
            "call_p50_ref": _quantile(latencies_ref, 0.5),
            "call_p90_ref": _quantile(latencies_ref, 0.9),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in plain]),
            "ok_share": 1.0 - len(failed) / len(invocations),
        }
    units = {name: unit for name, (unit, _) in PER_LAYER.items()} if trace else END_TO_END
    result["seconds"] = seconds
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    return result


def _print_report(result: dict, src_lines: int):
    w = result["workload"]
    failed, invocations = result["failed_invocations"]
    print(f"[{w}] passes {result['passes']}, src/ lines {src_lines}")
    print(f"[{w}] failed_share {failed / invocations:.6g} ratio ({failed}/{invocations} invocations, "
          f"{result['failed']}/{result['attempted']} records)")
    for why in result["failures"]:
        print(f"[{w}] FAILED {why}")
    for name in result["absent"]:
        print(f"[{w}] absent span target {name}: its metrics read 0")
    for name, value in result["seconds"].items():
        print(f"[{w}] {name} {value:.6g} s")
    for name, m in result["metrics"].items():
        print(f"[{w}] {name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [measure(name, args.seed, args.seconds, bool(args.trace), root) for name in names]
    src_lines = _src_lines(root)
    for result in results:
        _print_report(result, src_lines)
    keys = ("correct", "attempted", "failed", "metrics")
    if len(results) == 1:
        print(json.dumps({k: results[0][k] for k in keys}))
    else:
        print(json.dumps({r["workload"]: {k: r[k] for k in keys} for r in results}))
    return 0


if __name__ == "__main__":
    _root = Path.cwd()
    if not (_root / "src" / "invman" / "__init__.py").is_file():
        print("perfbench: run from the root of an invman checkout (src/invman is missing)", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(_root / "src"), str(HERE)]
    sys.exit(main())
