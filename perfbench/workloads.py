"""The benchmark's workloads: inputs made from a seed, one pass, and the correctness gate.

``prepare`` writes every input config a workload needs into a scratch
directory and returns the pass as a list of JSON-serialisable jobs.
``run_pass`` executes the jobs once, in-process, and returns one record per
invocation: its duration, whether it passed the correctness gate and why
not, and the bytes it emitted.  Each pass runs in a fresh interpreter (see
``worker.py``), so every invocation starts with cold ``lru_cache``s, as a
one-shot CLI call does, and no config meets the same command twice in one
process.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from invman import cli, invariance, manifold, scenario
from invman.matexpr import parse_expr

WORKLOADS = ("verify_invariant", "screen_roundtrip", "leak_mp", "pointwise")

SHIPPED = ("block_diagonal", "full", "lower_triangular", "nilpotent_shear", "upper_triangular")
STRUCTURES = tuple(s.value for s in scenario.Structure)
SIZES = (3, 8, 16)

# The shipped configs flow over [0, 5] with h = 1e-3 (5000 RK4 steps), which
# takes 5-16 s per reduce+flow at m = 16.  The flow workloads keep h but flow
# over FLOW_WINDOW, so that several passes fit into one run.
FLOW_WINDOW = [0.0, 0.25]
# The systems they generate carry a GENERATED_GRID-point verdict grid (the
# shipped configs keep 201).  The cost on the verdict grid (scalar and grid
# evaluation) grows with the size of the random expressions, which varies
# threefold between seeds at m = 16; the cost of the frame kernel and the RK
# march depends only on m.  A small verdict grid keeps wall_s steady across
# seeds and leaves the frame kernel and the RK march doing most of the work.
GENERATED_GRID = 51

# Generated systems come from a pool: generator seeds 0..GENERATOR_POOL-1 of
# every (structure, m), whose generate output is pinned (digest and size) in
# DIGESTS by pin_digests.py.
GENERATOR_POOL = 30
DIGESTS = Path(__file__).with_name("generate_digests.json")
SMALL, MIDDLE, LARGE = 0, 1, 2

POINTWISE_TIMES = 20

# The acceptance suite's bounds (tests/test_acceptance.py, criteria 4 and 5).
DRIFT_BOUND = 1e-7
CONJUGACY_BOUND = 1e-6
# Pointwise results against the grid path: equal up to rounding.
AGREEMENT_RTOL = 1e-9


def n_for(m: int) -> int:
    return m // 2


def _write(path: Path, config: dict) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return str(path)


def pool_seeds(rng: random.Random, pool: dict, kind: str, m: int, tiers: list[int]) -> list[int]:
    """Draw distinct generator seeds of (kind, m): one from a size tier per time it is listed.

    The pool's seeds, ranked by the size of the config they generate, fall
    into three tiers of equal count: SMALL, MIDDLE and LARGE.  How long a
    system takes grows with its expression size, which varies threefold
    within a pool; drawing by tier keeps the mix of sizes, and so wall_s,
    alike from one benchmark seed to the next.  The seeds are distinct, so
    no system runs twice in one pass and meets warm caches.
    """
    ranked = sorted(range(GENERATOR_POOL), key=lambda s: pool[f"{kind}/{m}/{s}"]["bytes"])
    tier = GENERATOR_POOL // 3
    seeds: list[int] = []
    for t in dict.fromkeys(tiers):
        seeds += rng.sample(ranked[t * tier:(t + 1) * tier], tiers.count(t))
    return seeds


def _generated(kind: str, m: int, seed: int, grid=None) -> dict:
    spec = scenario.random_scenario(kind, m=m, n=n_for(m), seed=seed, t_grid=grid)
    return scenario.to_config(spec, metadata={"kind": kind, "generator_seed": seed})


def _generated_grid() -> np.ndarray:
    return np.linspace(0.0, 5.0, GENERATED_GRID)


def moore_penrose_config(kind: str, m: int, seed: int) -> dict:
    """A generated system given without ``comp_chart``, so C+ is Moore-Penrose.

    The frame is the product of two plane rotations, the first mixing a
    leading with a trailing coordinate, the second in a plane that shares no
    coordinate with the first where m allows.  A rotation frame is
    orthogonal, so its chart has orthonormal rows and the Moore-Penrose C+
    equals the stacked-inverse C+: the embedded expected verdicts, derived
    for the stacked route, stay true.  ``random_frame`` also draws shears and
    scalings, whose frames are not orthogonal, and then the verdicts of the
    Moore-Penrose route differ from the embedded ones.  Exactly two factors
    keep the size of the expressions, and so the cost, alike across seeds.
    """
    blocks = scenario.random_scenario(kind, m=m, n=n_for(m), seed=seed)
    rng = np.random.default_rng(seed)
    n = n_for(m)
    first = (int(rng.integers(0, n)), int(rng.integers(n, m)))
    rest = [c for c in range(m) if c not in first]
    if len(rest) > 1:
        second = tuple(int(c) for c in rng.choice(rest, size=2, replace=False))
    else:
        second = (rest[0], first[1])
    rotations = []
    for i, j in (first, second):
        offset = round(float(rng.uniform(-1.0, 1.0)), 4)
        rate = round(float(rng.uniform(0.2, 1.0)), 4)
        rotations.append(scenario.rotation_factor(m, i, j, parse_expr(f"{offset!r} + {rate!r}*t")))
    (fwd1, bwd1), (fwd2, bwd2) = rotations
    spec = scenario.ScenarioSpec(
        frame=scenario.FramePair(stack=fwd1 @ fwd2, inverse=bwd2 @ bwd1, n=n),
        a=blocks.a,
        b=blocks.b,
        c=blocks.c,
        d=blocks.d,
        structure=blocks.structure,
        t_grid=_generated_grid(),
    )
    config = scenario.to_config(spec, metadata={"kind": kind, "rotation_seed": seed})
    del config["comp_chart"]
    return config


def _cli_job(cmd: str, config: str, out: Path, csv: bool = False) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    job = {"cmd": cmd, "config": config, "argv": [cmd, "--config", config]}
    if cmd == "check":
        job["json"] = str(out / "check.json")
        job["argv"] += ["--json", job["json"]]
    if csv:
        job["csv"] = str(out / "csv")
        job["argv"] += ["--csv", job["csv"]]
    return job


def prepare(workload: str, seed: int, root: Path, workdir: Path) -> list[dict]:
    """Write the workload's input configs under ``workdir`` and list its jobs."""
    rng = random.Random(f"{workload}/{seed}")
    pool = json.loads(DIGESTS.read_text())
    inputs, outputs = workdir / "inputs", workdir / "outputs"
    shipped = {name: str(root / "configs" / f"{name}.json") for name in SHIPPED}
    jobs: list[dict] = []

    if workload == "verify_invariant":
        # Invariant systems on the stacked-inverse route: reduce runs the
        # conjugacy check and flow adds it to the drift curves, so the
        # frame kernel, the repeated sampling and the RK march dominate.
        # One middle-tier system per structure and size.
        configs = []
        for name in ("block_diagonal", "upper_triangular", "nilpotent_shear"):
            config = json.loads(Path(shipped[name]).read_text())
            config["window"] = FLOW_WINDOW
            configs.append(_write(inputs / f"shipped-{name}.json", config))
        for m in SIZES:
            for kind in ("block_diagonal", "upper_triangular"):
                (gseed,) = pool_seeds(rng, pool, kind, m, [MIDDLE])
                config = _generated(kind, m, gseed, _generated_grid())
                config["window"] = FLOW_WINDOW
                configs.append(_write(inputs / f"{kind}-{m}.json", config))
        for i, config in enumerate(configs):
            jobs.append(_cli_job("reduce", config, outputs / f"{i}"))
            jobs.append(_cli_job("flow", config, outputs / f"{i}", csv=True))

    elif workload == "screen_roundtrip":
        # Writes (symbolic build, to_strings) beside reads (parse, eval_grid)
        # with only 201 frame points per check: the control workload that a
        # frame-kernel change should barely move and a parser change should.
        inputs.mkdir(parents=True)
        checks = list(shipped.values())
        for kind in STRUCTURES:
            for m in SIZES:
                for gseed in pool_seeds(rng, pool, kind, m, [SMALL, MIDDLE, LARGE]):
                    out = str(inputs / f"{kind}-{m}-{gseed}.json")
                    jobs.append({
                        "cmd": "generate",
                        "argv": ["generate", "--kind", kind, "--seed", str(gseed),
                                 "--m", str(m), "--n", str(n_for(m)), "--out", out],
                        "out": out,
                        "digest": pool[f"{kind}/{m}/{gseed}"]["sha256"],
                    })
                    checks.append(out)
        for i, config in enumerate(checks):
            jobs.append(_cli_job("check", config, outputs / f"{i}"))

    elif workload == "leak_mp":
        # Without comp_chart every frame point goes through linalg.rank and
        # the Gram inverse.  reduce exits 1 on the non-invariant structures,
        # and flow skips the conjugacy check there.
        for kind in STRUCTURES:
            for m in (3, 8):
                config = moore_penrose_config(kind, m, rng.randrange(2**31))
                config["window"] = FLOW_WINDOW
                path = _write(inputs / f"{kind}-{m}.json", config)
                for cmd in ("check", "flow", "reduce"):
                    jobs.append(_cli_job(cmd, path, outputs / f"{kind}-{m}-{cmd}"))

    elif workload == "pointwise":
        # Library calls at one t each: the only workload that measures
        # manifold.build_frame and the single-point (N = 1) path.  The
        # generated systems are m = 3, as the shipped ones, two from each
        # size tier: the cost of one call follows the expression size, and
        # at m = 8 a few large systems would set wall_s.
        configs = list(shipped.values())
        for kind in STRUCTURES:
            for gseed in pool_seeds(rng, pool, kind, 3, [SMALL, SMALL, MIDDLE, MIDDLE, LARGE, LARGE]):
                configs.append(_write(inputs / f"{kind}-{gseed}.json", _generated(kind, 3, gseed)))
        for config in configs:
            grid = json.loads(Path(config).read_text())["grid"]
            ts = sorted({rng.uniform(grid["start"], grid["end"]) for _ in range(POINTWISE_TIMES)})
            jobs.append({"cmd": "pointwise", "config": config, "ts": ts})

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


# -- one pass -------------------------------------------------------------------


def reference_s() -> float:
    """Seconds taken by a fixed piece of work that does not use invman.

    Gauss-Jordan elimination on an 8x8 numpy matrix, one Python-level row
    operation at a time: the kind of work the program does.  The machine
    is shared, and its speed drifts by a fifth or more over minutes; timed
    after every job, this reference slows with it, so durations divided by
    it hold steadier (see NOTES.md).
    """
    a = np.arange(64.0).reshape(8, 8) / 64.0 + 8.0 * np.eye(8)
    start = perf_counter()
    for _ in range(20):
        aug = np.hstack([a, np.eye(8)])
        for col in range(8):
            p = col + int(np.argmax(np.abs(aug[col:, col])))
            aug[[col, p]] = aug[[p, col]]
            aug[col] /= aug[col, col]
            factors = aug[:, col].copy()
            factors[col] = 0.0
            aug -= np.outer(factors, aug[col])
    return perf_counter() - start


def run_pass(jobs: list[dict], tracer=None) -> list[dict]:
    """Run every job once; the tracer, if any, records only inside invocations.

    Each record's ``key`` names the same invocation in every pass, and its
    ``ref_s`` is reference_s() timed right after the job.
    """
    records: list[dict] = []
    for i, job in enumerate(jobs):
        calls = _pointwise(job, tracer) if job["cmd"] == "pointwise" else [_invoke(job, tracer)]
        ref = reference_s()
        for j, record in enumerate(calls):
            record["key"] = f"{i}.{j}"
            record["ref_s"] = ref
            records.append(record)
    return records


def _set_active(tracer, active: bool):
    if tracer is not None:
        tracer.active = active


def _invoke(job: dict, tracer) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    _set_active(tracer, True)
    start = perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = cli.main(job["argv"])
    except (Exception, SystemExit) as exc:  # a traceback or an argparse exit fails the gate
        rc = exc
    seconds = perf_counter() - start
    _set_active(tracer, False)

    text = stdout.getvalue()
    written = [Path(job[key]) for key in ("json", "out") if key in job]
    if "csv" in job:
        written.append(Path(job["csv"]) / "residuals.csv")
    out_bytes = len(text.encode()) + sum(p.stat().st_size for p in written if p.is_file())
    if isinstance(rc, BaseException):
        why = f"raised {rc!r}"
    else:
        try:
            why = _verify_cli(job, rc, text)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            why = f"unreadable output: {exc!r}"
    if why:
        why = f"{job['cmd']} {job.get('config', job.get('out'))}: {why}"
    return {"cmd": job["cmd"], "seconds": seconds, "ok": why is None, "why": why, "bytes": out_bytes}


def _expected(config_path: str) -> dict:
    return json.loads(Path(config_path).read_text())["expected_verdicts"]


def _verdict_mismatch(got: dict, expected: dict):
    want = {
        "joint_invariant": expected["joint"],
        "main_invariant": expected["mn"],
        "complement_kernel_condition": expected["complement"],
    }
    return None if got == want else f"verdicts {got} != expected {want}"


def _verify_cli(job: dict, rc, stdout: str):
    cmd = job["cmd"]
    if cmd == "generate":
        if rc != 0:
            return f"exit code {rc}"
        digest = hashlib.sha256(Path(job["out"]).read_bytes()).hexdigest()
        return None if digest == job["digest"] else "output bytes differ from the pinned digest"

    expected = _expected(job["config"])
    mn = expected["mn"]
    if cmd == "check":
        if rc != 0:
            return f"exit code {rc}"
        return _verdict_mismatch(json.loads(Path(job["json"]).read_text())["verdicts"], expected)

    if cmd == "reduce":
        want_rc = 0 if mn else 1
        if rc != want_rc:
            return f"exit code {rc}, expected {want_rc}"
        if not mn:
            return None
        report = json.loads(stdout)
        conj = report["conjugacy"]
        worst = max(conj["max_embedding_residual"], conj["max_chart_residual"])
        if not worst <= CONJUGACY_BOUND:
            return f"conjugacy residual {worst:.3e} > {CONJUGACY_BOUND:g}"
        return _verdict_mismatch(report["verdicts"], expected)

    if cmd == "flow":
        if rc != 0:
            return f"exit code {rc}"
        report = json.loads(stdout)
        if report["main_invariant"] != mn:
            return f"main_invariant {report['main_invariant']} != expected {mn}"
        if (report["conjugacy_residual"] is not None) != mn:
            return "conjugacy_residual must be present exactly when the subspace is invariant"
        worst = report["max"]
        if mn and not worst["drift_mn"] <= DRIFT_BOUND:
            return f"drift_mn {worst['drift_mn']:.3e} > {DRIFT_BOUND:g}"
        if mn and not worst["conjugacy_residual"] <= CONJUGACY_BOUND:
            return f"conjugacy residual {worst['conjugacy_residual']:.3e} > {CONJUGACY_BOUND:g}"
        if expected["joint"] and not worst["drift_complement"] <= DRIFT_BOUND:
            return f"drift_complement {worst['drift_complement']:.3e} > {DRIFT_BOUND:g}"
        if "csv" in job:
            rows = (Path(job["csv"]) / "residuals.csv").read_text().splitlines()
            if len(rows) != len(report["t"]) + 1:
                return f"residuals.csv has {len(rows)} lines for {len(report['t'])} samples"
        return None
    raise ValueError(f"unknown command {cmd!r}")


# -- pointwise library calls ----------------------------------------------------------


def _close(got, want) -> bool:
    want = np.asarray(want)
    return float(np.max(np.abs(np.asarray(got) - want))) <= AGREEMENT_RTOL * max(1.0, float(np.max(np.abs(want))))


def _pointwise(job: dict, tracer) -> list[dict]:
    """Time each single-t call, then check every result against the grid path."""
    seconds: list[tuple[str, float]] = []

    def timed(name, fn, *args, **kwargs):
        _set_active(tracer, True)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds.append((name, perf_counter() - start))
            _set_active(tracer, False)

    why = None
    results = []
    try:
        spec, _ = timed("load_config", cli.load_config, job["config"])
        for i, t in enumerate(job["ts"]):
            got = {}
            if spec.comp_chart is not None:
                frame = timed("build_frame", manifold.build_frame, spec.chart, spec.comp_chart, t)
                got["projector"] = frame.projector
                got["kernel_ok"] = timed(
                    "check_kernel_identities", manifold.check_kernel_identities, frame, seed=i
                ).passed
                got["embedding_ok"] = timed("check_embedding", manifold.check_embedding, frame, seed=i).passed
            got["dprojector"] = timed("projector_derivative", invariance.projector_derivative, spec, t)
            got["defect"] = timed("invariance_defect", invariance.invariance_defect, spec, t)
            got["reduced"] = timed("reduced_matrix", invariance.reduced_matrix, spec, t)
            results.append(got)
        why = _verify_pointwise(spec, job["ts"], results)
    except Exception as exc:  # a failed call fails the gate for this system, not the run
        why = f"raised {exc!r}"
    if why:
        why = f"pointwise {job['config']}: {why}"
    return [
        {"cmd": f"pointwise.{name}", "seconds": s, "ok": why is None, "why": why, "bytes": 0}
        for name, s in seconds
    ]


def _verify_pointwise(spec, ts, results) -> str | None:
    grid_spec = invariance.SystemSpec(
        coeff=spec.coeff, chart=spec.chart, comp_chart=spec.comp_chart, t_grid=np.asarray(ts)
    )
    fs = invariance.frame_samples(grid_spec, grid_spec.t_grid)
    coeff = spec.coeff.eval_grid(grid_spec.t_grid)
    proj = fs.projector
    defect = fs.dprojector + proj @ coeff - coeff @ proj
    reduced = (fs.dchart + fs.chart @ coeff) @ fs.embedding
    report = invariance.verdicts(grid_spec)
    for i, (t, got) in enumerate(zip(ts, results)):
        if not got.get("kernel_ok", True) or not got.get("embedding_ok", True):
            return f"frame identity checks fail at t={t!r}"
        checks = [
            ("projector", proj[i]),
            ("dprojector", fs.dprojector[i]),
            ("defect", defect[i]),
            ("reduced", reduced[i]),
        ]
        for key, want in checks:
            if key in got and not _close(got[key], want):
                return f"{key} at t={t!r} differs from the grid path"
        if not _close(np.linalg.norm(got["defect"]), report.defect[i]):
            return f"|defect| at t={t!r} differs from verdicts()"
    return None
