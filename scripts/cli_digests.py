"""Print a digest of every CLI report over a fixed set of configs, one line per run.

Runs ``check --json``, ``reduce`` and ``flow --csv`` in-process, on their
default windows, over

- the shipped configs in ``configs/``;
- generated systems of every structure with m = 3, 8 and 16 (n = m // 2,
  generator seed 0), each as generated and again without ``comp_chart`` (the
  Moore-Penrose route);
- last, the ``OVERFLOWS`` configs, whose conjugacy residuals or reduced
  matrix leave the float range.

Each generated config first gets a ``generate`` line, then each run prints

    <command> <config> exit=<code> <sha256>

where the SHA-256 covers the run's stdout, stderr, exit code and every file
it wrote.  A last line per config covers the library's one-point results at
7 fixed times inside the config's grid span, off its nodes:

    pointwise <config> <sha256>

hashing the bytes of ``build_frame``'s embedding, complementary embedding
and projector (configs with ``comp_chart`` only), of ``projector_derivative``,
``invariance_defect`` and ``reduced_matrix``, and of ``chart.eval(t)`` and
``coeff.eval(t)``, or the error of a call that fails, and any warning.  The
runs use relative paths inside a temporary directory, so two checkouts give
the same lines exactly when their reports are byte-identical:

    python scripts/cli_digests.py > a.txt       # in one checkout
    python scripts/cli_digests.py > b.txt       # in the other
    diff a.txt b.txt

``invman`` is imported from the ``src/`` beside this script.  The 136 lines
take about 15 s on a 2-vCPU box, most of it in the m = 16 ``flow`` runs.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from invman import cli, invariance, manifold  # noqa: E402
from invman.scenario import Structure  # noqa: E402

SIZES = (3, 8, 16)
# Where the pointwise times sit in the grid span: 1/pi keeps them off every node of a uniform grid.
FRACTIONS = tuple((k + 1 / math.pi) / 7 for k in range(7))
DIAGONAL = {"m": 2, "n": 1, "comp_chart": [["0", "1"]]}
OVERFLOWS = {
    # Y and X stay finite, but Y C+(t0) - C+(t) X does not from t = 3.48 on.
    "conjugacy-overflow": dict(DIAGONAL, coeff=[["200", "0"], ["0", "200"]], chart=[["1e-6", "0"]],
                               window=[0.0, 3.5], step=1e-3),
    # R = (dC/dt + C A) C+ is 1e309 on the whole grid; the zero-length window never marches it.
    "reduced-overflow": dict(DIAGONAL, coeff=[["1e308", "0"], ["0", "1"]], chart=[["10", "0"]], window=[0.0, 0.0]),
}


def _run(argv: list[str], written: list[Path]) -> tuple[str, str]:
    """Run the CLI on ``argv``; return its exit code and the digest of everything it emitted."""
    stdout, stderr = io.StringIO(), io.StringIO()
    # Fresh warning filters: each run reports its own warnings, as a separate process would.
    with warnings.catch_warnings(), redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            code = repr(cli.main(argv))
        except (Exception, SystemExit) as exc:  # a traceback or an argparse exit is an outcome too
            code = f"raised:{type(exc).__name__}"
            print(repr(exc), file=sys.stderr)
    digest = hashlib.sha256()
    for part in (stdout.getvalue(), stderr.getvalue(), code):
        digest.update(part.encode() + b"\0")
    for path in written:
        digest.update(path.read_bytes() if path.is_file() else b"<missing>")
        digest.update(b"\0")
    return code, digest.hexdigest()


def _pointwise(config: str) -> str:
    """The digest of the library's one-point results over the config's FRACTIONS of its grid span."""
    digest = hashlib.sha256()
    spec, options = cli.load_config(config)
    start, end = options.grid["start"], options.grid["end"]
    calls = [
        ("chart", lambda t: [spec.chart.eval(t)]),
        ("coeff", lambda t: [spec.coeff.eval(t)]),
        ("projector_derivative", lambda t: [invariance.projector_derivative(spec, t)]),
        ("invariance_defect", lambda t: [invariance.invariance_defect(spec, t)]),
        ("reduced_matrix", lambda t: [invariance.reduced_matrix(spec, t)]),
    ]
    if spec.comp_chart is not None:

        def frame(t):
            f = manifold.build_frame(spec.chart, spec.comp_chart, t)
            return [f.embedding, f.comp_embedding, f.projector]

        calls.append(("build_frame", frame))
    for fraction in FRACTIONS:
        t = start + fraction * (end - start)
        for name, call in calls:
            digest.update(f"{name} t={t!r}\0".encode())
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    for array in call(t):
                        digest.update(array.tobytes())
                except Exception as exc:  # a failure is an outcome too
                    digest.update(f"raised:{type(exc).__name__}: {exc}".encode())
            for warning in caught:
                digest.update(f"warning:{warning.category.__name__}: {warning.message}".encode())
            digest.update(b"\0")
    return digest.hexdigest()


def _configs() -> list[str]:
    """Write the config set under ./configs and list it, printing a line per generated config."""
    Path("configs").mkdir()
    names = []
    for shipped in sorted((ROOT / "configs").glob("*.json")):
        name = f"configs/{shipped.name}"
        Path(name).write_bytes(shipped.read_bytes())
        names.append(name)
    for kind in Structure:
        for m in SIZES:
            name = f"configs/{kind.value}-{m}.json"
            argv = ["generate", "--kind", kind.value, "--seed", "0", "--m", str(m), "--n", str(m // 2),
                    "--out", name]
            code, digest = _run(argv, [Path(name)])
            print(f"generate {name} exit={code} {digest}", flush=True)
            config = json.loads(Path(name).read_text())
            del config["comp_chart"]
            plain = f"configs/{kind.value}-{m}-moore-penrose.json"
            Path(plain).write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
            names += [name, plain]
    for stem, config in OVERFLOWS.items():
        names.append(f"configs/{stem}.json")
        Path(names[-1]).write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return names


def main() -> int:
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for i, config in enumerate(_configs()):
                out = Path("out") / str(i)
                out.mkdir(parents=True)
                runs = [
                    ("check", ["--json", str(out / "check.json")], [out / "check.json"]),
                    ("reduce", [], []),
                    ("flow", ["--csv", str(out / "csv")], [out / "csv" / "residuals.csv"]),
                ]
                for command, extra, written in runs:
                    code, digest = _run([command, "--config", config, *extra], written)
                    print(f"{command} {config} exit={code} {digest}", flush=True)
                print(f"pointwise {config} {_pointwise(config)}", flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
