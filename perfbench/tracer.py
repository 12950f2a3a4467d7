"""Outside-in span tracer for the traced benchmark passes.

The tracer replaces public functions of ``invman`` with wrappers that record
a span (name, start, end, parent) per call.  A function is rebound in every
``invman`` module that holds it, not only where it is defined: ``cli`` imports
``run_flow``, ``verdicts`` and friends by name, and ``flow`` does the same
with ``frame_samples``/``verdicts``, so wrapping only the defining module
would miss those calls.  Spans nest through a stack, so a span's self time
is its duration minus the durations of its direct children.  Spans stay in
memory until :meth:`Tracer.summary` folds them into per-name totals.

A target that no longer exists (a later commit renamed or deleted it) is
listed in :attr:`Tracer.absent` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


def _grid_entries(args, kwargs, result):
    mf, ts = args[0], args[1] if len(args) > 1 else kwargs["ts"]
    return np.asarray(ts).size * mf.rows * mf.cols


def _grid_points(args, kwargs, result):
    ts = args[1] if len(args) > 1 else kwargs["ts"]
    return np.asarray(ts).size


def _steps_taken(args, kwargs, result):
    return len(result.ts) - 1


# (span name, module, attribute, counter name, counter)
TARGETS = [
    ("cli.main", "invman.cli", "main", None, None),
    ("cli.load_config", "invman.cli", "load_config", None, None),
    ("matexpr.build", "invman.matexpr", "MatrixFunction.build", None, None),
    ("matexpr.eval_grid", "invman.matexpr", "MatrixFunction.eval_grid", "matexpr.eval_grid_entries", _grid_entries),
    ("matexpr.eval", "invman.matexpr", "MatrixFunction.eval", None, None),
    ("matexpr.to_strings", "invman.matexpr", "MatrixFunction.to_strings", None, None),
    ("scenario.random_scenario", "invman.scenario", "random_scenario", None, None),
    ("scenario.to_config", "invman.scenario", "to_config", None, None),
    ("linalg.invert", "invman.linalg", "invert", None, None),
    ("linalg.rank", "invman.linalg", "rank", None, None),
    ("linalg.pinv", "invman.linalg", "right_pseudoinverse", None, None),
    ("linalg.pinv", "invman.linalg", "right_pseudoinverse_derivative", None, None),
    ("invariance.frame_samples", "invman.invariance", "frame_samples", "invariance.frame_points", _grid_points),
    ("invariance.verdicts", "invman.invariance", "verdicts", None, None),
    ("invariance.pointwise", "invman.invariance", "projector_derivative", None, None),
    ("invariance.pointwise", "invman.invariance", "invariance_defect", None, None),
    ("invariance.reduced_matrix", "invman.invariance", "reduced_matrix", None, None),
    ("manifold.build_frame", "invman.manifold", "build_frame", None, None),
    ("manifold.identity_checks", "invman.manifold", "check_kernel_identities", None, None),
    ("manifold.identity_checks", "invman.manifold", "check_embedding", None, None),
    ("flow.drift", "invman.flow", "manifold_drift", "flow.steps", _steps_taken),
    ("flow.conjugacy", "invman.flow", "conjugacy_check", "flow.steps", _steps_taken),
    ("flow.integrate", "invman.flow", "integrate_states", "flow.steps", _steps_taken),
    ("flow.run_flow", "invman.flow", "run_flow", None, None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self.counters: dict = defaultdict(int)
        self.absent: list[str] = []
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name, fn, counter_name=None, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            if counter is not None:
                tracer.counters[counter_name] += counter(args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        for name, module, attr, counter_name, counter in targets:
            if not self._install_one(name, module, attr, counter_name, counter):
                self.absent.append(f"{module}.{attr}")

    def _install_one(self, name, module, attr, counter_name, counter) -> bool:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            return False
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        if isinstance(owner, type):
            raw = owner.__dict__.get(leaf)
            if isinstance(raw, classmethod):
                setattr(owner, leaf, classmethod(self.wrap(name, raw.__func__, counter_name, counter)))
            elif callable(raw):
                setattr(owner, leaf, self.wrap(name, raw, counter_name, counter))
            else:
                return False
            return True
        original = getattr(owner, leaf, None)
        if not callable(original):
            return False
        traced = self.wrap(name, original, counter_name, counter)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "invman":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
        return True

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds; plus counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return {"spans": dict(out), "counters": dict(self.counters), "absent": list(self.absent)}
