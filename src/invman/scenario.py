"""Ground-truth systems with a known invariant splitting.

The construction is a time-dependent change of variables.  Pick an
invertible frame S(t) (m x m) and block dynamics

    z' = K(t) z,       K = [[a, c],
                            [d, b]],

with a (n x n) acting on the leading coordinates and b (p x p) on the
trailing ones.  Substituting y = S(t) z transports this to y' = A(t) y with

    A = S' S^-1 + S K S^-1.

The leading n columns of S then span a subspace whose invariance pattern is
read directly off the couplings: d == 0 keeps the leading block invariant,
c == 0 keeps the trailing block invariant, both zero keeps both.

To make A expressible in the expression language, frames are assembled as
products of elementary factors (rotations, shears, scalings) whose inverses
are in closed form, so both S and S^-1 stay symbolic.  The chart of the
generated subspace is the top row block of S^-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import FrameError, ScenarioError, ShapeError
from .flow import DEFAULT_SEED, DEFAULT_STEP, DEFAULT_TRIALS
from .invariance import DEFAULT_GRID, DEFAULT_VERDICT_TOL, SystemSpec, _increasing_grid
from .linalg import frobenius
from .matexpr import Binary, Const, MatrixFunction, ScalarExpr, T, Unary

__all__ = [
    "COUPLING_TOL",
    "Structure",
    "FramePair",
    "ScenarioSpec",
    "ExpectedVerdicts",
    "coefficient_function",
    "expected_verdicts",
    "to_system",
    "rotation_factor",
    "shear_factor",
    "scale_factor",
    "random_frame",
    "random_scenario",
    "to_config",
]

# A coupling block counts as "present" only if its max-grid norm clears this;
# anything smaller would make the expected verdicts numerically meaningless.
COUPLING_TOL = 1e-6

# Residual allowed when certifying that a frame's symbolic inverse really
# inverts it on the scenario grid.
_FRAME_CONSISTENCY_TOL = 1e-8


class Structure(str, Enum):
    BLOCK_DIAGONAL = "block_diagonal"
    UPPER_TRIANGULAR = "upper_triangular"   # d == 0, coupling c feeds the leading block
    LOWER_TRIANGULAR = "lower_triangular"   # c == 0, coupling d feeds the trailing block
    FULL = "full"


class ExpectedVerdicts(NamedTuple):
    joint: bool
    main: bool
    complement_kernel: bool


# The only record of which couplings each structure zeroes: d == 0 exactly
# where the main verdict holds, c == 0 exactly where the complement one does.
_STRUCTURE_VERDICTS = {
    Structure.BLOCK_DIAGONAL: ExpectedVerdicts(True, True, True),
    Structure.UPPER_TRIANGULAR: ExpectedVerdicts(False, True, False),
    Structure.LOWER_TRIANGULAR: ExpectedVerdicts(False, False, True),
    Structure.FULL: ExpectedVerdicts(False, False, False),
}


def _vanishing_couplings(structure: Structure) -> dict[str, bool]:
    """Whether coupling c and coupling d vanish under ``structure``."""
    verdict = _STRUCTURE_VERDICTS[structure]
    return {"c": verdict.complement_kernel, "d": verdict.main}


@dataclass(frozen=True, eq=False)
class FramePair:
    """An invertible symbolic frame together with its symbolic inverse.

    ``stack`` rows 0..n-1 are the chart of the generated subspace; the
    remaining rows chart the complement.  ``inverse`` columns are the
    corresponding embeddings.  Consistency of the pair is certified on the
    grid by the owning scenario, not here.
    """

    stack: MatrixFunction
    inverse: MatrixFunction
    n: int

    def __post_init__(self):
        m = self.stack.rows
        if self.stack.shape != (m, m) or self.inverse.shape != (m, m):
            raise ShapeError(
                f"frame pair must be square and matching, got {self.stack.shape} and {self.inverse.shape}"
            )
        if not 0 < self.n < m:
            raise ShapeError(f"frame split n={self.n} must lie strictly inside 0..{m}")

    @property
    def m(self) -> int:
        return self.stack.rows

    @property
    def p(self) -> int:
        return self.m - self.n

    @property
    def chart(self) -> MatrixFunction:
        return self.stack.row_block(0, self.n)

    @property
    def comp_chart(self) -> MatrixFunction:
        return self.stack.row_block(self.n, self.m)


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """A frame, block dynamics, and the structure declaring which couplings vanish."""

    frame: FramePair
    a: MatrixFunction  # n x n, leading block
    b: MatrixFunction  # p x p, trailing block
    c: MatrixFunction  # n x p, coupling into the leading block
    d: MatrixFunction  # p x n, coupling into the trailing block
    structure: Structure
    t_grid: np.ndarray = field(default_factory=DEFAULT_GRID)

    def __post_init__(self):
        n, p = self.frame.n, self.frame.p
        for name, mf, shape in (
            ("a", self.a, (n, n)),
            ("b", self.b, (p, p)),
            ("c", self.c, (n, p)),
            ("d", self.d, (p, n)),
        ):
            if mf.shape != shape:
                raise ShapeError(f"block {name} is {mf.shape}, expected {shape}")
        grid = _increasing_grid(self.t_grid)
        if grid.size < 2:
            raise ValueError("scenario grid needs at least two points")
        object.__setattr__(self, "t_grid", grid)

        # the symbolic inverse must actually invert the stack on the grid
        stack_g = self.frame.stack.eval_grid(grid)
        inv_g = self.frame.inverse.eval_grid(grid)
        eye = np.eye(self.frame.m)
        resid = float(np.max(np.abs(stack_g @ inv_g - eye)))
        if resid > _FRAME_CONSISTENCY_TOL:
            raise FrameError(
                f"frame inverse fails on the grid: max residual {resid:.3e} > {_FRAME_CONSISTENCY_TOL:g}"
            )

        # zero checks run before presence checks, so a spec failing both reports a coupling that must vanish
        vanishing = _vanishing_couplings(self.structure)
        for name, zero in sorted(vanishing.items(), key=lambda item: not item[1]):
            norm = float(np.max(frobenius(getattr(self, name).eval_grid(grid))))
            if zero and norm > 1e-12:
                raise ScenarioError(
                    f"structure {self.structure.value} requires coupling {name} == 0, "
                    f"but its max-grid norm is {norm:.3e}"
                )
            if not zero and norm <= COUPLING_TOL:
                raise ScenarioError(
                    f"structure {self.structure.value} requires coupling {name} to be "
                    f"nonzero, but its max-grid norm {norm:.3e} <= {COUPLING_TOL:g}; "
                    "expected verdicts would be misleading"
                )


def coefficient_function(s: ScenarioSpec) -> MatrixFunction:
    """The symbolic system matrix A(t) of the generated system."""
    # A = S' S^-1 + S K S^-1 with S = inverse-of-stack, S^-1 = stack
    k = MatrixFunction.block([[s.a, s.c], [s.d, s.b]])
    inverse = s.frame.inverse
    return (inverse.derivative() + inverse @ k) @ s.frame.stack


def expected_verdicts(s: ScenarioSpec) -> ExpectedVerdicts:
    """Ground-truth (joint, main, complement-kernel) verdicts from the structure."""
    return _STRUCTURE_VERDICTS[s.structure]


def to_system(s: ScenarioSpec) -> SystemSpec:
    """Package the generated system for the invariance and flow machinery."""
    return SystemSpec(
        coeff=coefficient_function(s),
        chart=s.frame.chart,
        comp_chart=s.frame.comp_chart,
        t_grid=s.t_grid,
    )


# -- elementary frame factors -------------------------------------------------


def _identity_with(m: int, overrides: dict) -> MatrixFunction:
    """The m x m identity with the (row, col) entries of ``overrides`` put in."""
    fill = (Const(0.0), Const(1.0))  # off and on the diagonal, one node each
    return MatrixFunction(tuple(
        tuple(overrides.get((r, c), fill[r == c]) for c in range(m)) for r in range(m)
    ))


def rotation_factor(m: int, i: int, j: int, angle: ScalarExpr) -> tuple[MatrixFunction, MatrixFunction]:
    """Plane rotation in coordinates (i, j); the inverse rotates by -angle."""
    if i == j:
        raise ValueError("rotation needs two distinct coordinates")
    cos, sin = Unary("cos", angle), Unary("sin", angle)
    neg_sin = Unary("neg", sin)
    return (
        _identity_with(m, {(i, i): cos, (i, j): neg_sin, (j, i): sin, (j, j): cos}),
        _identity_with(m, {(i, i): cos, (i, j): sin, (j, i): neg_sin, (j, j): cos}),
    )


def shear_factor(m: int, i: int, j: int, amount: ScalarExpr) -> tuple[MatrixFunction, MatrixFunction]:
    """Unit shear E + amount * e_i e_j^T; the inverse negates the amount."""
    if i == j:
        raise ValueError("shear needs two distinct coordinates")
    return _identity_with(m, {(i, j): amount}), _identity_with(m, {(i, j): Unary("neg", amount)})


def scale_factor(m: int, i: int, factor: ScalarExpr) -> tuple[MatrixFunction, MatrixFunction]:
    """Diagonal scaling of coordinate i; the caller must keep the factor away from zero."""
    return _identity_with(m, {(i, i): factor}), _identity_with(m, {(i, i): Binary("/", Const(1.0), factor)})


def _compose(factors: list[tuple[MatrixFunction, MatrixFunction]]) -> tuple[MatrixFunction, MatrixFunction]:
    fwd = factors[0][0]
    for f, _ in factors[1:]:
        fwd = fwd @ f
    bwd = factors[-1][1]
    for _, g in reversed(factors[:-1]):
        bwd = bwd @ g
    return fwd, bwd


def _time_affine(rng: np.random.Generator, offset_scale: float, rate_scale: float) -> ScalarExpr:
    # offset + rate*t, rounded so serialized configs stay short
    offset = round(float(rng.uniform(-offset_scale, offset_scale)), 4)
    rate = round(float(rng.uniform(0.2, rate_scale)), 4)
    return Binary("+", Const(offset), Binary("*", Const(rate), T))


def _bounded_wave(rng: np.random.Generator, center: float, amp: float) -> ScalarExpr:
    base = round(float(rng.uniform(center - 0.1, center + 0.1)), 4)
    wobble = round(float(rng.uniform(-amp, amp)), 4)
    return Binary("+", Const(base), Binary("*", Const(wobble), Unary("sin", T)))


def random_frame(m: int, n: int, rng: np.random.Generator) -> FramePair:
    """A well-conditioned random frame from 2-3 elementary factors.

    At least one rotation mixes a leading coordinate with a trailing one, so
    the generated subspace genuinely moves inside R^m over time.  Rotations
    cost nothing in conditioning; shears and scalings are kept mild.
    """
    factors: list[tuple[MatrixFunction, MatrixFunction]] = []
    i = int(rng.integers(0, n))
    j = int(rng.integers(n, m))
    factors.append(rotation_factor(m, i, j, _time_affine(rng, 1.0, 1.0)))
    for _ in range(int(rng.integers(1, 3))):
        kind = rng.choice(["rotation", "shear", "scale"])
        if kind == "rotation":
            i, j = rng.choice(m, size=2, replace=False)
            factors.append(rotation_factor(m, int(i), int(j), _time_affine(rng, 1.0, 1.0)))
        elif kind == "shear":
            i, j = rng.choice(m, size=2, replace=False)
            factors.append(shear_factor(m, int(i), int(j), _bounded_wave(rng, 0.0, 0.3)))
        else:
            factors.append(scale_factor(m, int(rng.integers(0, m)), _bounded_wave(rng, 1.1, 0.2)))
    stack, inverse = _compose(factors)
    return FramePair(stack=stack, inverse=inverse, n=n)


def _random_block(rng: np.random.Generator, rows: int, cols: int, scale: float, wave: bool) -> MatrixFunction:
    entries = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            if wave and rng.random() < 0.4:
                row.append(_bounded_wave(rng, 0.0, scale))
            else:
                row.append(Const(round(float(rng.uniform(-scale, scale)), 4)))
        entries.append(tuple(row))
    return MatrixFunction(tuple(entries))


def _random_coupling(rng: np.random.Generator, rows: int, cols: int) -> MatrixFunction:
    # every entry bounded away from zero so the block certifies as present
    entries = tuple(
        tuple(
            Const(round(float(rng.uniform(0.5, 1.2)) * float(rng.choice([-1.0, 1.0])), 4))
            for _ in range(cols)
        )
        for _ in range(rows)
    )
    return MatrixFunction(entries)


def random_scenario(
    structure: Structure,
    m: int = 3,
    n: int = 2,
    seed: int = 0,
    t_grid: Optional[np.ndarray] = None,
) -> ScenarioSpec:
    """Deterministic-in-seed random scenario of the requested structure."""
    structure = Structure(structure)
    if not 0 < n < m:
        raise ShapeError(f"need 0 < n < m, got n={n}, m={m}")
    rng = np.random.default_rng(seed)
    grid = DEFAULT_GRID() if t_grid is None else t_grid
    p = m - n
    frame = random_frame(m, n, rng)
    a = _random_block(rng, n, n, 0.6, wave=True)
    b = _random_block(rng, p, p, 0.6, wave=True)
    vanishing = _vanishing_couplings(structure)
    # c is drawn before d, each only when present, so a seed keeps its scenario
    c = MatrixFunction.zeros(n, p) if vanishing["c"] else _random_coupling(rng, n, p)
    d = MatrixFunction.zeros(p, n) if vanishing["d"] else _random_coupling(rng, p, n)
    return ScenarioSpec(frame=frame, a=a, b=b, c=c, d=d, structure=structure, t_grid=grid)


def to_config(s: ScenarioSpec, metadata: Optional[dict] = None) -> dict:
    """Serialize a scenario to the JSON config format the CLI consumes, with the default run options.

    The expected verdicts ride along as metadata so a round-trip through the public pipeline can confirm them;
    a grid that ``np.linspace(start, end, count)`` does not give back bit for bit cannot be written: ValueError.
    """
    grid = {"start": float(s.t_grid[0]), "end": float(s.t_grid[-1]), "count": int(s.t_grid.size)}
    if np.linspace(grid["start"], grid["end"], grid["count"]).tobytes() != s.t_grid.tobytes():
        raise ValueError(f"scenario grid is not np.linspace of its {grid}, bit for bit: to_config cannot write it")
    exp = expected_verdicts(s)
    coeff = coefficient_function(s)
    config = {
        "m": s.frame.m,
        "n": s.frame.n,
        "coeff": coeff.to_strings(),
        "chart": s.frame.chart.to_strings(),
        "comp_chart": s.frame.comp_chart.to_strings(),
        "grid": grid,
        "tolerance": DEFAULT_VERDICT_TOL,
        "step": DEFAULT_STEP,
        "seed": DEFAULT_SEED,
        "trials": DEFAULT_TRIALS,
        "expected_verdicts": {
            "joint": exp.joint,
            "mn": exp.main,
            "complement": exp.complement_kernel,
        },
    }
    if metadata:
        config["metadata"] = dict(metadata)
    return config
