"""Parameter sweeps, concurrence maximization and transition detection.

Every grid point runs the same pure pipeline (collective moments -> pair
density matrix -> concurrence), so results are independent of evaluation
order and repeated runs are bit-identical.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import GridTooCoarse
from .pairwise import concurrence, steady_pair_density
from .params import SystemParams, derive_params
from .steady import expectation

__all__ = [
    "AXIS_NAMES",
    "AxisSpec",
    "SweepResult",
    "TransitionReport",
    "evaluate_point",
    "sweep",
    "find_max_concurrence",
    "detect_transition",
    "SHARPNESS_THRESHOLD",
]

AXIS_NAMES = ("rabi", "detuning", "dipole_shift", "pump")

RECORD_FIELDS = [
    ("c", float),
    ("c_ref1", float),
    ("c_ref2", float),
    ("sz_norm", float),
    ("spsm_norm", float),
    ("lambda1", float),
    ("lambda2", float),
    ("lambda3", float),
    ("lambda4", float),
]

MAX_SWEEP_POINTS = 10**6

MAXIMIZE_AXES = ("rabi", "pump", "detuning")

# find_max_concurrence's coarse grid has at least this many points per axis,
# and refinement stops once both parameters move by less than
# MAXIMIZE_TOL_PUMP, in pump units.
MAXIMIZE_COARSE_POINTS = 33
MAXIMIZE_TOL_PUMP = 1e-4

# |d(<Sz>/N)/dx| on x = pump / |1 + i delta/gamma| above this flags a sharp
# transition candidate; smooth small-N curves stay well below 1 while
# collective kinks exceed it.
SHARPNESS_THRESHOLD = 1.0


@dataclass(frozen=True)
class AxisSpec:
    """One linearly spaced sweep axis.

    ``pump`` axes are converted to rabi internally via
    rabi = pump * n_qubits * decay / 2.
    """

    name: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        if not self.start < self.stop:
            raise ValueError(f"axis needs start < stop, got [{self.start}, {self.stop}]")
        if self.points < 2:
            raise ValueError(f"axis needs at least 2 points, got {self.points}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


def _apply_axis(params: SystemParams, name: str, value: float) -> SystemParams:
    if name == "pump":
        return params.with_pump(value)
    return replace(params, **{name: value})


def evaluate_point(params: SystemParams, precision: str = "standard") -> tuple:
    """One pipeline evaluation; returns the RECORD_FIELDS tuple.

    <Sz>/N and <S+S->/N^2 come from the pair matrix: one emitter's
    <sigma_z>/2 is (rho11 - rho44)/2, and <S+S-> = N <sigma+ sigma-> +
    N(N-1) <sigma+_1 sigma-_2> with <sigma+ sigma-> = rho11 + rho22 and the
    pair coherence rho23 = rho22.
    """
    rho = steady_pair_density(params, precision=precision)
    res = concurrence(rho)
    n = params.n_qubits
    r11, r22, r44 = rho[0, 0].real, rho[1, 1].real, rho[3, 3].real
    return (
        res.concurrence,
        res.c_ref_1,
        res.c_ref_2,
        (r11 - r44) / 2.0,
        (r11 + r22) / n + (n - 1) * r22 / n,
        *res.lambdas,
    )


@dataclass(frozen=True)
class SweepResult:
    """Grid coordinates plus per-point records, row-major over the axes."""

    axes: tuple[AxisSpec, ...]
    coords: tuple[np.ndarray, ...]
    data: np.ndarray

    def column(self, field: str) -> np.ndarray:
        return self.data[field]

    def axis_columns(self) -> list[np.ndarray]:
        """Per-record coordinate columns matching the data layout."""
        return [c.ravel() for c in np.meshgrid(*self.coords, indexing="ij")]


def sweep(
    template: SystemParams,
    axes: Sequence[AxisSpec],
    precision: str = "standard",
) -> SweepResult:
    """Evaluate the full pipeline over a 1- or 2-axis grid."""
    axes = tuple(axes)
    if not 1 <= len(axes) <= 2:
        raise ValueError(f"sweep takes 1 or 2 axes, got {len(axes)}")
    if len(axes) == 2 and axes[0].name == axes[1].name:
        raise ValueError(f"sweep axes must be distinct, both are {axes[0].name!r}")
    total = math.prod(a.points for a in axes)
    if total > MAX_SWEEP_POINTS:
        raise ValueError(f"grid of {total} points exceeds limit {MAX_SWEEP_POINTS}")

    coords = tuple(a.values() for a in axes)
    data = np.zeros(total, dtype=RECORD_FIELDS)
    for i, point in enumerate(itertools.product(*coords)):
        params = template
        for axis, value in zip(axes, point):
            params = _apply_axis(params, axis.name, value)
        data[i] = evaluate_point(params, precision)
    return SweepResult(axes=axes, coords=coords, data=data)


def _golden_max(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer on [lo, hi]; returns the final midpoint."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


def find_max_concurrence(
    template: SystemParams,
    axes: Sequence[AxisSpec],
    precision: str = "standard",
) -> tuple[SystemParams, float]:
    """Maximize concurrence over one or two rabi, pump or detuning axes.

    A pump axis is searched as the rabi axis it spans,
    rabi = pump * (n_qubits * decay / 2); a parameter without an axis keeps
    its template value. Rabi is searched first, whatever the axis order. A
    coarse grid of max(33, points) points per axis (one ``sweep``) brackets
    the optimum; alternating per-axis golden-section refinement then runs
    until every parameter moves by less than MAXIMIZE_TOL_PUMP in pump units
    (tol = MAXIMIZE_TOL_PUMP * n_qubits * decay / 2 on either axis).
    """
    def objective(p: SystemParams) -> float:
        return evaluate_point(p, precision)[0]

    scale = template.n_qubits * template.decay / 2.0
    tol = MAXIMIZE_TOL_PUMP * scale
    free = []
    for ax in axes:
        if ax.name not in MAXIMIZE_AXES:
            raise ValueError(f"maximize searches {MAXIMIZE_AXES} axes, got {ax.name!r}")
        if ax.name == "pump":
            ax = AxisSpec("rabi", ax.start * scale, ax.stop * scale, ax.points)
        free.append(replace(ax, points=max(MAXIMIZE_COARSE_POINTS, ax.points)))
    # rabi first, so the grid order and refinement order (and with them the
    # last bits of the result) do not depend on the order axes are given in
    free.sort(key=lambda ax: ax.name != "rabi")

    grid = sweep(template, free, precision)
    i = int(np.argmax(grid.column("c")))
    best = replace(template, **{ax.name: float(col[i])
                                for ax, col in zip(free, grid.axis_columns())})

    for _ in range(40):
        moved = 0.0
        for ax in free:
            at = getattr(best, ax.name)
            step = (ax.stop - ax.start) / (ax.points - 1)
            new = _golden_max(
                lambda x: objective(replace(best, **{ax.name: float(x)})),
                max(ax.start, at - step), min(ax.stop, at + step), tol,
            )
            moved = max(moved, abs(new - at))
            best = replace(best, **{ax.name: new})
        if moved < tol:
            break
    return best, objective(best)


@dataclass(frozen=True)
class TransitionReport:
    """Location and character of the steepest steady-state response.

    ``sharpness`` is max |d(<Sz>/N)/d x| over the grid by central
    differences, on the axis x = pump / |1 + i delta/gamma|: at zero
    effective detuning Delta + delta the curve is the resonant one with the
    pump stretched by that factor, and on x both read the same. ``sharp``
    flags values above SHARPNESS_THRESHOLD. The kind labels follow the
    parameter regime (first order needs nonzero detuning, dipole shift and
    effective detuning), not an independent thermodynamic criterion.
    ``critical_pump`` is in ordinary pump units.
    """

    critical_pump: float
    kind: str
    sharpness: float
    sharp: bool


def detect_transition(
    template: SystemParams,
    pump_axis: AxisSpec,
    precision: str = "standard",
) -> TransitionReport:
    """Locate the steepest point of <Sz> along a pump axis.

    Requires a pump axis with at least 200 points (GridTooCoarse otherwise).
    """
    if pump_axis.name != "pump":
        raise ValueError(f"transition detection needs a pump axis, got {pump_axis.name!r}")
    if pump_axis.points < 200:
        raise GridTooCoarse(f"need >= 200 pump points, got {pump_axis.points}")

    pumps = pump_axis.values()
    n = template.n_qubits
    sz = np.array([
        expectation(template.with_pump(float(x)), 0, 1, 0, precision=precision).real / n
        for x in pumps
    ])
    deriv = np.gradient(sz, pumps)
    idx = int(np.argmax(np.abs(deriv)))
    stretch = abs(complex(template.decay, template.dipole_shift)) / template.decay
    sharpness = float(np.abs(deriv[idx])) * stretch
    first_order = (template.dipole_shift != 0.0 and template.detuning != 0.0
                   and derive_params(template).tilde_detuning != 0.0)
    return TransitionReport(
        critical_pump=float(pumps[idx]),
        kind="first_order_candidate" if first_order else "second_order_candidate",
        sharpness=sharpness,
        sharp=sharpness >= SHARPNESS_THRESHOLD,
    )
