"""Parameter sweeps, concurrence maximization and transition detection.

A sweep turns its grid into one :class:`~dickepair.params.ParamBatch` and
runs the pipeline (ladder sums -> six pair-matrix entries -> concurrence) on
chunks of its rows, each layer as a few array passes over the chunk; a
single point is the batch of one. numpy reduces every row on its own, so a
record does not depend on the chunk size or on the other rows, and repeated
runs are bit-identical. ``detect_transition`` evaluates nothing: it reads
the peak, the collapse and the steepest response off the records of a 1-D
pump sweep.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import GridTooCoarse
from .pairwise import PairEntries, concurrence, steady_pair_density
from .params import ParamBatch, SystemParams, _check_real
# perfbench/tracer.py patches sweep.expectation (tests/test_bench_contract.py)
from .steady import expectation

__all__ = [
    "AXIS_NAMES",
    "AxisSpec",
    "SweepResult",
    "TransitionReport",
    "evaluate_point",
    "evaluate_points",
    "sweep",
    "find_max_concurrence",
    "detect_transition",
    "expectation",  # the tracer's patch target; no caller in this module
]

AXIS_NAMES = ("rabi", "detuning", "dipole_shift", "pump")

RECORD_FIELDS = np.dtype([
    ("c", float),
    ("c_ref1", float),
    ("c_ref2", float),
    ("sz_norm", float),
    ("spsm_norm", float),
    ("lambda1", float),
    ("lambda2", float),
    ("lambda3", float),
    ("lambda4", float),
])

MAX_SWEEP_POINTS = 10**6

# A batch is evaluated in chunks of CHUNK_ELEMENTS // max(N + 1, MIN_ROW_ENTRIES)
# rows, at least one (_chunk_rows), so no (rows, N + 1) coefficient array of
# a chunk holds more than CHUNK_ELEMENTS entries and memory stays flat
# whatever the grid size (1,638 rows at N <= 4, 1,024 at N = 7, 512 at
# N = 15, 109 at N = 74, 40 at N = 200, 4 at N = 2,000); past the budget, from
# N = CHUNK_ELEMENTS // 2 on, a chunk is one row. A larger chunk spreads each
# chunk's fixed cost over more rows but raises peak memory. The floor of
# MIN_ROW_ENTRIES entries a row sets the chunk at small N, where a row's pair
# entries and concurrence temporaries outweigh its coefficients. Measured by
# perfbench (2-vCPU machine, medians of 6 runs), fig3 (25,200 rows at N = 2)
# took 0.1256 s and peaked at 34.34 MB of RSS in 1,024-row chunks, 0.1201 s
# and 34.36 MB in 1,638-row ones, and 0.1201 s and 34.57 MB in 2,048-row
# ones, where the sweep, not the CSV blocks, sets the peak. The CLI's
# oracle-check has its own budget, cli.ORACLE_CHUNK_ELEMENTS.
CHUNK_ELEMENTS = 1 << 13
MIN_ROW_ENTRIES = 5

# concurrence takes the pair matrices of consecutive chunks together, up to
# this many rows, so its fixed cost per call (about 0.15 ms) is not paid for
# every one-row chunk at large N. Rows are routed on their own, so the stack
# size leaves every record's bits alone.
CONCURRENCE_ROWS = 512

MAXIMIZE_AXES = ("rabi", "pump", "detuning")

# find_max_concurrence's coarse grid has at least MAXIMIZE_COARSE_POINTS
# points per axis; each zoom round re-sweeps MAXIMIZE_ZOOM_POINTS points per
# axis, and the rounds stop once every grid step is below MAXIMIZE_TOL_PUMP,
# in pump units.
MAXIMIZE_COARSE_POINTS = 33
MAXIMIZE_ZOOM_POINTS = 5
MAXIMIZE_TOL_PUMP = 1e-4

@dataclass(frozen=True)
class AxisSpec:
    """One linearly spaced sweep axis.

    ``pump`` axes are converted to rabi internally via
    rabi = pump * n_qubits / 2; rabi, detuning and dipole_shift values are
    in units of gamma. The bounds must be real numbers, not bools, and they
    and the span stop - start finite, so ``values()`` never overflows, and
    ``points`` an integer >= 2 (not a bool), so ``values()`` cannot raise.
    """

    name: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValueError(f"axis name must be one of {AXIS_NAMES}, got {self.name!r}")
        for bound in (self.start, self.stop):
            _check_real(f"{self.name} axis bound", bound)
        if not math.isfinite(self.stop - self.start):
            raise ValueError(f"{self.name} axis needs finite bounds and span, "
                             f"got [{self.start}, {self.stop}]")
        if not self.start < self.stop:
            raise ValueError(f"axis needs start < stop, got [{self.start}, {self.stop}]")
        if not isinstance(self.points, numbers.Integral) or isinstance(self.points, bool):
            raise ValueError(f"axis points must be an integer, got {self.points!r}")
        if self.points < 2:
            raise ValueError(f"axis needs at least 2 points, got {self.points}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


def _chunk_rows(n_qubits: int) -> int:
    """Rows of one ``steady_pair_density`` chunk at N, at least one."""
    return max(1, CHUNK_ELEMENTS // max(n_qubits + 1, MIN_ROW_ENTRIES))


def evaluate_points(points: ParamBatch, precision: str = "standard") -> np.ndarray:
    """The pipeline over a batch; returns one RECORD_FIELDS record per point.

    The rows go through ``steady_pair_density`` in chunks of
    ``_chunk_rows(N)`` rows (1,638 at N <= 4, 109 at N = 74), and through
    ``concurrence`` in stacks of whole chunks, as many as fit in
    CONCURRENCE_ROWS rows (at least one chunk). A stack is carried as its
    :class:`~dickepair.pairwise.PairEntries`, the chunks' six (P,) entry
    arrays joined, so no 4x4 pair matrix is built, and a stack's entries
    and spectra are released before the next stack's ladder sums run.
    <Sz>/N and <S+S->/N^2 come from the real entries r11, r22 and r44: one
    emitter's <sigma_z>/2 is (rho11 - rho44)/2, and <S+S-> = N <sigma+ sigma->
    + N(N-1) <sigma+_1 sigma-_2> with <sigma+ sigma-> = rho11 + rho22 and the
    pair coherence rho23 = rho22.
    """
    n = points.n_qubits
    step = _chunk_rows(n)
    stack = step * max(1, CONCURRENCE_ROWS // step)
    data = np.empty(len(points), dtype=RECORD_FIELDS)
    for start in range(0, len(points), stack):
        stop = min(start + stack, len(points))
        parts = [steady_pair_density(points.rows(s, min(s + step, stop)), precision=precision)
                 for s in range(start, stop, step)]
        pair = parts[0] if len(parts) == 1 else PairEntries(*map(np.concatenate, zip(*parts)))
        del parts
        res = concurrence(pair)
        out = data[start:stop]
        out["c"], out["c_ref1"], out["c_ref2"] = res.concurrence, res.c_ref_1, res.c_ref_2
        out["sz_norm"] = (pair.r11 - pair.r44) / 2.0
        out["spsm_norm"] = (pair.r11 + pair.r22) / n + (n - 1) * pair.r22 / n
        for j in range(4):
            out[f"lambda{j + 1}"] = res.lambdas[:, j]
        # the next stack's ladder sums run without this one's entries and spectra
        del pair, res
    return data


def evaluate_point(params: SystemParams, precision: str = "standard") -> tuple:
    """The RECORD_FIELDS tuple of one point: :func:`evaluate_points` on the batch of one."""
    return evaluate_points(ParamBatch.of(params), precision)[0].item()


@dataclass(frozen=True)
class SweepResult:
    """What a sweep evaluated, one entry per grid point, row-major over the axes.

    ``columns`` holds each axis's coordinate for every record (the raveled
    grid, in axis order), ``points`` the :class:`ParamBatch` that was
    evaluated and ``data`` its RECORD_FIELDS records; row i of all three is
    one grid point, and ``points.point(i)`` is its :class:`SystemParams`.
    """

    columns: tuple[np.ndarray, ...]
    points: ParamBatch
    data: np.ndarray


def sweep(
    template: SystemParams,
    axes: Sequence[AxisSpec],
    precision: str = "standard",
) -> SweepResult:
    """Evaluate the full pipeline over a 1- or 2-axis grid, as one batch."""
    axes = tuple(axes)
    if not 1 <= len(axes) <= 2:
        raise ValueError(f"sweep takes 1 or 2 axes, got {len(axes)}")
    # rabi and pump both set the drive
    targets = {"rabi" if a.name == "pump" else a.name for a in axes}
    if len(targets) < len(axes):
        raise ValueError(f"sweep axes must set distinct parameters, got {[a.name for a in axes]}")
    total = math.prod(a.points for a in axes)
    if total > MAX_SWEEP_POINTS:
        raise ValueError(f"grid of {total} points exceeds limit {MAX_SWEEP_POINTS}")

    grid = np.meshgrid(*(a.values() for a in axes), indexing="ij")
    columns = tuple(c.ravel() for c in grid)
    # parameters without an axis are read-only views, not copies
    values = {name: np.broadcast_to(float(getattr(template, name)), (total,))
              for name in ("rabi", "detuning", "dipole_shift")}
    for axis, column in zip(axes, columns):
        if axis.name == "pump":
            # the arithmetic and the check of SystemParams.with_pump
            with np.errstate(over="ignore"):
                rabi = column * template.n_qubits / 2.0
            bad = ~((rabi >= 0.0) & np.isfinite(rabi))
            if bad.any():
                raise ValueError("pump must be >= 0 with rabi = pump * N / 2 finite, "
                                 f"got {float(column[bad.argmax()])!r}")
            values["rabi"] = rabi
        else:
            values[axis.name] = column
    points = ParamBatch(template.n_qubits, **values)
    return SweepResult(columns, points, evaluate_points(points, precision))


def find_max_concurrence(
    template: SystemParams,
    axes: Sequence[AxisSpec],
    precision: str = "standard",
) -> tuple[SystemParams, float]:
    """Maximize concurrence over one or two rabi, pump or detuning axes.

    A parameter without an axis keeps its template value. A coarse grid of
    max(33, points) points per axis (one ``sweep``, the drive axis first
    whatever the axis order) brackets the optimum. Each zoom round then
    re-sweeps MAXIMIZE_ZOOM_POINTS points per axis over one grid step either
    side of the best point, clipped to the axis bounds, so the step halves
    every round and an optimum on an axis end is reached exactly. The rounds
    stop once every step is below MAXIMIZE_TOL_PUMP in pump units
    (MAXIMIZE_TOL_PUMP * n_qubits / 2, in units of gamma, on rabi and
    detuning axes).
    Returns the best point of the last round, the row of the batch that
    round evaluated (so ``c_max`` is the concurrence at exactly that point),
    and its concurrence.
    """
    for ax in axes:
        if ax.name not in MAXIMIZE_AXES:
            raise ValueError(f"maximize searches {MAXIMIZE_AXES} axes, got {ax.name!r}")
    # the drive axis first, so the axis order cannot change the result
    bounds = sorted(axes, key=lambda ax: ax.name == "detuning")
    scale = template.n_qubits / 2.0
    tols = [MAXIMIZE_TOL_PUMP * (1.0 if ax.name == "pump" else scale) for ax in bounds]

    grid = [replace(ax, points=max(MAXIMIZE_COARSE_POINTS, ax.points)) for ax in bounds]
    while True:
        result = sweep(template, grid, precision)
        i = int(np.argmax(result.data["c"]))
        steps = [(ax.stop - ax.start) / (ax.points - 1) for ax in grid]
        if all(step < tol for step, tol in zip(steps, tols)):
            break
        best = [float(col[i]) for col in result.columns]
        grid = [AxisSpec(ax.name, max(ax.start, x - step), min(ax.stop, x + step),
                         MAXIMIZE_ZOOM_POINTS)
                for ax, x, step in zip(bounds, best, steps)]
    return result.points.point(i), float(result.data["c"][i])


@dataclass(frozen=True)
class TransitionReport:
    """The peak, the collapse and the steepest response of one pump curve.

    ``peak_pump`` is p*, the first pump of largest concurrence, ``peak_c``
    is C(p*), and ``collapse_pump`` is the first pump past p* where C = 0
    (NaN if C stays positive). ``sharpness`` is max |d(<Sz>/N)/d x| over the
    grid by central differences, on the axis x = pump / |1 + i delta|: at
    zero effective detuning Delta + delta the curve is the resonant one with
    the pump stretched by that factor, and on x both read the same.
    ``critical_pump`` is where that maximum sits. Pumps are in ordinary
    pump units.
    """

    critical_pump: float
    sharpness: float
    peak_pump: float
    peak_c: float
    collapse_pump: float


def detect_transition(result: SweepResult) -> TransitionReport:
    """Read the peak, the collapse and the steepest response off a pump curve.

    ``result`` is a 1-D sweep whose drive varies while detuning and dipole
    shift stay constant (ValueError otherwise), with at least 200 rows
    (GridTooCoarse otherwise). The pump is 2 rabi / N of each row and <Sz>/N
    is the records' ``sz_norm``; nothing is evaluated here.
    """
    points = result.points
    if len(result.columns) != 1 or np.ptp(points.detuning) or np.ptp(points.dipole_shift):
        raise ValueError("transition detection needs a 1-D rabi or pump sweep")
    if len(points) < 200:
        raise GridTooCoarse(f"need >= 200 pump points, got {len(points)}")

    pumps = 2.0 * points.rabi / points.n_qubits
    c = result.data["c"]
    peak = int(np.argmax(c))
    zero = np.flatnonzero(c[peak + 1:] <= 0.0)
    deriv = np.gradient(result.data["sz_norm"], pumps)
    idx = int(np.argmax(np.abs(deriv)))
    sharpness = float(np.abs(deriv[idx])) * abs(complex(1.0, points.dipole_shift[0]))
    return TransitionReport(
        critical_pump=float(pumps[idx]),
        sharpness=sharpness,
        peak_pump=float(pumps[peak]),
        peak_c=float(c[peak]),
        collapse_pump=float(pumps[peak + 1 + zero[0]]) if len(zero) else math.nan,
    )
