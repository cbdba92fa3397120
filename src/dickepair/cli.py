"""Command-line front end: single-point evaluations, sweeps, figure presets.

:func:`run` takes the namespace that :func:`build_parser` parses and hands
it to the command's runner, which reads its flags from it: ``_params``
builds the operating point of the physics flags, a figure takes its
template from ``FIGURES``, and ``oracle-check`` its sizes from ``--n``.
:func:`main` parses a command with a parser that holds the subparsers of
the commands the process has run so far, built on first use; top-level
help, no arguments and an unknown command get the parser of every
command. Both print the same help and errors.

All physics flags are dimensionless ratios to the decay rate gamma, which is
fixed at 1 and is not a flag. Output is plain CSV preceded by ``#`` metadata
lines carrying every parameter, the precision mode and the package version;
floats are written with 17 significant digits so parsing recovers them
exactly. Every cell is byte for byte ``'%.17g' % (x + 0.0)``: rows go out in
blocks of about BLOCK_CELLS cells, each a new array filled column by column
from the table's columns, which :func:`~dickepair.csvfloat.csv_rows`
formats with its numpy kernel, or with ``%`` for a block under
KERNEL_MIN_CELLS cells (single-point commands, ``maximize``,
``oracle-check``) and for each cell the kernel cannot certify (NaN,
infinities, |x| outside [1e-280, 1e280], near-ties at the 17th digit).
Exit codes: 0 success, 2 usage error, 3 numerical error.

On glibc, :func:`main` sets the process's allocator once, before its first
command, to keep freed memory (``_MALLOC_SETTINGS``): each sweep chunk, CSV
block and dense-oracle stack then reuses pages the one before it faulted
in, where glibc's defaults hand them back and fault them in again. The
output does not change. Without ``mallopt`` nothing changes, and library
calls never touch the allocator.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from . import __version__
from .csvfloat import BLOCK_CELLS, csv_rows
from .errors import DickepairError
from .oracle import (
    _check_size,
    build_liouvillian,
    density_expectation_set,
    oracle_pair_density,
    steady_state_null_space,
)
from .pairwise import concurrence, steady_pair_density
from .params import ParamBatch, SystemParams
from .steady import expectation_set
from .sweep import AxisSpec, find_max_concurrence, sweep

DEFAULT_ORACLE_SIZES = (2, 3, 4, 6)
DEFAULT_ORACLE_TOL = 1e-8
# oracle-check solves stacks of ORACLE_CHUNK_ELEMENTS // (N + 1)^4 dense
# Liouvillians, at least one: 101 at N = 2, 3 at N = 6, one from N = 9 on
ORACLE_CHUNK_ELEMENTS = 1 << 13

# Shared pump grid for the 1-D presets: 400 points on (0, 3].
_PUMP_AXIS = AxisSpec("pump", 0.0075, 3.0, 400)


@dataclass(frozen=True)
class FigurePreset:
    n_qubits: int
    axes: tuple[AxisSpec, ...]
    # (dipole_shift, detuning) per curve for 1-D presets; single entry for 2-D
    curves: tuple[tuple[float, float], ...]


FIGURES = {
    # N=2 pump response; drive adjusted so the two-photon resonance tracks
    # the pair shift (detuning = -2 * dipole_shift)
    "fig2": FigurePreset(2, (_PUMP_AXIS,), ((0.0, 0.0), (5.0, -10.0), (10.0, -20.0), (15.0, -30.0))),
    # N=2 landscape over drive strength and detuning at fixed pair shift
    "fig3": FigurePreset(
        2,
        (AxisSpec("rabi", 0.025, 5.0, 200), AxisSpec("detuning", -20.0, 5.0, 126)),
        ((5.0, 0.0),),
    ),
    "fig4": FigurePreset(6, (_PUMP_AXIS,), ((0.0, 0.0), (3.0, -0.75), (3.0, -4.2), (3.0, -6.0))),
    "fig5": FigurePreset(50, (_PUMP_AXIS,), ((0.0, 0.0), (2.5, -2.5), (5.0, -5.0), (7.5, -7.5))),
    "fig6": FigurePreset(74, (_PUMP_AXIS,), ((0.0, 0.0), (3.7, -3.7), (5.55, -5.55), (7.4, -7.4))),
}


def _fmt(x: float) -> str:
    # + 0.0 turns an exact -0.0 into 0.0 and leaves every other value alone
    return format(float(x) + 0.0, ".17g")


def _params(ns: argparse.Namespace) -> SystemParams:
    """The operating point of the flags: rabi 1 without a drive flag, ``--pump`` converted."""
    params = SystemParams(n_qubits=ns.n, rabi=1.0 if ns.rabi is None else ns.rabi,
                          detuning=ns.detuning, dipole_shift=ns.dipole)
    return params if ns.pump is None else params.with_pump(ns.pump)


def _meta_lines(ns: argparse.Namespace, params: SystemParams | None = None,
                axes: Iterable[AxisSpec] = ()) -> list[str]:
    lines = [
        f"dickepair {__version__}",
        f"command: {ns.command}" + (f" {ns.name}" if ns.command == "figure" else ""),
        f"precision: {ns.precision}",
    ]
    if params is not None:
        lines += [
            f"n_qubits: {params.n_qubits}",
            f"rabi: {_fmt(params.rabi)}",
            f"detuning: {_fmt(params.detuning)}",
            f"dipole_shift: {_fmt(params.dipole_shift)}",
            "decay: 1",  # gamma, the unit of every rate
        ]
    for ax in axes:
        lines.append(f"axis: {ax.name} start={_fmt(ax.start)} stop={_fmt(ax.stop)} points={ax.points}")
    return lines


@dataclass(frozen=True)
class _Table:
    """A command's computed output: metadata lines, header and row blocks.

    A set ``error`` is reported after the CSV is written, with exit code 3.
    """

    meta: list[str]
    header: list[str]
    blocks: Iterable[np.ndarray]
    error: str | None = None


def _write_csv(fh, meta: list[str], header: list[str], blocks) -> None:
    """Metadata, header and rows; ``blocks`` yields 2-D float arrays of rows.

    Each block is written as one string by :func:`~dickepair.csvfloat.csv_rows`,
    so no more than a block is ever held as text.
    """
    for line in meta:
        fh.write(f"# {line}\n")
    fh.write(",".join(header) + "\n")
    for block in blocks:
        fh.write(csv_rows(block))


def _column_blocks(columns):
    """Blocks of about BLOCK_CELLS cells, at least one row, from equal-length columns.

    Each block is a new array, filled column by column: a caller may keep a
    block, so none is reused.
    """
    rows = max(1, BLOCK_CELLS // len(columns))
    for start in range(0, len(columns[0]), rows):
        block = np.empty((min(rows, len(columns[0]) - start), len(columns)))
        for j, col in enumerate(columns):
            block[:, j] = col[start:start + rows]
        yield block


def _one_row(row) -> list[np.ndarray]:
    return [np.array([row], dtype=float)]


def _out_stream(path: str | None):
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _run_expect(ns: argparse.Namespace) -> _Table:
    params = _params(ns)
    m = expectation_set(params, precision=ns.precision)
    header = [
        "s_plus_re", "s_plus_im", "s_z", "s_z2",
        "s_plus_sz_re", "s_plus_sz_im", "s_plus2_re", "s_plus2_im", "s_plus_s_minus",
    ]
    row = (
        m.s_plus.real, m.s_plus.imag, m.s_z, m.s_z2,
        m.s_plus_sz.real, m.s_plus_sz.imag, m.s_plus2.real, m.s_plus2.imag,
        m.s_plus_s_minus,
    )
    return _Table(_meta_lines(ns, params), header, _one_row(row))


def _run_rho(ns: argparse.Namespace) -> _Table:
    params = _params(ns)
    rho = steady_pair_density(params, precision=ns.precision)
    header, row = [], []
    for i in range(4):
        for j in range(4):
            header += [f"rho{i + 1}{j + 1}_re", f"rho{i + 1}{j + 1}_im"]
            row += [rho[i, j].real, rho[i, j].imag]
    return _Table(_meta_lines(ns, params), header, _one_row(row))


def _run_concurrence(ns: argparse.Namespace) -> _Table:
    params = _params(ns)
    res = concurrence(steady_pair_density(params, precision=ns.precision))
    header = ["concurrence", "lambda1", "lambda2", "lambda3", "lambda4", "c_ref_1", "c_ref_2"]
    row = (res.concurrence, *res.lambdas, res.c_ref_1, res.c_ref_2)
    return _Table(_meta_lines(ns, params), header, _one_row(row))


def _sweep_table(ns: argparse.Namespace, params: SystemParams,
                 axes: tuple[AxisSpec, ...]) -> _Table:
    result = sweep(params, axes, precision=ns.precision)
    field_names = [name for name, _ in result.data.dtype.descr]
    header = [ax.name for ax in axes] + field_names
    columns = [*result.columns, *(result.data[name] for name in field_names)]
    return _Table(_meta_lines(ns, params, axes), header, _column_blocks(columns))


def _run_sweep(ns: argparse.Namespace) -> _Table:
    return _sweep_table(ns, _params(ns), tuple(ns.axis))


def _run_maximize(ns: argparse.Namespace) -> _Table:
    params, axes = _params(ns), tuple(ns.axis)
    argmax, cmax = find_max_concurrence(params, axes, precision=ns.precision)
    header = ["rabi", "pump", "detuning", "c_max"]
    row = (argmax.rabi, argmax.pump, argmax.detuning, cmax)
    return _Table(_meta_lines(ns, params, axes), header, _one_row(row))


def _run_figure(ns: argparse.Namespace) -> _Table:
    preset = FIGURES[ns.name]
    dipole, detuning = preset.curves[0]
    template = SystemParams(n_qubits=preset.n_qubits, rabi=1.0, detuning=detuning,
                            dipole_shift=dipole)
    if len(preset.axes) == 2:
        return _sweep_table(ns, template, preset.axes)

    axis = preset.axes[0]
    meta = _meta_lines(ns, template, preset.axes)
    header = [axis.name]
    columns = [axis.values()]
    for k, (dipole, detuning) in enumerate(preset.curves, start=1):
        meta.append(f"curve {k}: dipole_shift={_fmt(dipole)} detuning={_fmt(detuning)}")
        curve_template = replace(template, dipole_shift=dipole, detuning=detuning)
        result = sweep(curve_template, (axis,), precision=ns.precision)
        header += [f"c_{k}", f"c_ref1_{k}"]
        columns += [result.data["c"], result.data["c_ref1"]]
    return _Table(meta, header, _column_blocks(columns))


def _run_oracle_check(ns: argparse.Namespace) -> _Table:
    """Closed form against the dense null space on a 75-point grid per size.

    Every size is checked and evaluated in closed form (one batch each for
    its moments and its pair matrices) before any dense solve. The dense
    side reuses its per-size operators and dissipator and solves chunks of
    ORACLE_CHUNK_ELEMENTS // (N + 1)^4 rows, at least one, so no Liouvillian
    stack holds more than ORACLE_CHUNK_ELEMENTS entries; the moments and
    pair matrices of the states are then read off as one stack per size.
    """
    grid = [axis.ravel() for axis in np.meshgrid(
        np.linspace(0.2, 5.0, 5), np.linspace(-10.0, 2.0, 5), (0.0, 2.0, 5.0), indexing="ij")]
    closed_form = []
    for n in ns.n or DEFAULT_ORACLE_SIZES:
        points = ParamBatch(n, *grid)
        _check_size(points.n_qubits)
        closed_form.append((points, expectation_set(points, precision=ns.precision),
                            steady_pair_density(points, precision=ns.precision)))
    blocks = []
    for points, analytic, pair in closed_form:
        n = points.n_qubits
        step = max(1, ORACLE_CHUNK_ELEMENTS // (n + 1) ** 4)
        states = np.concatenate([
            steady_state_null_space(build_liouvillian(points.rows(start, start + step)))
            for start in range(0, len(points), step)
        ])
        reference = density_expectation_set(states)
        diffs = [getattr(analytic, f) - getattr(reference, f)
                 for f in ("s_plus", "s_z", "s_z2", "s_plus_sz", "s_plus2", "s_plus_s_minus")]
        # hypot rounds as abs() of a Python complex does; np.abs may differ in the last bit
        moment_err = np.max([np.hypot(d.real, d.imag) for d in diffs], axis=0)
        rho_err = np.abs(pair.matrices() - oracle_pair_density(states, n)).max(axis=(1, 2))
        blocks.append(np.column_stack([np.full(len(points), float(n)), points.rabi,
                                       points.detuning, points.dipole_shift,
                                       moment_err, rho_err]))
    worst = max((float(block[:, 4:].max()) for block in blocks), default=0.0)
    header = ["n_qubits", "rabi", "detuning", "dipole_shift", "moment_err", "rho_err"]
    meta = _meta_lines(ns) + [f"worst_error: {_fmt(worst)}",
                                  f"tolerance: {_fmt(DEFAULT_ORACLE_TOL)}"]
    error = None
    if worst > DEFAULT_ORACLE_TOL:
        error = (f"NumericalFailure: oracle mismatch {worst:.3e} exceeds "
                 f"{DEFAULT_ORACLE_TOL:.1e}")
    return _Table(meta, header, blocks, error)


_RUNNERS = {
    "expect": _run_expect,
    "rho": _run_rho,
    "concurrence": _run_concurrence,
    "sweep": _run_sweep,
    "maximize": _run_maximize,
    "figure": _run_figure,
    "oracle-check": _run_oracle_check,
}


def run(ns: argparse.Namespace) -> int:
    """Run a command parsed by :func:`build_parser`, writing CSV to ``ns.out``.

    The runner of ``ns.command`` reads its flags from the namespace. The
    output is opened only once the result is computed, so a command that
    fails leaves an existing output file as it was.
    """
    table = _RUNNERS[ns.command](ns)
    with _out_stream(ns.out) as fh:
        _write_csv(fh, table.meta, table.header, table.blocks)
    if table.error is not None:
        print(f"error: {table.error}", file=sys.stderr)
        return 3
    return 0


def _parse_axis(text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"axis must be name:start:stop:points, got {text!r}"
        )
    name, start, stop, points = parts
    try:
        return AxisSpec(name, float(start), float(stop), int(points))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(sp, drive_required: bool = True):
    sp.add_argument("--n", type=int, required=True, help="number of qubits")
    group = sp.add_mutually_exclusive_group(required=drive_required)
    group.add_argument("--rabi", type=float, help="drive amplitude in units of gamma")
    group.add_argument("--pump", type=float, help="scaled drive 2*rabi/N")
    sp.add_argument("--detuning", type=float, default=0.0, help="Delta in units of gamma")
    sp.add_argument("--dipole", type=float, default=0.0, help="pair shift delta in units of gamma")


def _add_output(sp):
    sp.add_argument("--out", default=None, help="output CSV path (default stdout)")
    sp.add_argument("--precision", choices=("standard", "extended"), default="standard")


def _add_point(sp):
    _add_common(sp)
    _add_output(sp)


def _add_sweep(sp):
    _add_common(sp, drive_required=False)
    sp.add_argument("--axis", action="append", type=_parse_axis, required=True,
                    metavar="NAME:START:STOP:POINTS",
                    help="axis over rabi, detuning, dipole_shift or pump (max 2)")
    _add_output(sp)


def _add_maximize(sp):
    _add_common(sp, drive_required=False)
    sp.add_argument("--axis", action="append", type=_parse_axis, required=True,
                    metavar="NAME:LO:HI:COARSE",
                    help="search axis over rabi, pump or detuning (max 2); COARSE points, "
                         "at least 33, bracket the optimum")
    _add_output(sp)


def _add_figure(sp):
    sp.add_argument("name", choices=sorted(FIGURES))
    _add_output(sp)


def _add_oracle_check(sp):
    sp.add_argument("--n", type=int, action="append",
                    help="ensemble size to check (repeatable, default "
                         f"{' '.join(map(str, DEFAULT_ORACLE_SIZES))})")
    _add_output(sp)


# each command's help line and the function that adds its flags, in the
# order of `dickepair --help`
_SUBCOMMANDS = {
    "expect": ("collective moments at one operating point", _add_point),
    "rho": ("two-qubit density matrix entries at one operating point", _add_point),
    "concurrence": ("concurrence and spin-flip spectrum at one operating point", _add_point),
    "sweep": ("grid sweep over 1 or 2 axes", _add_sweep),
    "maximize": ("maximize concurrence over drive and/or detuning", _add_maximize),
    "figure": ("reproduce a result-figure data set", _add_figure),
    "oracle-check": ("compare closed form against the dense solver", _add_oracle_check),
}


@functools.cache
def _parsers(full: bool) -> tuple[argparse.ArgumentParser, argparse.Action]:
    """A top-level parser and its command action, built once per process and shape.

    The full shape holds every command and lists them all in its help and
    errors. The other starts with none and gains a command's subparser when
    :func:`build_parser` first asks for it; its usage names every command,
    as the full one's does.
    """
    parser = argparse.ArgumentParser(
        prog="dickepair",
        description="Steady-state pairwise entanglement of a driven, collectively "
                    "damped qubit ensemble.",
    )
    names = None if full else "{" + ",".join(_SUBCOMMANDS) + "}"
    return parser, parser.add_subparsers(dest="command", required=True, metavar=names)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared afterwards.

    Without ``command`` it holds every command. With a ``command`` of
    ``_SUBCOMMANDS`` it holds the commands asked for so far in this process,
    which parse their arguments and print their messages as in the full
    parser. Parsing leaves no state in the parser (every ``append`` option
    starts from a None default), so one parser serves every call of
    :func:`main`.
    """
    parser, commands = _parsers(command is None)
    for name in _SUBCOMMANDS if command is None else (command,):
        if name not in commands.choices:
            help_text, add_arguments = _SUBCOMMANDS[name]
            add_arguments(commands.add_parser(name, help=help_text))
    return parser


# argparse takes "-5" and "-0.5" as option values but reads a negative
# number in exponent form, such as repr(-1.5e-05), as an option string
_NEGATIVE_NUMBER = re.compile(r"-(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """``--flag -1.5e-05`` as ``--flag=-1.5e-05``, which argparse parses."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE_NUMBER.fullmatch(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


# glibc's mallopt parameters (malloc.h) and the values main() sets: arrays
# up to 3 MiB come from the heap, not from mmaps of their own, and up to
# 8 MiB freed at the heap's top stays in the process. Both are the smallest
# of {2, 3, 4} MiB and {4, 8, 16} MiB that remove the re-faulting: the
# largest block allocated per chunk is the dense oracle's at N = 16
# (2.5-2.75 MiB by bisection), and `oracle-check --n 12 --n 16` re-faults
# 133,000 pages with a 7 MiB trim threshold and 2 from 8 MiB on.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOC_SETTINGS = ((_M_MMAP_THRESHOLD, 3 << 20), (_M_TRIM_THRESHOLD, 8 << 20))


def _load_libc():
    return ctypes.CDLL("libc.so.6")


@functools.cache
def _keep_freed_memory() -> None:
    """Apply ``_MALLOC_SETTINGS`` to this process, once and best effort.

    Where there is no glibc (the load fails or has no ``mallopt``) or
    ``mallopt`` refuses a value (returns 0), the allocator stays as it was.
    Only :func:`main` calls this: library calls leave their host process's
    allocator alone.
    """
    try:
        mallopt = _load_libc().mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOC_SETTINGS:
        mallopt(param, value)


def main(argv=None) -> int:
    _keep_freed_memory()
    argv = _attach_negative_values(sys.argv[1:] if argv is None else argv)
    # a call that names no command first (top-level help, no arguments, an
    # unknown command) gets the full parser, whose messages list them all
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    try:
        ns = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(ns)
    except DickepairError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"usage error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
