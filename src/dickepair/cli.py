"""Command-line front end: single-point evaluations, sweeps, figure presets.

All physics flags are dimensionless ratios to the decay rate gamma, which is
fixed at 1 and is not a flag. Output is plain CSV preceded by ``#`` metadata
lines carrying every parameter, the precision mode and the package version;
floats are written with 17 significant digits so parsing recovers them
exactly. Exit codes: 0 success, 2 usage error, 3 numerical error.
"""
from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .errors import DickepairError, UnknownFigure
from .oracle import build_liouvillian, density_expectation_set, steady_state_null_space
from .pairwise import concurrence, steady_pair_density, two_qubit_rho
from .params import SystemParams
from .steady import expectation_set
from .sweep import AxisSpec, find_max_concurrence, sweep

DEFAULT_ORACLE_SIZES = (2, 3, 4, 6)
DEFAULT_ORACLE_TOL = 1e-8

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


@dataclass
class RunConfig:
    command: str
    params: SystemParams | None = None
    axes: tuple[AxisSpec, ...] = ()
    output_path: str | None = None
    precision: str = "standard"
    figure: str | None = None
    oracle_sizes: tuple[int, ...] = DEFAULT_ORACLE_SIZES
    tolerance: float = DEFAULT_ORACLE_TOL


def figure_preset(name: str) -> RunConfig:
    """RunConfig reproducing one of the named result figures."""
    if name not in FIGURES:
        raise UnknownFigure(f"no preset named {name!r}; choose from {sorted(FIGURES)}")
    preset = FIGURES[name]
    dipole, detuning = preset.curves[0]
    template = SystemParams(
        n_qubits=preset.n_qubits, rabi=1.0, detuning=detuning, dipole_shift=dipole
    )
    return RunConfig(
        command="figure",
        figure=name,
        params=template,
        axes=preset.axes,
        output_path=f"{name}.csv",
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _meta_lines(config: RunConfig) -> list[str]:
    p = config.params
    lines = [
        f"dickepair {__version__}",
        f"command: {config.command}" + (f" {config.figure}" if config.figure else ""),
        f"precision: {config.precision}",
    ]
    if p is not None:
        lines += [
            f"n_qubits: {p.n_qubits}",
            f"rabi: {_fmt(p.rabi)}",
            f"detuning: {_fmt(p.detuning)}",
            f"dipole_shift: {_fmt(p.dipole_shift)}",
            f"decay: {_fmt(p.decay)}",
        ]
    for ax in config.axes:
        lines.append(f"axis: {ax.name} start={_fmt(ax.start)} stop={_fmt(ax.stop)} points={ax.points}")
    return lines


def _write_csv(fh, meta: list[str], header: list[str], rows) -> None:
    for line in meta:
        fh.write(f"# {line}\n")
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


def _out_stream(path: str | None):
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _run_expect(config: RunConfig, fh) -> int:
    m = expectation_set(config.params, precision=config.precision)
    header = [
        "s_plus_re", "s_plus_im", "s_z", "s_z2",
        "s_plus_sz_re", "s_plus_sz_im", "s_plus2_re", "s_plus2_im", "s_plus_s_minus",
    ]
    row = (
        m.s_plus.real, m.s_plus.imag, m.s_z, m.s_z2,
        m.s_plus_sz.real, m.s_plus_sz.imag, m.s_plus2.real, m.s_plus2.imag,
        m.s_plus_s_minus,
    )
    _write_csv(fh, _meta_lines(config), header, [row])
    return 0


def _run_rho(config: RunConfig, fh) -> int:
    rho = steady_pair_density(config.params, precision=config.precision)
    header, row = [], []
    for i in range(4):
        for j in range(4):
            header += [f"rho{i + 1}{j + 1}_re", f"rho{i + 1}{j + 1}_im"]
            row += [rho[i, j].real, rho[i, j].imag]
    _write_csv(fh, _meta_lines(config), header, [row])
    return 0


def _run_concurrence(config: RunConfig, fh) -> int:
    res = concurrence(steady_pair_density(config.params, precision=config.precision))
    header = ["concurrence", "lambda1", "lambda2", "lambda3", "lambda4", "c_ref_1", "c_ref_2"]
    row = (res.concurrence, *res.lambdas, res.c_ref_1, res.c_ref_2)
    _write_csv(fh, _meta_lines(config), header, [row])
    return 0


def _run_sweep(config: RunConfig, fh) -> int:
    result = sweep(config.params, config.axes, precision=config.precision)
    field_names = [name for name, _ in result.data.dtype.descr]
    header = [ax.name for ax in config.axes] + field_names
    axis_cols = result.axis_columns()
    rows = (
        tuple(float(col[i]) for col in axis_cols) + tuple(result.data[i])
        for i in range(len(result.data))
    )
    _write_csv(fh, _meta_lines(config), header, rows)
    return 0


def _run_maximize(config: RunConfig, fh) -> int:
    rabi_bounds = None
    detuning_bounds = None
    coarse = 33
    for ax in config.axes:
        if ax.name in ("rabi", "pump"):
            scale = config.params.n_qubits * config.params.decay / 2.0 if ax.name == "pump" else 1.0
            rabi_bounds = (ax.start * scale, ax.stop * scale)
            coarse = max(coarse, ax.points)
        elif ax.name == "detuning":
            detuning_bounds = (ax.start, ax.stop)
        else:
            raise ValueError(f"maximize supports rabi/pump and detuning axes, got {ax.name!r}")
    if rabi_bounds is None:
        raise ValueError("maximize needs a rabi or pump axis for the drive bounds")
    argmax, cmax = find_max_concurrence(
        config.params, rabi_bounds, detuning_bounds,
        coarse_points=coarse, precision=config.precision,
    )
    header = ["rabi", "pump", "detuning", "c_max"]
    row = (argmax.rabi, argmax.pump, argmax.detuning, cmax)
    _write_csv(fh, _meta_lines(config), header, [row])
    return 0


def _run_figure(config: RunConfig, fh) -> int:
    preset = FIGURES[config.figure]
    if len(preset.axes) == 2:
        return _run_sweep(config, fh)

    axis = preset.axes[0]
    meta = _meta_lines(config)
    header = [axis.name]
    columns = [axis.values()]
    for k, (dipole, detuning) in enumerate(preset.curves, start=1):
        meta.append(f"curve {k}: dipole_shift={_fmt(dipole)} detuning={_fmt(detuning)}")
        curve_template = replace(config.params, dipole_shift=dipole, detuning=detuning)
        result = sweep(curve_template, (axis,), precision=config.precision)
        header += [f"c_{k}", f"c_ref1_{k}"]
        columns += [result.column("c"), result.column("c_ref1")]
    rows = zip(*columns)
    _write_csv(fh, meta, header, rows)
    return 0


def _run_oracle_check(config: RunConfig, fh) -> int:
    rabis = np.linspace(0.2, 5.0, 5)
    detunings = np.linspace(-10.0, 2.0, 5)
    dipoles = (0.0, 2.0, 5.0)
    header = ["n_qubits", "rabi", "detuning", "dipole_shift", "moment_err", "rho_err"]
    rows = []
    worst = 0.0
    for n in config.oracle_sizes:
        for rabi in rabis:
            for det in detunings:
                for dip in dipoles:
                    params = SystemParams(n_qubits=int(n), rabi=float(rabi),
                                          detuning=float(det), dipole_shift=float(dip))
                    analytic = expectation_set(params, precision=config.precision)
                    rho_ss = steady_state_null_space(build_liouvillian(params))
                    reference = density_expectation_set(rho_ss)
                    moment_err = max(
                        abs(getattr(analytic, f) - getattr(reference, f))
                        for f in ("s_plus", "s_z", "s_z2", "s_plus_sz", "s_plus2",
                                  "s_plus_s_minus")
                    )
                    rho_err = float(np.max(np.abs(
                        steady_pair_density(params, precision=config.precision)
                        - two_qubit_rho(reference, params.n_qubits)
                    )))
                    worst = max(worst, moment_err, rho_err)
                    rows.append((n, rabi, det, dip, moment_err, rho_err))
    meta = _meta_lines(config) + [f"worst_error: {_fmt(worst)}",
                                  f"tolerance: {_fmt(config.tolerance)}"]
    _write_csv(fh, meta, header, rows)
    if worst > config.tolerance:
        print(f"error: NumericalFailure: oracle mismatch {worst:.3e} exceeds "
              f"{config.tolerance:.1e}", file=sys.stderr)
        return 3
    return 0


_RUNNERS = {
    "expect": _run_expect,
    "rho": _run_rho,
    "concurrence": _run_concurrence,
    "sweep": _run_sweep,
    "maximize": _run_maximize,
    "figure": _run_figure,
    "oracle-check": _run_oracle_check,
}


def run(config: RunConfig) -> int:
    """Execute a validated configuration, writing CSV to its output path."""
    runner = _RUNNERS[config.command]
    with _out_stream(config.output_path) as fh:
        return runner(config, fh)


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


def _add_common(sp, drive_required: bool = True, n_required: bool = True):
    sp.add_argument("--n", type=int, required=n_required, help="number of qubits")
    group = sp.add_mutually_exclusive_group(required=drive_required)
    group.add_argument("--rabi", type=float, help="drive amplitude in units of gamma")
    group.add_argument("--pump", type=float, help="scaled drive 2*rabi/(N*gamma)")
    sp.add_argument("--detuning", type=float, default=0.0, help="Delta in units of gamma")
    sp.add_argument("--dipole", type=float, default=0.0, help="pair shift delta in units of gamma")


def _add_output(sp):
    sp.add_argument("--out", default=None, help="output CSV path (default stdout)")
    sp.add_argument("--precision", choices=("standard", "extended"), default="standard")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickepair",
        description="Steady-state pairwise entanglement of a driven, collectively "
                    "damped qubit ensemble.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("expect", "collective moments at one operating point"),
        ("rho", "two-qubit density matrix entries at one operating point"),
        ("concurrence", "concurrence and spin-flip spectrum at one operating point"),
    ):
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        _add_output(sp)

    sp = sub.add_parser("sweep", help="grid sweep over 1 or 2 axes")
    _add_common(sp, drive_required=False)
    sp.add_argument("--axis", action="append", type=_parse_axis, required=True,
                    metavar="NAME:START:STOP:POINTS",
                    help="axis over rabi, detuning, dipole_shift or pump (max 2)")
    _add_output(sp)

    sp = sub.add_parser("maximize", help="maximize concurrence over drive (and detuning)")
    _add_common(sp, drive_required=False)
    sp.add_argument("--axis", action="append", type=_parse_axis, required=True,
                    metavar="NAME:LO:HI:COARSE",
                    help="search bounds; rabi or pump axis required, detuning optional")
    _add_output(sp)

    sp = sub.add_parser("figure", help="reproduce a result-figure data set")
    sp.add_argument("name", choices=sorted(FIGURES))
    _add_output(sp)

    sp = sub.add_parser("oracle-check", help="compare closed form against the dense solver")
    sp.add_argument("--n", type=int, action="append",
                    help="ensemble size to check (repeatable, default 2 3 4 6)")
    sp.add_argument("--tol", type=float, default=DEFAULT_ORACLE_TOL)
    _add_output(sp)

    return parser


def _config_from_args(ns: argparse.Namespace) -> RunConfig:
    if ns.command == "figure":
        config = figure_preset(ns.name)
        config.precision = ns.precision
        if ns.out is not None:
            config.output_path = ns.out
        return config

    if ns.command == "oracle-check":
        sizes = tuple(ns.n) if ns.n else DEFAULT_ORACLE_SIZES
        return RunConfig(command="oracle-check", oracle_sizes=sizes, tolerance=ns.tol,
                         output_path=ns.out, precision=ns.precision)

    rabi = ns.rabi
    if rabi is None:
        rabi = ns.pump * ns.n / 2.0 if ns.pump is not None else 1.0
    params = SystemParams(n_qubits=ns.n, rabi=rabi, detuning=ns.detuning,
                          dipole_shift=ns.dipole)
    axes = tuple(getattr(ns, "axis", None) or ())
    return RunConfig(command=ns.command, params=params, axes=axes,
                     output_path=ns.out, precision=ns.precision)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from_args(ns)
        return run(config)
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
