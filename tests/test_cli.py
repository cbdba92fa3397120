"""Command-line interface: presets, CSV output, exit codes."""
import argparse
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dickepair
from dickepair import (
    AxisSpec,
    SystemParams,
    build_liouvillian,
    expectation_set,
    find_max_concurrence,
    oracle_pair_density,
    steady_pair_density,
    steady_state_null_space,
    sweep,
)
from dickepair import cli, csvfloat
from dickepair.cli import FIGURES, main
from dickepair.oracle import density_expectation_set
from helpers import reference_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MOMENT_FIELDS = ("s_plus", "s_z", "s_z2", "s_plus_sz", "s_plus2", "s_plus_s_minus")


def read_csv(path):
    meta, header, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                meta.append(line[1:].strip())
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return meta, header, rows


def test_figure_presets_cover_reported_parameter_sets():
    fig2 = FIGURES["fig2"]
    assert fig2.n_qubits == 2
    assert fig2.curves == ((0.0, 0.0), (5.0, -10.0), (10.0, -20.0), (15.0, -30.0))
    fig4 = FIGURES["fig4"]
    assert fig4.n_qubits == 6
    assert fig4.curves == ((0.0, 0.0), (3.0, -0.75), (3.0, -4.2), (3.0, -6.0))
    fig5 = FIGURES["fig5"]
    assert fig5.n_qubits == 50
    assert fig5.curves == ((0.0, 0.0), (2.5, -2.5), (5.0, -5.0), (7.5, -7.5))
    fig6 = FIGURES["fig6"]
    assert fig6.n_qubits == 74
    assert fig6.curves == ((0.0, 0.0), (3.7, -3.7), (5.55, -5.55), (7.4, -7.4))
    axis = FIGURES["fig2"].axes[0]
    assert axis.name == "pump" and axis.points == 400 and axis.stop == 3.0
    assert axis.start > 0.0
    fig3 = FIGURES["fig3"]
    assert fig3.n_qubits == 2 and fig3.curves == ((5.0, 0.0),)
    names = [ax.name for ax in fig3.axes]
    assert names == ["rabi", "detuning"]
    assert fig3.axes[0].start > 0.0 and fig3.axes[0].stop == 5.0
    assert fig3.axes[1].start == -20.0 and fig3.axes[1].stop == 5.0


def test_unknown_figure_exits_usage(capsys):
    assert main(["figure", "fig7"]) == 2
    capsys.readouterr()


def test_missing_required_flag_exits_usage(capsys):
    assert main(["concurrence", "--rabi", "1.0"]) == 2
    capsys.readouterr()


def test_numerical_error_exit_code(capsys):
    code = main(["concurrence", "--n", "2", "--rabi", "0"])
    err = capsys.readouterr().err
    assert code == 3
    assert "ZeroDrive" in err


def test_zero_drive_inside_sweep_exit_code(capsys):
    # the first grid point has rabi = 0; the batch fails as the point would
    code = main(["sweep", "--n", "2", "--axis", "rabi:0:1:3"])
    err = capsys.readouterr().err
    assert code == 3
    assert "ZeroDrive" in err


@pytest.mark.parametrize("argv, error", [
    (["rho", "--n", "2", "--rabi", "1e-300", "--dipole", "1e20"], "ZeroDrive"),
    (["expect", "--n", "2", "--rabi", "1e-310"], "ZeroDrive"),
    (["concurrence", "--n", "2", "--rabi", "1e-310"], "ZeroDrive"),
    (["rho", "--n", "2", "--pump", "1", "--detuning", "1e308", "--dipole", "1e308"],
     "NumericalFailure"),
    (["expect", "--n", "3", "--pump", "1", "--detuning", "-1e308", "--dipole", "-1e308"],
     "NumericalFailure"),
    # sweeps whose first or last row is such a point
    (["sweep", "--n", "2", "--axis", "rabi:1e-310:1:3"], "ZeroDrive"),
    (["sweep", "--n", "2", "--detuning", "1e308", "--axis", "dipole_shift:-1:1e308:2"],
     "NumericalFailure"),
])
def test_non_finite_derived_parameters_exit_3_without_warnings(capsys, argv, error):
    # finite flags whose drive |alpha| has no finite reciprocal, or whose
    # Delta + delta overflows, fail typed instead of printing NaN
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert not caught and "Warning" not in captured.err
    assert captured.err.startswith(f"error: {error}: ") and captured.out == ""


def test_unwritable_output_exits_usage(capsys, tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["concurrence", "--n", "2", "--rabi", "1.0", "--out", str(out)])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("axis", ["detuning:-1e308:1e308:3", "pump:0.1:inf:3"])
def test_non_finite_axis_exits_usage_without_warnings(capsys, axis):
    # the axis is rejected while parsing, before linspace could overflow
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sweep", "--n", "2", "--axis", axis])
    err = capsys.readouterr().err
    assert code == 2
    assert not caught and "Warning" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert f"{axis.split(':')[0]} axis needs finite bounds and span" in errors[0]


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "200", "--axis", "pump:0.1:1e307:3"],
    ["sweep", "--n", "2", "--axis", "pump:-1:1:3"],
    ["concurrence", "--n", "200", "--pump", "1e307"],
    ["concurrence", "--n", "200", "--pump", "-1"],
    ["concurrence", "--n", "200", "--pump", "nan"],
])
def test_bad_pump_exits_usage_naming_the_pump(capsys, argv):
    # a finite pump whose rabi = pump * N / 2 overflows is a pump error, not a rabi one
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert not caught and "Warning" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert errors[0].startswith("usage error: pump must be >= 0")
    assert "rabi must" not in errors[0] and "np.float64" not in errors[0]


def test_readme_command_line_block_runs(tmp_path, capsys):
    # every command of the README's "Command line" block, with --out in tmp_path
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [line.split() for line in block.splitlines() if line.startswith("dickepair ")]
    assert len(commands) == 7
    for k, (_, *argv) in enumerate(commands):
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        else:
            argv += ["--out", str(tmp_path / f"stdout_{k}.csv")]
        assert main(argv) == 0, argv
        assert Path(argv[argv.index("--out") + 1]).stat().st_size > 0
    capsys.readouterr()


def test_too_many_axes_exits_usage(capsys):
    code = main([
        "sweep", "--n", "2", "--axis", "pump:0.1:1:5", "--axis",
        "detuning:-1:1:5", "--axis", "dipole_shift:0:1:5",
    ])
    assert code == 2
    capsys.readouterr()


def test_single_point_concurrence(tmp_path):
    out = tmp_path / "point.csv"
    code = main([
        "concurrence", "--n", "2", "--rabi", "1.8", "--detuning", "-12",
        "--dipole", "5", "--out", str(out),
    ])
    assert code == 0
    meta, header, rows = read_csv(out)
    assert header[0] == "concurrence"
    assert rows[0][0] == pytest.approx(0.4, abs=0.03)
    joined = "\n".join(meta)
    for key in ("n_qubits", "rabi", "detuning", "dipole_shift", "decay", "precision"):
        assert key in joined


def _point_meta(n, rabi, detuning, dipole):
    return [f"n_qubits: {n}", f"rabi: {rabi}", f"detuning: {detuning}",
            f"dipole_shift: {dipole}", "decay: 1"]


@pytest.mark.parametrize("argv, expected", [
    (["figure", "fig2"],
     ["command: figure fig2", "precision: standard", *_point_meta(2, 1, 0, 0),
      "axis: pump start=0.0074999999999999997 stop=3 points=400",
      "curve 1: dipole_shift=0 detuning=0", "curve 2: dipole_shift=5 detuning=-10",
      "curve 3: dipole_shift=10 detuning=-20", "curve 4: dipole_shift=15 detuning=-30"]),
    (["figure", "fig3", "--precision", "extended"],
     ["command: figure fig3", "precision: extended", *_point_meta(2, 1, 0, 5),
      "axis: rabi start=0.025000000000000001 stop=5 points=200",
      "axis: detuning start=-20 stop=5 points=126"]),
    (["sweep", "--n", "3", "--dipole", "1", "--axis", "pump:0.2:2:5"],
     ["command: sweep", "precision: standard", *_point_meta(3, 1, 0, 1),
      "axis: pump start=0.20000000000000001 stop=2 points=5"]),
    (["sweep", "--n", "4", "--dipole", "2", "--axis", "pump:0.1:2.5:4",
      "--axis", "detuning:-6:2:3"],
     ["command: sweep", "precision: standard", *_point_meta(4, 1, 0, 2),
      "axis: pump start=0.10000000000000001 stop=2.5 points=4",
      "axis: detuning start=-6 stop=2 points=3"]),
    (["maximize", "--n", "2", "--dipole", "5", "--detuning", "-10", "--axis", "rabi:0.2:3:32"],
     ["command: maximize", "precision: standard", *_point_meta(2, 1, -10, 5),
      "axis: rabi start=0.20000000000000001 stop=3 points=32"]),
    (["oracle-check"], ["command: oracle-check", "precision: standard"]),
    (["oracle-check", "--n", "2", "--n", "3", "--precision", "extended"],
     ["command: oracle-check", "precision: extended"]),
    (["expect", "--n", "6", "--pump", "0.5", "--detuning", "-1.5"],
     ["command: expect", "precision: standard", *_point_meta(6, 1.5, -1.5, 0)]),
    (["rho", "--n", "4", "--rabi", "1.2", "--dipole", "2", "--precision", "extended"],
     ["command: rho", "precision: extended", *_point_meta(4, 1.2, 0, 2)]),
    (["concurrence", "--n", "2", "--rabi", "1.8", "--detuning", "-12", "--dipole", "5"],
     ["command: concurrence", "precision: standard", *_point_meta(2, 1.8, -12, 5)]),
], ids=["fig2", "fig3", "sweep-1axis", "sweep-2axis", "maximize", "oracle-check",
        "oracle-check-n", "expect-pump", "rho", "concurrence"])
def test_metadata_block_line_for_line(tmp_path, argv, expected):
    # without a drive flag the template's rabi is 1; --pump prints the rabi it gives
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    meta, _, rows = read_csv(out)
    expected = [f"dickepair {dickepair.__version__}", *expected]
    if argv[0] == "oracle-check":
        worst = max(max(row[4], row[5]) for row in rows)
        expected += [f"worst_error: {worst:.17g}", "tolerance: 1e-08"]
    assert meta == expected


def test_csv_round_trip_is_exact(tmp_path):
    out = tmp_path / "expect.csv"
    assert main(["expect", "--n", "3", "--rabi", "0.7", "--detuning", "-1.5",
                 "--dipole", "2.0", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    m = expectation_set(SystemParams(n_qubits=3, rabi=0.7, detuning=-1.5,
                                     dipole_shift=2.0))
    by_name = dict(zip(header, rows[0]))
    assert by_name["s_plus_re"] == m.s_plus.real
    assert by_name["s_plus_im"] == m.s_plus.imag
    assert by_name["s_z"] == m.s_z
    assert by_name["s_z2"] == m.s_z2
    assert by_name["s_plus_s_minus"] == m.s_plus_s_minus


def test_expect_single_emitter(tmp_path):
    # one emitter: <Sz^2> = 1/4 and (S+)^2 = 0 on the two-level ladder
    out = tmp_path / "one.csv"
    assert main(["expect", "--n", "1", "--rabi", "1", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    by_name = dict(zip(header, rows[0]))
    assert by_name["s_z2"] == pytest.approx(0.25, rel=1e-14)
    assert by_name["s_plus2_re"] == 0.0 and by_name["s_plus2_im"] == 0.0


def test_exact_zeros_print_unsigned(tmp_path):
    # at resonance Re rho12 is an exact (possibly negative) zero; no cell reads -0
    from dickepair.cli import _fmt

    assert (_fmt(-0.0), _fmt(0.0), _fmt(-1.5), _fmt(-1e-300)) == ("0", "0", "-1.5", "-1e-300")
    out = tmp_path / "rho.csv"
    assert main(["rho", "--n", "200", "--pump", "0.9", "--out", str(out)]) == 0
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    cells = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert cells["rho12_re"] == "0"
    assert "-0" not in cells.values()


@pytest.mark.parametrize("argv", [
    ["figure", "fig3"],
    ["figure", "fig6"],
    ["sweep", "--n", "4", "--dipole", "2", "--axis", "pump:0.1:2.5:40",
     "--axis", "detuning:-6:2:30"],
    ["oracle-check", "--n", "2", "--n", "3"],
    ["maximize", "--n", "2", "--dipole", "5", "--detuning", "-10", "--axis", "rabi:0.2:3:32"],
    ["rho", "--n", "6", "--pump", "0.7", "--detuning", "-1", "--dipole", "2"],
    ["expect", "--n", "50", "--pump", "0.9", "--detuning", "-2", "--dipole", "2"],
    ["concurrence", "--n", "74", "--pump", "0.95", "--precision", "extended"],
], ids=["fig3", "fig6", "sweep", "oracle-check", "maximize", "rho", "expect", "concurrence"])
def test_output_matches_the_row_at_a_time_writer(tmp_path, argv):
    # every block, whether the kernel or '%' writes it, gives the bytes of
    # one '%.17g' format operation per row
    ns = cli.build_parser().parse_args(argv)
    table = cli._RUNNERS[ns.command](ns)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == reference_csv(table.meta, table.header, table.blocks).encode()


@pytest.mark.parametrize("argv", [
    ["figure", "fig6"],
    ["sweep", "--n", "4", "--dipole", "2", "--axis", "pump:0.1:2.5:40",
     "--axis", "detuning:-6:2:30"],
    ["oracle-check"],
], ids=["fig6", "sweep", "oracle-check"])
def test_full_blocks_take_the_kernel_and_small_tables_take_percent(tmp_path, monkeypatch,
                                                                   argv):
    blocks, kernel = [], []
    csv_rows, kernel_rows = cli.csv_rows, csvfloat._kernel_rows
    monkeypatch.setattr(cli, "csv_rows", lambda b: blocks.append(b.shape) or csv_rows(b))
    monkeypatch.setattr(csvfloat, "_kernel_rows",
                        lambda b: kernel.append(b.shape) or kernel_rows(b))
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    assert kernel == [shape for shape in blocks if shape[0] * shape[1] >= csvfloat.KERNEL_MIN_CELLS]
    full = [shape for shape in blocks if shape[0] == csvfloat.BLOCK_CELLS // shape[1]]
    if argv[0] == "oracle-check":
        # one 75-row block per default size, each a whole table in '%'
        assert blocks == [(75, 6)] * 4 and kernel == []
    else:
        assert full and set(full) <= set(kernel)


def test_negative_values_in_exponent_form_parse(tmp_path):
    # argparse alone reads "-1.5e-05" after --detuning as an option (exit 2)
    spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
    assert main(["rho", "--n", "2", "--rabi", "1", "--detuning", "-1.5e-05",
                 "--dipole", "-2E+1", "--out", str(spaced)]) == 0
    assert main(["rho", "--n", "2", "--rabi", "1", "--detuning=-1.5e-05",
                 "--dipole=-2E+1", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert "# detuning: -1.5e-05\n# dipole_shift: -20\n" in spaced.read_text()


def test_pump_flag_converts(tmp_path):
    out_pump = tmp_path / "a.csv"
    out_rabi = tmp_path / "b.csv"
    assert main(["expect", "--n", "6", "--pump", "0.5", "--out", str(out_pump)]) == 0
    assert main(["expect", "--n", "6", "--rabi", "1.5", "--out", str(out_rabi)]) == 0
    assert read_csv(out_pump)[2] == read_csv(out_rabi)[2]


def test_rho_output_shape(tmp_path):
    out = tmp_path / "rho.csv"
    assert main(["rho", "--n", "4", "--rabi", "1.2", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert len(header) == 32 and len(rows[0]) == 32
    trace = rows[0][header.index("rho11_re")] + rows[0][header.index("rho22_re")] \
        + rows[0][header.index("rho33_re")] + rows[0][header.index("rho44_re")]
    assert trace == pytest.approx(1.0, abs=1e-10)


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--n", "2", "--dipole", "5", "--detuning", "-10",
        "--axis", "pump:0.1:3:25", "--out", str(out),
    ])
    assert code == 0
    _, header, rows = read_csv(out)
    assert header[0] == "pump" and "c" in header
    assert len(rows) == 25


def test_sweep_output_bit_identical(tmp_path):
    args = ["sweep", "--n", "3", "--dipole", "1", "--detuning", "-2",
            "--axis", "pump:0.2:2:15"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_maximize_command(tmp_path):
    out = tmp_path / "max.csv"
    code = main([
        "maximize", "--n", "2", "--dipole", "5", "--detuning", "-10",
        "--axis", "rabi:0.2:3:32", "--out", str(out),
    ])
    assert code == 0
    _, header, rows = read_csv(out)
    by_name = dict(zip(header, rows[0]))
    assert by_name["c_max"] == pytest.approx(0.34, abs=0.02)


def test_figure_fig2_output(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["figure", "fig2", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header[0] == "pump"
    assert len(header) == 1 + 2 * 4
    assert len(rows) == 400
    assert sum("curve" in line for line in meta) == 4
    arr = np.array(rows)
    assert arr[:, 1:].min() >= -1.0 and arr[:, 1].max() <= 1.0


def test_oracle_check_command(tmp_path):
    out = tmp_path / "oracle.csv"
    code = main(["oracle-check", "--n", "2", "--out", str(out)])
    assert code == 0
    meta, header, rows = read_csv(out)
    assert len(rows) == 75
    errs = np.array(rows)[:, -2:]
    assert errs.max() < 1e-8


def test_oracle_check_config_reruns_with_one_metadata_block(tmp_path):
    out = tmp_path / "oracle.csv"
    for _ in range(2):
        assert main(["oracle-check", "--n", "2", "--out", str(out)]) == 0
        meta, _, _ = read_csv(out)
        assert sum(line.startswith("worst_error:") for line in meta) == 1
        assert sum(line.startswith("tolerance:") for line in meta) == 1


def test_two_axis_figure_output(tmp_path, monkeypatch, capsys):
    from dickepair.cli import AxisSpec, FigurePreset

    tiny = FigurePreset(
        2,
        (AxisSpec("rabi", 0.5, 2.0, 4), AxisSpec("detuning", -12.0, -8.0, 3)),
        ((5.0, 0.0),),
    )
    monkeypatch.setitem(FIGURES, "fig3", tiny)
    out = tmp_path / "fig3.csv"
    assert main(["figure", "fig3", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header[:2] == ["rabi", "detuning"]
    assert len(rows) == 12
    # without --out the same CSV goes to stdout and no file is created
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    capsys.readouterr()
    assert main(["figure", "fig3"]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")
    assert list(cwd.iterdir()) == []


def test_sweep_rejects_rabi_with_pump_axis(capsys):
    code = main(["sweep", "--n", "2", "--axis", "rabi:0.5:1:3", "--axis", "pump:0.2:0.4:2"])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_maximize_uses_every_axis_coarse_grid(tmp_path):
    # the detuning axis's POINTS is its coarse grid, as in the library call,
    # and the result does not depend on the order of the axes
    template = SystemParams(n_qubits=2, rabi=1.0, detuning=-10.0, dipole_shift=5.0)
    argmax, cmax = find_max_concurrence(
        template, [AxisSpec("pump", 0.2, 3.0, 32), AxisSpec("detuning", -15.0, -5.0, 48)])
    out = tmp_path / "max.csv"
    for axes in (["pump:0.2:3:32", "detuning:-15:-5:48"],
                 ["detuning:-15:-5:48", "pump:0.2:3:32"]):
        code = main(["maximize", "--n", "2", "--dipole", "5", "--detuning", "-10",
                     "--axis", axes[0], "--axis", axes[1], "--out", str(out)])
        assert code == 0
        _, header, rows = read_csv(out)
        by_name = dict(zip(header, rows[0]))
        assert (by_name["rabi"], by_name["detuning"], by_name["c_max"]) == (
            argmax.rabi, argmax.detuning, cmax)


def test_maximize_detuning_only(tmp_path):
    # tuning the laser frequency at fixed drive
    out = tmp_path / "max.csv"
    code = main([
        "maximize", "--n", "2", "--dipole", "5", "--pump", "0.9",
        "--axis", "detuning:-15:-5:64", "--out", str(out),
    ])
    assert code == 0
    _, header, rows = read_csv(out)
    by_name = dict(zip(header, rows[0]))
    assert by_name["pump"] == 0.9
    template = SystemParams(n_qubits=2, rabi=0.9, dipole_shift=5.0)
    dense = sweep(template, (AxisSpec("detuning", -15.0, -5.0, 1001),))
    c = dense.data["c"]
    assert by_name["c_max"] >= c.max() - 1e-9
    assert abs(by_name["detuning"] - dense.columns[0][np.argmax(c)]) <= 10.0 / 1000


def test_maximize_rejects_dipole_axis(tmp_path):
    code = main([
        "maximize", "--n", "2", "--pump", "0.9", "--axis", "dipole_shift:0:5:33",
        "--out", str(tmp_path / "max.csv"),
    ])
    assert code == 2


def test_maximize_pump_axis_bounds(tmp_path):
    out = tmp_path / "max.csv"
    code = main([
        "maximize", "--n", "4", "--axis", "pump:0.2:1.2:32", "--out", str(out),
    ])
    assert code == 0
    _, header, rows = read_csv(out)
    by_name = dict(zip(header, rows[0]))
    # pump bounds convert to rabi = pump * N / 2
    assert 0.4 <= by_name["rabi"] <= 2.4
    assert 0.2 <= by_name["pump"] <= 1.2
    assert by_name["c_max"] > 0.0


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_oracle_check_matches_per_point_loop(tmp_path, k):
    out = tmp_path / "oracle.csv"
    assert main(["oracle-check", "--n", str(k), "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["n_qubits", "rabi", "detuning", "dipole_shift", "moment_err", "rho_err"]
    expected = [(k, rabi, det, dip) for rabi in np.linspace(0.2, 5.0, 5)
                for det in np.linspace(-10.0, 2.0, 5) for dip in (0.0, 2.0, 5.0)]
    assert [tuple(row[:4]) for row in rows] == expected
    worst = 0.0
    for (n, rabi, det, dip), row in zip(expected, rows):
        params = SystemParams(n_qubits=n, rabi=float(rabi), detuning=float(det),
                              dipole_shift=float(dip))
        analytic = expectation_set(params)
        rho_ss = steady_state_null_space(build_liouvillian(params))
        reference = density_expectation_set(rho_ss)
        moment_err = max(abs(getattr(analytic, f) - getattr(reference, f))
                         for f in MOMENT_FIELDS)
        rho_err = float(np.max(np.abs(steady_pair_density(params)
                                      - oracle_pair_density(rho_ss, n))))
        assert abs(row[4] - moment_err) <= 1e-13
        assert abs(row[5] - rho_err) <= 1e-13
        worst = max(worst, row[4], row[5])
    assert f"worst_error: {worst:.17g}" in meta


def test_oracle_check_catches_a_shifted_pair_matrix(tmp_path, monkeypatch, capsys):
    real = cli.steady_pair_density

    def shifted(params, precision="standard"):
        rho = real(params, precision=precision).copy()
        rho[7, 0, 0] += 1e-6
        return rho

    monkeypatch.setattr(cli, "steady_pair_density", shifted)
    out = tmp_path / "oracle.csv"
    assert main(["oracle-check", "--n", "3", "--out", str(out)]) == 3
    assert "NumericalFailure: oracle mismatch" in capsys.readouterr().err
    # the CSV is still written
    meta, _, rows = read_csv(out)
    assert len(rows) == 75
    worst = float(next(line for line in meta if line.startswith("worst_error:")).split()[1])
    assert worst > 1e-8
    assert rows[7][5] > 1e-8 and max(row[5] for i, row in enumerate(rows) if i != 7) < 1e-8


@pytest.mark.parametrize("good, bad", [
    (["rho", "--n", "2", "--pump", "0.5"], ["rho", "--n", "2", "--pump", "0"]),
    (["oracle-check", "--n", "2"], ["oracle-check", "--n", "2", "--n", "17"]),
])
def test_failed_command_leaves_existing_output(tmp_path, capsys, good, bad):
    out = tmp_path / "out.csv"
    assert main(good + ["--out", str(out)]) == 0
    before = out.read_bytes()
    assert before
    assert main(bad + ["--out", str(out)]) == 3
    assert out.read_bytes() == before
    capsys.readouterr()


@pytest.mark.parametrize("sizes, code, error", [
    (["2", "17"], 3, "SizeExceeded"),
    (["3", "1"], 3, "PairUndefined"),
    (["2", "0"], 2, "usage error"),
])
def test_oracle_check_rejects_every_size_before_solving(monkeypatch, capsys, sizes, code,
                                                        error):
    def no_dense_solve(params):
        raise AssertionError("dense solve before every size was checked")

    monkeypatch.setattr(cli, "build_liouvillian", no_dense_solve)
    argv = ["oracle-check"]
    for n in sizes:
        argv += ["--n", n]
    assert main(argv) == code
    assert error in capsys.readouterr().err


PARSER_REUSE_CALLS = [
    ["sweep", "--n", "3", "--dipole", "1.3", "--axis", "pump:0.2:1.1:4",
     "--axis", "detuning:-2:0:3"],
    ["sweep", "--n", "2", "--detuning", "-1", "--axis", "rabi:0.5:2:5"],
    ["oracle-check", "--n", "2", "--n", "3"],
    ["oracle-check"],
    ["concurrence", "--rabi", "1.0"],
    ["rho", "--n", "4", "--pump", "0.6", "--dipole", "2"],
    ["--help"],
    ["oracle-check", "--help"],
]


def test_parser_is_built_once_and_keeps_no_state(monkeypatch, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        reused = []
        for argv in PARSER_REUSE_CALLS:
            code = main(argv)
            captured = capsys.readouterr()
            reused.append((code, captured.out, captured.err))
        parsers_per_call_run = len(built)
        built.clear()
        cli.build_parser.cache_clear()
        cli.build_parser()
        assert parsers_per_call_run == len(built)  # one tree for all the calls

        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0, 0, 0]
        for argv, result in zip(PARSER_REUSE_CALLS, reused):
            cli.build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == result, argv
    finally:
        cli.build_parser.cache_clear()


def test_tracer_spans_the_batched_oracle(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    patched = list(tracer._undo)
    try:
        assert main(["oracle-check", "--n", "2", "--out", str(tmp_path / "o.csv")]) == 0
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
    spans = tracer.summary([])["spans"]
    for name in ("oracle.build_liouvillian", "oracle.steady_state_null_space",
                 "steady.expectation_set"):
        assert spans[name]["calls"] > 0, name


class _FakeLibc:
    """A libc handle whose ``mallopt`` records its calls and returns ``result``."""

    def __init__(self, result=1):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return result

        self.mallopt = mallopt


def test_main_sets_the_allocator_once_and_library_calls_never(monkeypatch, tmp_path):
    libc = _FakeLibc()
    monkeypatch.setattr(cli, "_load_libc", lambda: libc)
    cli._keep_freed_memory.cache_clear()
    try:
        sweep(SystemParams(4, rabi=1.0), (AxisSpec("pump", 0.1, 2.0, 50),))
        assert libc.calls == []
        for _ in range(2):
            assert main(["concurrence", "--n", "2", "--rabi", "1",
                         "--out", str(tmp_path / "c.csv")]) == 0
        assert libc.calls == [(cli._M_MMAP_THRESHOLD, 3 << 20), (cli._M_TRIM_THRESHOLD, 8 << 20)]
    finally:
        cli._keep_freed_memory.cache_clear()


def _load_fails():
    raise OSError("libc.so.6: cannot open shared object file")


@pytest.mark.parametrize("argv,code", [
    (["sweep", "--n", "4", "--dipole", "2", "--axis", "pump:0.1:2.5:40"], 0),
    (["concurrence", "--n", "2", "--rabi", "0"], 3),
    (["concurrence", "--rabi", "1.0"], 2),
])
def test_an_unavailable_allocator_policy_changes_no_output(monkeypatch, capsys, argv, code):
    # a libc that takes the settings; no libc; a libc without mallopt; refused values
    loads = (_FakeLibc, _load_fails, object, lambda: _FakeLibc(result=0))
    results = []
    for load in loads:
        monkeypatch.setattr(cli, "_load_libc", load)
        cli._keep_freed_memory.cache_clear()
        try:
            exit_code = main(argv)
        finally:
            cli._keep_freed_memory.cache_clear()
        captured = capsys.readouterr()
        results.append((exit_code, captured.out, captured.err))
    assert results[0][0] == code
    assert results == [results[0]] * len(loads)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy needs glibc's mallopt")
def test_a_repeated_figure_reuses_resident_pages():
    # without the policy the second fig6 takes 2,600-2,800 minor faults, as
    # each chunk faults in again the pages the chunk before it gave back
    script = (
        "import os, resource\n"
        "from dickepair.cli import main\n"
        "argv = ['figure', 'fig6', '--out', os.devnull]\n"
        "assert main(argv) == 0\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "assert main(argv) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert int(proc.stdout) < 500
