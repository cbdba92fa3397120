"""Command-line interface: presets, CSV output, exit codes."""
import numpy as np
import pytest

from dickepair import SystemParams, UnknownFigure, expectation_set
from dickepair.cli import FIGURES, figure_preset, main


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


def test_unknown_figure():
    with pytest.raises(UnknownFigure):
        figure_preset("fig7")


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


def test_unwritable_output_exits_usage(capsys, tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["concurrence", "--n", "2", "--rabi", "1.0", "--out", str(out)])
    assert code == 2
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
    from dickepair.cli import RunConfig, run

    out = tmp_path / "oracle.csv"
    config = RunConfig(command="oracle-check", oracle_sizes=(2,), output_path=str(out))
    for _ in range(2):
        assert run(config) == 0
        meta, _, _ = read_csv(out)
        assert sum(line.startswith("worst_error:") for line in meta) == 1
        assert sum(line.startswith("tolerance:") for line in meta) == 1


def test_two_axis_figure_output(tmp_path, monkeypatch):
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
