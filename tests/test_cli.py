import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bergerdeck
from bergerdeck import EnergyRecord, SqrtOdd
from bergerdeck.cli import (PRESET_NAMES, RunConfig, _validate, emit_svg_plot,
                            main, parse_config, preset, read_energy_csv,
                            render_config, run_config, write_energy_csv)
from bergerdeck.decaylaw import fit_decay, fit_report_row
from bergerdeck.errors import ConfigError, PlotError
from bergerdeck.model import Piecewise, feedback_name


def _rec(step, t, total, diss=0.0):
    return EnergyRecord(step=step, t=t, kinetic=0.0, hstar=total, px=0.0,
                        sx=0.0, total=total, dissipated_cum=diss)


# --- config parsing -------------------------------------------------------

def test_parse_physics_section():
    cfg = parse_config("[physics]\nsigma = 0.2\nP = 1e-3\nS = 1e-5\n")
    assert cfg.sigma == 0.2 and cfg.P == 1e-3 and cfg.S == 1e-5


def test_empty_document_is_fig7_preset():
    assert parse_config("") == preset("fig7")


def test_sigma_out_of_range():
    with pytest.raises(ConfigError, match=r"\(0, 1/2\)"):
        parse_config("[physics]\nsigma = 0.7\n")


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="viscosity"):
        parse_config("[physics]\nviscosity = 3\n")


def test_unknown_section():
    with pytest.raises(ConfigError, match=r"line 1"):
        parse_config("[fluids]\n")


def test_malformed_line_reports_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[physics]\nsigma = 0.2\nnonsense\n")


def test_key_outside_section():
    with pytest.raises(ConfigError, match="section"):
        parse_config("sigma = 0.2\n")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# header\n\n[time]\ndt = 0.5  # coarse\n")
    assert cfg.dt == 0.5


@pytest.mark.parametrize("text", [
    "[grid]\nl = inf\n",
    "[physics]\nP = nan\n",
    "[time]\nT = inf\n",
    "[output]\nsnapshots = 1.0,inf\n",
])
def test_non_finite_value_is_refused(text):
    with pytest.raises(ConfigError, match="non-finite numeric value"):
        parse_config(text)


def test_feedback_names():
    cfg = parse_config("[damping]\nfeedback = power:0.75\n")
    assert cfg.feedback.exponent == 0.75
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[damping]\nfeedback = cubic\n")


def test_round_trip_through_render():
    cfg = RunConfig(J=19, K=9, l=0.7, sigma=0.31, P=2e-3, S=0.0, width=2,
                    feedback=SqrtOdd(), dt=0.02, T=4.0, record_stride=3,
                    csv="out.csv", svg="out.svg", snapshots=(0.5, 2.0))
    assert parse_config(render_config(cfg)) == cfg


def test_key_given_twice_names_both_lines():
    with pytest.raises(ConfigError, match=r"line 4: key 'dt' already given on line 2"):
        parse_config("[time]\ndt = 0.01\n[time]\ndt = 0.5\n")
    cfg = parse_config("[time]\ndt = 0.5\n[grid]\nJ = 21\n[time]\nT = 2.0\n")
    assert (cfg.dt, cfg.J, cfg.T) == (0.5, 21, 2.0)


# render_config bytes as pinned; a change of format must update these on purpose
_RENDERED_ALL_FIELDS = """\
[grid]
J = 19
K = 9
l = 0.7

[physics]
sigma = 0.31
P = 0.002
S = 0.0

[damping]
width = 2
feedback = sqrt

[time]
dt = 0.02
T = 4.0
record_stride = 3

[output]
csv = out.csv
svg = out.svg
snapshots = 0.5,2.0
"""
_RENDERED_PRESET_SHA256 = {
    "fig6": "6f0ab759128b979132632d2a86876e544e86ee384b3cf072523a16810a83254d",
    "fig7": "d137a8b51fe40731abd2c1d361c4a8cba00520157b1b3cca0beae46e4c02680e",
    "fig8": "61ecddb1e01e8e0234503ca1c99b3e8dd54a0a45b5f4deb1830c107a5154ab87",
    "static": "4327e58b388407f5d2c199882dd4399145bb02b646d83ceee0ee6c2c843811cf",
    "undamped": "982b109b41d782b316059641e8f2d3ad992342ca2f17d0e8570a3dfb7257f856",
}


def test_rendered_bytes_are_pinned():
    cfg = RunConfig(J=19, K=9, l=0.7, sigma=0.31, P=2e-3, S=0.0, width=2,
                    feedback=SqrtOdd(), dt=0.02, T=4.0, record_stride=3,
                    csv="out.csv", svg="out.svg", snapshots=(0.5, 2.0))
    assert render_config(cfg) == _RENDERED_ALL_FIELDS
    digests = {name: hashlib.sha256(render_config(preset(name)).encode()).hexdigest()
               for name in PRESET_NAMES}
    assert digests == _RENDERED_PRESET_SHA256


def test_round_trip_of_presets():
    for name in ("fig6", "fig7", "fig8", "undamped"):
        cfg = preset(name)
        assert parse_config(render_config(cfg)) == cfg


# --- presets -----------------------------------------------------------------

def test_preset_feedbacks():
    assert isinstance(preset("fig8").feedback, Piecewise)
    assert isinstance(preset("fig6").feedback, SqrtOdd)
    assert preset("fig6").dt == 0.01
    assert preset("undamped").width == 0
    assert preset("undamped").P == 0.0 and preset("undamped").S == 0.0
    assert preset("static").T == 0.0
    with pytest.raises(ConfigError, match="preset"):
        preset("fig9")


def test_preset_grid_and_constants():
    cfg = preset("fig7")
    assert (cfg.J, cfg.K) == (149, 99)
    assert cfg.l == math.pi / 4
    assert (cfg.sigma, cfg.P, cfg.S) == (0.2, 1e-3, 1e-5)
    assert cfg.width == 5 and cfg.record_stride == 10 and cfg.T == 30.0


# --- energy CSV ------------------------------------------------------------------

def test_csv_empty_series(tmp_path):
    path = tmp_path / "e.csv"
    write_energy_csv([], str(path))
    assert path.read_bytes() == (
        b"step,t,E_total,E_kinetic,E_hstar,E_px,E_sx,dissipated_cum\n")


def test_csv_zero_record(tmp_path):
    path = tmp_path / "e.csv"
    write_energy_csv([EnergyRecord(1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)],
                     str(path))
    lines = path.read_text().split("\n")
    assert lines[1] == "1,0,0,0,0,0,0,0"


def test_csv_round_trips_17_digits(tmp_path):
    path = tmp_path / "e.csv"
    records = [_rec(1, 0.1, 1.0 / 3.0), _rec(2, 0.2, math.pi)]
    write_energy_csv(records, str(path))
    ts, es = read_energy_csv(str(path))
    assert list(ts) == [0.1, 0.2]
    assert list(es) == [1.0 / 3.0, math.pi]


def test_pipeline_deterministic_bytes(tmp_path):
    cfg = RunConfig(J=15, K=7, l=0.5, sigma=0.2, P=1e-3, S=1e-5, width=1,
                    feedback=SqrtOdd(), dt=0.05, T=1.0, record_stride=2,
                    csv="unused.csv")
    digests = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        result = run_config(cfg)
        write_energy_csv(result.records, str(path))
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_csv_bytes_do_not_depend_on_blas_thread_count(tmp_path):
    # the preset plate, whose 15,049-value reductions are long enough for
    # OpenBLAS to split a dot product across threads, and the static
    # snapshot of a 299 x 199 plate
    src = str(Path(bergerdeck.__file__).resolve().parents[1])
    fine = tmp_path / "fine.cfg"
    fine.write_text("[grid]\nJ = 299\nK = 199\n")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        for name, argv in (("run", ["run", "--preset", "fig6", "--T", "0.5"]),
                           ("static", ["static", "--config", str(fine)])):
            out = tmp_path / f"{name}-threads{threads}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "bergerdeck.cli", *argv, "--out", str(out)],
                capture_output=True, text=True, cwd=tmp_path, timeout=300, env=env)
            assert proc.returncode == 0, proc.stderr
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[:2] == digests[2:]


def test_lambda1_does_not_depend_on_blas_thread_count(tmp_path):
    # the printed line on the fig7 plate, and the estimate's bits there and
    # on a 299 x 199 plate, whose 15,150 folded unknowns are enough for
    # OpenBLAS to split a dot product across threads
    src = str(Path(bergerdeck.__file__).resolve().parents[1])
    bits = ("from bergerdeck import build_grid, lambda1_estimate; "
            "from bergerdeck.cli import preset; c = preset('fig7'); "
            "print([lambda1_estimate(build_grid(J, K, c.l), c.sigma) "
            "for J, K in ((c.J, c.K), (299, 199))])")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        for argv in (["-m", "bergerdeck.cli", "lambda1", "--preset", "fig7"], ["-c", bits]):
            proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                                  cwd=tmp_path, timeout=300, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
    assert outputs[:2] == outputs[2:]


# --- SVG chart ----------------------------------------------------------------------

def test_svg_two_points(tmp_path):
    path = tmp_path / "p.svg"
    emit_svg_plot([_rec(1, 0.0, 2.0), _rec(2, 1.0, 1.0)], str(path))
    text = path.read_text()
    assert text.count("<polyline") == 1
    points = re.search(r'points="([^"]+)"', text).group(1)
    assert len(points.split()) == 2
    assert "http://www.w3.org/2000/svg" in text


def test_svg_monotone_series_descends(tmp_path):
    path = tmp_path / "p.svg"
    records = [_rec(i, 0.1 * i, 10.0 * math.exp(-0.3 * i)) for i in range(1, 30)]
    emit_svg_plot(records, str(path), title="monotone check")
    text = path.read_text()
    points = re.search(r'points="([^"]+)"', text).group(1)
    ys = [float(pair.split(",")[1]) for pair in points.split()]
    assert all(b >= a for a, b in zip(ys, ys[1:]))  # svg y grows downward


def test_svg_needs_two_points(tmp_path):
    with pytest.raises(PlotError, match="2"):
        emit_svg_plot([_rec(1, 0.0, 1.0)], str(tmp_path / "p.svg"))


# --- command-line entry ------------------------------------------------------------

def _small_config_text(tmp_path, **extra):
    lines = ["[grid]", "J = 15", "K = 7", "l = 0.5", "[damping]", "width = 1",
             "[time]", "dt = 0.05", "T = 1.0", "record_stride = 2", "[output]",
             f"csv = {tmp_path / 'energy.csv'}"]
    for key, value in extra.items():
        lines.append(f"{key} = {value}")
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_main_run_small_config(tmp_path, capsys):
    cfg_path = _small_config_text(tmp_path)
    assert main(["run", "--config", cfg_path]) == 0
    assert (tmp_path / "energy.csv").exists()
    assert "records" in capsys.readouterr().out


def test_main_run_with_svg_overrides_and_snapshot(tmp_path):
    cfg_path = _small_config_text(tmp_path, snapshots="0.5")
    svg = tmp_path / "energy.svg"
    assert main(["run", "--config", cfg_path, "--T", "0.5",
                 "--svg", str(svg)]) == 0
    assert svg.exists()
    snap = tmp_path / "energy_snapshot_t0.5.csv"
    assert snap.exists()
    assert snap.read_text().startswith("k,j,x,y,value")


def test_main_snapshot_stem_keeps_directory(tmp_path):
    out_dir = tmp_path / "out.d"
    out_dir.mkdir()
    cfg_path = _small_config_text(tmp_path, snapshots="0.5")
    assert main(["run", "--config", cfg_path, "--out", str(out_dir / "energy")]) == 0
    assert (out_dir / "energy_snapshot_t0.5.csv").exists()
    assert not (tmp_path / "out_snapshot_t0.5.csv").exists()


@pytest.mark.parametrize("snapshots, named", [
    ("1.5", "1.5"),          # past T = 1
    ("0.01", "0.01"),        # rounds to step 0 at dt = 0.05
    ("0.5,0.51", "0.51"),    # both round to step 10
])
def test_main_unreachable_snapshot_exits_1(tmp_path, capsys, snapshots, named):
    cfg_path = _small_config_text(tmp_path, snapshots=snapshots)
    assert main(["run", "--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert "snapshot time" in err and named in err
    assert not (tmp_path / "energy.csv").exists()


def test_main_snapshot_file_collision_exits_1(tmp_path, capsys, monkeypatch):
    # 6 significant digits name both files energy_snapshot_t100.csv, though
    # at dt = 1e-4 the times fall on steps 1,000,001 and 1,000,004
    import bergerdeck.cli as cli_mod
    monkeypatch.setattr(cli_mod, "run_config",
                        lambda *args, **kwargs: pytest.fail("the run marched"))
    cfg_path = _small_config_text(tmp_path, snapshots="100.0001,100.0004")
    assert main(["run", "--config", cfg_path, "--dt", "1e-4", "--T", "101"]) == 1
    err = capsys.readouterr().err
    assert "100.0001" in err and "100.0004" in err
    assert "energy_snapshot_t100.csv" in err
    assert not (tmp_path / "energy.csv").exists()


@pytest.mark.parametrize("command", ["run", "static", "lambda1"])
def test_main_config_and_preset_together_exit_1(tmp_path, capsys, command):
    cfg_path = _small_config_text(tmp_path)
    assert main([command, "--config", cfg_path, "--preset", "fig6"]) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not (tmp_path / "energy.csv").exists()


def test_main_run_without_steps_exits_1(tmp_path, capsys):
    out = tmp_path / "energy.csv"
    assert main(["run", "--preset", "static", "--out", str(out)]) == 1
    assert "0 steps" in capsys.readouterr().err
    assert not out.exists()


def test_main_one_step_svg_exits_1_before_the_march(tmp_path, capsys,
                                                   monkeypatch):
    # one step leaves one energy record, and a chart needs two points
    import bergerdeck.cli as cli_mod
    monkeypatch.setattr(cli_mod, "run_config",
                        lambda *args, **kwargs: pytest.fail("the run marched"))
    svg = tmp_path / "energy.svg"
    cfg_path = _small_config_text(tmp_path)
    assert main(["run", "--config", cfg_path, "--T", "0.05",
                 "--svg", str(svg)]) == 1
    assert "SVG chart needs at least 2 steps" in capsys.readouterr().err
    assert not (tmp_path / "energy.csv").exists() and not svg.exists()


@pytest.mark.parametrize("extra, options", [
    ({}, ["--T", "1e300", "--dt", "1e-10"]), ({"snapshots": "1e308"}, [])],
    ids=["T", "snapshot"])
def test_main_run_past_the_float_range_of_steps_exits_1(tmp_path, capsys,
                                                        extra, options):
    # 1e300 / 1e-10 and 1e308 / 0.05 overflow to inf, and round(inf)
    # raised OverflowError
    cfg_path = _small_config_text(tmp_path, **extra)
    assert main(["run", "--config", cfg_path, *options]) == 1
    assert "not a finite number of steps" in capsys.readouterr().err
    assert not (tmp_path / "energy.csv").exists()


def test_main_validation_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[physics]\nsigma = 0.9\n")
    assert main(["run", "--config", bad.name and str(bad)]) == 1
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--out", "run#2.csv"), ("--svg", "a#b.svg"), ("--out", "run\n2.csv"),
    ("--out", "run.csv "), ("--svg", "plot.svg\t")])
def test_main_path_a_config_document_would_cut_exits_1(tmp_path, capsys,
                                                       option, value):
    # '#' opens a comment, a line break ends a value and the blanks around
    # a value are stripped, so render_config and parse_config would not
    # give such a path back
    cfg_path = _small_config_text(tmp_path)
    assert main(["run", "--config", cfg_path, option, str(tmp_path / value)]) == 1
    key = "csv" if option == "--out" else "svg"
    assert f"{key} path" in capsys.readouterr().err


def test_blank_edged_config_path_is_refused():
    # render_config writes it verbatim and parse_config would strip it
    with pytest.raises(ConfigError, match="csv path"):
        _validate(RunConfig(csv=" run.csv "))


def test_main_static_unwritable_snapshot_exits_1(tmp_path, capsys):
    cfg_path = _small_config_text(tmp_path)
    out = tmp_path / "missing" / "u.csv"
    assert main(["static", "--config", cfg_path, "--out", str(out)]) == 1
    assert "error: cannot write snapshot" in capsys.readouterr().err


def test_main_static_checks_output_directory_before_the_solve(
        tmp_path, monkeypatch, capsys):
    import bergerdeck.cli as cli_mod

    def solve(f, ops):
        raise AssertionError("solve_static called before the output check")

    monkeypatch.setattr(cli_mod, "solve_static", solve)
    path = str(tmp_path / "missing" / "s.csv")
    assert main(["static", "--config", _small_config_text(tmp_path),
                 "--out", path]) == 1
    assert f"error: cannot write snapshot {path!r}" in capsys.readouterr().err


def test_main_run_unwritable_energy_csv_exits_1(tmp_path, capsys):
    cfg_path = _small_config_text(tmp_path)
    out = tmp_path / "missing" / "e.csv"
    assert main(["run", "--config", cfg_path, "--out", str(out)]) == 1
    assert "error: cannot write energy CSV" in capsys.readouterr().err


def test_main_run_unwritable_svg_exits_1(tmp_path, capsys):
    cfg_path = _small_config_text(tmp_path)
    svg = tmp_path / "missing" / "p.svg"
    assert main(["run", "--config", cfg_path, "--svg", str(svg)]) == 1
    assert "error: cannot write SVG" in capsys.readouterr().err


@pytest.mark.parametrize("option, name, what",
                         [("--out", "e.csv", "energy CSV"), ("--svg", "p.svg", "SVG")])
def test_main_run_checks_output_directories_before_the_march(
        tmp_path, monkeypatch, capsys, option, name, what):
    import bergerdeck.cli as cli_mod

    def march(cfg, plate=None):
        raise AssertionError("run_config called before the output check")

    monkeypatch.setattr(cli_mod, "run_config", march)
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path / "missing" / name)
    assert main(["run", "--preset", "fig7", "--T", "5", option, path]) == 1
    assert f"error: cannot write {what} {path!r}" in capsys.readouterr().err


def _refuse_the_work(monkeypatch):
    import bergerdeck.cli as cli_mod

    def work(*args, **kwargs):
        raise AssertionError("the march or the solve ran before the output check")

    monkeypatch.setattr(cli_mod, "run_config", work)
    monkeypatch.setattr(cli_mod, "solve_static", work)


@pytest.mark.parametrize("command, option, what", [
    ("run", "--out", "energy CSV"), ("run", "--svg", "SVG"),
    ("static", "--out", "snapshot")])
def test_main_output_path_that_is_a_directory_exits_1_before_the_work(
        tmp_path, monkeypatch, capsys, command, option, what):
    _refuse_the_work(monkeypatch)
    folder = tmp_path / "taken"
    folder.mkdir()
    assert main([command, "--config", _small_config_text(tmp_path),
                 option, str(folder)]) == 1
    assert (f"error: cannot write {what} {str(folder)!r}: it is a directory"
            in capsys.readouterr().err)
    assert list(tmp_path.rglob("*.csv")) == []


def test_main_run_snapshot_path_that_is_a_directory_exits_1_before_the_march(
        tmp_path, monkeypatch, capsys):
    _refuse_the_work(monkeypatch)
    (tmp_path / "energy_snapshot_t0.5.csv").mkdir()
    assert main(["run", "--config",
                 _small_config_text(tmp_path, snapshots="0.5")]) == 1
    assert "it is a directory" in capsys.readouterr().err
    assert not (tmp_path / "energy.csv").exists()


@pytest.mark.parametrize("extra, options", [
    ({}, ["--svg", "{tmp}/./energy.csv"]),
    ({"snapshots": "0.5", "svg": "{tmp}/energy_snapshot_t0.5.csv"}, [])],
    ids=["csv-svg", "svg-snapshot"])
def test_main_run_outputs_naming_one_file_exit_1_before_the_plate(
        tmp_path, monkeypatch, capsys, extra, options):
    import bergerdeck.cli as cli_mod
    _refuse_the_work(monkeypatch)
    monkeypatch.setattr(cli_mod, "build_operators",
                        lambda *args: pytest.fail("the plate was built"))
    extra = {key: value.format(tmp=tmp_path) for key, value in extra.items()}
    options = [option.format(tmp=tmp_path) for option in options]
    assert main(["run", "--config", _small_config_text(tmp_path, **extra),
                 *options]) == 1
    assert "would both write" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.cfg"]


def test_main_sweep_output_that_is_a_directory_exits_1_before_the_marches(
        tmp_path, monkeypatch, capsys):
    # the last preset's chart, written after all three marches
    _refuse_the_work(monkeypatch)
    out_dir = tmp_path / "sweep"
    (out_dir / "fig8_energy.svg").mkdir(parents=True)
    assert main(["sweep", "--out-dir", str(out_dir)]) == 1
    assert "error: cannot write SVG" in capsys.readouterr().err
    assert [path.name for path in out_dir.iterdir()] == ["fig8_energy.svg"]


def test_main_missing_config_exits_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_main_no_command_exits_1(capsys):
    assert main([]) == 1


def test_main_static_subcommand(tmp_path):
    cfg_path = _small_config_text(tmp_path)
    out = tmp_path / "static.csv"
    assert main(["static", "--config", cfg_path, "--out", str(out)]) == 0
    header = out.read_text().split("\n", 1)[0]
    assert header == "k,j,x,y,value"


def test_main_decay_fit_subcommand(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    t = np.linspace(0.0, 10.0, 60)
    write_energy_csv([_rec(i + 1, float(ti), float(3.0 * math.exp(-2.0 * ti)))
                      for i, ti in enumerate(t)], str(csv))
    assert main(["decay-fit", "--csv", str(csv), "--label", "demo"]) == 0
    out = capsys.readouterr().out
    assert "demo,exponential" in out


def _fit_csv(tmp_path, energy=lambda t: 3.0 * math.exp(-2.0 * t)):
    csv = tmp_path / "series.csv"
    t = np.linspace(0.0, 10.0, 60)
    write_energy_csv([_rec(i + 1, float(ti), float(energy(ti)))
                      for i, ti in enumerate(t)], str(csv))
    return str(csv)


@pytest.mark.parametrize("label", ["a,b", "a\nb"])
def test_main_decay_fit_splitting_label_exits_1(tmp_path, capsys, label):
    assert main(["decay-fit", "--csv", _fit_csv(tmp_path), "--label", label]) == 1
    captured = capsys.readouterr()
    assert "error: report label" in captured.err
    assert captured.out == ""


def test_main_decay_fit_non_finite_energy_exits_1(tmp_path, capsys):
    csv = _fit_csv(tmp_path, lambda t: math.nan if t > 9.0 else math.exp(-t))
    assert main(["decay-fit", "--csv", csv]) == 1
    captured = capsys.readouterr()
    assert "error: non-finite time or energy" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text", ["", "a,b\n1,2\n"])
def test_main_decay_fit_not_an_energy_csv_exits_1(tmp_path, capsys, text):
    # an empty file and a file of another header are refused by name
    csv = tmp_path / "other.csv"
    csv.write_text(text)
    with pytest.raises(ConfigError, match="other.csv.*not an energy CSV"):
        read_energy_csv(str(csv))
    assert main(["decay-fit", "--csv", str(csv)]) == 1
    captured = capsys.readouterr()
    assert f"error: {str(csv)!r} is not an energy CSV" in captured.err
    assert captured.out == ""


def test_main_non_finite_power_exponent_exits_1(tmp_path, capsys):
    cfg_path = _small_config_text(tmp_path)
    with open(cfg_path, "a") as handle:
        handle.write("[damping]\nfeedback = power:inf\n")
    assert main(["run", "--config", cfg_path]) == 1
    assert "power exponent must be positive and finite, got inf" \
        in capsys.readouterr().err
    assert not (tmp_path / "energy.csv").exists()


def test_main_lambda1_small_grid(tmp_path, capsys):
    cfg_path = _small_config_text(tmp_path)
    assert main(["lambda1", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "lambda1" in out and "holds" in out


@pytest.mark.parametrize("argv", [
    ["static", "--dt", "5"], ["static", "--T", "99"],
    ["lambda1", "--dt", "5"], ["lambda1", "--T", "99"]])
def test_time_options_outside_run_exit_1(tmp_path, capsys, argv):
    # only run marches, so the others have no time step or horizon to set
    cfg_path = _small_config_text(tmp_path)
    assert main(argv + ["--config", cfg_path]) == 1
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {' '.join(argv[1:])}" in err


def test_module_entry_runs_with_warnings_as_errors(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[grid]\nJ = 21\nK = 11\nl = 0.5\n[damping]\nwidth = 1\n")
    src = str(Path(bergerdeck.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "bergerdeck.cli", "lambda1",
         "--config", str(cfg)],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "lambda1" in proc.stdout


def test_main_runtime_error_exits_2(tmp_path, monkeypatch, capsys):
    import bergerdeck.cli as cli_mod
    from bergerdeck.errors import SolveError

    def boom(cfg):
        raise SolveError("factorization blew up", residual=1.0)

    monkeypatch.setattr(cli_mod, "run_config", boom)
    cfg_path = _small_config_text(tmp_path)
    assert main(["run", "--config", cfg_path]) == 2
    assert "runtime error" in capsys.readouterr().err


def test_main_lambda1_not_positive_definite_exits_2(tmp_path, monkeypatch, capsys):
    import bergerdeck.energy as energy_mod

    class Negated(energy_mod.QuarterPencil):
        def __init__(self, grid, sigma):
            super().__init__(grid, sigma)
            self.A = -self.A

    monkeypatch.setattr(energy_mod, "QuarterPencil", Negated)
    cfg_path = _small_config_text(tmp_path)
    assert main(["lambda1", "--config", cfg_path]) == 2
    assert capsys.readouterr().err.startswith(
        "runtime error: folded plate Gram matrix is not positive definite")


def _small_sweep(monkeypatch):
    import bergerdeck.cli as cli_mod

    small = RunConfig(J=15, K=7, l=0.5, sigma=0.2, P=1e-3, S=1e-5, width=1,
                      feedback=SqrtOdd(), dt=0.05, T=3.0, record_stride=1,
                      csv="unused.csv")
    monkeypatch.setattr(cli_mod, "preset", lambda name: small)


def test_main_sweep_small_presets(tmp_path, monkeypatch, capsys):
    _small_sweep(monkeypatch)
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--out-dir", str(out_dir)]) == 0
    report = (out_dir / "decay_fits.csv").read_text().strip().split("\n")
    assert report[0] == "preset,best_model,rate_or_exponent,r2_exp,r2_alg"
    assert len(report) == 4
    for name in ("fig6", "fig7", "fig8"):
        assert (out_dir / f"{name}_energy.csv").exists()
        assert (out_dir / f"{name}_energy.svg").exists()


def test_main_sweep_unwritable_outputs_exit_1(tmp_path, monkeypatch, capsys):
    _small_sweep(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["sweep", "--out-dir", str(blocker / "sweep")]) == 1
    assert "error: cannot create sweep directory" in capsys.readouterr().err
    out_dir = tmp_path / "sweep"
    (out_dir / "decay_fits.csv").mkdir(parents=True)
    assert main(["sweep", "--out-dir", str(out_dir)]) == 1
    assert "error: cannot write fit report" in capsys.readouterr().err
    assert not (out_dir / "fig6_energy.csv").exists()


SWEEP_NAMES = ("fig6", "fig7", "fig8")


def _sweep_table(monkeypatch, changes):
    """Point ``cli.preset`` at small plates carrying each figure's feedback,
    with ``changes[name]`` applied to that preset."""
    import bergerdeck.cli as cli_mod

    small = RunConfig(J=15, K=7, l=0.5, sigma=0.2, P=1e-3, S=1e-5, width=1,
                      dt=0.02, T=2.0, record_stride=1, csv="unused.csv")
    table = {name: replace(small, feedback=preset(name).feedback,
                           **changes.get(name, {}))
             for name in SWEEP_NAMES}
    monkeypatch.setattr(cli_mod, "preset", table.__getitem__)
    return table


def _independent_sweep(table, out_dir):
    """The sweep's files, written from one ``run_config`` per preset."""
    out_dir.mkdir()
    rows = ["preset,best_model,rate_or_exponent,r2_exp,r2_alg"]
    for name, cfg in table.items():
        result = run_config(cfg)
        stem = out_dir / f"{name}_energy"
        write_energy_csv(result.records, f"{stem}.csv")
        emit_svg_plot(result.records, f"{stem}.svg",
                      title=f"{name}: feedback {feedback_name(cfg.feedback)}")
        ts = np.array([rec.t for rec in result.records])
        es = np.array([rec.total for rec in result.records])
        rows.append(fit_report_row(name, fit_decay(ts, es)))
    (out_dir / "decay_fits.csv").write_bytes(("\n".join(rows) + "\n").encode())


@pytest.mark.parametrize("changes, plates", [
    ({}, 1),
    ({"fig7": {"sigma": 0.3}}, 2),
    ({"fig8": {"width": 2}}, 2),
    ({"fig6": {"sigma": 0.3}, "fig8": {"width": 0}}, 3),
], ids=["shared", "sigma", "width", "sigma-and-width"])
def test_sweep_builds_each_plate_once_with_solo_bytes(tmp_path, monkeypatch,
                                                      changes, plates):
    import bergerdeck.cli as cli_mod

    table = _sweep_table(monkeypatch, changes)
    _independent_sweep(table, tmp_path / "solo")
    built = []

    class Counted(cli_mod.FactorizedSystem):
        def __init__(self, ops, dt):
            built.append((ops.sigma, ops.damping.width, dt))
            super().__init__(ops, dt)

    monkeypatch.setattr(cli_mod, "FactorizedSystem", Counted)
    assert main(["sweep", "--out-dir", str(tmp_path / "sweep")]) == 0
    assert len(built) == len(set(built)) == plates
    files = [f"{name}_energy.{ext}" for name in SWEEP_NAMES for ext in ("csv", "svg")]
    for name in files + ["decay_fits.csv"]:
        assert (tmp_path / "sweep" / name).read_bytes() == \
            (tmp_path / "solo" / name).read_bytes(), name


def test_plate_evaluates_the_level_polynomial_and_band_once(monkeypatch):
    # and a run builds the plate's map table once: the plate (all that the
    # static command assembles) builds it and assembles B and u_xx, and
    # the run's u_yy and u_xy maps are assembled from the same table
    import bergerdeck.cli as cli_mod
    import bergerdeck.operators as operators

    calls = dict.fromkeys(["_maps", "_bilaplacian_levels", "modal_band",
                           "assemble_d2_1d", "_kron_sum"], 0)
    for name in calls:
        def counted(*args, _inner=getattr(operators, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(operators, name, counted)
    cfg = replace(preset("fig7"), J=21, K=11, T=0.05)
    system, u0 = cli_mod._plate(cfg)
    once = {"_maps": 1, "_bilaplacian_levels": 1, "modal_band": 1,
            "assemble_d2_1d": 1}
    assert calls == {**once, "_kron_sum": 2}
    assert u0.shape == (system.ops.grid.n_dof,)
    cli_mod.run_config(cfg, (system, u0))
    assert calls == {**once, "_kron_sum": 4}


def test_static_solve_and_system_leave_the_shared_band_alone():
    import bergerdeck.cli as cli_mod

    grid = bergerdeck.build_grid(21, 11, math.pi / 4)
    ops = cli_mod.build_operators(grid, 0.2, 2)
    before = ops.band.tobytes()
    assert not ops.band.flags.writeable
    cli_mod.solve_static(bergerdeck.sin_load(grid, 50.0, 2), ops)
    cli_mod.FactorizedSystem(ops, 0.01)
    cli_mod.FactorizedSystem(ops, 0.5)
    assert ops.band.tobytes() == before


def test_output_digests_prints_only_the_paths_that_differ(monkeypatch, capsys):
    import output_digests

    trees = {"a": [("e.csv", "1"), ("stdout/lambda1.txt", "2"), ("x.svg", "3")],
             "b": [("e.csv", "1"), ("stdout/lambda1.txt", "4"), ("y.svg", "3")]}
    monkeypatch.setattr(output_digests, "digests", lambda src, keep: trees[src.name])
    monkeypatch.setattr(Path, "is_file", lambda path: True)
    assert output_digests.main(["a", "b"]) == 1
    assert capsys.readouterr().out.split() == ["stdout/lambda1.txt", "x.svg", "y.svg"]
    assert output_digests.main(["a", "a"]) == 0
    assert capsys.readouterr().out == ""


def test_output_digests_reports_each_numeric_column_of_a_changed_csv(
        monkeypatch, capsys, tmp_path):
    import output_digests

    tables = {"a": "label,t,u\nfig6,0,2\nfig7,1,-4\n",
              "b": "label,t,u\nfig6,0,2.5\nfig7,1,-4\n"}

    def fake_digests(src, keep):
        keep.mkdir()
        (keep / "e.csv").write_text(tables[src.name])
        return [("e.csv", tables[src.name])]

    for name in tables:
        (tmp_path / name / "bergerdeck").mkdir(parents=True)
        (tmp_path / name / "bergerdeck" / "__init__.py").write_text("")
    monkeypatch.setattr(output_digests, "digests", fake_digests)
    assert output_digests.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "e.csv", "  t: 0 relative, 0 of max |a|",
        "  u: 0.25 relative, 0.125 of max |a|"]
    tables["b"] = "label,t,u\nfig6,0,2\n"
    assert output_digests.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "e.csv", "  header or row count differs"]
