import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bergerdeck
from bergerdeck import EnergyRecord, SqrtOdd
from bergerdeck.cli import (PRESET_NAMES, RunConfig, _validate, emit_svg_plot,
                            main, parse_config, preset, read_energy_csv,
                            render_config, run_config, write_energy_csv)
from bergerdeck.errors import ConfigError, PlotError
from bergerdeck.model import Piecewise


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


def test_main_run_without_steps_exits_1(tmp_path, capsys):
    out = tmp_path / "energy.csv"
    assert main(["run", "--preset", "static", "--out", str(out)]) == 1
    assert "0 steps" in capsys.readouterr().err
    assert not out.exists()


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


def test_main_lambda1_small_grid(tmp_path, capsys):
    cfg_path = _small_config_text(tmp_path)
    assert main(["lambda1", "--config", cfg_path]) == 0
    out = capsys.readouterr().out
    assert "lambda1" in out and "holds" in out


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
