"""Configuration parsing, experiment presets, every output file (energy
CSV, field snapshot, SVG plot), and the command-line entry point.

Subcommands: run, static, decay-fit, sweep, lambda1.  Exit codes: 0 on
success, 1 on configuration/validation errors, 2 on runtime or solver
errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .decaylaw import fit_decay, fit_report_row
from .energy import EnergyRecord, lambda1_estimate
from .errors import (BergerdeckError, ConfigError, ConvergenceError,
                     NonFiniteError, PlotError, ShapeError, SolveError)
from .grid import Grid, build_grid, build_weights
from .integrator import FactorizedSystem, RunResult, run
from .model import (FeedbackKind, Linear, damping_mask, feedback_from_name,
                    feedback_name, make_model)
from .operators import OperatorSet, build_operators, check_sigma
from .staticsolve import sin_load, solve_static


def _key(section: str, default, parse=float, render=repr):
    """A config key: its ``[section]``, its default, how its value reads
    from config text, and how it renders back (None omits the line)."""
    return field(default=default,
                 metadata={"section": section, "parse": parse, "render": render})


def _parse_times(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


@dataclass(frozen=True)
class RunConfig:
    """One experiment: grid, physics, damping, time windows, and outputs.

    The fields, in order, are the keys of the config document; their
    metadata drives ``parse_config`` and ``render_config``.
    """

    J: int = _key("grid", 149, int, str)
    K: int = _key("grid", 99, int, str)
    l: float = _key("grid", math.pi / 4)
    sigma: float = _key("physics", 0.2)
    P: float = _key("physics", 1e-3)
    S: float = _key("physics", 1e-5)
    width: int = _key("damping", 5, int, str)
    feedback: FeedbackKind = _key("damping", Linear(), feedback_from_name, feedback_name)
    dt: float = _key("time", 0.01)
    T: float = _key("time", 30.0)
    record_stride: int = _key("time", 10, int, str)
    csv: str = _key("output", "energy.csv", str, str)
    svg: str | None = _key("output", None, str, lambda path: path)
    snapshots: tuple[float, ...] = _key(
        "output", (), _parse_times, lambda times: ",".join(map(repr, times)) or None)


_KEYS = {f.name: f for f in fields(RunConfig)}

# fig6/fig7/fig8 share the default plate and differ in the feedback
# (sqrt / linear / piecewise); "static" is the bending problem alone;
# "undamped" switches the collar and both nonlocal constants off.
_PRESETS = {
    "fig6": {"feedback": feedback_from_name("sqrt")},
    "fig7": {},
    "fig8": {"feedback": feedback_from_name("piecewise")},
    "static": {"T": 0.0},
    "undamped": {"width": 0, "P": 0.0, "S": 0.0},
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> RunConfig:
    """Named experiment presets: the defaults with a few keys changed."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    return RunConfig(**_PRESETS[name])


# ---------------------------------------------------------------------------
# config documents

def _validate(cfg: RunConfig, where: str = "config") -> RunConfig:
    """Check what the library does not (time window, stride, paths,
    snapshot file names, finiteness), then run the library's checks on grid, weights, sigma,
    model and collar; any failure becomes a ConfigError prefixed by
    ``where``."""
    def fail(message: str):
        raise ConfigError(f"{where}: {message}")

    for key in _KEYS:
        value = getattr(cfg, key)
        for number in value if isinstance(value, tuple) else (value,):
            if isinstance(number, float) and not math.isfinite(number):
                fail(f"non-finite numeric value {number}")
    if not cfg.dt > 0:
        fail(f"dt must be positive, got {cfg.dt}")
    if cfg.T < 0:
        fail(f"T must be nonnegative, got {cfg.T}")
    if cfg.record_stride < 1:
        fail(f"record_stride must be >= 1, got {cfg.record_stride}")
    for t in (cfg.T, *cfg.snapshots):
        if not math.isfinite(t / cfg.dt):
            fail(f"time {t:g} over dt = {cfg.dt:g} is not a finite number of steps")
    for key in ("csv", "svg") if cfg.svg is not None else ("csv",):
        path = getattr(cfg, key)
        # a config document ends a value at '#' or a line break and strips
        # the blanks around it
        if not path or "#" in path or path.splitlines() != [path] \
                or path != path.strip():
            fail(f"{key} path {path!r} must be one nonempty line without '#' "
                 f"or blanks at either end")
    # a snapshot's file name keeps 6 significant digits of its time
    written: dict[str, float] = {}
    for t_req in cfg.snapshots:
        name = _snapshot_path(cfg.csv, t_req)
        if name in written:
            fail(f"snapshot times {written[name]!r} and {t_req!r} would both "
                 f"write {name!r}")
        written[name] = t_req
    try:
        grid = build_grid(cfg.J, cfg.K, cfg.l)
        build_weights(grid)
        check_sigma(cfg.sigma)
        make_model(P=cfg.P, S=cfg.S, feedback=cfg.feedback)
        damping_mask(grid, cfg.width)
    except BergerdeckError as exc:
        fail(str(exc))
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse a line-oriented config document.

    ``[section]`` headers, ``key = value`` pairs, ``#`` comments.  Unknown
    sections or keys are errors; missing keys keep the fig7 defaults.
    """
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    sections = {f.metadata["section"] for f in _KEYS.values()}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in sections:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _KEYS or _KEYS[key].metadata["section"] != section:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if key in seen:
            raise ConfigError(f"line {lineno}: key {key!r} already given on line {seen[key]}")
        seen[key] = lineno
        try:
            values[key] = _KEYS[key].metadata["parse"](rhs)
        except (ValueError, BergerdeckError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return _validate(RunConfig(**values))


def render_config(cfg: RunConfig) -> str:
    """Config document that parses back to an equal RunConfig."""
    blocks: dict[str, list[str]] = {}
    for key, f in _KEYS.items():
        section = f.metadata["section"]
        lines = blocks.setdefault(section, [f"[{section}]"])
        text = f.metadata["render"](getattr(cfg, key))
        if text is not None:
            lines.append(f"{key} = {text}")
    return "\n\n".join("\n".join(lines) for lines in blocks.values()) + "\n"


# ---------------------------------------------------------------------------
# outputs

CSV_HEADER = "step,t,E_total,E_kinetic,E_hstar,E_px,E_sx,dissipated_cum"


def _snapshot_path(csv: str, t: float) -> str:
    """File of the field snapshot at time ``t`` of a run writing ``csv``."""
    return f"{os.path.splitext(csv)[0]}_snapshot_t{t:g}.csv"


def _write_lines(path: str, lines: list[str], what: str, error=ConfigError) -> None:
    """Write ``lines``, each ended by LF; an OSError raises ``error``."""
    try:
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise error(f"cannot write {what} {path!r}: {exc}") from exc


def _check_directory(path: str, what: str) -> None:
    """Raise the writers' ``cannot write`` ConfigError if ``path`` is a
    directory, or the directory it would be written into is missing or not
    writable, so a command can fail before its work instead of after it."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {what} {path!r}: it is a directory")
    folder = os.path.dirname(path) or os.curdir
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot write {what} {path!r}: directory {folder!r} "
                          f"is missing or not writable")


def write_energy_csv(records: list[EnergyRecord], path: str) -> None:
    """Deterministic CSV dump: 17 significant digits, LF newlines."""
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(
            f"{rec.step},{rec.t:.17g},{rec.total:.17g},{rec.kinetic:.17g},"
            f"{rec.hstar:.17g},{rec.px:.17g},{rec.sx:.17g},{rec.dissipated_cum:.17g}")
    _write_lines(path, lines, "energy CSV")


def dump_snapshot(U: np.ndarray, grid: Grid, path: str) -> None:
    """Write a flattened field as CSV rows (k, j, x, y, value), every float
    to 17 significant digits; each x and y coordinate is formatted once,
    into a template of all rows that one ``%`` fills with the values."""
    if U.shape != (grid.n_dof,):
        raise ShapeError(f"expected field of length {grid.n_dof}, got {U.shape}")
    heads = [f"{j},{x:.17g}," for j, x in enumerate(grid.x_interior().tolist(), 1)]
    tails = [f"{y:.17g},%.17g" for y in grid.y_levels().tolist()]
    rows = "\n".join([f"{k},{head}{tail}" for k, tail in enumerate(tails)
                      for head in heads])
    _write_lines(path, ["k,j,x,y,value", rows % tuple(U.tolist())], "snapshot")


def read_energy_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(t, E_total) columns of an energy CSV; a file whose first line is
    not ``CSV_HEADER`` (an empty one too) raises ConfigError."""
    try:
        with open(path, newline="") as handle:
            header = handle.readline().rstrip("\r\n")
            if header != CSV_HEADER:
                raise ConfigError(f"{path!r} is not an energy CSV: its first line "
                                  f"is {header!r}, expected {CSV_HEADER!r}")
            handle.seek(0)
            data = np.genfromtxt(handle, delimiter=",", names=True)
    except OSError as exc:
        raise ConfigError(f"cannot read energy CSV {path!r}: {exc}") from exc
    return np.atleast_1d(data["t"]), np.atleast_1d(data["E_total"])


_SVG_W, _SVG_H = 800, 500
_MARGIN = {"left": 70, "right": 20, "top": 40, "bottom": 45}


def emit_svg_plot(records: list[EnergyRecord], path: str,
                  title: str = "energy") -> None:
    """Standalone SVG line chart of total energy against time."""
    ts = np.array([rec.t for rec in records])
    es = np.array([rec.total for rec in records])
    if len(ts) < 2:
        raise PlotError(f"need at least 2 plottable points, got {len(ts)}")

    x0, x1 = float(ts.min()), float(ts.max())
    y0, y1 = float(es.min()), float(es.max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    plot_w = _SVG_W - _MARGIN["left"] - _MARGIN["right"]
    plot_h = _SVG_H - _MARGIN["top"] - _MARGIN["bottom"]

    def sx(t):
        return _MARGIN["left"] + (t - x0) / (x1 - x0) * plot_w

    def sy(v):
        return _MARGIN["top"] + (1.0 - (v - y0) / (y1 - y0)) * plot_h

    points = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(ts, es))
    left, top = _MARGIN["left"], _MARGIN["top"]
    bottom = _SVG_H - _MARGIN["bottom"]
    right = _SVG_W - _MARGIN["right"]

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<text x="{_SVG_W // 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for tick in np.linspace(x0, x1, 6):
        px = sx(tick)
        parts.append(f'<line x1="{px:.2f}" y1="{bottom}" x2="{px:.2f}" '
                     f'y2="{bottom + 5}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{px:.2f}" y="{bottom + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tick:.4g}</text>')
    for tick in np.linspace(y0, y1, 6):
        py = sy(tick)
        parts.append(f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" '
                     f'y2="{py:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{left - 8}" y="{py + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{tick:.3g}</text>')
    parts.append(f'<polyline fill="none" stroke="#1f6fb4" stroke-width="1.5" '
                 f'points="{points}"/>')
    parts.append("</svg>")
    _write_lines(path, parts, "SVG", PlotError)


# ---------------------------------------------------------------------------
# pipeline

def _static_field(cfg: RunConfig) -> tuple[OperatorSet, np.ndarray]:
    """The operators of a RunConfig's plate and collar, and the static
    solution under the 50 sin(2x) load: every run's initial field."""
    ops = build_operators(build_grid(cfg.J, cfg.K, cfg.l), cfg.sigma, cfg.width)
    return ops, solve_static(sin_load(ops.grid, 50.0, 2), ops)


def _plate(cfg: RunConfig) -> tuple[FactorizedSystem, np.ndarray]:
    """The system of a RunConfig's plate, collar and time step, and the
    initial field."""
    ops, u0 = _static_field(cfg)
    return FactorizedSystem(ops, cfg.dt), u0


def run_config(cfg: RunConfig,
               plate: tuple[FactorizedSystem, np.ndarray] | None = None) -> RunResult:
    """Resolve a RunConfig and execute it.

    The initial field is the static solution under the 50 sin(2x) load with
    zero initial velocity, matching the figure experiments.  ``plate`` is
    ``_plate(cfg)`` if the caller built it already; it depends only on the
    grid, sigma, collar width and dt of ``cfg``.
    """
    model = make_model(P=cfg.P, S=cfg.S, feedback=cfg.feedback)
    system, u0 = plate or _plate(cfg)
    return run(model, system, u0, np.zeros_like(u0), cfg.T,
               record_stride=cfg.record_stride, snapshot_times=cfg.snapshots)


# command-line options that override a config key: (argparse dest, key)
_OVERRIDES = (("dt", "dt"), ("T", "T"), ("out", "csv"), ("svg", "svg"))


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
        cfg = parse_config(text)
    else:
        cfg = preset(args.preset or "fig7")
    overrides = {key: getattr(args, dest) for dest, key in _OVERRIDES
                 if getattr(args, dest, None) is not None}
    if overrides:
        cfg = _validate(replace(cfg, **overrides), where="overrides")
    return cfg


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    n_steps = round(cfg.T / cfg.dt)
    if n_steps < 1:
        raise ConfigError(f"T = {cfg.T:g} rounds to 0 steps of dt = {cfg.dt:g}; "
                          f"run needs at least one step")
    if cfg.svg and n_steps < 2:
        raise ConfigError(f"T = {cfg.T:g} rounds to 1 step of dt = {cfg.dt:g}; "
                          f"an SVG chart needs at least 2 steps to plot")
    # before the march
    _check_directory(cfg.csv, "energy CSV")
    for t_req in cfg.snapshots:
        _check_directory(_snapshot_path(cfg.csv, t_req), "snapshot")
    if cfg.svg:
        _check_directory(cfg.svg, "SVG")
    result = run_config(cfg)
    write_energy_csv(result.records, cfg.csv)
    grid = build_grid(cfg.J, cfg.K, cfg.l)
    for t_req, (_, field_vec) in result.snapshots.items():
        dump_snapshot(field_vec, grid, _snapshot_path(cfg.csv, t_req))
    if cfg.svg:
        emit_svg_plot(result.records, cfg.svg,
                      title=f"energy, feedback {feedback_name(cfg.feedback)}")
    print(f"wrote {cfg.csv} ({len(result.records)} records, "
          f"final E = {result.records[-1].total:.6g})")
    return 0


def _cmd_static(args) -> int:
    cfg = _load_config(args)
    out = args.out or "static_solution.csv"
    _check_directory(out, "snapshot")  # before the assembly and the solve
    ops, u = _static_field(cfg)
    dump_snapshot(u, ops.grid, out)
    print(f"wrote {out} (max |u| = {float(np.max(np.abs(u))):.6g})")
    return 0


def _cmd_decay_fit(args) -> int:
    ts, es = read_energy_csv(args.csv)
    row = fit_report_row(args.label, fit_decay(ts, es, tail_fraction=args.tail_fraction))
    print("label,best_model,rate_or_exponent,r2_exp,r2_alg")
    print(row)
    return 0


def _cmd_sweep(args) -> int:
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create sweep directory {args.out_dir!r}: "
                          f"{exc}") from exc
    report = os.path.join(args.out_dir, "decay_fits.csv")
    _check_directory(report, "fit report")  # before the first march
    rows = ["preset,best_model,rate_or_exponent,r2_exp,r2_alg"]
    # presets that share a plate share its system and initial field
    plates: dict[tuple, tuple[FactorizedSystem, np.ndarray]] = {}
    for name in ("fig6", "fig7", "fig8"):
        cfg = preset(name)
        key = (cfg.J, cfg.K, cfg.l, cfg.sigma, cfg.width, cfg.dt)
        if key not in plates:
            plates[key] = _plate(cfg)
        result = run_config(cfg, plates[key])
        stem = os.path.join(args.out_dir, f"{name}_energy")
        write_energy_csv(result.records, f"{stem}.csv")
        ts = np.array([rec.t for rec in result.records])
        es = np.array([rec.total for rec in result.records])
        rows.append(fit_report_row(name, fit_decay(ts, es)))
        emit_svg_plot(result.records, f"{stem}.svg",
                      title=f"{name}: feedback {feedback_name(cfg.feedback)}")
    _write_lines(report, rows, "fit report")
    print(f"wrote {report}")
    return 0


def _cmd_lambda1(args) -> int:
    cfg = _load_config(args)
    grid = build_grid(cfg.J, cfg.K, cfg.l)
    value = lambda1_estimate(grid, cfg.sigma)
    verdict = "holds" if cfg.P <= value else "FAILS"
    print(f"lambda1 = {value:.10g}; energy positivity P <= lambda1 {verdict} "
          f"(P = {cfg.P:g})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bergerdeck", exit_on_error=False)
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", help="config document path")
        source.add_argument("--preset", choices=PRESET_NAMES, help="named preset")

    p_run = sub.add_parser("run", exit_on_error=False,
                           help="time-march an experiment and write energy CSV")
    add_common(p_run)
    p_run.add_argument("--dt", type=float, help="time step override")
    p_run.add_argument("--T", type=float, help="final time override")
    p_run.add_argument("--out", help="energy CSV path override")
    p_run.add_argument("--svg", help="also render an SVG energy chart")
    p_run.set_defaults(func=_cmd_run)

    p_static = sub.add_parser("static", exit_on_error=False,
                              help="solve the static bending problem")
    add_common(p_static)
    p_static.add_argument("--out", help="snapshot CSV path")
    p_static.set_defaults(func=_cmd_static)

    p_fit = sub.add_parser("decay-fit", exit_on_error=False,
                           help="classify the decay of an energy CSV")
    p_fit.add_argument("--csv", required=True, help="energy CSV to fit")
    p_fit.add_argument("--tail-fraction", type=float, default=0.5,
                       dest="tail_fraction")
    p_fit.add_argument("--label", default="series")
    p_fit.set_defaults(func=_cmd_decay_fit)

    p_sweep = sub.add_parser("sweep", exit_on_error=False,
                             help="run fig6/fig7/fig8 and write the fit report")
    p_sweep.add_argument("--out-dir", default="sweep", dest="out_dir")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_l1 = sub.add_parser("lambda1", exit_on_error=False,
                          help="estimate the embedding constant of the grid")
    add_common(p_l1)
    p_l1.set_defaults(func=_cmd_lambda1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        # parse_args would exit 2 on an unknown option despite exit_on_error
        args, unknown = parser.parse_known_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if unknown:
        print(f"error: unrecognized arguments: {' '.join(unknown)}", file=sys.stderr)
        return 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (SolveError, ConvergenceError, NonFiniteError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except (BergerdeckError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
