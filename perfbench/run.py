#!/usr/bin/env python3
"""bergerdeck benchmark.

Runs one workload through the package's command-line entry point
(``bergerdeck.cli.main``) from the ``src/`` tree of the checkout it sits in,
checks every output, and prints one JSON line with the metrics named in
``BENCHMARK.json``: the end-to-end metrics with ``--trace 0`` and the
per-layer metrics with ``--trace 1``.

    python3 perfbench/run.py --workload march-solve --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload march-force --seed 3 --seconds 50 --trace 1 --out r.json
    python3 perfbench/run.py --smoke

Workloads (why each was chosen is in ``perfbench/baseline/NOTES.md``):

- ``march-solve``: the ``run`` pipeline on the fig6 preset, record stride 10;
- ``march-force``: ``run`` on fig8 with record stride 1 and an SVG, then
  ``decay-fit`` on its CSV.

A run repeats its workload's unit until ``--seconds`` have passed (and at
least three times).  Twice in a run, after the first unit and after the
unit that crosses half of ``--seconds``, it also runs the cold commands:
``static`` and ``lambda1`` on a 299 x 199 grid, and ``sweep`` with its
default thread pool.  So every end-to-end metric is measured in every run.
Seed 0 keeps the presets' sigma, P and S; any other seed moves them inside
a narrow band.  The grid, dt and step counts never depend on the seed.

Every command is bracketed by a probe of the machine's speed
(``perfbench/speed.py``), and the timing metrics are wall times scaled by
that speed: a main unit's by its own probes, a cold command's by the whole
run's.  The unscaled values are in the ``--out`` record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
from instrument import Probe, Tracer  # noqa: E402
from speed import MachineSpeed  # noqa: E402

WORKLOADS = ("march-solve", "march-force")
THREADS_ENV = "BERGERDECK_THREADS"
RESIDUAL_CONTRACT = 1e-10   # refine_solve's rtol in both solve paths
ENERGY_RISE_TOL = 1e-12     # relative to the first record, as acceptance 4
IDENTITY_TOL = 0.01         # seeds move the seed commit's residual by < 0.2%
STATIC_LOAD = (50.0, 2)     # the static command solves for 50 sin(2x)


@dataclass(frozen=True)
class Scale:
    plate: tuple[int, int]      # (J, K) of the marches and the sweep
    cold: tuple[int, int]       # (J, K) of static and lambda1
    march_steps: int
    sweep_steps: int            # per preset; stride 10 needs >= 190 for decay fits
    min_units: int
    side_rounds: int            # rounds of the cold commands in a run


FULL = Scale(plate=(149, 99), cold=(299, 199), march_steps=400,
             sweep_steps=200, min_units=3, side_rounds=2)
SMOKE = Scale(plate=(21, 11), cold=(41, 21), march_steps=30,
              sweep_steps=200, min_units=1, side_rounds=1)


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_package():
    """Import bergerdeck from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "bergerdeck" / "__init__.py").is_file():
        raise SetupError(f"no bergerdeck package under {SRC}")
    sys.path.insert(0, str(SRC))
    import bergerdeck
    import bergerdeck.cli
    import bergerdeck.energy
    import bergerdeck.grid
    import bergerdeck.staticsolve
    if SRC not in Path(bergerdeck.__file__).resolve().parents:
        raise SetupError(f"imported bergerdeck from {bergerdeck.__file__}, not {SRC}")
    return bergerdeck


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def perturbation(seed: int) -> dict[str, float]:
    """Relative factors for sigma, P and S; seed 0 keeps the presets."""
    if seed == 0:
        return {"sigma": 1.0, "P": 1.0, "S": 1.0}
    rng = random.Random(seed)
    return {"sigma": 1.0 + 0.01 * rng.uniform(-1.0, 1.0),
            "P": 1.0 + 0.05 * rng.uniform(-1.0, 1.0),
            "S": 1.0 + 0.05 * rng.uniform(-1.0, 1.0)}


def quadratic(points: list[list[float]], x: float) -> float:
    """Lagrange interpolation through three (x, y) reference points."""
    (x0, y0), (x1, y1), (x2, y2) = points
    return (y0 * (x - x1) * (x - x2) / ((x0 - x1) * (x0 - x2))
            + y1 * (x - x0) * (x - x2) / ((x1 - x0) * (x1 - x2))
            + y2 * (x - x0) * (x - x1) / ((x2 - x0) * (x2 - x1)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values):
    return statistics.median(values) if values else math.nan


def percentile(values, q: float) -> float:
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)]


# ---------------------------------------------------------------------------
# one CLI command and its output checks


@dataclass
class Op:
    kind: str
    phase: str
    unit: int
    t0: float = 0.0
    t1: float = 0.0
    rc: int | None = None
    error: str = ""
    probe: object = None
    scale: float = 1.0          # machine-speed factor from the probes around it
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    values: dict = field(default_factory=dict)

    def seconds(self, calibrated: bool = True) -> float:
        return (self.t1 - self.t0) * (self.scale if calibrated else 1.0)

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.error and all(ok for _, ok, _ in self.checks)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)


def read_csv(path: Path, header: list[str]) -> list[list[float]]:
    """Rows of a numeric CSV; raises ValueError on a bad header, a bad or
    non-finite value, or a ragged row."""
    lines = path.read_text().splitlines()
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"{path.name}: header {lines[:1]} is not {header}")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path.name}:{number}: {len(cells)} fields")
        row = [float(cell) for cell in cells]
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"{path.name}:{number}: non-finite value")
        rows.append(row)
    return rows


class Bench:
    """One benchmark run: a workload at a scale and seed."""

    def __init__(self, bd, workload: str, seed: int, scale: Scale, workdir: Path,
                 reference: dict | None, speed: MachineSpeed):
        self.bd = bd
        self.workload = workload
        self.scale = scale
        self.workdir = workdir
        self.reference = reference
        self.factors = perturbation(seed)
        self.preset = bd.cli.preset
        self.probe = Probe()
        self.speed = speed
        self.tracer: Tracer | None = None
        self.ops: list[Op] = []
        self.phase = "main"
        self.unit = 0
        self.traced_units: set[int] = set()
        self.peak_rss_mb = math.nan
        workdir.mkdir(parents=True, exist_ok=True)

    # -- inputs -----------------------------------------------------------

    def config(self, name: str, steps: int, grid: tuple[int, int], **changes):
        cfg = self.preset(name)
        J, K = grid
        return replace(cfg, J=J, K=K, T=steps * cfg.dt,
                       sigma=cfg.sigma * self.factors["sigma"],
                       P=cfg.P * self.factors["P"], S=cfg.S * self.factors["S"],
                       **changes)

    def write_config(self, cfg, stem: str) -> Path:
        path = self.workdir / f"{stem}.cfg"
        path.write_text(self.bd.cli.render_config(cfg))
        return path

    # -- running commands --------------------------------------------------

    def command(self, kind: str, argv: list[str], check=None) -> Op:
        op = Op(kind, self.phase, self.unit)
        self.probe.begin()
        if self.tracer is not None:
            self.tracer.phase = self.phase
        out, err = io.StringIO(), io.StringIO()
        before = self.speed.probe()
        op.t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                op.rc = self.bd.cli.main(argv)
        except Exception:  # the run goes on; the command counts as failed
            op.error = traceback.format_exc(limit=3)
        op.t1 = time.perf_counter()
        op.scale = self.speed.factor(before, self.speed.probe())
        op.probe = self.probe.record
        if op.rc != 0 and not op.error:
            op.error = f"exit code {op.rc}: {err.getvalue().strip()[:300]}"
        if not op.error and check is not None:
            try:
                check(op, out.getvalue())
            except (OSError, ValueError, KeyError, IndexError) as exc:
                op.check("outputs readable", False, str(exc)[:300])
        if op.probe.residuals:
            op.check("solve residual <= 1e-10",
                     op.probe.residual_max <= RESIDUAL_CONTRACT,
                     f"{op.probe.residual_max:.3e}")
        self.ops.append(op)
        return op

    def check_energy_csv(self, op: Op, path: Path, ref_key: str) -> None:
        cols = self.bd.cli.CSV_HEADER.split(",")
        rows = read_csv(path, cols)
        at = {name: i for i, name in enumerate(cols)}
        records = [self.bd.energy.EnergyRecord(
            step=int(r[at["step"]]), t=r[at["t"]], kinetic=r[at["E_kinetic"]],
            hstar=r[at["E_hstar"]], px=r[at["E_px"]], sx=r[at["E_sx"]],
            total=r[at["E_total"]], dissipated_cum=r[at["dissipated_cum"]])
            for r in rows]
        op.check(f"{path.name} has records", len(records) >= 2, str(len(records)))
        e0 = records[0].total
        rise = max((b.total - a.total for a, b in zip(records, records[1:])
                    if a.step >= 2), default=0.0)
        op.check(f"{path.name} energy does not rise after step 2",
                 rise <= ENERGY_RISE_TOL * e0, f"worst rise {rise:.3e}")
        residual = self.bd.energy.dissipation_residual(records)
        op.values.setdefault("identity", []).append(residual)
        seed_value = self.ref("energy_identity", ref_key)
        if seed_value is not None:
            op.check(f"{path.name} energy identity residual within 1% of the seed's",
                     residual <= seed_value * (1 + IDENTITY_TOL),
                     f"{residual:.4e} vs {seed_value:.4e}")

    def ref(self, table: str, key: str):
        if self.reference is None:
            return None
        return self.reference[table].get(key)

    def check_svg(self, op: Op, path: Path) -> None:
        text = path.read_text()
        op.check(f"{path.name} is an SVG document",
                 text.startswith("<?xml") and text.rstrip().endswith("</svg>")
                 and "<polyline" in text)

    # -- the commands ------------------------------------------------------

    def run_pipeline(self, preset: str, stride: int | None, svg: bool, fit: bool) -> None:
        stem = f"{preset}-u{self.unit}"
        csv = self.workdir / f"{stem}.csv"
        svg_path = self.workdir / f"{stem}.svg" if svg else None
        changes = {"csv": str(csv), "svg": str(svg_path) if svg else None}
        if stride is not None:
            changes["record_stride"] = stride
        cfg = self.config(preset, self.scale.march_steps, self.scale.plate, **changes)
        path = self.write_config(cfg, stem)

        def check(op, stdout):
            self.check_energy_csv(op, csv, self.workload)
            if svg_path is not None:
                self.check_svg(op, svg_path)

        self.command("run", ["run", "--config", str(path)], check)
        if fit:
            def check_fit(op, stdout):
                lines = stdout.strip().splitlines()
                op.check("decay-fit prints header and one row", len(lines) == 2)
                label, best, *numbers = lines[1].split(",")
                values = [float(v) for v in numbers]
                op.check("decay-fit row is finite",
                         label == preset and best in ("exponential", "algebraic")
                         and len(values) == 3 and all(map(math.isfinite, values)),
                         lines[1])
            self.command("decay-fit", ["decay-fit", "--csv", str(csv), "--label", preset],
                         check_fit)

    def static(self, cfg, grid_key: str) -> None:
        path = self.write_config(cfg, f"static-{grid_key}")
        snap = self.workdir / f"static-{grid_key}.csv"
        bd = self.bd

        def check(op, stdout):
            rows = read_csv(snap, ["k", "j", "x", "y", "value"])
            grid = bd.grid.build_grid(cfg.J, cfg.K, cfg.l)
            op.check("snapshot has one row per unknown", len(rows) == grid.n_dof,
                     f"{len(rows)} rows")
            u = np.zeros(grid.n_dof)
            for k, j, _x, _y, value in rows:
                u[grid.flatten(int(j), int(k))] = value
            weights = bd.grid.build_weights(grid)
            exact = bd.staticsolve.analytic_oracle(*STATIC_LOAD, cfg.l, cfg.sigma).sample(grid)
            diff = u - exact
            rel = math.sqrt(weights.integrate_cells(diff * diff)
                            / weights.integrate_cells(exact * exact))
            op.values["static_rel_l2"] = rel
            points = self.ref("static_rel_l2", grid_key)
            if points is not None:
                expected = quadratic(points, cfg.sigma)
                op.check("static_rel_l2 at most 1e-3 above the seed's",
                         rel <= expected * (1 + 1e-3), f"{rel:.6e} vs {expected:.6e}")

        self.command("static", ["static", "--config", str(path), "--out", str(snap)], check)

    def lambda1(self, cfg, grid_key: str) -> None:
        path = self.write_config(cfg, f"lambda1-{grid_key}")

        def check(op, stdout):
            match = re.search(r"lambda1 = (\S+);.*\b(holds|FAILS)\b", stdout)
            if not op.check("lambda1 line printed", match is not None, stdout.strip()[:200]):
                return
            value = float(match.group(1))
            op.check("energy positivity holds", match.group(2) == "holds")
            points = self.ref("lambda1", grid_key)
            if points is not None:
                expected = quadratic(points, cfg.sigma)
                op.check("lambda1 within 1e-6 of the seed's",
                         abs(value - expected) <= 1e-6 * expected,
                         f"{value:.10g} vs {expected:.10g}")

        self.command("lambda1", ["lambda1", "--config", str(path)], check)

    def sweep(self) -> None:
        out_dir = self.workdir / f"sweep-u{self.unit}"
        names = ("fig6", "fig7", "fig8")

        def preset(name):
            return self.config(name, self.scale.sweep_steps, self.scale.plate)

        def check(op, stdout):
            for name in names:
                self.check_energy_csv(op, out_dir / f"{name}_energy.csv", f"sweep-{name}")
                self.check_svg(op, out_dir / f"{name}_energy.svg")
            lines = (out_dir / "decay_fits.csv").read_text().splitlines()
            op.check("fit report has one row per preset",
                     [line.split(",")[0] for line in lines[1:]] == list(names))
            for line in lines[1:]:
                values = [float(v) for v in line.split(",")[2:]]
                op.check(f"fit report row {line.split(',')[0]} is finite",
                         len(values) == 3 and all(map(math.isfinite, values)))

        self.bd.cli.preset = preset
        try:
            self.command("sweep", ["sweep", "--out-dir", str(out_dir)], check)
        finally:
            self.bd.cli.preset = self.preset

    # -- workloads ---------------------------------------------------------

    def main_unit(self) -> None:
        if self.workload == "march-solve":
            self.run_pipeline("fig6", stride=None, svg=False, fit=False)
        elif self.workload == "march-force":
            self.run_pipeline("fig8", stride=1, svg=True, fit=True)

    def cold_commands(self) -> None:
        cfg = self.config("static", 0, self.scale.cold)
        self.static(cfg, "cold")
        self.lambda1(cfg, "cold")
        self.sweep()

    def run(self, seconds: float, trace: bool) -> None:
        """Main units until ``seconds`` pass, with rounds of the cold
        commands spread over the run, so that they meet the same load on
        the machine as the main units.  A traced run alternates untraced and
        traced main units, so the two can be compared for the tracing
        overhead, and traces the cold commands."""
        self.probe.install()
        if trace:
            self.tracer = Tracer()
        # traced runs take one unit fewer of each kind; they are longer
        need = max(1, self.scale.min_units - 1) if trace else self.scale.min_units
        rounds = 0
        try:
            started = time.perf_counter()
            while True:
                traced = trace and self.unit % 2 == 1
                if traced:
                    self.traced_units.add(self.unit)
                self.in_phase(traced, self.main_unit)
                self.unit += 1
                if self.unit == 1:
                    # ru_maxrss only rises: read it before the cold commands
                    # on the larger grid lift it past the workload's own peak
                    self.peak_rss_mb = peak_rss_mb()
                elapsed = time.perf_counter() - started
                if rounds < self.scale.side_rounds and \
                        elapsed >= seconds * rounds / self.scale.side_rounds:
                    self.in_phase(trace, self.cold_commands, phase="side")
                    rounds += 1
                done = len(self.traced_units) if trace else self.unit
                if elapsed >= seconds and done >= need and rounds == self.scale.side_rounds:
                    break
        finally:
            self.probe.uninstall()
        # one probe's jitter averages out over the many main units, but not
        # over the few rounds of cold commands: they take the whole run's speed
        whole_run = self.speed.run_factor()
        for op in self.ops:
            if op.phase == "side":
                op.scale = whole_run

    def in_phase(self, on: bool, command, phase: str = "main") -> None:
        self.phase = phase
        if on:
            self.tracer.install()
        try:
            command()
        finally:
            if on:
                self.tracer.uninstall()
            self.phase = "main"

    # -- results -----------------------------------------------------------

    def scoped(self, *kinds: str) -> list[Op]:
        """Main-loop ops of these kinds, or the side-phase ones if none."""
        main = [op for op in self.ops if op.kind in kinds and op.phase == "main"]
        return main or [op for op in self.ops if op.kind in kinds and op.phase == "side"]

    def units(self, traced: bool | None = None) -> list[list[Op]]:
        by_unit: dict[int, list[Op]] = {}
        for op in self.ops:
            if op.phase == "main":
                by_unit.setdefault(op.unit, []).append(op)
        return [by_unit[u] for u in sorted(by_unit)
                if traced is None or (u in self.traced_units) == traced]

    @staticmethod
    def steps_per_s(ops: list[Op], calibrated: bool = True) -> float:
        steps = wall = 0.0
        for op in ops:
            for m in op.probe.marches:
                steps += m.steps
                wall += (m.end - m.first_step) * (op.scale if calibrated else 1.0)
        return steps / wall if wall > 0 else math.nan

    @staticmethod
    def setup_seconds(unit: list[Op], calibrated: bool = True) -> float:
        marks = [m.first_step for op in unit for m in op.probe.marches]
        if not marks:
            return math.nan
        return (min(marks) - unit[0].t0) * (unit[0].scale if calibrated else 1.0)

    def end_to_end(self, calibrated: bool = True) -> dict[str, float]:
        units = self.units()
        identity = [v for op in self.scoped("run", "sweep") for v in op.values.get("identity", [])]
        attempted, failed = self.counts()

        def seconds(*kinds):
            return median([op.seconds(calibrated) for op in self.scoped(*kinds)])

        return {
            "setup_s": median([self.setup_seconds(u, calibrated) for u in units]),
            "run_s": median([sum(op.seconds(calibrated) for op in u) for u in units]),
            "steps_per_s": self.steps_per_s(self.scoped("run", "sweep"), calibrated),
            "static_s": seconds("static"),
            "lambda1_s": seconds("lambda1"),
            "sweep_s": seconds("sweep"),
            "peak_rss_mb": self.peak_rss_mb,
            "ok_frac": 1.0 - failed / attempted,
            "static_rel_l2": median([op.values["static_rel_l2"] for op in self.scoped("static")
                                     if "static_rel_l2" in op.values]),
            "energy_identity_residual": max(identity) if identity else math.nan,
        }

    def per_layer(self) -> tuple[dict[str, float], list[str]]:
        tr = self.tracer
        absent = list(tr.patches.absent)

        def scope(name: str) -> list:
            spans = tr.named(name, "main")
            return spans or tr.named(name, "side")

        def ms(spans):
            return [1e3 * s.duration for s in spans]

        steps = scope("integrator.step")
        # a march runs from its first step to the end of the span that made
        # the steps; calls made while setting up the march are not per step
        windows: dict[tuple[int, int], list[float]] = {}
        for span in steps:
            window = windows.setdefault((span.thread, span.parent), [span.start, span.end])
            window[0] = min(window[0], span.start)
            window[1] = max(window[1], span.end)
        marches_on = [(thread, lo, tr.spans[parent].end if parent >= 0 else hi)
                      for (thread, parent), (lo, hi) in windows.items()]

        def per_step(name: str) -> float:
            calls = [c for c in tr.named(name, steps[0].phase if steps else None)
                     if any(c.thread == thread and lo <= c.start <= hi
                            for thread, lo, hi in marches_on)]
            return len(calls) / len(steps) if steps else math.nan

        child = tr.child_times()
        index = {id(s): i for i, s in enumerate(tr.spans)}
        solves = scope("integrator.solve")
        lu_per_solve = (sum(s.counts.get("lu_solves", 0) for s in solves) / len(solves)
                        if solves else math.nan)
        factors = scope("integrator.factor")
        fill = max((s.counts.get("lu_fill_nnz", 0) for s in factors), default=math.nan)
        marches = scope("integrator.bootstrap")
        sweeps = scope("cli.sweep")
        busy, concurrency = [], []
        workers = tr.pool_workers[-1] if tr.pool_workers else 1
        for sweep in sweeps:
            inside = [s.duration for s in tr.named("cli.run_config", sweep.phase)
                      if sweep.start <= s.start and s.end <= sweep.end]
            busy.append(sum(inside))
            concurrency.append(sum(inside) / (sweep.duration * workers))

        untraced, traced = self.units(traced=False), self.units(traced=True)
        sps_untraced = self.steps_per_s([op for u in untraced for op in u])
        sps_traced = self.steps_per_s([op for u in traced for op in u])
        unit_time = [sum(op.seconds() for op in u) for u in traced]
        base_time = [sum(op.seconds() for op in u) for u in untraced]

        metrics = {
            "operators.build_s": median([s.duration for s in scope("operators.build")]),
            "operators.bilaplacian_nnz": max((s.counts.get("bilaplacian_nnz", 0)
                                              for s in scope("operators.build")), default=math.nan),
            "staticsolve.solve_s": median([s.duration for s in scope("staticsolve.solve")]),
            "staticsolve.lu_solves": median([s.counts.get("lu_solves", 0)
                                             for s in scope("staticsolve.solve")]),
            "integrator.factor_s": median([s.duration for s in factors]),
            "integrator.bootstrap_ms": median(ms(marches)),
            "integrator.step_ms.p50": median(ms(steps)),
            "integrator.step_ms.p99": percentile(ms(steps), 0.99),
            "integrator.step_self_ms.p50": median(
                [1e3 * (s.duration - child.get(index[id(s)], 0.0)) for s in steps]),
            "integrator.solve_ms.p50": median(ms(solves)),
            "integrator.solve_ms.p99": percentile(ms(solves), 0.99),
            "integrator.lu_fill_nnz": fill,
            # 8-byte value + 4-byte index per factor entry, streamed once per LU solve
            "integrator.solve_bytes_computed": 12.0 * fill * lu_per_solve,
            "integrator.lu_solves_per_solve": lu_per_solve,
            "integrator.force_ms.p50": median(ms(scope("integrator.force"))),
            "direct.residual_max": max((s.counts.get("residual", 0.0)
                                        for s in tr.named("direct.refine")), default=math.nan),
            "model.feedback_calls_per_step": per_step("model.feedback"),
            "model.feedback_ms.p50": median(ms(scope("model.feedback"))),
            "model.stretch_calls_per_step": per_step("model.stretch"),
            "model.stretch_ms.p50": median(ms(scope("model.stretch"))),
            "energy.record_calls": (len(scope("energy.record")) / len(marches)
                                    if marches else math.nan),
            "energy.record_ms.p50": median(ms(scope("energy.record"))),
            "energy.evaluator_build_s": median([s.duration for s in scope("energy.evaluator_build")]),
            "energy.lambda1_iters": median([s.counts.get("lu_solves", 0)
                                            for s in scope("energy.lambda1")]),
            "decaylaw.fit_s": median([s.duration for s in scope("decaylaw.fit")]),
            "cli.csv_write_s": median([s.duration for s in scope("cli.csv_write")]),
            "cli.csv_bytes": median([s.counts.get("bytes", 0) for s in scope("cli.csv_write")]),
            "cli.svg_s": median([s.duration for s in scope("cli.svg")]),
            "integrator.snapshot_write_s": median([s.duration for s in
                                                   scope("integrator.snapshot_write")]),
            "integrator.snapshot_bytes": median([s.counts.get("bytes", 0) for s in
                                                 scope("integrator.snapshot_write")]),
            "cli.sweep_busy_s": median(busy),
            "cli.sweep_concurrency": median(concurrency),
            "trace.steps_per_s_untraced": sps_untraced,
            "trace.steps_per_s_traced": sps_traced,
            "trace.overhead_ratio": (median(unit_time) / median(base_time)
                                     if unit_time and base_time else math.nan),
        }
        return metrics, absent

    def counts(self) -> tuple[int, int]:
        counted = [op for op in self.ops if op.phase in ("main", "side")]
        return len(counted), sum(not op.ok for op in counted)


# ---------------------------------------------------------------------------
# environment and result


def environment(bd) -> dict:
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "bergerdeck": getattr(bd, "__version__", None),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        THREADS_ENV: os.environ.get(THREADS_ENV, "unset"),
        "git_commit": commit,
        # a checkout without .git still names the code it measured
        "src_sha256": hashlib.sha256(b"".join(
            path.relative_to(SRC).as_posix().encode() + path.read_bytes()
            for path in sorted(SRC.rglob("*.py")))).hexdigest(),
        "machine": platform.machine(),
    }


def measured_setup(bench: Bench) -> dict:
    s = bench.scale
    return {
        "plate_grid": list(s.plate), "plate_unknowns": s.plate[0] * (s.plate[1] + 2),
        "cold_grid": list(s.cold), "cold_unknowns": s.cold[0] * (s.cold[1] + 2),
        "march_steps": s.march_steps, "sweep_steps_per_preset": s.sweep_steps,
        "units": len(bench.units()), "factors": bench.factors,
    }


def finite(value) -> float:
    return float(value) if value is not None and math.isfinite(value) else 0.0


def run_benchmark(bd, spec: dict, workload: str, seed: int, seconds: float,
                  trace: bool, scale: Scale, workdir: Path) -> dict:
    reference = load_reference() if scale is FULL else None
    speed = MachineSpeed()
    if scale is FULL:
        # lazy imports and first-call costs land here, not in the first unit
        Bench(bd, workload, seed, SMOKE, workdir / "warmup", None, speed).main_unit()
    bench = Bench(bd, workload, seed, scale, workdir, reference, speed)
    bench.run(seconds, trace)
    attempted, failed = bench.counts()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    values, absent = bench.per_layer() if trace else (bench.end_to_end(), [])
    missing = sorted(m["name"] for m in wanted if m["name"] not in values)
    if missing:
        raise SetupError(f"no computation for metrics {missing}")
    unmeasured = sorted(m["name"] for m in wanted if not math.isfinite(values[m["name"]]))
    failures = [{"kind": op.kind, "phase": op.phase, "unit": op.unit,
                 "error": op.error, "checks": [c for c in op.checks if not c[1]]}
                for op in bench.ops if op.phase in ("main", "side") and not op.ok]
    if unmeasured and not trace:
        # no stand-in value: 0 would read as a perfect gain on a lower-is-better metric
        raise SetupError(f"cannot measure {unmeasured}; absent names "
                         f"{bench.probe.patches.absent}; failures {failures}")
    # a per-layer metric whose layer is absent reads 0 and is listed as unmeasured
    metrics = {m["name"]: {"value": finite(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    calibration = {"reference_s": MachineSpeed.REFERENCE_S, "probes": len(speed.probes),
                   "probe_s_median": median(speed.probes)}
    if not trace:
        calibration["uncalibrated"] = bench.end_to_end(calibrated=False)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "scale": "full" if scale is FULL else "smoke",
        "environment": environment(bd), "setup": measured_setup(bench),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
        "absent": sorted(set(absent + bench.probe.patches.absent)),
        "unmeasured": unmeasured, "failures": failures, "calibration": calibration,
        "checks": sum(len(op.checks) for op in bench.ops),
    }


def summary_line(result: dict) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


SCHEMA_KEYS = {"workload", "seed", "seconds", "trace", "scale", "environment", "setup",
               "correct", "attempted", "failed", "metrics", "absent", "unmeasured",
               "failures", "checks", "calibration"}


def schema_errors(result: dict, spec: dict) -> list[str]:
    """Ways a result file departs from the schema BENCHMARK.json implies."""
    errors = []
    if set(result) != SCHEMA_KEYS:
        errors.append(f"keys {sorted(set(result) ^ SCHEMA_KEYS)} differ")
    wanted = spec["per_layer"] if result.get("trace") else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    metrics = result.get("metrics", {})
    if list(metrics) != names:
        errors.append(f"metric names {sorted(set(metrics) ^ set(names))} differ")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if set(got) != {"value", "unit"} or got.get("unit") != m["unit"] \
                or not isinstance(got.get("value"), (int, float)):
            errors.append(f"metric {m['name']} is {got}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        errors.append("failed must be a whole number")
    for key in ("nproc", "python", "numpy", "scipy", "OPENBLAS_NUM_THREADS", "git_commit"):
        if key not in result.get("environment", {}):
            errors.append(f"environment lacks {key}")
    json.loads(summary_line(result))
    return errors


def smoke(bd, spec: dict) -> int:
    """Every workload once per trace setting on a tiny grid; check the schema."""
    bad = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            workdir = WORK / f"smoke-{workload}-{int(trace)}-{os.getpid()}"
            try:
                result = run_benchmark(bd, spec, workload, 1, 0.0, trace, SMOKE, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            path = WORK / f"smoke-{workload}-{int(trace)}.json"
            path.write_text(json.dumps(result, indent=1))
            errors = schema_errors(json.loads(path.read_text()), spec)
            if not result["correct"]:
                errors.append(f"failures: {result['failures']}")
            status = "ok" if not errors else "FAIL " + "; ".join(errors)
            print(f"smoke {workload} trace={int(trace)}: {status}", file=sys.stderr)
            bad += bool(errors)
    print(json.dumps({"smoke": "ok" if not bad else "failed", "failed": bad}))
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result record here")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once on a tiny grid and check the schema")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        bd = import_package()
        WORK.mkdir(parents=True, exist_ok=True)
        if args.smoke:
            return smoke(bd, spec)
        if args.workload is None:
            parser.error("--workload is required")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        workdir = WORK / f"{args.workload}-{os.getpid()}"
        try:
            result = run_benchmark(bd, spec, args.workload, args.seed, seconds,
                                   bool(args.trace), FULL, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    for failure in result["failures"]:
        print(f"perfbench: failed {failure}", file=sys.stderr)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
