"""Outside-in instrumentation of bergerdeck.

Nothing here edits the package.  Functions are replaced by wrappers under
the name the calling module looks up (``bergerdeck.integrator.eval_feedback``,
not ``bergerdeck.model.eval_feedback``, because ``integrator`` imported the
name), and class methods are replaced on the class.  A name that does not
exist is recorded as absent and skipped, so the same instrument runs against
later commits that rename or delete code.

Two instruments:

- ``Probe`` is installed in every run.  It does a little thread-local work
  on every step (a step count, and one clock read on a march's first step)
  and gives the end-to-end markers (first step, end of the march) and the
  worst residual ``refine_solve`` returns, which is an output check rather
  than a layer timing.
- ``Tracer`` is installed only in traced runs.  It records a span for each
  call into a layer, with the span that caused it, and counts LU work
  through a proxy returned by a wrapped ``scipy.sparse.linalg.splu``.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from dataclasses import dataclass, field

_MISSING = object()


def _resolve(path: str):
    """(owner, attribute) for a dotted path, or None if any part is absent."""
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:-1]:
            owner = getattr(owner, name, _MISSING)
            if owner is _MISSING:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


class Patches:
    """Named attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def wrap(self, path: str, make_wrapper) -> None:
        found = _resolve(path)
        if found is None:
            self.absent.append(path)
            return
        owner, attr = found
        # read from __dict__ so a method comes back as the plain function
        original = vars(owner)[attr] if attr in vars(owner) else getattr(owner, attr)
        wrapper = make_wrapper(original)
        if callable(original) and not isinstance(original, type):
            functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# probe: end-to-end markers and the residual contract


@dataclass
class March:
    first_step: float
    end: float
    steps: int


@dataclass
class ProbeRecord:
    """What one CLI command did, as seen by the probe."""

    marches: list[March] = field(default_factory=list)
    residual_max: float = 0.0
    residuals: int = 0


class Probe:
    """Markers every run needs: first step and march end, and the worst
    residual ``refine_solve`` returns."""

    def __init__(self):
        self.patches = Patches()
        self.record = ProbeRecord()
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self) -> None:
        self.record = ProbeRecord()

    def install(self) -> None:
        local = self._local

        def step_wrapper(original):
            def step(*args, **kwargs):
                if getattr(local, "first_step", None) is None:
                    local.first_step = time.perf_counter()
                local.steps = getattr(local, "steps", 0) + 1
                return original(*args, **kwargs)
            return step

        def run_wrapper(original):
            def run(*args, **kwargs):
                local.first_step, local.steps = None, 0
                result = original(*args, **kwargs)
                end = time.perf_counter()
                if local.first_step is not None:
                    self.record.marches.append(March(local.first_step, end, local.steps))
                local.first_step, local.steps = None, 0
                return result
            return run

        def refine_wrapper(original):
            def refine_solve(*args, **kwargs):
                x, residual = original(*args, **kwargs)
                with self._lock:
                    self.record.residual_max = max(self.record.residual_max, residual)
                    self.record.residuals += 1
                return x, residual
            return refine_solve

        self.patches.wrap("bergerdeck.integrator.step", step_wrapper)
        self.patches.wrap("bergerdeck.cli.run", run_wrapper)
        self.patches.wrap("bergerdeck.integrator.refine_solve", refine_wrapper)
        self.patches.wrap("bergerdeck.staticsolve.refine_solve", refine_wrapper)

    def uninstall(self) -> None:
        self.patches.restore()


# ---------------------------------------------------------------------------
# tracer: spans and counters at each layer boundary


@dataclass
class Span:
    name: str
    start: float
    parent: int
    thread: int
    phase: str | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class LUProxy:
    """Stands in for a SuperLU object and counts triangular solves."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        self._tracer.count("lu_solves")
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _nnz_of(result) -> int:
    matrix = getattr(result, "bilaplacian", result)
    return int(getattr(matrix, "nnz", 0))


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Spans in memory, one stack per thread; ``phase`` tags new spans."""

    # (path the caller looks the name up under, span name, after-hook)
    TARGETS = (
        ("bergerdeck.cli.build_operators", "operators.build",
         lambda s, a, r: s.counts.update(bilaplacian_nnz=_nnz_of(r))),
        ("bergerdeck.staticsolve.assemble_bilaplacian", "operators.build",
         lambda s, a, r: s.counts.update(bilaplacian_nnz=_nnz_of(r))),
        ("bergerdeck.cli.solve_static", "staticsolve.solve", None),
        ("bergerdeck.integrator.FactorizedSystem.__init__", "integrator.factor", None),
        ("bergerdeck.integrator.bootstrap", "integrator.bootstrap", None),
        ("bergerdeck.integrator.step", "integrator.step", None),
        ("bergerdeck.integrator.FactorizedSystem.solve", "integrator.solve", None),
        ("bergerdeck.integrator._applied_force", "integrator.force", None),
        ("bergerdeck.integrator.refine_solve", "direct.refine",
         lambda s, a, r: s.counts.update(residual=float(r[1]))),
        ("bergerdeck.staticsolve.refine_solve", "direct.refine",
         lambda s, a, r: s.counts.update(residual=float(r[1]))),
        ("bergerdeck.integrator.eval_feedback", "model.feedback", None),
        ("bergerdeck.model.stretch_integral", "model.stretch", None),
        ("bergerdeck.energy.stretch_integral", "model.stretch", None),
        ("bergerdeck.energy.PlateFormEvaluator.__init__", "energy.evaluator_build", None),
        ("bergerdeck.energy.PlateFormEvaluator.record", "energy.record", None),
        ("bergerdeck.cli.lambda1_estimate", "energy.lambda1", None),
        ("bergerdeck.cli.fit_decay", "decaylaw.fit", None),
        ("bergerdeck.cli.write_energy_csv", "cli.csv_write",
         lambda s, a, r: s.counts.update(bytes=_file_bytes(a[1] if len(a) > 1 else None))),
        ("bergerdeck.cli.emit_svg_plot", "cli.svg", None),
        ("bergerdeck.cli.dump_snapshot", "integrator.snapshot_write",
         lambda s, a, r: s.counts.update(bytes=_file_bytes(a[2] if len(a) > 2 else None))),
        ("bergerdeck.cli.run_config", "cli.run_config", None),
        ("bergerdeck.cli._cmd_sweep", "cli.sweep", None),
    )

    def __init__(self):
        self.patches = Patches()
        self.spans: list[Span] = []
        self.phase: str | None = None
        self.pool_workers: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int = 1) -> None:
        """Add to a counter on every span open in this thread."""
        for index in self._stack():
            counts = self.spans[index].counts
            counts[key] = counts.get(key, 0) + amount

    def note(self, key: str, value) -> None:
        """Set a value on every span open in this thread."""
        for index in self._stack():
            self.spans[index].counts[key] = value

    def _span_wrapper(self, name: str, after):
        def make(original):
            def traced(*args, **kwargs):
                stack = self._stack()
                span = Span(name, 0.0, stack[-1] if stack else -1,
                            threading.get_ident(), self.phase)
                with self._lock:
                    index = len(self.spans)
                    self.spans.append(span)
                stack.append(index)
                span.start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    stack.pop()
                if after is not None:
                    after(span, args, result)
                return result
            return traced
        return make

    def install(self) -> None:
        for path, name, after in self.TARGETS:
            self.patches.wrap(path, self._span_wrapper(name, after))

        def splu_wrapper(original):
            def splu(*args, **kwargs):
                lu = original(*args, **kwargs)
                self.note("lu_fill_nnz", int(lu.L.nnz + lu.U.nnz))
                return LUProxy(lu, self)
            return splu

        def pool_wrapper(original):
            def pool(*args, **kwargs):
                workers = kwargs.get("max_workers", args[0] if args else None)
                self.pool_workers.append(int(workers or 1))
                return original(*args, **kwargs)
            return pool

        self.patches.wrap("scipy.sparse.linalg.splu", splu_wrapper)
        self.patches.wrap("bergerdeck.cli.ThreadPoolExecutor", pool_wrapper)

    def uninstall(self) -> None:
        self.patches.restore()

    # -- queries ----------------------------------------------------------

    def named(self, name: str, phase: str | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and (phase is None or s.phase == phase)]

    def child_times(self) -> dict[int, float]:
        """Summed duration of each span's direct children, by span index."""
        totals: dict[int, float] = {}
        for span in self.spans:
            if span.parent >= 0:
                totals[span.parent] = totals.get(span.parent, 0.0) + span.duration
        return totals
