"""The machine's speed at the moment, for scaling a command's wall time.

On a machine shared with other tenants the same command can take a quarter
longer in one minute than in the next: they share its cache, its memory
bandwidth and its clock.  All timings of a run move together when that
happens.  A short probe run before and after each command measures the
machine's speed around it, and the command's time is scaled by it.  A
command that runs only a few times in a run is scaled by the median of all
the run's probes instead, since one probe's jitter would not average out.

The probe is what dominates a march step: triangular solves with the sparse
LU of ``I + 0.5 L^2`` (``L`` the five-point Laplacian, so ``L^2`` is the
13-point biharmonic stencil) on a 149 x 101 grid, the marches' system size
(15,049 unknowns, 3.27 million factor entries).  The system is built here
with numpy and scipy alone, so no change to bergerdeck moves the probe.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


class MachineSpeed:
    """Probe times, and the factor that turns a wall time into seconds on
    a machine whose probe takes ``REFERENCE_S``."""

    SOLVES, REPEATS = 8, 5
    # the probe on the baseline machine (perfbench/baseline/NOTES.md) when it
    # is quiet; it fixes the unit only, and scaled times read as wall times
    # on that machine at that speed
    REFERENCE_S = 0.026

    def __init__(self):
        nx, ny = 149, 101

        def second_difference(n):
            return sp.diags([np.ones(n - 1), -2.0 * np.ones(n), np.ones(n - 1)], [-1, 0, 1])

        laplacian = (sp.kron(sp.identity(ny), second_difference(nx))
                     + sp.kron(second_difference(ny), sp.identity(nx)))
        system = sp.csc_matrix(sp.identity(nx * ny) + 0.5 * (laplacian @ laplacian))
        self._lu = spla.splu(system)
        self._rhs = np.random.default_rng(0).standard_normal(nx * ny)
        self.probes: list[float] = []

    def probe(self) -> float:
        """Median time of ``SOLVES`` solves over ``REPEATS`` tries; the
        median drops a try that another tenant's burst slowed."""
        tries = []
        for _ in range(self.REPEATS):
            started = time.perf_counter()
            for _ in range(self.SOLVES):
                self._lu.solve(self._rhs)
            tries.append(time.perf_counter() - started)
        seconds = statistics.median(tries)
        self.probes.append(seconds)
        return seconds

    def factor(self, before: float, after: float) -> float:
        """Scale for a command bracketed by these two probes."""
        return self.REFERENCE_S / (0.5 * (before + after))

    def run_factor(self) -> float:
        """Scale from the median of every probe so far."""
        return self.REFERENCE_S / statistics.median(self.probes)
