"""The benchmark in perfbench/ wraps package names from outside and skips
a name it cannot find; these tests fail instead when a rename would make it
silently lose a marker, a residual check or a layer timing.  They only
read perfbench/instrument.py."""

import importlib.util
import sys
from pathlib import Path

import pytest

INSTRUMENT = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"

# wrapped by the benchmark's tracer, deleted from the package with the
# sweep's thread pool
STALE = {"bergerdeck.cli.ThreadPoolExecutor"}


@pytest.fixture(scope="module")
def instrument():
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def _absent(tool) -> list[str]:
    tool.install()
    try:
        return list(tool.patches.absent)
    finally:
        tool.uninstall()


def test_probe_finds_every_name(instrument):
    # the steps_per_s markers and both solve paths' residual checks
    assert _absent(instrument.Probe()) == []


def test_tracer_finds_every_layer(instrument):
    assert set(_absent(instrument.Tracer())) <= STALE
