"""SHA-256 digests of the files the CLI writes, for byte-identity checks.

Usage: python tests/output_digests.py [SRC_A [SRC_B]]

Runs the commands below as subprocesses with ``PYTHONPATH=SRC`` (by
default the ``src/`` beside this script) in a fresh temporary directory.
Given one source tree, it prints ``sha256  path`` for every file they
write and for each command's stdout, sorted by path.  Given two, it runs
both and prints only the paths whose digests differ (or that only one
tree wrote), and exits 1 if there are any, so a change can be checked to
keep every output byte for byte.  Under each CSV that both trees wrote
and that differs, it prints one line per numeric column with the largest
change of an entry relative to that entry and relative to the column's
largest magnitude.  A bad argument exits 2.
"""

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src"

SNAPSHOT_CONFIG = """\
[time]
T = 2

[output]
csv = snap.csv
snapshots = 0.5,1.5
"""

# (stdout file, command-line arguments)
COMMANDS = [
    *((f"run-{name}", ["run", "--preset", name, "--T", "2", "--out",
                       f"{name}.csv", "--svg", f"{name}.svg"])
      for name in ("fig6", "fig7", "fig8", "undamped")),
    ("static", ["static", "--preset", "static"]),
    ("lambda1", ["lambda1", "--preset", "fig7"]),
    ("sweep", ["sweep"]),
    ("run-snapshots", ["run", "--config", "snap.cfg"]),
]


def digests(src: Path, keep: Path | None = None) -> list[tuple[str, str]]:
    """(path, sha256) of every output of ``COMMANDS`` run on ``src``, sorted
    by path; with ``keep`` the outputs are also copied to that folder."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as folder:
        work = Path(folder)
        (work / "snap.cfg").write_text(SNAPSHOT_CONFIG)
        (work / "stdout").mkdir()
        for label, args in COMMANDS:
            done = subprocess.run([sys.executable, "-m", "bergerdeck.cli", *args],
                                  cwd=work, env=env, capture_output=True,
                                  text=True)
            if done.returncode != 0:
                raise SystemExit(f"{' '.join(args)} exited {done.returncode}:\n"
                                 f"{done.stderr}")
            (work / "stdout" / f"{label}.txt").write_text(done.stdout)
        if keep is not None:
            shutil.copytree(work, keep)
        return sorted((path.relative_to(work).as_posix(),
                       hashlib.sha256(path.read_bytes()).hexdigest())
                      for path in work.rglob("*")
                      if path.is_file() and path.name != "snap.cfg")


def column_changes(a: bytes, b: bytes) -> list[tuple[str, float, float]] | None:
    """(column, largest |b - a| / |a|, largest |b - a| / max |a|) of every
    column whose entries all read as numbers in two CSV files with a header
    row, or None if their headers or row counts differ."""
    rows_a = [line.split(",") for line in a.decode().splitlines()]
    rows_b = [line.split(",") for line in b.decode().splitlines()]
    if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        return None
    changes = []
    for column, name in enumerate(rows_a[0]):
        try:
            x = np.array([float(row[column]) for row in rows_a[1:]])
            y = np.array([float(row[column]) for row in rows_b[1:]])
        except ValueError:
            continue
        gap = np.abs(y - x)
        if not gap.any():
            changes.append((name, 0.0, 0.0))
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            relative = np.where(gap == 0.0, 0.0, gap / np.abs(x)).max()
            scaled = gap.max() / np.abs(x).max()
        changes.append((name, float(relative), float(scaled)))
    return changes


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(arg).resolve() for arg in argv] or [DEFAULT_SRC]
    for src in trees:
        if not (src / "bergerdeck" / "__init__.py").is_file():
            print(f"no bergerdeck package under {src}", file=sys.stderr)
            return 2
    if len(trees) == 1:
        for path, digest in digests(trees[0]):
            print(f"{digest}  {path}")
        return 0
    with tempfile.TemporaryDirectory() as folder:
        kept = [Path(folder) / "a", Path(folder) / "b"]
        a, b = (dict(digests(src, keep)) for src, keep in zip(trees, kept))
        changed = sorted(path for path in a.keys() | b.keys()
                         if a.get(path) != b.get(path))
        for path in changed:
            print(path)
            if path.endswith(".csv") and path in a and path in b:
                changes = column_changes(*((keep / path).read_bytes() for keep in kept))
                if changes is None:
                    print("  header or row count differs")
                for name, relative, scaled in changes or ():
                    print(f"  {name}: {relative:.3g} relative, "
                          f"{scaled:.3g} of max |a|")
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
