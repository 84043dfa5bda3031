"""SHA-256 digests of the files the CLI writes, for byte-identity checks.

Usage: python tests/output_digests.py [SRC_A [SRC_B]]

Runs the commands below as subprocesses with ``PYTHONPATH=SRC`` (by
default the ``src/`` beside this script) in a fresh temporary directory.
Given one source tree, it prints ``sha256  path`` for every file they
write and for each command's stdout, sorted by path.  Given two, it runs
both and prints only the paths whose digests differ (or that only one
tree wrote), and exits 1 if there are any, so a change can be checked to
keep every output byte for byte.  A bad argument exits 2.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

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


def digests(src: Path) -> list[tuple[str, str]]:
    """(path, sha256) of every output of ``COMMANDS`` run on ``src``, sorted
    by path."""
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
        return sorted((path.relative_to(work).as_posix(),
                       hashlib.sha256(path.read_bytes()).hexdigest())
                      for path in work.rglob("*")
                      if path.is_file() and path.name != "snap.cfg")


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
    a, b = (dict(digests(src)) for src in trees)
    changed = sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))
    for path in changed:
        print(path)
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
