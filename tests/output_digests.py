"""SHA-256 digests of the files the CLI writes, for byte-identity checks.

Usage: python tests/output_digests.py [SRC_DIR]

Runs the commands below as subprocesses with ``PYTHONPATH=SRC_DIR`` (by
default the ``src/`` beside this script) in a fresh temporary directory,
and prints ``sha256  path`` for every file they write and for each
command's stdout, sorted by path.  Run one copy of the script against two
source trees and diff the outputs to check that a change keeps every
output byte for byte.
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
    src = Path(argv[0]).resolve() if argv else DEFAULT_SRC
    if not (src / "bergerdeck" / "__init__.py").is_file():
        print(f"no bergerdeck package under {src}", file=sys.stderr)
        return 1
    for path, digest in digests(src):
        print(f"{digest}  {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
