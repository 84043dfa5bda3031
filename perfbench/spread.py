#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads march-solve march-force --seeds 1-10 --out s.json

For every workload and end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, next to the metric's bound from ``BENCHMARK.json``,
and the same for the wall times before the machine-speed scaling
(``perfbench/speed.py``).  Runs go one after another, each in its own
process, in the order given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def summarise(values: list[float]) -> dict:
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary, with every run's values, here")
    args = parser.parse_args(argv)
    summary: dict = {"seconds": args.seconds, "workloads": {}}
    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    bad = 0
    for workload in args.workloads:
        runs, raws, walls = [], [], []
        for seed in args.seeds:
            started = time.perf_counter()
            with tempfile.TemporaryDirectory(dir=work) as tmp:
                record = Path(tmp) / "result.json"
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", "0", "--out", str(record)],
                    cwd=ROOT, capture_output=True, text=True, timeout=600)
                walls.append(time.perf_counter() - started)
                if done.returncode != 0:
                    print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                          file=sys.stderr)
                    bad += 1
                    continue
                raws.append(json.loads(record.read_text())["calibration"]["uncalibrated"])
            line = json.loads(done.stdout.strip().splitlines()[-1])
            if not line["correct"]:
                print(f"{workload} seed {seed}: incorrect\n{done.stderr}", file=sys.stderr)
                bad += 1
            runs.append(line)
        rows, raw_rows = {}, {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [run["metrics"][name]["value"] for run in runs]
            if not values:
                continue
            row = rows[name] = summarise(values)
            raw = raw_rows[name] = summarise([r[name] for r in raws])
            flag = "" if row["spread"] < bound / 3 else \
                ("  > bound/3" if row["spread"] < bound else "  > BOUND")
            print(f"{workload:12s} {name:26s} median {row['median']:.6g} "
                  f"spread {row['spread']:.4f} bound {bound}{flag}"
                  f"  (wall: median {raw['median']:.6g} spread {raw['spread']:.4f})")
        summary["workloads"][workload] = {
            "seeds": args.seeds, "metrics": rows, "uncalibrated": raw_rows,
            "run_wall_s": summarise(walls)}
        print(f"{workload:12s} run wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
