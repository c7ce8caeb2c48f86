"""Collect sets of runs for ``compare.py``.

    python3 benchmarks/suite/collect.py A.json B.json --runs 10
    python3 benchmarks/suite/collect.py traces.json --runs 1 --trace 1

Runs ``run.py`` once per workload, set and repetition — the sets alternate,
so host drift hits all of them alike, and every run gets its own seed — and
writes each set as ``{"runs": [...]}``: per run the workload, the seed, the
result line, the measured passes, the exact counts, the environment line, the
wall time and, for traced runs, the printed layer table.  Run length is the
suite's own (fixed pass counts under ``run_seconds`` of ``BENCHMARK.json``),
so every collected run is comparable with every other.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]


def one_run(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(SUITE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - started
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode}:\n{done.stdout}\n{done.stderr}"
        )
    record = {"workload": workload, "seed": seed, "trace": trace, "wall_s": wall,
              "result": json.loads(lines[-1])}
    for line in lines:
        for prefix, key in (("environment: ", "environment"),
                            ("exact counts per pass: ", "exact")):
            if line.startswith(prefix):
                record[key] = json.loads(line[len(prefix):])
        if line.startswith("passes: "):
            record["passes"] = line[len("passes: "):]
    if trace:
        record["report"] = [
            line for line in lines[:-1]
            if line.startswith(("passes:", "layer shares", "  ", "top three"))
        ]
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("outputs", nargs="+", help="one JSON file per set")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]
    sets: list[list[dict]] = [[] for _ in args.outputs]
    seed = 1
    for _ in range(args.runs):
        for runs in sets:
            for workload in workloads:
                record = one_run(workload, seed, args.trace)
                runs.append(record)
                print(f"{workload} seed {seed}: {record['wall_s']:.1f} s "
                      f"correct={record['result']['correct']}", flush=True)
            seed += 1
        # After every repetition, so an interrupted collection keeps its runs.
        for path, runs in zip(args.outputs, sets):
            Path(path).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
