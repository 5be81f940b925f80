"""Record a baseline: every workload on several seeds, plus one traced run each.

Run from the repository root; it takes about 11 x 4 x 30 seconds:

    python3 bench/baseline.py --out bench/baseline.json

Each workload runs on seeds 1-10, then once traced on seed 1. For each
end-to-end metric it stores the median and quartiles over the ten runs,
and the spread (q3 - q1) / median that the bounds in BENCHMARK.json are
measured against. It also stores the failed ratio, the readable lines of the
first run (verdict histograms, known defects), and the per-layer metrics of
the traced run, with the host's nproc, the Python version and the git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES  # noqa: E402

SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600,
    )
    *lines, last = proc.stdout.strip().splitlines()
    return json.loads(last), lines


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    config = json.loads(Path("BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    out = {
        "commit": commit,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in WORKLOAD_NAMES:
        results, first_lines = [], None
        for seed in out["seeds"]:
            result, lines = bench(workload, seed, seconds, trace=0)
            first_lines = first_lines or lines
            results.append(result)
            print(workload, seed, json.dumps(result), flush=True)
        traced, traced_lines = bench(workload, out["seeds"][0], seconds, trace=1)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "failed_ratio": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
            "end_to_end": {
                name: dict(summary([r["metrics"][name]["value"] for r in results]),
                           unit=results[0]["metrics"][name]["unit"])
                for name in results[0]["metrics"]
            },
            "report": first_lines,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_report": [line for line in traced_lines
                              if line.split(" ")[0] not in traced["metrics"]],
        }
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
