"""One pass of a benchmark workload, in a fresh process.

bench/run.py starts one of these per pass, so that nothing the library
caches outlives a pass: each pass pays its own cache fills, as a user's
process does. It makes the workload's seeded inputs, times one pass, checks
its outputs outside the timed region and prints one JSON object:

    python3 bench/one_pass.py --workload corpus --seed 1 --mode plain

A "traced" pass records spans (see spans.py), writes them to `--spans` and
adds the per-layer metrics. An exception, including one from a check that
cannot run, exits non-zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path

import spans
import workloads

MODES = ("first", "plain", "reference", "traced")


def layer_shares(recorder, w) -> str:
    """Self time by module, as shares of the pass's top-level spans (for the
    ladder: of its largest-rank pipeline call)."""
    roots = [i for i, parent in enumerate(recorder.parents) if parent == -1]
    label = "the pass"
    if w.name == "pipeline-ladder":
        roots = [i for i in roots if recorder.kept[i][0][0] == w.TOP]
        label = f"the r={w.TOP} pipeline"
    totals = recorder.layer_self_time(roots)
    whole = sum(totals.values()) or 1.0
    shares = ", ".join(f"{k} {v / whole:.1%}" for k, v in sorted(totals.items(), key=lambda kv: -kv[1]))
    return f"self time by layer, {label}: {shares}"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--spans", type=Path, help="where a traced pass writes its spans")
    args = p.parse_args(argv)

    w = workloads.WORKLOADS[args.workload](Path.cwd(), args.seed, args.mode)
    recorder = spans.Recorder() if args.mode == "traced" else None
    try:
        gc.collect()
        if recorder is not None:
            recorder.install()
        try:
            result = w.run_pass()
        finally:
            if recorder is not None:
                recorder.uninstall()
        attempted, failures = w.check(result)
    finally:
        if hasattr(w, "close"):
            w.close()
    usage = resource.RUSAGE_CHILDREN if isinstance(w, workloads.CliCold) else resource.RUSAGE_SELF
    out = {
        "description": w.description,
        "elapsed": result.elapsed,
        "samples": result.samples,
        "info": result.info,
        "attempted": attempted,
        "failures": [[f.detail, f.known] for f in failures],
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
    }
    if recorder is not None:
        out["layers"] = recorder.layer_metrics()
        out["shares"] = layer_shares(recorder, w)
        out["spans"] = len(recorder.names)
        if args.spans is not None:
            recorder.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
