"""rosetrack benchmark: one seeded workload, measured end to end or traced.

Run from the repository root, for example:

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Each pass runs in a fresh process (bench/one_pass.py), so nothing the
library caches carries over from one pass to the next. Readable lines come
first on standard output; the last line is one JSON object with the keys
correct, attempted, failed and metrics. `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer ones. The
workloads, metrics and their mapping are described in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PER_PASS = 2  # fresh-interpreter imports before each pass and after the last
FRESH_RUNS = 7
WORKLOAD_NAMES = ("pipeline-ladder", "corpus", "diagrams", "cli-cold")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def one_pass(root: Path, args, mode: str, spans: Path | None = None) -> dict:
    """One pass in a fresh process (bench/one_pass.py); its JSON result."""
    import workloads  # only once main has put ./src on the path

    argv = [sys.executable, str(HERE / "one_pass.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--mode", mode]
    if spans is not None:
        argv += ["--spans", str(spans)]
    status, out, err = workloads.run_child(root, argv, timeout=150)
    if status != 0:
        raise RuntimeError(f"{mode} pass exited {status}:\n{err}")
    return json.loads(out.splitlines()[-1])


def measure(root: Path, args, between) -> list[dict]:
    """Passes until the timed total would pass `--seconds`, calling `between`
    before each pass and after the last."""
    passes, spent = [], 0.0
    while True:
        between()
        p = one_pass(root, args, "plain" if passes else "first")
        passes.append(p)
        spent += p["elapsed"]
        if spent + p["elapsed"] > args.seconds:
            break
    between()
    return passes


def measure_traced(root: Path, args) -> tuple[list[dict], list[dict]]:
    """Pairs of an untraced and a traced pass, in alternating order so that a
    drift in the host's speed cancels, until the wall time, process start-up
    included, would pass `--seconds`. The untraced passes are the reference
    for the tracing overhead; the first traced pass writes its spans."""
    untraced, traced, spent = [], [], 0.0
    spans = root / "bench" / "out" / f"spans-{args.workload}-{args.seed}.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    while True:
        start = time.perf_counter()
        if len(traced) % 2:
            t = one_pass(root, args, "traced")
            u = one_pass(root, args, "reference")
        else:
            u = one_pass(root, args, "reference")
            t = one_pass(root, args, "traced", None if traced else spans)
        untraced.append(u)
        traced.append(t)
        pair = time.perf_counter() - start
        spent += pair
        if spent + pair > args.seconds:
            return untraced, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    package = root / "src" / "rosetrack"
    if not (package / "__init__.py").is_file():
        print("error: no rosetrack sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import rosetrack

    if Path(rosetrack.__file__).resolve().parent != package.resolve():
        print(f"error: imported rosetrack from {rosetrack.__file__}", file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    # set-up samples are spread over the run, so that their median does not
    # rest on one moment's load on the host
    setup: list[float] = []
    untraced: list[dict] = []
    if args.trace:
        untraced, passes = measure_traced(root, args)
    else:
        passes = measure(root, args, lambda: setup.extend(
            workloads.fresh_python(root, "import rosetrack") for _ in range(SETUP_PER_PASS)))

    # Every pass repeats the same operations on the same inputs, so each
    # distinct operation counts once: `attempted` and `failed` then depend on
    # the seed alone, not on how many passes the host's speed allowed. Passes
    # that ran the same operations must have failed the same checks.
    checked = passes + untraced
    attempted = max(p["attempted"] for p in checked)
    failures = {tuple(f): workloads.Failure(*f) for p in checked for f in p["failures"]}
    failures = list(failures.values())
    by_size: dict[int, set] = {}
    for p in checked:
        by_size.setdefault(p["attempted"], set()).add(frozenset(f[0] for f in p["failures"]))
    if any(len(kinds) > 1 for kinds in by_size.values()):
        failures.append(workloads.Failure("passes over the same operations failed different checks"))
    digests = {p["info"]["digest"] for p in checked if "digest" in p["info"]}
    if len(digests) > 1:
        failures.append(workloads.Failure(f"outputs differ between passes: digests {sorted(digests)}"))
    print(f"workload {cls.name}, seed {args.seed}, trace {args.trace}: {passes[0]['description']}")
    print(f"passes: {len(passes)}{' traced, alternating with as many untraced' if args.trace else ''}, "
          f"each in a fresh process, timed {sum(p['elapsed'] for p in passes):.2f} s")
    unexpected = [f for f in failures if f.known is None]
    for f in unexpected[:10]:
        print(f"FAILED: {f.detail}")
    for known in sorted({f.known for f in failures if f.known}):
        count = sum(1 for f in failures if f.known == known)
        print(f"known defect (counted in failed, still correct): {known}: {count}")
    print(f"failed_ratio {len(failures) / attempted:.6f} ({len(failures)} of {attempted} operations)")

    if not args.trace:
        metrics, slots, extra = cls.report(
            [workloads.Pass(p["elapsed"], p["samples"], info=p["info"]) for p in passes])
        for line in extra:
            print(line)
        values = {
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
            "time_ms": (slots["time_ms"], "ms"),
            "tail_ms": (slots["tail_ms"], "ms"),
            "rate_per_s": (slots["rate_per_s"], "1/s"),
        }
        rss_of = "children's" if cls is workloads.CliCold else "process's"
        print(f"{'setup_s':<28} {values['setup_s'][0]:.4f} s (median, n={len(setup)})")
        print(f"{'peak_rss_mb':<28} {values['peak_rss_mb'][0]:.1f} MB "
              f"(largest {rss_of} ru_maxrss over {len(passes)} passes)")
        for m in metrics:
            print(f"{m.name:<28} {m.value:.4f} {m.unit} ({m.note})")
    else:
        # counts repeat exactly between passes; times take the median
        values = {name: (statistics.median(p["layers"][name][0] for p in passes), unit)
                  for name, (_, unit) in passes[0]["layers"].items()}
        interpreter = [workloads.fresh_python(root, "pass") for _ in range(FRESH_RUNS)]
        imported = [workloads.fresh_python(root, "import rosetrack.cli") for _ in range(FRESH_RUNS)]
        values["cli.interpreter_s"] = (statistics.median(interpreter), "s")
        values["cli.import_s"] = (statistics.median(imported) - statistics.median(interpreter), "s")
        traced_s, untraced_s = (
            workloads.best_total([workloads.Pass(p["elapsed"], p["samples"]) for p in ps])
            for ps in (passes, untraced))
        values["trace.overhead_s"] = (traced_s - untraced_s, "s")
        spread = [p["elapsed"] for p in untraced]
        print(f"timed operations, each best of {len(passes)} passes: traced {traced_s:.4f} s, "
              f"untraced {untraced_s:.4f} s (untraced passes took {min(spread):.4f}-"
              f"{max(spread):.4f} s); {passes[0]['spans']} spans in the first traced pass")
        print(passes[0]["shares"])
        for name, (value, unit) in values.items():
            print(f"{name:<48} {value:.6g} {unit}")

    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
