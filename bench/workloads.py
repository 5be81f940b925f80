"""The four benchmark workloads.

Each workload is a closed loop with one caller. A pass runs in a fresh
process (bench/one_pass.py): the constructor makes the seeded inputs,
`run_pass` times one pass over them, and `check` verifies that pass's
outputs outside the timed region. In the parent (bench/run.py), `report`
turns the passes' samples into end-to-end metrics. Library functions are
called through their modules so that the traced run's rebinding reaches
them.

`mode` says which pass a process makes: "first" and "plain" in a measured
run, "reference" (untraced) and "traced" alternating in a traced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from rosetrack import catalog, cli, diagrams, graphs, ltt, nielsen, synthesis, whitehead
from rosetrack.errors import RosetrackError

import checks
import inputs

MEASURED = ("first", "plain")  # pass modes of an untraced run

# documented defects: counted as failed operations, but they do not make the
# run incorrect, so that their counts can be compared across versions
FOUND_UNVERIFIED = "search_inps reports found with verified=False"
MALFORMED_EXIT = "malformed input exits 1 instead of the documented 2"


@dataclass
class Failure:
    detail: str
    known: str | None = None  # the documented defect this failure is, if any


@dataclass
class Pass:
    elapsed: float
    samples: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    info: dict = field(default_factory=dict)  # printed summaries; "digest" must match across passes


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    note: str


def quantile(xs, q: int, of: int) -> float:
    """The q-th of `of` quantiles (statistics' exclusive method)."""
    return quantiles(xs, n=of)[q - 1] if len(xs) > 1 else xs[0]


def best_of(passes: list[Pass], key: str) -> list[float]:
    """Each operation's best time over the passes. Every pass repeats the same
    operations in a fresh process, so each sample includes the cost of
    filling whatever the library caches; the minimum drops the time other
    processes on the host took from this one and keeps the spread between
    inputs."""
    return [min(ts) for ts in zip(*(p.samples[key] for p in passes))]


def best_total(passes: list[Pass]) -> float:
    """The sum of every timed operation's best time over the passes."""
    return sum(sum(best_of(passes, key))
               for key, value in passes[0].samples.items() if isinstance(value, list))


def run_child(root: Path, argv: list[str], timeout: float = 120) -> tuple[int, str, str]:
    """Run a child against the checkout's sources. A watchdog kills it after
    `timeout`; waiting itself blocks, because subprocess's own timeout
    polls and rounds every wall time up to its polling grid."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, out, err


def fresh_python(root: Path, code: str) -> float:
    """Wall time of a fresh interpreter running `code` against the checkout."""
    t = perf_counter()
    status, _, err = run_child(root, [sys.executable, "-c", code], timeout=60)
    elapsed = perf_counter() - t
    if status != 0:
        raise RuntimeError(f"python -c {code!r} exited {status}: {err}")
    return elapsed


# ---------------------------------------------------------------------------


class PipelineLadder:
    """theorem_a_pipeline(r) in ascending rank; the seed is unused because the
    ladder has no random input. The first pass climbs to r = 8 and the others
    stop at r = 7: one r = 8 call takes as long as three shorter passes, and
    its time moves with the host's load by more than the largest bound a
    metric may have, so it is reported with one sample and not gated. In a
    traced run every pass climbs to r = 8, so that the passes, and the
    per-pass counts, are all alike."""

    name = "pipeline-ladder"
    RANKS = tuple(range(3, 8))
    TOP = 8

    def __init__(self, root: Path, seed: int, mode: str):
        self.full = mode != "plain"
        self.description = (
            f"ranks 3..{self.RANKS[-1]}, and {self.TOP} on the first pass" if mode in MEASURED
            else f"ranks 3..{self.TOP} on every pass"
        ) + " (fixed; seed unused)"

    def run_pass(self) -> Pass:
        ranks = self.RANKS + (self.TOP,) if self.full else self.RANKS
        times, outputs = [], []
        start = perf_counter()
        for r in ranks:
            t = perf_counter()
            res = synthesis.theorem_a_pipeline(r)
            times.append(perf_counter() - t)
            outputs.append((r, res))
        elapsed = perf_counter() - start
        samples = {"latency": times[:len(self.RANKS)]}
        if self.full:
            samples["top"] = times[-1:]
        return Pass(elapsed, samples, outputs)

    def check(self, p: Pass) -> tuple[int, list[Failure]]:
        failures = []
        p.info["generators"] = [len(res.decomposition.steps) for _, res in p.outputs]
        for r, res in p.outputs:
            errors = []
            if not res.ok:
                errors.append("ok is False")
            certs = res.glue_certificates
            if len(certs) != r - 3 or not all(c.ok for c in certs):
                errors.append("a glue certificate is missing or refused")
            vertices = res.iw.vertices()
            if len(vertices) != 2 * r - 1:
                errors.append(f"{len(vertices)} ideal Whitehead vertices, expected {2 * r - 1}")
            if checks.component_count(vertices, res.iw.edges) != 1:
                errors.append("ideal Whitehead graph is not connected")
            cuts = checks.recount_cut_vertices(res.iw)
            if r > 3 and not cuts & set(res.glued_labels):
                errors.append("no cut vertex among the glued labels")
            if res.index_list != (Fraction(3, 2) - r,):
                errors.append(f"index list {res.index_list}")
            if errors:
                failures.append(Failure(f"rank {r}: " + "; ".join(errors)))
        return len(p.outputs), failures

    @classmethod
    def report(cls, passes: list[Pass]):
        best = dict(zip(cls.RANKS, best_of(passes, "latency")))
        total = sum(best.values())
        top = cls.RANKS[-1]
        note = f"best of {len(passes)} passes"
        generators = " / ".join(map(str, passes[0].info["generators"]))
        # the r = 6 call alone is too short a sample to gate: over ten runs its
        # spread passed the largest bound a metric may have
        rate = len(cls.RANKS) / total
        metrics = [
            Metric("pipeline.total_s", total, "s", f"r = 3..{top}, sum of each rank's {note}"),
            Metric("pipeline.r6_s", best[6], "s", f"{note}, not gated"),
            Metric(f"pipeline.r{top}_s", best[top], "s", note),
            Metric(f"pipeline.r{cls.TOP}_s", passes[0].samples["top"][0], "s", "one call, not gated"),
            Metric("pipeline.ranks_per_s", rate, "1/s", f"r = 3..{top} over pipeline.total_s"),
        ]
        slots = {"time_ms": total * 1e3, "tail_ms": best[top] * 1e3, "rate_per_s": rate}
        return metrics, slots, [f"generators per rank: {generators}"]


class Corpus:
    """Seeded random cyclically admissible decompositions; each input runs
    search_inps and, when certified, the ideal Whitehead graph, index list,
    cut vertices and ltt structure."""

    name = "corpus"
    PER_CELL = 6

    def __init__(self, root: Path, seed: int, mode: str):
        self.inputs = inputs.corpus(seed, self.PER_CELL)
        self.description = (
            f"{len(self.inputs)} decompositions, ranks {inputs.CORPUS_RANKS[0]}-"
            f"{inputs.CORPUS_RANKS[-1]}, lengths {inputs.CORPUS_LENGTHS[0]}-"
            f"{inputs.CORPUS_LENGTHS[-1]}, {self.PER_CELL} per rank and length"
        )

    def run_pass(self) -> Pass:
        latencies, outputs = [], []
        start = perf_counter()
        for d in self.inputs:
            t = perf_counter()
            try:
                outcome = nielsen.search_inps(d)
            except RosetrackError as exc:
                outcome = exc
            derived = None
            cert = None if isinstance(outcome, Exception) else outcome.certificate()
            if cert is not None:
                iw = whitehead.ideal_whitehead_graph(d, cert)
                derived = (iw, whitehead.index_list(iw), graphs.cut_vertices(iw),
                           ltt.build_ltt(d, cert))
            latencies.append(perf_counter() - t)
            outputs.append((outcome, derived))
        return Pass(perf_counter() - start, {"latency": latencies}, outputs)

    @staticmethod
    def verdict(outcome) -> str:
        if isinstance(outcome, Exception):
            return "rejected:" + type(outcome).__name__
        return inputs.verdict_of(outcome)

    def check(self, p: Pass) -> tuple[int, list[Failure]]:
        failures = []
        verdicts = [self.verdict(outcome) for outcome, _ in p.outputs]
        p.info["histogram"] = inputs.histogram(verdicts)
        p.info["digest"] = hashlib.sha256("\n".join(verdicts).encode()).hexdigest()[:16]
        for i, ((outcome, derived), verdict) in enumerate(zip(p.outputs, verdicts)):
            if verdict.startswith("rejected:"):  # every generated input is admissible
                failures.append(Failure(f"input {i}: search_inps raised {verdict[9:]}"))
            if verdict == "found_unverified":
                failures.append(Failure(f"input {i}: found path fails verification",
                                        FOUND_UNVERIFIED))
            if derived is None:
                continue
            iw, _, cuts, structure = derived
            errors = []
            problems = ltt.validate(structure)
            if problems:
                errors.append(f"ltt violates axioms {problems}")
            if not ltt.is_birecurrent(structure):
                errors.append("ltt structure is not birecurrent")
            if cuts != checks.recount_cut_vertices(iw):
                errors.append("cut_vertices disagrees with delete-and-recount")
            if errors:
                failures.append(Failure(f"input {i}: " + "; ".join(errors)))
        return len(p.outputs), failures

    @classmethod
    def report(cls, passes: list[Pass]):
        lat = best_of(passes, "latency")
        n = len(lat)
        rate = n / sum(lat)
        p50, p90 = median(lat) * 1e3, quantile(lat, 9, 10) * 1e3
        note = f"n={n} inputs, each best of {len(passes)} passes"
        metrics = [
            Metric("corpus.inputs_per_s", rate, "1/s", note),
            Metric("corpus.latency_p50_ms", p50, "ms", f"median, {note}"),
            Metric("corpus.latency_p90_ms", p90, "ms", f"p90, {note}"),
        ]
        info = passes[0].info
        extra = [f"verdict histogram per pass: {json.dumps(info['histogram'])} "
                 f"(sequence digest {info['digest']})"]
        return metrics, {"time_ms": p50, "tail_ms": p90, "rate_per_s": rate}, extra


class Diagrams:
    """(a) the rank-3 seed's diagram, loops through every seed-component node,
    and the enumeration of its purple shape with an isomorphism test per
    structure; (b) certified random rank-4 structures closed to a fixed
    node budget."""

    name = "diagrams"
    STRUCTURES = 60
    NODE_BUDGET = 8
    SEED_NODES, SEED_EDGES, SHAPE_STRUCTURES = 8, 20, 336

    def __init__(self, root: Path, seed: int, mode: str):
        base = catalog.rank3_base()
        cert = nielsen.certify_pnp_free(base)
        self.seed = ltt.build_ltt(base.powered(2), cert)
        self.shape = self.seed.purple_graph()
        self.base_loop = diagrams.loop_of_decomposition(base.powered(2), cert)
        self.structures = inputs.certified_structures(seed, self.STRUCTURES)
        # trying every bijection takes a second; a repeat pass is held to the
        # first pass's answers through the digest instead
        self.exhaustive = mode != "plain"
        self.description = (
            f"rank-3 seed; {self.STRUCTURES} certified rank-4 structures, "
            f"node budget {self.NODE_BUDGET}"
        )

    def run_pass(self) -> Pass:
        rank3_times = []

        def timed(fn, *args):
            t = perf_counter()
            out = fn(*args)
            rank3_times.append(perf_counter() - t)
            return out

        start = perf_counter()
        diagram = timed(diagrams.build_id_diagram, self.seed)
        loops = [
            timed(lambda k: diagrams.check_representative_loop(
                diagrams.loop_through(diagram, k, self.base_loop)), key)
            for key in sorted(diagram.seed_component())
        ]
        found = timed(diagrams.enumerate_admissible_structures, self.shape, self.seed.rank)
        isos = [timed(graphs.is_isomorphic, self.shape, s.purple_graph()) for s in found]
        closures, closure_times = [], []
        for s in self.structures:
            t = perf_counter()
            closures.append(diagrams.build_id_diagram(s, node_budget=self.NODE_BUDGET))
            closure_times.append(perf_counter() - t)
        samples = {"rank3": rank3_times, "closure": closure_times,
                   "nodes": sum(len(c.nodes) for c in closures)}
        return Pass(perf_counter() - start, samples, [(diagram, loops, found, isos, closures)])

    def check(self, p: Pass) -> tuple[int, list[Failure]]:
        diagram, loops, found, isos, closures = p.outputs[0]
        failures = []
        comp = diagram.seed_component()
        edges = len(diagram.component_edges(comp))
        if (len(comp), edges) != (self.SEED_NODES, self.SEED_EDGES):
            failures.append(Failure(f"seed component has {len(comp)} nodes, {edges} edges"))
        for verdict in loops:
            if not (verdict.ok and verdict.structure_returns):
                failures.append(Failure(f"loop not certified: {verdict.failures}"))
        keys = {s.key() for s in found}
        if len(found) != self.SHAPE_STRUCTURES or not comp <= keys:
            failures.append(Failure(
                f"enumeration found {len(found)} structures; seed component inside: {comp <= keys}"))
        for s, (ok, witness) in zip(found, isos):
            target = s.purple_graph()
            if ok:
                errors = checks.witness_errors(self.shape, target, witness)
            else:
                errors = (["an isomorphism exists"]
                          if self.exhaustive and checks.isomorphism_exists(self.shape, target) else [])
            if errors:
                failures.append(Failure(f"is_isomorphic on {s.key()}: {errors[0]}"))
        for s, c in zip(self.structures, closures):
            node_keys = c.node_keys()
            if (len(c.nodes) > self.NODE_BUDGET or s.key() not in node_keys
                    or (c.truncated and len(c.nodes) != self.NODE_BUDGET)
                    or any(t.target.key() not in node_keys for t in c.edges)
                    or (not c.truncated and any(t.source.key() not in node_keys for t in c.edges))):
                failures.append(Failure(f"closure of {s.key()} is inconsistent"))
        outputs = (sorted(comp), edges, [v.ok for v in loops], sorted(keys), [ok for ok, _ in isos],
                   [(sorted(c.node_keys()), len(c.edges), c.truncated) for c in closures])
        p.info["digest"] = hashlib.sha256(repr(outputs).encode()).hexdigest()[:16]
        attempted = 2 + len(loops) + len(found) + len(closures)
        return attempted, failures

    @classmethod
    def report(cls, passes: list[Pass]):
        rank3 = sum(best_of(passes, "rank3"))
        closure = best_of(passes, "closure")
        nodes = passes[0].samples["nodes"]
        rate = nodes / sum(closure)
        tail = quantile(closure, 9, 10) * 1e3
        note = f"best of {len(passes)} passes"
        metrics = [
            Metric("diagrams.rank3_s", rank3, "s", f"sum of each operation's {note}"),
            Metric("diagrams.nodes_per_s", rate, "1/s",
                   f"{nodes} nodes in {len(closure)} closures, each {note}"),
            Metric("diagrams.closure_p90_ms", tail, "ms", f"p90, n={len(closure)}, each {note}"),
        ]
        slots = {"time_ms": rank3 * 1e3, "tail_ms": tail, "rate_per_s": rate}
        return metrics, slots, []


class CliCold:
    """Fresh `python -m rosetrack` processes, one at a time, over the verbs,
    the catalog examples and malformed inputs; the seed orders each round."""

    name = "cli-cold"

    def __init__(self, root: Path, seed: int, mode: str):
        self.root = root
        self.in_process = mode not in MEASURED  # a traced run needs the library in this process
        self.work = root / "bench" / "out" / f"work-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        files = {
            name: catalog.example(name).to_json()
            for name in ("lemma-3-6", "lemma-3-6-squared", "rank2-nielsen-path")
        }
        files["top-level-list"] = [files["lemma-3-6"]]
        files["missing-y"] = {"rank": 3, "generators": [{"x": "a"}]}
        for name, data in files.items():
            (self.work / f"{name}.json").write_text(json.dumps(data), encoding="utf-8")
        self.cases = self._cases()
        random.Random(f"cli-{seed}").shuffle(self.cases)
        how = "fresh processes" if mode in MEASURED else "in-process cli.run"
        self.description = f"{len(self.cases)} invocations per round, {how}"

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _cases(self):
        f = lambda name: str(self.work / f"{name}.json")
        cases = []
        for ex in ("lemma-3-6", "lemma-3-6-squared"):
            reference = catalog.example(ex).to_json()
            cases += [
                (["example", ex], 0, lambda out, ref=reference: json.loads(out) == ref),
                (["verify", f(ex)], 0,
                 lambda out: len(out.splitlines()) == 6
                 and all(line.endswith(": ok") for line in out.splitlines())),
                (["pnp", f(ex)], 0, lambda out: out.startswith("verdict: none_legalized\n")),
                (["iwg", f(ex)], 0,
                 lambda out: out.startswith("vertices: a, a-, b-, c, c-\n")
                 and out.count("[purple]") == 4),
                (["index", f(ex)], 0, lambda out: out == "{-3/2}\n"),
                (["ltt", f(ex)], 0,
                 lambda out: (out.count("[black]"), out.count("[red]"), out.count("[purple]"))
                 == (3, 1, 4)),
                (["id-diagram", f(ex)], 0,
                 lambda out: "seed component: 8 nodes, 20 edges\n" in out
                 and "truncated: False\n" in out),
            ]
        cases += [
            (["pnp", f("rank2-nielsen-path")], 1,
             lambda out: out.startswith("verdict: found\n") and "verified=True" in out),
            (["glue", f("lemma-3-6"), f("lemma-3-6")], 0,
             lambda out: out.startswith("rank: 4\ncertificate: granted\n")),
            (["pipeline", "--rank", "5"], 0,
             lambda out: "index list: {-7/2}\n" in out
             and "ideal Whitehead graph: 9 vertices, connected=True\n" in out),
            (["verify", f("top-level-list")], 2, None),
            (["verify", f("missing-y")], 2, None),
            (["pipeline", "--rank", "2"], 2, None),
        ]
        return cases

    def _invoke(self, argv):
        if not self.in_process:
            return run_child(self.root, [sys.executable, "-m", "rosetrack", *argv])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run(argv)
            except Exception:  # what a fresh process would print before exiting 1
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def run_pass(self) -> Pass:
        latencies, outputs = [], []
        start = perf_counter()
        for argv, _, _ in self.cases:
            t = perf_counter()
            result = self._invoke(argv)
            latencies.append(perf_counter() - t)
            outputs.append(result)
        return Pass(perf_counter() - start, {"latency": latencies}, outputs)

    def check(self, p: Pass) -> tuple[int, list[Failure]]:
        failures = []
        for (argv, expected, good), (code, out, err) in zip(self.cases, p.outputs):
            label = " ".join(a if not a.endswith(".json") else Path(a).name for a in argv)
            traced = "Traceback" in err
            if code == expected and not traced and (good is None or good(out)):
                continue
            known = MALFORMED_EXIT if expected == 2 and code == 1 else None
            failures.append(Failure(
                f"{label}: exit {code} (expected {expected})"
                f"{', traceback' if traced else ''}", known))
        return len(p.outputs), failures

    @classmethod
    def report(cls, passes: list[Pass]):
        # pooled over rounds: 20 per-case times would make p80 the time of a
        # particular verb or two, not a tail
        lat = [t for p in passes for t in p.samples["latency"]]
        n = len(lat)
        p50, p80 = median(lat) * 1e3, quantile(lat, 4, 5) * 1e3
        rate = n / sum(lat)
        note = f"n={n} invocations, {len(passes)} rounds"
        metrics = [
            Metric("cli.cold_p50_ms", p50, "ms", f"median, {note}"),
            Metric("cli.cold_p80_ms", p80, "ms", f"p80, {note}"),
            Metric("cli.invocations_per_s", rate, "1/s", note),
        ]
        return metrics, {"time_ms": p50, "tail_ms": p80, "rate_per_s": rate}, []


WORKLOADS = {w.name: w for w in (PipelineLadder, Corpus, Diagrams, CliCold)}
