"""Span recording around the library's public functions, for the traced run.

The recorder rebinds module attributes (and three `Decomposition` methods) in
the current process only, including the names that `from .x import y` bound
in other rosetrack modules, and restores them afterwards. Per-letter hot
methods (`NielsenGenerator.apply`, `map_direction`, `map_turn`) stay unwrapped.
Spans are kept in memory; self time is a span's duration minus the durations
of its direct children, which are nested inside it in this single-threaded
process. A process records one pass, between `install` and `uninstall`.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (span name, module, attribute); "Class.method" names a method
TARGETS = (
    ("words.transition_matrix", "rosetrack.words", "Decomposition.transition_matrix"),
    ("words.direction_map", "rosetrack.words", "Decomposition.direction_map"),
    ("words.limited_turns", "rosetrack.words", "Decomposition.limited_turns"),
    ("words.is_expanding", "rosetrack.words", "is_expanding"),
    ("words.is_irreducible", "rosetrack.words", "is_irreducible"),
    ("words.is_strictly_irreducible", "rosetrack.words", "is_strictly_irreducible"),
    ("words.rotationless_power", "rosetrack.words", "rotationless_power"),
    ("words.is_illegal", "rosetrack.words", "is_illegal"),
    ("whitehead.turn_closure", "rosetrack.whitehead", "turn_closure"),
    ("whitehead.is_train_track", "rosetrack.whitehead", "is_train_track"),
    ("whitehead.ideal_whitehead_graph", "rosetrack.whitehead", "ideal_whitehead_graph"),
    ("nielsen.search_inps", "rosetrack.nielsen", "search_inps"),
    ("nielsen.is_legalizing_prevention_sequence", "rosetrack.nielsen",
     "is_legalizing_prevention_sequence"),
    ("ltt.build_ltt", "rosetrack.ltt", "build_ltt"),
    ("ltt.validate", "rosetrack.ltt", "validate"),
    ("ltt.is_birecurrent", "rosetrack.ltt", "is_birecurrent"),
    ("graphs.strongly_connected_components", "rosetrack.graphs", "strongly_connected_components"),
    ("graphs.cut_vertices", "rosetrack.graphs", "cut_vertices"),
    ("graphs.connected_components", "rosetrack.graphs", "connected_components"),
    ("graphs.is_isomorphic", "rosetrack.graphs", "is_isomorphic"),
    ("diagrams.build_id_diagram", "rosetrack.diagrams", "build_id_diagram"),
    ("diagrams.predecessors", "rosetrack.diagrams", "predecessors"),
    ("diagrams.enumerate_admissible_structures", "rosetrack.diagrams",
     "enumerate_admissible_structures"),
    ("diagrams.check_representative_loop", "rosetrack.diagrams", "check_representative_loop"),
    ("synthesis.theorem_a_pipeline", "rosetrack.synthesis", "theorem_a_pipeline"),
    ("synthesis.realize_glued", "rosetrack.synthesis", "realize_glued"),
    ("synthesis.normalize_achieved", "rosetrack.synthesis", "normalize_achieved"),
    ("cli.run", "rosetrack.cli", "run"),
)

# spans whose arguments and result are kept for the counts derived below
KEEP = frozenset({
    "words.transition_matrix", "words.direction_map", "whitehead.turn_closure",
    "nielsen.search_inps", "diagrams.build_id_diagram",
    "diagrams.enumerate_admissible_structures", "synthesis.theorem_a_pipeline",
    "synthesis.realize_glued",
})


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.kept: dict[int, tuple] = {}
        self._stack = [-1]
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        keep = name in KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1])
            self.ends.append(0.0)
            self._stack.append(i)
            self.starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[i] = perf_counter()
                self._stack.pop()
            if keep:
                self.kept[i] = (args, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "rosetrack" or n.startswith("rosetrack.")]
        for name, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.starts[i]:.9f},{self.ends[i]:.9f},{self.parents[i]}\n")

    # -- derived metrics ---------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def layer_self_time(self, roots) -> dict[str, float]:
        """Self time by module over the spans under the given top-level spans."""
        own = self.self_times()
        top: list[int] = []
        for i, p in enumerate(self.parents):
            top.append(i if p < 0 else top[p])
        roots = set(roots)
        out: Counter = Counter()
        for i, name in enumerate(self.names):
            if top[i] in roots:
                out[name.split(".")[0]] += own[i]
        return dict(out)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric of the recorded pass."""
        own = self.self_times()
        calls: Counter = Counter(self.names)
        self_s: Counter = Counter()
        for name, t in zip(self.names, own):
            self_s[name] += t
        by_name = defaultdict(list)
        for i, (args, out) in sorted(self.kept.items()):
            by_name[self.names[i]].append((args, out))

        m: dict[str, tuple[float, str]] = {}

        def timing(name, with_calls=True):
            if with_calls:
                m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.self_s"] = (self_s[name], "s")

        def distinct_ratio(name):
            """Distinct (rank, steps) inputs over calls."""
            keys = [(args[0].rank, args[0].steps) for args, _ in by_name[name]]
            return (len(set(keys)) / len(keys) if keys else 0.0, "ratio")

        timing("words.transition_matrix")
        m["words.transition_matrix.distinct_ratio"] = distinct_ratio("words.transition_matrix")
        m["words.transition_matrix.max_entry_bits"] = (
            max((max(e.bit_length() for row in out for e in row)
                 for _, out in by_name["words.transition_matrix"]), default=0),
            "bits",
        )
        timing("words.direction_map")
        m["words.direction_map.distinct_ratio"] = distinct_ratio("words.direction_map")
        for name in ("words.limited_turns", "words.is_expanding"):
            timing(name)
        for name in ("words.is_irreducible", "words.is_strictly_irreducible",
                     "words.rotationless_power"):
            timing(name, with_calls=False)
        timing("words.is_illegal")

        timing("whitehead.turn_closure")
        m["whitehead.turn_closure.turns"] = (
            sum(len(out.turns) for _, out in by_name["whitehead.turn_closure"]),
            "count",
        )
        timing("whitehead.is_train_track")
        timing("whitehead.ideal_whitehead_graph", with_calls=False)

        timing("nielsen.search_inps")
        outcomes = [out for _, out in by_name["nielsen.search_inps"]]
        records = [rec for o in outcomes for rec in o.trace]
        dead = sum(1 for r in records if r.death_step is not None)
        bounded = sum(
            1 for r in records if r.death_step is None and r.death_reason in (None, "length_bound")
        )
        m["nielsen.branches"] = (len(records), "count")
        m["nielsen.branches_dead"] = (dead, "count")
        m["nielsen.branches_bounded"] = (bounded, "count")
        m["nielsen.dead_ratio"] = (dead / len(records) if records else 0.0, "ratio")
        verdicts = Counter(o.verdict for o in outcomes)
        for v in ("found", "none_legalized", "inconclusive"):
            m[f"nielsen.verdict.{v}"] = (verdicts[v], "count")
        m["nielsen.found_unverified"] = (
            sum(1 for o in outcomes if o.found is not None and not o.found.verified),
            "count",
        )
        timing("nielsen.is_legalizing_prevention_sequence", with_calls=False)

        for name in ("ltt.build_ltt", "ltt.validate", "ltt.is_birecurrent"):
            timing(name)

        timing("graphs.strongly_connected_components")
        timing("graphs.cut_vertices", with_calls=False)
        timing("graphs.connected_components", with_calls=False)
        timing("graphs.is_isomorphic")

        timing("diagrams.build_id_diagram")
        diagrams_out = [out for _, out in by_name["diagrams.build_id_diagram"]]
        m["diagrams.build_id_diagram.nodes"] = (
            sum(len(d.nodes) for d in diagrams_out), "count")
        m["diagrams.build_id_diagram.edges"] = (
            sum(len(d.edges) for d in diagrams_out), "count")
        m["diagrams.build_id_diagram.truncated"] = (
            sum(1 for d in diagrams_out if d.truncated), "count")
        m["diagrams.predecessors.calls"] = (calls["diagrams.predecessors"], "count")
        timing("diagrams.enumerate_admissible_structures", with_calls=False)
        m["diagrams.enumerate_admissible_structures.found"] = (
            sum(len(out) for _, out in by_name["diagrams.enumerate_admissible_structures"]),
            "count")
        timing("diagrams.check_representative_loop")

        timing("synthesis.realize_glued")
        glued = [out[1].ok for _, out in by_name["synthesis.realize_glued"]]
        m["synthesis.realize_glued.ok_ratio"] = (
            sum(glued) / len(glued) if glued else 0.0, "ratio")
        timing("synthesis.normalize_achieved", with_calls=False)
        m["synthesis.generators_out"] = (
            max((len(out.decomposition.steps)
                 for _, out in by_name["synthesis.theorem_a_pipeline"]), default=0),
            "count",
        )
        m["cli.run.self_s"] = (self_s["cli.run"], "s")
        return m
