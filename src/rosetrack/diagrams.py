"""Moves between ltt structures and ideal decomposition diagrams.

A diagram edge (g_k; G_{k-1}, G_k) is determined by its target structure and
one purple edge at the target's doubled direction: the generator is read off
the target's red data, and the source is reconstructed as either an extension
(same red vertex) or a switch (red vertex moves to the doubled direction).
Diagrams are therefore built backwards, closing a seed structure under
predecessor generation and then restricting to the strongly connected part.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .errors import NotTrainTrack
from .graphs import strongly_connected_components
from .ltt import LttStructure, build_ltt, is_birecurrent, validate
from .nielsen import DEFAULT_MAX_PASSES, PnpCertificate, search_inps
from .whitehead import is_train_track, turn_closure
from .words import (
    Decomposition,
    NielsenGenerator,
    Turn,
    format_direction,
    is_cyclically_admissible,
    is_expanding,
    is_irreducible,
    periodic_directions,
    rotationless_power,
    turn,
)

EXTENSION = "extension"
SWITCH = "switch"


@dataclass(frozen=True)
class GeneratingTriple:
    generator: NielsenGenerator
    source: LttStructure
    target: LttStructure
    kind: str
    determining_edge: Turn


def generator_of(target: LttStructure) -> NielsenGenerator:
    """The Nielsen generator a structure's red data prescribes: the red
    vertex is the replaced direction, the red edge [d_u, bar(d_a)]."""
    return NielsenGenerator(target.rank, target.red_vertex, target.doubled_direction)


def _determining_endpoints(target: LttStructure, determining_edge: Turn):
    gen = generator_of(target)
    d_a = gen.y
    if determining_edge not in target.purple_edges:
        raise ValueError(f"{determining_edge} is not a purple edge of the target")
    if d_a not in determining_edge:
        raise ValueError(
            f"determining edge must be incident to the doubled direction "
            f"{format_direction(d_a)}"
        )
    other = determining_edge[0] if determining_edge[1] == d_a else determining_edge[1]
    return gen, other


def _source(kind: str, target: LttStructure, determining_edge: Turn) -> LttStructure | None:
    """The source a move of this kind prescribes, before any axiom or
    birecurrence check; None when the move cannot apply."""
    gen, other = _determining_endpoints(target, determining_edge)
    if kind == EXTENSION:
        if other in (gen.x, -gen.x):
            return None  # the previous generator would not be a valid prepend
        return LttStructure(target.rank, gen.x, turn(gen.x, other), target.purple_edges)
    if other in (gen.y, -gen.y):
        return None
    rename = lambda d: gen.x if d == gen.y else d
    return LttStructure(
        target.rank,
        gen.y,
        turn(gen.y, other),
        frozenset(turn(rename(a), rename(b)) for a, b in target.purple_edges),
    )


def _move(kind: str, target: LttStructure, determining_edge: Turn) -> GeneratingTriple | None:
    source = _source(kind, target, determining_edge)
    if source is None or validate(source) or not is_birecurrent(source):
        return None
    return GeneratingTriple(generator_of(target), source, target, kind, determining_edge)


def extension(target: LttStructure, determining_edge: Turn) -> GeneratingTriple | None:
    """The move keeping the red vertex: the source has the same purple graph
    and its red edge joins the red vertex to the determining edge's far end.
    Returns None when the source is not an admissible structure."""
    return _move(EXTENSION, target, determining_edge)


def switch(target: LttStructure, determining_edge: Turn) -> GeneratingTriple | None:
    """The move relabeling the red vertex: the source's red vertex is the
    doubled direction, and its purple graph is the target's with that label
    pulled back to the target's red vertex."""
    return _move(SWITCH, target, determining_edge)


def predecessors(target: LttStructure) -> tuple[GeneratingTriple, ...]:
    """All admissible triples into the target: every purple edge at the
    doubled direction, in both move kinds."""
    gen = generator_of(target)
    out = []
    for e in sorted(t for t in target.purple_edges if gen.y in t):
        for move in (extension, switch):
            triple = move(target, e)
            if triple is not None:
                out.append(triple)
    return tuple(out)


def _rebuilds(t: GeneratingTriple) -> bool:
    """Re-derive the triple from its target and determining edge: its
    generator and source are the prescribed ones, and the source satisfies
    the ltt axioms. Guards against hand-built inconsistent triples."""
    try:
        return (
            t.generator == generator_of(t.target)
            and _source(t.kind, t.target, t.determining_edge) == t.source
            and not validate(t.source)
        )
    except ValueError:
        return False


def admissible_composition_check(
    triples: Sequence[GeneratingTriple], relax_isolated_pairs: bool = False
) -> bool:
    """Chained targets/sources match, every triple is an admissible move, and
    every structure is birecurrent (optionally ignoring rank-extension pairs).
    Each distinct structure is tested for birecurrence once.
    """
    if not triples:
        return False
    for a, b in zip(triples, triples[1:]):
        if a.target != b.source:
            return False
    for t in triples:
        if relax_isolated_pairs:
            if t.generator != generator_of(t.target):
                return False
            if t.source.red_vertex not in (t.generator.x, t.generator.y):
                return False
        elif not _rebuilds(t):
            return False
    structures = dict.fromkeys((triples[0].source, *(t.target for t in triples)))
    return all(
        is_birecurrent(s, ignore_isolated_pairs=relax_isolated_pairs) for s in structures
    )


def extend_composition(
    triples: Sequence[GeneratingTriple], r_new: int
) -> tuple[GeneratingTriple, ...]:
    """Extend every generator by the identity and every structure by isolated
    black pairs for the new letters."""
    return tuple(
        GeneratingTriple(
            t.generator.extended(r_new),
            t.source.extended(r_new),
            t.target.extended(r_new),
            t.kind,
            t.determining_edge,
        )
        for t in triples
    )


def enumerate_admissible_structures(
    purple_shape, rank: int
) -> tuple[LttStructure, ...]:
    """Every admissible indexed ltt structure whose purple graph is
    isomorphic to the given shape: all choices of red vertex, all labelings
    of the shape by the remaining 2r-1 directions, all red edge attachments.
    Exhaustive but small (a few thousand candidates at rank 3)."""
    from itertools import permutations

    from .words import directions

    shape_vertices = tuple(purple_shape.vertices())
    shape_edges = [(u, v) for u, v, _ in purple_shape.edges]
    if len(shape_vertices) != 2 * rank - 1:
        return ()
    found: dict = {}
    for red in directions(rank):
        labels = [d for d in directions(rank) if d != red]
        for image in permutations(labels):
            assign = dict(zip(shape_vertices, image))
            purple = frozenset(turn(assign[u], assign[v]) for u, v in shape_edges)
            for w in labels:
                if w == -red:
                    continue
                s = LttStructure(rank, red, turn(red, w), purple)
                if s.key() in found:
                    continue
                if not validate(s) and is_birecurrent(s):
                    found[s.key()] = s
    return tuple(found[k] for k in sorted(found))


# ---------------------------------------------------------------------------
# diagrams


@dataclass(frozen=True)
class IdDiagram:
    """Predecessor closure of a seed structure, with its strongly connected
    part.  Node identity is labeled-structure equality."""

    seed: LttStructure
    nodes: tuple[LttStructure, ...]
    edges: tuple[GeneratingTriple, ...]
    sccs: tuple[frozenset, ...]
    truncated: bool

    def node_keys(self) -> frozenset:
        return frozenset(s.key() for s in self.nodes)

    def retained_components(self) -> tuple[frozenset, ...]:
        """The maximal strongly connected subgraphs (components with a cycle)."""
        keyed_edges = {(t.source.key(), t.target.key()) for t in self.edges}
        out = []
        for scc in self.sccs:
            if len(scc) > 1 or any((k, k) in keyed_edges for k in scc):
                out.append(scc)
        return tuple(out)

    def seed_component(self) -> frozenset:
        seed_key = self.seed.key()
        for scc in self.sccs:
            if seed_key in scc:
                return scc
        return frozenset()

    def component_edges(self, component: frozenset) -> tuple[GeneratingTriple, ...]:
        return tuple(
            t
            for t in self.edges
            if t.source.key() in component and t.target.key() in component
        )

    def structure(self, key) -> LttStructure:
        for s in self.nodes:
            if s.key() == key:
                return s
        raise KeyError(key)

    def is_component_strongly_connected(self, component: frozenset) -> bool:
        keys = sorted(component)
        succ: dict = {k: [] for k in keys}
        for t in self.component_edges(component):
            succ[t.source.key()].append(t.target.key())
        sccs = strongly_connected_components(keys, lambda k: succ[k])
        return len(sccs) == 1


def build_id_diagram(seed: LttStructure, node_budget: int = 100_000) -> IdDiagram:
    """Close the seed under predecessor generation, then take strongly
    connected components.  The diagram is flagged truncated (partial result)
    if the node budget is exceeded."""
    problems = validate(seed)
    if problems:
        raise ValueError(f"seed violates ltt axioms {problems}")
    if not is_birecurrent(seed):
        raise ValueError("seed structure is not birecurrent")
    nodes: dict = {seed.key(): seed}
    edges: list[GeneratingTriple] = []
    seen_edges: set = set()
    queue = deque([seed])
    truncated = False
    while queue:
        target = queue.popleft()
        for t in predecessors(target):
            ek = (t.source.key(), t.target.key(), t.kind, t.determining_edge)
            if ek in seen_edges:
                continue
            seen_edges.add(ek)
            edges.append(t)
            if t.source.key() not in nodes:
                if len(nodes) >= node_budget:
                    truncated = True
                    continue
                nodes[t.source.key()] = t.source
                queue.append(t.source)
    succ: dict = {k: [] for k in nodes}
    for t in edges:
        if t.source.key() in nodes and t.target.key() in nodes:
            succ[t.source.key()].append(t.target.key())
    sccs = strongly_connected_components(sorted(nodes), lambda k: succ[k])
    return IdDiagram(
        seed,
        tuple(nodes[k] for k in sorted(nodes)),
        tuple(edges),
        tuple(sccs),
        truncated,
    )


def find_path(diagram: IdDiagram, start_key, end_key) -> tuple[GeneratingTriple, ...]:
    """A shortest directed edge path between two nodes of the diagram."""
    if start_key == end_key:
        return ()
    by_source: dict = {}
    for t in diagram.edges:
        by_source.setdefault(t.source.key(), []).append(t)
    back: dict = {start_key: None}
    queue = deque([start_key])
    while queue:
        k = queue.popleft()
        for t in by_source.get(k, ()):  # deterministic: edges kept in build order
            nk = t.target.key()
            if nk not in back:
                back[nk] = t
                if nk == end_key:
                    path = []
                    cur = nk
                    while back[cur] is not None:
                        path.append(back[cur])
                        cur = back[cur].source.key()
                    return tuple(reversed(path))
                queue.append(nk)
    raise ValueError("no path between the given nodes")


def loop_through(
    diagram: IdDiagram, node_key, base_loop: Sequence[GeneratingTriple]
) -> tuple[GeneratingTriple, ...]:
    """A loop based at the given node that contains the base loop: walk to
    the base loop's origin, traverse it, walk back."""
    origin = base_loop[0].source.key()
    to_origin = find_path(diagram, node_key, origin)
    back_home = find_path(diagram, origin, node_key)
    return tuple(to_origin) + tuple(base_loop) + tuple(back_home)


def loop_of_decomposition(d: Decomposition, pnp_certificate) -> tuple[GeneratingTriple, ...]:
    """The diagram loop realizing an ideal decomposition: structure k is the
    ltt structure of the rotation based at the k-th rose."""
    structures = [build_ltt(d.rotated(k), pnp_certificate) for k in range(len(d.steps))]
    out = []
    for k, gen in enumerate(d.steps, start=1):
        target = structures[k % len(d.steps)]
        source = structures[k - 1]
        red_img = turn(
            gen.map_direction(source.red_edge[0]), gen.map_direction(source.red_edge[1])
        )
        kind = EXTENSION if source.red_vertex == gen.x else SWITCH
        out.append(GeneratingTriple(gen, source, target, kind, red_img))
    return tuple(out)


def _seed_component_names(diagram: IdDiagram) -> tuple[frozenset, dict]:
    """The seed's component and its nodes' names n0, n1, ... in key order."""
    comp = diagram.seed_component()
    return comp, {k: f"n{i}" for i, k in enumerate(sorted(comp))}


def diagram_to_json(diagram: IdDiagram) -> dict:
    """Structured listing of the seed's component: nodes with their red data
    and purple edges, and one record per triple."""
    comp, names = _seed_component_names(diagram)

    def describe(s: LttStructure) -> dict:
        return {
            "red_vertex": format_direction(s.red_vertex),
            "red_edge": [format_direction(v) for v in s.red_edge],
            "purple_edges": [
                [format_direction(a), format_direction(b)]
                for a, b in sorted(s.purple_edges)
            ],
        }

    nodes = []
    for k, name in names.items():
        entry = {"id": name, "seed": k == diagram.seed.key()}
        entry.update(describe(diagram.structure(k)))
        nodes.append(entry)
    edges = [
        {
            "generator": {"x": format_direction(t.generator.x),
                          "y": format_direction(t.generator.y)},
            "source": names[t.source.key()],
            "target": names[t.target.key()],
            "kind": t.kind,
            "determining_edge": [format_direction(v) for v in t.determining_edge],
        }
        for t in diagram.component_edges(comp)
    ]
    edges.sort(key=lambda e: (e["source"], e["target"], e["kind"], str(e["determining_edge"])))
    return {"rank": diagram.seed.rank, "nodes": nodes, "edges": edges}


def diagram_to_dot(diagram: IdDiagram) -> str:
    """Deterministic DOT for the seed's component, nodes annotated with their
    red vertex and red edge."""
    comp, names = _seed_component_names(diagram)
    lines = ["digraph id_diagram {"]
    for k, name in names.items():
        s = diagram.structure(k)
        red = format_direction(s.red_vertex)
        e = "[%s,%s]" % (format_direction(s.red_edge[0]), format_direction(s.red_edge[1]))
        mark = " (seed)" if k == diagram.seed.key() else ""
        lines.append(f'  {name} [label="red {red} edge {e}{mark}"];')
    lines.extend(sorted(
        f'  {names[t.source.key()]} -> {names[t.target.key()]} '
        f'[label="{t.generator} {t.kind[:3]}"];'
        for t in diagram.component_edges(comp)
    ))
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# representative loops


@dataclass(frozen=True)
class LoopVerdict:
    """Outcome of certifying a loop as a train track representative with the
    prescribed ideal Whitehead graph."""

    ok: bool
    failures: tuple[str, ...]
    decomposition: Decomposition | None = None
    rotationless_exponent: int = 1
    pnp_certificate: PnpCertificate | None = None
    built_structure: LttStructure | None = None
    start_structure: LttStructure | None = None

    @property
    def structure_returns(self) -> bool:
        """The closing identity: the built structure equals the loop's base."""
        return (
            self.built_structure is not None
            and self.built_structure == self.start_structure
        )


def check_representative_loop(
    loop: Sequence[GeneratingTriple],
    max_passes: int = DEFAULT_MAX_PASSES,
    max_len: int | None = None,
) -> LoopVerdict:
    """Certify that a diagram loop's composite is a train track representative
    whose ideal Whitehead graph is the loop's purple graph: taken-turn and
    periodicity coverage of the purple edges, transition reachability, and
    Nielsen-path-freeness, plus the closing identity G(g) = G_0."""
    failures: list[str] = []
    if not loop:
        return LoopVerdict(False, ("empty loop",))
    if loop[-1].target != loop[0].source:
        failures.append("loop does not close up")
    if not admissible_composition_check(loop):
        failures.append("not an admissible composition")
    if failures:
        return LoopVerdict(False, tuple(failures))

    rank = loop[0].generator.rank
    d = Decomposition(rank, tuple(t.generator for t in loop))
    if not is_cyclically_admissible(d):
        return LoopVerdict(False, ("sequence not cyclically admissible",))

    exponent, _ = rotationless_power(d)
    work = d.powered(exponent)

    if not is_train_track(work):
        failures.append("composite is not a train track map")
    if not is_expanding(work):
        failures.append("composite is not expanding")
    if not is_irreducible(work):
        failures.append("transition reachability fails (condition B)")
    if failures:
        return LoopVerdict(False, tuple(failures), d, exponent)

    start = loop[0].source
    closure = turn_closure(work)
    periodic = periodic_directions(work)
    for t in start.purple_edges:
        if t not in closure.turns:
            failures.append(f"purple edge {t} is not a taken turn (condition A)")
        if t[0] not in periodic or t[1] not in periodic:
            failures.append(f"purple edge {t} has a nonperiodic end (condition A)")

    try:
        outcome = search_inps(work, max_passes=max_passes, max_len=max_len)
    except NotTrainTrack as exc:
        outcome = None
        failures.append(f"search rejected the composite: {exc}")
    cert = outcome.certificate() if outcome is not None else None
    if outcome is not None and cert is None:
        failures.append(f"Nielsen path search verdict: {outcome.verdict} (condition C)")

    built = None
    if cert is not None and not failures:
        built = build_ltt(work, cert)
        if built != start:
            failures.append("built structure differs from the loop's base (G(g) != G_0)")

    return LoopVerdict(
        not failures,
        tuple(failures),
        d,
        exponent,
        cert,
        built,
        start,
    )
