"""Lamination train track structures.

An ltt structure packages a (2r-1)-vertex purple graph (the stable Whitehead
graph), one red vertex with one red edge, and a black edge for each of the
rose's r edge pairs.  Smooth paths alternate between black and colored edges;
a structure is birecurrent (admissible) when a smooth line can traverse every
edge infinitely often in both directions, which holds exactly when all
traversal darts lie in a single strongly connected component of the smooth
transition graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import MissingCertificate, NotTrainTrack, RankError
from .graphs import (
    BLACK,
    PURPLE,
    RED,
    ColoredPairLabeledGraph,
    strongly_connected_components,
)
from .whitehead import is_train_track, stable_whitehead_graph
from .words import (
    Decomposition,
    Direction,
    Turn,
    directions,
    rotationless_power,
    turn,
)

AXIOM_VALENCE = "I"
AXIOM_NO_LOOPS = "II"
AXIOM_VERTEX_COLORS = "III"
AXIOM_EDGE_TYPES = "IV"
AXIOM_NO_PARALLEL = "V"
AXIOM_UNIQUE_RED = "VI"


@dataclass(frozen=True)
class LttStructure:
    """rank, the purple edge set, the red vertex, and the red edge.

    Vertices are implicit: all 2r directions, the red vertex red and the rest
    purple.  Black edges are implicit: one per edge pair {x, bar(x)}.
    """

    rank: int
    red_vertex: Direction
    red_edge: Turn
    purple_edges: frozenset[Turn]

    def __post_init__(self) -> None:
        object.__setattr__(self, "purple_edges", frozenset(self.purple_edges))

    def purple_vertices(self) -> tuple[Direction, ...]:
        return tuple(d for d in directions(self.rank) if d != self.red_vertex)

    def black_edges(self) -> tuple[Turn, ...]:
        return tuple(turn(i, -i) for i in range(1, self.rank + 1))

    @property
    def doubled_direction(self) -> Direction:
        """d_a: the red edge joins the red vertex d_u to bar(d_a)."""
        other = self.red_edge[0] if self.red_edge[1] == self.red_vertex else self.red_edge[1]
        return -other

    def purple_graph(self) -> ColoredPairLabeledGraph:
        return ColoredPairLabeledGraph.build(
            self.rank,
            {v: PURPLE for v in self.purple_vertices()},
            [(t[0], t[1], PURPLE) for t in self.purple_edges],
        )

    def colored_graph(self) -> ColoredPairLabeledGraph:
        """The colored subgraph C(G): purple part plus red vertex and edge."""
        vertices = {v: PURPLE for v in self.purple_vertices()}
        vertices[self.red_vertex] = RED
        edges = [(t[0], t[1], PURPLE) for t in self.purple_edges]
        edges.append((self.red_edge[0], self.red_edge[1], RED))
        return ColoredPairLabeledGraph.build(self.rank, vertices, edges)

    def as_graph(self) -> ColoredPairLabeledGraph:
        """The full structure with black edges included."""
        g = self.colored_graph()
        edges = list(g.edges)
        for t in self.black_edges():
            edges.append((t[0], t[1], BLACK))
        return ColoredPairLabeledGraph.build(self.rank, dict(g.vertex_colors), edges)

    def relabeled(self, perm: Mapping[Direction, Direction]) -> "LttStructure":
        full = {}
        for v in directions(self.rank):
            full[v] = perm.get(v, v)
            if -v in perm and perm[-v] != -perm.get(v, v):
                raise ValueError("relabeling does not respect edge pairs")
        apply = lambda t: turn(full[t[0]], full[t[1]])
        return LttStructure(
            self.rank,
            full[self.red_vertex],
            apply(self.red_edge),
            frozenset(apply(t) for t in self.purple_edges),
        )

    def extended(self, rank: int) -> "LttStructure":
        """Add purple vertices and black edges for the new letters.  The new
        pairs carry no colored edges, so strict birecurrence fails on the
        extension; see is_birecurrent(ignore_isolated_pairs=...)."""
        if rank < self.rank:
            raise RankError(f"cannot shrink rank {self.rank} to {rank}")
        return LttStructure(rank, self.red_vertex, self.red_edge, self.purple_edges)

    def key(self) -> tuple:
        """Canonical identity for indexed (labeled) structures."""
        return (self.rank, self.red_vertex, self.red_edge, tuple(sorted(self.purple_edges)))

    @classmethod
    def from_graph(cls, g: ColoredPairLabeledGraph) -> "LttStructure":
        """Rebuild a structure from an assembled graph (the round trip for
        the serialized form); the graph must satisfy the ltt axioms."""
        problems = validate_ltt(g)
        if problems:
            raise ValueError(f"graph violates ltt axioms {problems}")
        red_vertex = next(v for v, c in g.vertex_colors if c == RED)
        red_edge = next(turn(u, v) for u, v, c in g.edges if c == RED)
        purple = frozenset(turn(u, v) for u, v, c in g.edges if c == PURPLE)
        return cls(g.rank, red_vertex, red_edge, purple)


def validate_ltt(g: ColoredPairLabeledGraph) -> list[str]:
    """Check the abstract ltt axioms on an assembled colored graph; returns
    the roman numerals of the violated axioms (empty means valid)."""
    violations: list[str] = []
    verts = g.vertices()
    rank = g.rank

    if any(g.degree(v) < 2 for v in verts) or len(verts) < 2 * rank:
        violations.append(AXIOM_VALENCE)
    if any(u == v for u, v, _ in g.edges):
        violations.append(AXIOM_NO_LOOPS)
    # axiom III (vertices purple or red) is enforced by the graph type itself

    black = {(u, v) for u, v, c in g.edges if c == BLACK}
    expected_black = {turn(i, -i) for i in range(1, rank + 1)}
    red_vertices = {v for v, c in g.vertex_colors if c == RED}
    type_ok = black == expected_black
    for u, v, c in g.edges:
        if c == BLACK:
            continue
        touches_red = u in red_vertices or v in red_vertices
        if c == RED and not touches_red:
            type_ok = False
        if c == PURPLE and touches_red:
            type_ok = False
    if not type_ok:
        violations.append(AXIOM_EDGE_TYPES)

    colored_pairs = [(u, v) for u, v, c in g.edges if c != BLACK]
    if len(colored_pairs) != len(set(colored_pairs)):
        violations.append(AXIOM_NO_PARALLEL)

    purple_count = sum(1 for _, c in g.vertex_colors if c == PURPLE)
    red_edges = [(u, v) for u, v, c in g.edges if c == RED]
    if purple_count != 2 * rank - 1 or len(red_vertices) != 1 or len(red_edges) != 1:
        violations.append(AXIOM_UNIQUE_RED)

    return violations


def validate(s: LttStructure) -> list[str]:
    return validate_ltt(s.as_graph())


def smooth_dart_graph(g: ColoredPairLabeledGraph) -> tuple[list, dict]:
    """Darts (u, v, color) for each traversal of each edge; a dart into v may
    continue along any edge at v of the opposite class (black vs colored)."""
    darts = []
    for u, v, c in g.edges:
        darts.append((u, v, c))
        darts.append((v, u, c))
    at: dict[Direction, list[tuple]] = {}
    for d in darts:
        at.setdefault(d[0], []).append(d)
    succ = {
        d: [
            e
            for e in at.get(d[1], ())
            if (e[2] == BLACK) != (d[2] == BLACK)
        ]
        for d in darts
    }
    return darts, succ


def is_birecurrent(s: LttStructure, ignore_isolated_pairs: bool = False) -> bool:
    """Whether a smooth line can traverse every edge infinitely often in both
    directions.

    Operationally: some strongly connected component of the smooth transition
    dart graph covers at least one dart of every edge.  (Reversing the line
    gives the mirror component covering the reverse darts, so one-per-edge
    coverage suffices; demanding all darts in a single component would reject
    genuine structures, whose dart graphs split into mirror halves.)

    With ignore_isolated_pairs, black edges on pairs carrying no colored edge
    (as produced by rank extension) are exempted.
    """
    g = s.as_graph()
    if ignore_isolated_pairs:
        touched = set()
        for u, v, c in g.edges:
            if c != BLACK:
                touched.update((abs(u), abs(v)))
        g = g.without_edges(
            [(i, -i, BLACK) for i in range(1, g.rank + 1) if i not in touched]
        )
        g = g.induced([v for v in g.vertices() if g.degree(v) > 0])
    darts, succ = smooth_dart_graph(g)
    if not darts:
        return False
    all_edges = {_canon(d) for d in darts}
    for scc in strongly_connected_components(darts, lambda d: succ[d]):
        if len(scc) >= 2 and {_canon(d) for d in scc} == all_edges:
            return True
    return False


def _canon(dart) -> tuple:
    u, v, c = dart
    return (u, v, c) if u <= v else (v, u, c)


def build_ltt(d: Decomposition, pnp_certificate) -> LttStructure:
    """The ltt structure of a Nielsen-path-free train track composite: its
    stable Whitehead graph in purple, the unique nonperiodic direction as the
    red vertex, and the red edge [d_u, bar(d_a)] read off the final generator.
    """
    if pnp_certificate is None or not getattr(pnp_certificate, "pnp_free", False):
        raise MissingCertificate("an explicit Nielsen-path-freeness certificate is required")
    if not pnp_certificate.matches(d):
        raise MissingCertificate("certificate was issued for a different decomposition")
    if not d.steps:
        raise NotTrainTrack("an empty decomposition has no ltt structure")
    if not is_train_track(d):
        raise NotTrainTrack("the composite takes an illegal turn")
    exponent, cert = rotationless_power(d)
    power = d.powered(exponent)
    if len(cert.nonperiodic) != 1:
        raise NotTrainTrack(
            f"expected a unique nonperiodic direction, found {cert.nonperiodic}"
        )
    red_vertex = cert.nonperiodic[0]
    final = d.steps[-1]
    if final.missing_direction != red_vertex:
        raise NotTrainTrack(
            "final generator does not move the nonperiodic direction"
        )
    red_edge = turn(final.missing_direction, -final.doubled_direction)
    sw = stable_whitehead_graph(power)
    structure = LttStructure(
        d.rank,
        red_vertex,
        red_edge,
        frozenset(turn(u, v) for u, v, _ in sw.edges),
    )
    problems = validate(structure)
    if problems:
        raise NotTrainTrack(f"built structure violates ltt axioms {problems}")
    return structure
