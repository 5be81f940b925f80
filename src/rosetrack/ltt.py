"""Lamination train track structures.

An ltt structure packages a (2r-1)-vertex purple graph (the stable Whitehead
graph), one red vertex with one red edge, and a black edge for each of the
rose's r edge pairs.  Smooth paths alternate between black and colored edges;
a structure is birecurrent (admissible) when a smooth line can traverse every
edge infinitely often in both directions.  A smooth line crosses a colored
edge [x, y] from x to y and then the black edge from y to bar(y), so it is a
walk in the digraph H on the 2r directions with arcs x -> bar(y) and
y -> bar(x) for each colored edge; birecurrence is decided on the strongly
connected components of H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import NotTrainTrack, RankError
from .graphs import (
    BLACK,
    PURPLE,
    RED,
    ColoredPairLabeledGraph,
    strongly_connected_components,
)
from .whitehead import ideal_whitehead_graph
from .words import Decomposition, Direction, Turn, directions, turn

AXIOM_VALENCE = "I"
AXIOM_NO_LOOPS = "II"
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
        object.__setattr__(self, "red_edge", turn(*self.red_edge))
        # rebuild the edge set only when it is not canonical: the diagram
        # moves and the enumeration hand one frozenset to many structures,
        # and a copy per structure raised a diagrams benchmark pass's peak
        # memory by about 4 MB
        purple = frozenset(self.purple_edges)
        if any(t[0] > t[1] for t in purple):
            purple = frozenset(turn(*t) for t in purple)
        object.__setattr__(self, "purple_edges", purple)

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

    def _vertex_colors(self) -> dict[Direction, str]:
        vertices = {v: PURPLE for v in self.purple_vertices()}
        vertices[self.red_vertex] = RED
        return vertices

    def _colored_edges(self) -> list[tuple[Direction, Direction, str]]:
        edges = [(t[0], t[1], PURPLE) for t in self.purple_edges]
        edges.append((self.red_edge[0], self.red_edge[1], RED))
        return edges

    def colored_graph(self) -> ColoredPairLabeledGraph:
        """The colored subgraph C(G): purple part plus red vertex and edge."""
        return ColoredPairLabeledGraph.build(self.rank, self._vertex_colors(), self._colored_edges())

    def as_graph(self) -> ColoredPairLabeledGraph:
        """The full structure with black edges included."""
        edges = self._colored_edges() + [(t[0], t[1], BLACK) for t in self.black_edges()]
        return ColoredPairLabeledGraph.build(self.rank, self._vertex_colors(), edges)

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
        the serialized form); the graph must be a valid structure's as_graph()."""
        red_vertices = [v for v, c in g.vertex_colors if c == RED]
        red_edges = [(u, v) for u, v, c in g.edges if c == RED]
        if len(red_vertices) != 1 or len(red_edges) != 1:
            raise ValueError(f"graph violates ltt axioms {[AXIOM_UNIQUE_RED]}")
        s = cls(
            g.rank,
            red_vertices[0],
            red_edges[0],
            frozenset((u, v) for u, v, c in g.edges if c == PURPLE),
        )
        problems = validate(s)
        if problems:
            raise ValueError(f"graph violates ltt axioms {problems}")
        if s.as_graph() != g:
            raise ValueError("graph is not an assembled ltt structure")
        return s


def validate(s: LttStructure) -> list[str]:
    """The roman numerals of the ltt axioms the structure violates (empty
    means valid).  Axioms III and VI, and the black-edge half of IV, hold by
    construction: every direction is a vertex, the red vertex is the only red
    one, and the black edges are the rank's edge pairs."""
    labels = set(directions(s.rank))
    colored = (s.red_edge, *s.purple_edges)
    met = {v for t in colored for v in t}
    outside = ({s.red_vertex} | met) - labels
    if outside:
        raise ValueError(f"labels {sorted(outside)} out of range for rank {s.rank}")
    violations: list[str] = []
    if met != labels:
        violations.append(AXIOM_VALENCE)
    if any(t[0] == t[1] for t in colored):
        violations.append(AXIOM_NO_LOOPS)
    if s.red_vertex not in s.red_edge or any(s.red_vertex in t for t in s.purple_edges):
        violations.append(AXIOM_EDGE_TYPES)
    if s.red_edge in s.purple_edges:
        violations.append(AXIOM_NO_PARALLEL)
    return violations


def is_birecurrent(s: LttStructure, ignore_isolated_pairs: bool = False) -> bool:
    """Whether a smooth line can traverse every edge infinitely often in both
    directions.

    Operationally: one strongly connected component C of the direction
    digraph H holds both ends of one of the two arcs of every colored edge,
    and a direction of every edge pair.  (Reversing the line gives the mirror
    component, so one arc per edge suffices.)  Traversals of colored edges
    are H's arcs and traversals of black edges its vertices; a smooth
    transition runs from an arc to its head or from a vertex to an arc
    leaving it, so the transition graph is H with every arc subdivided.

    With ignore_isolated_pairs, pairs carrying no colored edge (as produced
    by rank extension) are exempted.  A colored edge with an end outside the
    rank meets no black edge there, so it lies on no smooth cycle.
    """
    colored = (s.red_edge, *s.purple_edges)
    if any(not 0 < abs(v) <= s.rank for t in colored for v in t):
        return False
    succ: dict[Direction, list[Direction]] = {v: [] for v in directions(s.rank)}
    for x, y in colored:
        succ[x].append(-y)
        succ[y].append(-x)
    if ignore_isolated_pairs:
        pairs = {abs(v) for t in colored for v in t}
    else:
        pairs = range(1, s.rank + 1)
    for comp in strongly_connected_components(succ, succ.__getitem__):
        if all(i in comp or -i in comp for i in pairs) and all(
            (x in comp and -y in comp) or (y in comp and -x in comp) for x, y in colored
        ):
            return True
    return False


def build_ltt(d: Decomposition, pnp_certificate) -> LttStructure:
    """The ltt structure of a Nielsen-path-free train track composite: its
    ideal Whitehead graph in purple, the unique nonperiodic direction as the
    red vertex, and the red edge [d_u, bar(d_a)] read off the final generator.
    """
    iw = ideal_whitehead_graph(d, pnp_certificate)
    periodic = set(iw.vertices())
    nonperiodic = tuple(v for v in directions(d.rank) if v not in periodic)
    if len(nonperiodic) != 1:
        raise NotTrainTrack(
            f"expected a unique nonperiodic direction, found {nonperiodic}"
        )
    red_vertex = nonperiodic[0]
    final = d.steps[-1]
    if final.missing_direction != red_vertex:
        raise NotTrainTrack(
            "final generator does not move the nonperiodic direction"
        )
    structure = LttStructure(
        d.rank,
        red_vertex,
        turn(final.missing_direction, -final.doubled_direction),
        frozenset((u, v) for u, v, _ in iw.edges),
    )
    problems = validate(structure)
    if problems:
        raise NotTrainTrack(f"built structure violates ltt axioms {problems}")
    return structure
