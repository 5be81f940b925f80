"""Colored, pair-labeled finite graphs.

The substrate for every Whitehead-style graph in the package: vertices are
labeled by directions (so labels come in edge pairs {x, bar(x)}), vertices are
purple or red, and edges are black, red, or purple.  At most one colored edge
may join a vertex pair; a black edge may run parallel to a colored one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .words import Direction, format_direction, turn

PURPLE = "purple"
RED = "red"
BLACK = "black"

VERTEX_COLORS = (PURPLE, RED)
EDGE_COLORS = (BLACK, RED, PURPLE)

Edge = tuple[Direction, Direction, str]


def _canon_edge(u: Direction, v: Direction, color: str) -> Edge:
    a, b = turn(u, v)
    return (a, b, color)


@dataclass(frozen=True)
class ColoredPairLabeledGraph:
    rank: int
    vertex_colors: tuple[tuple[Direction, str], ...]
    edges: tuple[Edge, ...]

    @classmethod
    def build(
        cls,
        rank: int,
        vertices: Mapping[Direction, str] | Iterable[Direction],
        edges: Iterable[tuple[Direction, Direction, str]] = (),
    ) -> "ColoredPairLabeledGraph":
        if not isinstance(vertices, Mapping):
            vertices = {v: PURPLE for v in vertices}
        for v, c in vertices.items():
            if v == 0 or abs(v) > rank:
                raise ValueError(f"label {v} out of range for rank {rank}")
            if c not in VERTEX_COLORS:
                raise ValueError(f"bad vertex color {c!r}")
        canon = set()
        for u, v, c in edges:
            if u not in vertices or v not in vertices:
                raise ValueError(f"edge ({u},{v}) has an unknown endpoint")
            if c not in EDGE_COLORS:
                raise ValueError(f"bad edge color {c!r}")
            canon.add(_canon_edge(u, v, c))
        return cls(
            rank,
            tuple(sorted(vertices.items(), key=lambda it: _label_key(it[0]))),
            tuple(sorted(canon, key=lambda e: (_label_key(e[0]), _label_key(e[1]), e[2]))),
        )

    # -- accessors ----------------------------------------------------------

    def vertices(self) -> tuple[Direction, ...]:
        return tuple(v for v, _ in self.vertex_colors)

    def color_of(self, v: Direction) -> str:
        for u, c in self.vertex_colors:
            if u == v:
                return c
        raise KeyError(v)

    def has_vertex(self, v: Direction) -> bool:
        return any(u == v for u, _ in self.vertex_colors)

    def has_edge(self, u: Direction, v: Direction, color: str | None = None) -> bool:
        a, b = turn(u, v)
        return any(
            e[0] == a and e[1] == b and (color is None or e[2] == color)
            for e in self.edges
        )

    def degree(self, v: Direction) -> int:
        return sum(1 for a, b, _ in self.edges if v in (a, b))

    # -- derived graphs ------------------------------------------------------

    def induced(self, keep: Iterable[Direction]) -> "ColoredPairLabeledGraph":
        keep = set(keep)
        return ColoredPairLabeledGraph.build(
            self.rank,
            {v: c for v, c in self.vertex_colors if v in keep},
            [e for e in self.edges if e[0] in keep and e[1] in keep],
        )

    def relabeled(self, perm: Mapping[Direction, Direction]) -> "ColoredPairLabeledGraph":
        """Apply an edge-pair-respecting relabeling (perm[-v] must be -perm[v])."""
        for v in perm:
            if -v in perm and perm[-v] != -perm[v]:
                raise ValueError("relabeling does not respect edge pairs")
        return ColoredPairLabeledGraph.build(
            self.rank,
            {perm.get(v, v): c for v, c in self.vertex_colors},
            [(perm.get(u, u), perm.get(v, v), c) for u, v, c in self.edges],
        )

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "vertices": [
                {"label": format_direction(v), "color": c} for v, c in self.vertex_colors
            ],
            "edges": [
                {"u": format_direction(u), "v": format_direction(v), "color": c}
                for u, v, c in self.edges
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "ColoredPairLabeledGraph":
        from .words import parse_direction

        rank = int(data["rank"])
        vertices = {
            parse_direction(v["label"], rank): v.get("color", PURPLE)
            for v in data["vertices"]
        }
        edges = [
            (parse_direction(e["u"], rank), parse_direction(e["v"], rank), e.get("color", PURPLE))
            for e in data["edges"]
        ]
        return cls.build(rank, vertices, edges)


def _label_key(v: Direction) -> tuple[int, int]:
    return (abs(v), 0 if v > 0 else 1)


# ---------------------------------------------------------------------------
# connectivity


def connected_components(g: ColoredPairLabeledGraph) -> tuple[frozenset[Direction], ...]:
    """Components as label sets, sorted for deterministic output."""
    adj: dict[Direction, set[Direction]] = {v: set() for v in g.vertices()}
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen: set[Direction] = set()
    comps = []
    for v in g.vertices():
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return tuple(sorted(comps, key=lambda c: min(_label_key(v) for v in c)))


def is_connected(g: ColoredPairLabeledGraph) -> bool:
    return len(connected_components(g)) == 1


def cut_vertices(g: ColoredPairLabeledGraph) -> frozenset[Direction]:
    """Articulation points (computed per component), by iterative lowlink DFS."""
    nbrs: dict[Direction, set[Direction]] = {v: set() for v in g.vertices()}
    for u, v, _ in g.edges:
        if u != v:
            nbrs[u].add(v)
            nbrs[v].add(u)
    adj = {v: sorted(ws, key=_label_key) for v, ws in nbrs.items()}
    index: dict[Direction, int] = {}
    low: dict[Direction, int] = {}
    cuts: set[Direction] = set()
    counter = itertools.count()
    for root in g.vertices():
        if root in index:
            continue
        root_children = 0
        stack: list[tuple[Direction, Direction | None, int]] = [(root, None, 0)]
        while stack:
            v, parent, i = stack.pop()
            if i == 0:
                index[v] = low[v] = next(counter)
            recursed = False
            for j in range(i, len(adj[v])):
                w = adj[v][j]
                if w not in index:
                    stack.append((v, parent, j + 1))
                    stack.append((w, v, 0))
                    recursed = True
                    break
                elif w != parent:
                    low[v] = min(low[v], index[w])
            if not recursed and parent is not None:
                low[parent] = min(low[parent], low[v])
                if parent == root:
                    root_children += 1
                elif low[v] >= index[parent]:
                    cuts.add(parent)
        if root_children > 1:
            cuts.add(root)
    return frozenset(cuts)


def strongly_connected_components(nodes: Sequence, successors: Callable) -> list[frozenset]:
    """Tarjan's algorithm, iterative, on an arbitrary node set."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list[frozenset] = []
    counter = itertools.count()
    for start in nodes:
        if start in index:
            continue
        work = [(start, iter(successors(start)))]
        index[start] = low[start] = next(counter)
        stack.append(start)
        on_stack.add(start)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors(w))))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                sccs.append(frozenset(comp))
    return sccs


# ---------------------------------------------------------------------------
# isomorphism


def is_isomorphic(
    g1: ColoredPairLabeledGraph,
    g2: ColoredPairLabeledGraph,
    respect_labels: bool = False,
    respect_colors: bool = True,
) -> tuple[bool, dict[Direction, Direction] | None]:
    """Ornamentation-preserving isomorphism test with a witness map.

    Bijections always respect the edge-pairing of labels (v and bar(v) travel
    together).  With respect_labels the only candidate is the identity.
    """
    v1, v2 = g1.vertices(), g2.vertices()
    if len(v1) != len(v2) or len(g1.edges) != len(g2.edges):
        return False, None
    if respect_labels:
        ident = {v: v for v in v1}
        if _is_witness(g1, g2, ident, respect_colors):
            return True, ident
        return False, None

    def signature(g: ColoredPairLabeledGraph, v: Direction) -> tuple:
        incident = sorted(c for a, b, c in g.edges if v in (a, b)) if respect_colors else [
            "e" for a, b, _ in g.edges if v in (a, b)
        ]
        color = g.color_of(v) if respect_colors else ""
        partner = g.has_vertex(-v)
        return (color, tuple(incident), partner)

    sig2: dict[tuple, list[Direction]] = {}
    for v in v2:
        sig2.setdefault(signature(g2, v), []).append(v)
    order = sorted(v1, key=lambda v: (len(sig2.get(signature(g1, v), ())), _label_key(v)))

    mapping: dict[Direction, Direction] = {}
    used: set[Direction] = set()

    def backtrack(i: int) -> bool:
        if i == len(order):
            return _is_witness(g1, g2, mapping, respect_colors)
        v = order[i]
        if v in mapping:
            return backtrack(i + 1)
        for w in sig2.get(signature(g1, v), ()):  # degree/color pruning
            if w in used:
                continue
            forced = {v: w}
            if g1.has_vertex(-v):
                if not g2.has_vertex(-w) or -w in used:
                    continue
                forced[-v] = -w
            elif g2.has_vertex(-w):
                continue
            ok = True
            for a, b in forced.items():
                if signature(g1, a) != signature(g2, b):
                    ok = False
                    break
                for u1, u2 in mapping.items():
                    if g1.has_edge(a, u1) != g2.has_edge(b, u2):
                        ok = False
                        break
                    if respect_colors:
                        for c in EDGE_COLORS:
                            if g1.has_edge(a, u1, c) != g2.has_edge(b, u2, c):
                                ok = False
                                break
                if not ok:
                    break
            if not ok:
                continue
            mapping.update(forced)
            used.update(forced.values())
            if backtrack(i + 1):
                return True
            for a in forced:
                used.discard(mapping.pop(a))
        return False

    if backtrack(0):
        return True, dict(mapping)
    return False, None


def _is_witness(
    g1: ColoredPairLabeledGraph,
    g2: ColoredPairLabeledGraph,
    f: Mapping[Direction, Direction],
    respect_colors: bool,
) -> bool:
    if set(f.keys()) != set(g1.vertices()) or set(f.values()) != set(g2.vertices()):
        return False
    if respect_colors and any(g1.color_of(v) != g2.color_of(f[v]) for v in f):
        return False
    e1 = {
        (_canon_edge(f[u], f[v], c if respect_colors else "e"))
        for u, v, c in g1.edges
    }
    e2 = {_canon_edge(u, v, c if respect_colors else "e") for u, v, c in g2.edges}
    return e1 == e2


# ---------------------------------------------------------------------------
# DOT serialization (sorted emission, so output is byte-stable)


def to_dot(g: ColoredPairLabeledGraph) -> str:
    lines = ["graph g {"]
    lines.append(f"  node [color={PURPLE}];")
    for v, c in g.vertex_colors:
        if c != PURPLE:
            lines.append(f'  "{format_direction(v)}" [color={c}];')
    for u, v, c in g.edges:
        lines.append(
            f'  "{format_direction(u)}" -- "{format_direction(v)}" [color={c}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
