"""Shared builders for the test suite."""

import random

from rosetrack.catalog import rank3_base
from rosetrack.errors import NotTrainTrack
from rosetrack.graphs import (
    BLACK,
    RED,
    PURPLE,
    ColoredPairLabeledGraph,
    connected_components,
    strongly_connected_components,
)
from rosetrack.words import (
    Decomposition,
    NielsenGenerator,
    admissible_pair,
    directions,
    identity_matrix,
    mat_mul,
    turn,
)


def base_decomposition() -> Decomposition:
    return rank3_base()


BASE_NINE = base_decomposition()


def random_word(rng: random.Random, rank: int, max_len: int):
    out = []
    for _ in range(rng.randrange(1, max_len + 1)):
        choices = [d for d in directions(rank) if not out or d != -out[-1]]
        out.append(rng.choice(choices))
    return tuple(out)


def random_generator(rng: random.Random, rank: int) -> NielsenGenerator:
    x = rng.choice(directions(rank))
    y = rng.choice([d for d in directions(rank) if d not in (x, -x)])
    return NielsenGenerator(rank, x, y)


def random_admissible(rng: random.Random, rank: int, length: int) -> Decomposition:
    """A random admissible (linearly chained) generator sequence."""
    steps = [random_generator(rng, rank)]
    while len(steps) < length:
        prev = steps[-1]
        all_d = directions(rank)
        if rng.random() < 0.5:
            x, y = prev.x, rng.choice([d for d in all_d if d not in (prev.x, -prev.x, -prev.y)])
        else:
            y = prev.x
            x = rng.choice([d for d in all_d if d not in (prev.x, -prev.x, -prev.y)])
        steps.append(NielsenGenerator(rank, x, y))
    return Decomposition(rank, tuple(steps))


def random_cyclically_admissible(rng: random.Random, rank: int, length: int) -> Decomposition:
    """A random cyclically admissible generator sequence: a walk over
    admissible pairs, redrawn until its last step chains to its first."""
    ds = directions(rank)
    generators = [NielsenGenerator(rank, x, y) for x in ds for y in ds if y not in (x, -x)]
    while True:
        steps = [rng.choice(generators)]
        while len(steps) < length:
            steps.append(rng.choice([g for g in generators if admissible_pair(steps[-1], g)]))
        if admissible_pair(steps[-1], steps[0]):
            return Decomposition(rank, tuple(steps))


# ---------------------------------------------------------------------------
# step-by-step oracles for the invariants Decomposition folds in one pass


def product_matrix(d: Decomposition) -> list[list[int]]:
    """The dense product of the per-generator transition matrices."""
    m = identity_matrix(d.rank)
    for n in d.steps:
        step = identity_matrix(d.rank)
        step[abs(n.y) - 1][abs(n.x) - 1] += 1
        m = mat_mul(step, m)
    return m


def stepwise_direction_map(d: Decomposition) -> dict:
    dmap = {v: v for v in directions(d.rank)}
    for n in d.steps:
        dmap = {v: n.map_direction(w) for v, w in dmap.items()}
    return dmap


def stepwise_limited_turns(d: Decomposition) -> frozenset:
    """The turn recursion W(g_{k,1}) = T(g_k) u D g_k(W(g_{k-1,1})), raising
    NotTrainTrack at the first step whose illegal turn is already taken."""
    turns: frozenset = frozenset()
    for k, n in enumerate(d.steps):
        if n.illegal_turn() in turns:
            raise NotTrainTrack(
                f"step {k + 1} ({n}) cancels inside an edge image; "
                "the composite is not a graph map"
            )
        turns = frozenset(n.map_turn(t) for t in turns) | {n.taken_turn()}
    return turns


def brute_force_cut_vertices(g) -> frozenset:
    """Delete-and-recount oracle; quadratic, used to cross-check cut_vertices."""
    base = len(connected_components(g))
    cuts = set()
    for v in g.vertices():
        h = g.induced(set(g.vertices()) - {v})
        if len(connected_components(h)) > base:
            cuts.add(v)
    return frozenset(cuts)


# ---------------------------------------------------------------------------
# graph-assembling oracles for the ltt axioms and birecurrence


def assembled_graph(s) -> ColoredPairLabeledGraph:
    """The structure's graph built in two steps: the colored subgraph, then
    the same graph again with the black edges added."""
    g = s.colored_graph()
    edges = list(g.edges) + [(t[0], t[1], BLACK) for t in s.black_edges()]
    return ColoredPairLabeledGraph.build(s.rank, dict(g.vertex_colors), edges)


def graph_validate_ltt(g: ColoredPairLabeledGraph) -> list[str]:
    """The ltt axioms checked on an assembled colored graph; returns the
    roman numerals of the violated axioms (empty means valid)."""
    violations: list[str] = []
    verts = g.vertices()
    rank = g.rank

    if any(g.degree(v) < 2 for v in verts) or len(verts) < 2 * rank:
        violations.append("I")
    if any(u == v for u, v, _ in g.edges):
        violations.append("II")

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
        violations.append("IV")

    colored_pairs = [(u, v) for u, v, c in g.edges if c != BLACK]
    if len(colored_pairs) != len(set(colored_pairs)):
        violations.append("V")

    purple_count = sum(1 for _, c in g.vertex_colors if c == PURPLE)
    red_edges = [(u, v) for u, v, c in g.edges if c == RED]
    if purple_count != 2 * rank - 1 or len(red_vertices) != 1 or len(red_edges) != 1:
        violations.append("VI")

    return violations


def smooth_dart_graph(edges) -> tuple[list, dict]:
    """Darts (u, v, color) for each traversal of each edge; a dart into v may
    continue along any edge at v of the opposite class (black vs colored)."""
    darts = []
    for u, v, c in edges:
        darts.append((u, v, c))
        darts.append((v, u, c))
    at: dict = {}
    for d in darts:
        at.setdefault(d[0], []).append(d)
    succ = {
        d: [e for e in at.get(d[1], ()) if (e[2] == BLACK) != (d[2] == BLACK)]
        for d in darts
    }
    return darts, succ


def graph_is_birecurrent(s, ignore_isolated_pairs: bool = False) -> bool:
    """Birecurrence by graph surgery: assemble the structure, drop the black
    edges of pairs with no colored edge, keep the vertices that still meet
    an edge, and look for a dart component covering every edge."""
    g = assembled_graph(s)
    if ignore_isolated_pairs:
        touched = set()
        for u, v, c in g.edges:
            if c != BLACK:
                touched.update((abs(u), abs(v)))
        dropped = {turn(i, -i) + (BLACK,) for i in range(1, g.rank + 1) if i not in touched}
        g = ColoredPairLabeledGraph.build(
            g.rank, dict(g.vertex_colors), [e for e in g.edges if e not in dropped]
        )
        g = g.induced([v for v in g.vertices() if g.degree(v) > 0])
    return _some_dart_component_covers(list(g.edges))


def edge_list_is_birecurrent(s, ignore_isolated_pairs: bool = False) -> bool:
    """Birecurrence on the raw edge list, with no graph assembly, so it also
    answers for labels outside the rank: the colored edges plus the black
    edges (of touched pairs only, with ignore_isolated_pairs)."""
    edges = s._colored_edges()
    touched = {abs(v) for u, w, _ in edges for v in (u, w)}
    edges += [
        (t[0], t[1], BLACK)
        for t in s.black_edges()
        if not ignore_isolated_pairs or abs(t[0]) in touched
    ]
    return _some_dart_component_covers(edges)


def _some_dart_component_covers(edges) -> bool:
    """Some strongly connected component of the dart graph holds a dart of
    every edge."""
    darts, succ = smooth_dart_graph(edges)
    if not darts:
        return False

    def canon(dart):
        u, v, c = dart
        return (u, v, c) if u <= v else (v, u, c)

    all_edges = {canon(d) for d in darts}
    return any(
        len(scc) >= 2 and {canon(d) for d in scc} == all_edges
        for scc in strongly_connected_components(darts, lambda d: succ[d])
    )
