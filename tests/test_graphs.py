import random

import pytest

from rosetrack.graphs import (
    BLACK,
    PURPLE,
    RED,
    ColoredPairLabeledGraph,
    connected_components,
    cut_vertices,
    is_connected,
    is_isomorphic,
    strongly_connected_components,
    to_dot,
)

from helpers import brute_force_cut_vertices


def path_graph(labels, rank):
    return ColoredPairLabeledGraph.build(
        rank,
        {v: PURPLE for v in labels},
        [(labels[i], labels[i + 1], PURPLE) for i in range(len(labels) - 1)],
    )


def star_graph(center, leaves, rank):
    return ColoredPairLabeledGraph.build(
        rank,
        {center: PURPLE, **{v: PURPLE for v in leaves}},
        [(center, v, PURPLE) for v in leaves],
    )


def random_pair_graph(rng, rank, max_vertices=10):
    labels = [d for i in range(1, rank + 1) for d in (i, -i)]
    rng.shuffle(labels)
    n = rng.randrange(2, min(max_vertices, len(labels)) + 1)
    verts = labels[:n]
    edges = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            if rng.random() < 0.35:
                edges.append((verts[i], verts[j], PURPLE))
    return ColoredPairLabeledGraph.build(rank, {v: PURPLE for v in verts}, edges)


# ---------------------------------------------------------------------------
# isomorphism


def test_graph_isomorphic_to_itself():
    g = path_graph([1, -1, 2, -2, 3], 3)
    ok, witness = is_isomorphic(g, g)
    assert ok
    assert witness is not None
    assert all(witness[v] in g.vertices() for v in g.vertices())


def test_path_not_isomorphic_to_star():
    p = path_graph([1, -1, 2, -2, 3], 3)
    s = star_graph(1, [-1, 2, -2, 3], 3)
    ok, witness = is_isomorphic(p, s)
    assert not ok and witness is None


def test_isomorphic_after_pair_permutation():
    rng = random.Random(13)
    g = ColoredPairLabeledGraph.build(
        4,
        [1, -1, 2, -2, 3, -3, 4],
        [(1, -2, PURPLE), (-2, 3, PURPLE), (3, -1, PURPLE), (-1, 2, PURPLE),
         (2, -3, PURPLE), (-3, 4, PURPLE), (4, 1, PURPLE)],
    )
    for _ in range(5):
        imgs = list(range(1, 5))
        rng.shuffle(imgs)
        perm = {}
        for i, img in zip(range(1, 5), imgs):
            sign = rng.choice([1, -1])
            perm[i] = sign * img
            perm[-i] = -sign * img
        h = g.relabeled(perm)
        ok, witness = is_isomorphic(g, h)
        assert ok
        for u, v, c in g.edges:
            assert h.has_edge(witness[u], witness[v], c)


def test_label_respecting_isomorphism_is_equality():
    g = path_graph([1, -1, 2], 3)
    h = path_graph([2, -2, 1], 3)
    assert is_isomorphic(g, g, respect_labels=True)[0]
    assert not is_isomorphic(g, h, respect_labels=True)[0]
    assert is_isomorphic(g, h)[0]


def test_color_respecting_isomorphism():
    g = ColoredPairLabeledGraph.build(2, {1: RED, -1: PURPLE}, [(1, -1, RED)])
    h = ColoredPairLabeledGraph.build(2, {2: RED, -2: PURPLE}, [(2, -2, RED)])
    k = ColoredPairLabeledGraph.build(2, {2: PURPLE, -2: PURPLE}, [(2, -2, PURPLE)])
    assert is_isomorphic(g, h)[0]
    assert not is_isomorphic(g, k)[0]
    assert is_isomorphic(g, k, respect_colors=False)[0]


def test_isomorphism_equivalence_relation_and_witness_composition():
    rng = random.Random(99)
    for _ in range(10):
        g = random_pair_graph(rng, 4)
        perm = {i: i for i in range(1, 5)} | {-i: -i for i in range(1, 5)}
        # symmetric + transitive via witnesses
        h = g.relabeled({1: 2, -1: -2, 2: 1, -2: -1})
        ok_gh, f = is_isomorphic(g, h)
        ok_hg, finv = is_isomorphic(h, g)
        assert ok_gh == ok_hg
        if ok_gh:
            comp = {v: finv[f[v]] for v in g.vertices()}
            ok_gg, _ = is_isomorphic(g, g.relabeled(perm))
            assert ok_gg
            e1 = {frozenset((comp[u], comp[v])) for u, v, _ in g.edges}
            e2 = {frozenset((u, v)) for u, v, _ in g.edges}
            assert e1 == e2


# ---------------------------------------------------------------------------
# cut vertices


def test_cut_vertices_of_path():
    g = path_graph([1, -1, 2, -2, 3], 3)
    assert cut_vertices(g) == frozenset({-1, 2, -2})


def test_cut_vertices_of_complete_graph():
    verts = [1, -1, 2, -2, 3]
    edges = [
        (verts[i], verts[j], PURPLE)
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
    ]
    g = ColoredPairLabeledGraph.build(3, {v: PURPLE for v in verts}, edges)
    assert cut_vertices(g) == frozenset()


def test_cut_vertices_match_brute_force():
    rng = random.Random(5)
    for _ in range(120):
        g = random_pair_graph(rng, 5)
        assert cut_vertices(g) == brute_force_cut_vertices(g), g


# ---------------------------------------------------------------------------
# components, SCC


def test_components_empty_graph():
    g = ColoredPairLabeledGraph.build(3, {}, [])
    assert connected_components(g) == ()


def test_components_two_pieces():
    g = ColoredPairLabeledGraph.build(
        3, [1, -1, 2, -2, 3], [(1, -1, PURPLE), (2, -2, PURPLE)]
    )
    comps = connected_components(g)
    assert len(comps) == 3
    assert frozenset({1, -1}) in comps
    assert frozenset({3}) in comps
    assert not is_connected(g)


def test_strongly_connected_components():
    succ = {1: [2], 2: [3], 3: [1], 4: [1, 5], 5: []}
    sccs = strongly_connected_components([1, 2, 3, 4, 5], lambda v: succ[v])
    assert frozenset({1, 2, 3}) in sccs
    assert frozenset({4}) in sccs
    assert frozenset({5}) in sccs


# ---------------------------------------------------------------------------
# DOT emission


def test_to_dot_one_edge_graph_body():
    g = ColoredPairLabeledGraph.build(2, [1, 2], [(1, 2, PURPLE)])
    text = to_dot(g)
    body = text.splitlines()[1:-1]
    assert body == ['  node [color=purple];', '  "a" -- "b" [color=purple];']


def test_to_dot_deterministic_and_sorted():
    g = ColoredPairLabeledGraph.build(
        3,
        {3: PURPLE, 1: PURPLE, -2: RED},
        [(3, -2, RED), (1, 3, PURPLE)],
    )
    assert to_dot(g) == to_dot(g)
    lines = to_dot(g).splitlines()
    assert lines[2] == '  "b-" [color=red];'
    assert lines.index('  "a" -- "c" [color=purple];') < lines.index(
        '  "b-" -- "c" [color=red];'
    )


def test_json_round_trip():
    g = ColoredPairLabeledGraph.build(
        3, {1: PURPLE, -2: RED, 3: PURPLE}, [(1, -2, RED), (1, 3, PURPLE), (1, -1, BLACK)][:2]
    )
    assert ColoredPairLabeledGraph.from_json(g.to_json()) == g


def test_relabel_requires_pair_respecting():
    g = path_graph([1, -1, 2], 3)
    with pytest.raises(ValueError):
        g.relabeled({1: 2, -1: 3})


# ---------------------------------------------------------------------------
# networkx as an independent oracle (test-only; the runtime stays stdlib-only)


def random_colored_graph(rng, rank, max_vertices=8):
    labels = [d for i in range(1, rank + 1) for d in (i, -i)]
    rng.shuffle(labels)
    verts = labels[: rng.randrange(1, min(max_vertices, len(labels)) + 1)]
    edges = [
        (u, v, rng.choice((BLACK, RED, PURPLE)))
        for i, u in enumerate(verts)
        for v in verts[i + 1:]
        if rng.random() < 0.3
    ]
    return ColoredPairLabeledGraph.build(rank, {v: rng.choice((PURPLE, RED)) for v in verts}, edges)


def random_pair_permutation(rng, rank):
    images = list(range(1, rank + 1))
    rng.shuffle(images)
    perm = {}
    for i, img in zip(range(1, rank + 1), images):
        img *= rng.choice((1, -1))
        perm[i], perm[-i] = img, -img
    return perm


def to_networkx(nx, g):
    """Vertex colors as node data; each vertex pair carries the set of its
    edge colors plus 'pair' when it is an edge pair {v, bar(v)}."""
    h = nx.Graph()
    for v in g.vertices():
        h.add_node(v, color=g.color_of(v))
    kinds = {}
    for u, v, c in g.edges:
        kinds.setdefault(frozenset((u, v)), set()).add(c)
    for v in g.vertices():
        if v > 0 and g.has_vertex(-v):
            kinds.setdefault(frozenset((v, -v)), set()).add("pair")
    for pair, ks in kinds.items():
        h.add_edge(*pair, kinds=frozenset(ks))
    return h


def test_cut_vertices_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    for _ in range(200):
        g = random_pair_graph(rng, rng.choice([3, 4, 5]))
        h = nx.Graph()
        h.add_nodes_from(g.vertices())
        h.add_edges_from((u, v) for u, v, _ in g.edges)
        assert cut_vertices(g) == frozenset(nx.articulation_points(h))


def test_strongly_connected_components_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randrange(1, 12)
        density = rng.random() * 0.4
        succ = {v: [w for w in range(n) if rng.random() < density] for v in range(n)}
        h = nx.DiGraph()
        h.add_nodes_from(range(n))
        h.add_edges_from((v, w) for v, ws in succ.items() for w in ws)
        ours = strongly_connected_components(list(range(n)), succ.__getitem__)
        assert sorted(map(sorted, ours)) == sorted(map(sorted, nx.strongly_connected_components(h)))


def test_is_isomorphic_against_networkx():
    nx = pytest.importorskip("networkx")
    iso = nx.algorithms.isomorphism
    rng = random.Random(41)
    answers = set()
    for _ in range(150):
        rank = rng.choice([2, 3, 4])
        g = random_colored_graph(rng, rank)
        h = g.relabeled(random_pair_permutation(rng, rank))
        if h.edges and rng.random() < 0.5:
            # recolor one edge: sometimes still isomorphic, usually not
            u, v, c = h.edges[rng.randrange(len(h.edges))]
            h = ColoredPairLabeledGraph.build(
                rank,
                dict(h.vertex_colors),
                [e for e in h.edges if e != (u, v, c)] + [(u, v, rng.choice((BLACK, RED, PURPLE)))],
            )
        ok, witness = is_isomorphic(g, h)
        expected = nx.is_isomorphic(
            to_networkx(nx, g),
            to_networkx(nx, h),
            node_match=iso.categorical_node_match("color", None),
            edge_match=iso.categorical_edge_match("kinds", None),
        )
        assert ok == expected, (g, h)
        if ok:
            assert all(witness[-v] == -witness[v] for v in witness if -v in witness)
        answers.add(ok)
    assert answers == {True, False}
