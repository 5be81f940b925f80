import random
from fractions import Fraction

import pytest

from rosetrack.errors import MissingCertificate
from rosetrack.graphs import PURPLE, ColoredPairLabeledGraph, connected_components, is_connected
from rosetrack.nielsen import certify_pnp_free
from rosetrack.whitehead import (
    ideal_whitehead_graph,
    index_list,
    is_train_track,
    local_whitehead_graph,
    stable_whitehead_graph,
    turn_closure,
)
from rosetrack.words import (
    Decomposition,
    GraphMap,
    NielsenGenerator,
    taken_turns,
    turn,
)

from helpers import base_decomposition, random_admissible


def brute_force_closure(g: GraphMap, depth: int):
    """Oracle: union of turns taken by g^k(e) over all edges, k <= depth."""
    turns = set()
    for i in range(1, g.rank + 1):
        w = (i,)
        for _ in range(depth):
            w = g.apply(w)
            turns |= taken_turns(w)
    return turns


# ---------------------------------------------------------------------------
# turn closure


def test_closure_of_identity_is_empty():
    c = turn_closure(GraphMap.identity(3))
    assert c.turns == frozenset()


def test_closure_of_single_generator():
    # [b -> a-b]: the image turn {a,b} maps to {a,a-} and stabilizes
    g = NielsenGenerator(3, 2, -1).as_map()
    c = turn_closure(g)
    assert c.turns == frozenset({turn(1, 2), turn(1, -1)})
    assert c.generation_of(turn(1, 2)) == 1
    assert c.generation_of(turn(1, -1)) == 2
    assert c.turns >= brute_force_closure(g, 4)


def test_closure_of_composite_against_brute_force():
    g = base_decomposition().as_map()
    c = turn_closure(g)
    assert c.nondegenerate() == frozenset(
        {turn(-1, 3), turn(-3, -2), turn(2, 3), turn(-3, 1), turn(-1, -2)}
    )
    assert brute_force_closure(g, 5) == c.turns


def test_composite_closure_excludes_its_illegal_turn():
    # {a-, b} is the unique illegal turn of the composite, so a train track
    # map never takes it; only candidate Nielsen paths do
    g = base_decomposition().as_map()
    assert turn(-1, 2) not in turn_closure(g).turns


def test_closure_of_decomposition_matches_map():
    d = base_decomposition()
    assert turn_closure(d).turns == turn_closure(d.as_map()).turns


def test_closure_stabilizes_quickly():
    d = base_decomposition()
    c = turn_closure(d)
    bound = 2 * d.rank * (2 * d.rank - 1) // 2
    assert all(gen <= bound for _, gen in c.generations)


# ---------------------------------------------------------------------------
# the four Whitehead graphs


def test_local_whitehead_graph_vertices():
    g = base_decomposition().as_map()
    lw = local_whitehead_graph(g)
    assert len(lw.vertices()) == 6
    assert lw.color_of(2) == "red"
    assert all(lw.color_of(v) == PURPLE for v in lw.vertices() if v != 2)


def test_stable_graph_of_all_periodic_map():
    # every direction of the identity is periodic, so nothing is dropped
    g = GraphMap.identity(3)
    assert stable_whitehead_graph(g) == local_whitehead_graph(g)


def test_stable_graph_drops_nonperiodic_direction():
    g = NielsenGenerator(3, 2, -1).as_map()
    sw = stable_whitehead_graph(g)
    assert 2 not in sw.vertices()
    assert len(sw.vertices()) == 5
    assert sw.has_edge(1, -1)


def test_stable_graph_of_composite_is_the_line():
    sw = stable_whitehead_graph(base_decomposition().as_map())
    assert len(sw.vertices()) == 5
    edges = {(u, v) for u, v, _ in sw.edges}
    assert edges == {turn(-1, 3), turn(-1, -2), turn(-2, -3), turn(-3, 1)}
    assert is_connected(sw)
    degs = sorted(sw.degree(v) for v in sw.vertices())
    assert degs == [1, 1, 2, 2, 2]  # a path: the line on 5 vertices


def test_limited_graph_of_single_generator():
    d = Decomposition(3, (NielsenGenerator(3, 2, -1),))
    assert d.limited_turns() == frozenset({turn(1, 2)})


def test_limited_graph_recursion_matches_direct():
    g1 = NielsenGenerator.from_append(3, 1, -2)
    g2 = NielsenGenerator(3, 2, -1)
    d = Decomposition(3, (g1, g2))
    assert d.limited_turns() == d.as_map().limited_turns()


def test_limited_graph_of_composite_matches_image_words():
    d = base_decomposition()
    g = d.as_map()
    direct = frozenset().union(*(taken_turns(w) for w in g.images))
    assert d.limited_turns() == direct


def test_limited_recursion_on_random_admissible_corpus():
    rng = random.Random(42)
    for _ in range(100):
        rank = rng.choice([2, 3, 4])
        d = random_admissible(rng, rank, rng.randrange(1, 13))
        assert d.limited_turns() == d.as_map().limited_turns()


def test_limited_subset_of_local():
    d = base_decomposition()
    assert d.limited_turns() <= turn_closure(d).turns


# ---------------------------------------------------------------------------
# train track predicate


def test_composite_is_train_track():
    assert is_train_track(base_decomposition())
    assert is_train_track(base_decomposition().as_map())


def test_identity_is_train_track_vacuously():
    assert is_train_track(GraphMap.identity(3))


def test_cancelling_factorization_is_not_train_track():
    a = NielsenGenerator(2, 1, 2)    # [a -> ba]
    b = NielsenGenerator(2, 1, -2)   # [a -> b-a]
    d = Decomposition(2, (a, b))
    assert not is_train_track(d)
    # the reduced composite map itself collapses to the identity
    assert d.as_map() == GraphMap.identity(2)


# ---------------------------------------------------------------------------
# ideal Whitehead graph and index list


def test_ideal_whitehead_graph_requires_certificate():
    d = base_decomposition()
    with pytest.raises(MissingCertificate):
        ideal_whitehead_graph(d, None)


def test_ideal_whitehead_graph_rejects_foreign_certificate():
    d = base_decomposition()
    swap = {1: 3, -1: -3, 3: 1, -3: -1, 2: 2, -2: -2}
    other = certify_pnp_free(d.relabeled(swap))
    with pytest.raises(MissingCertificate):
        ideal_whitehead_graph(d, other)


def test_ideal_whitehead_graph_of_the_square():
    d = base_decomposition().powered(2)
    cert = certify_pnp_free(d)
    iw = ideal_whitehead_graph(d, cert)
    assert len(iw.vertices()) == 5
    assert is_connected(iw)
    assert index_list(iw) == (Fraction(-3, 2),)


def test_ideal_whitehead_graph_not_train_track():
    a = NielsenGenerator(2, 1, 2)
    b = NielsenGenerator(2, 1, -2)
    d = Decomposition(2, (a, b))
    cert = certify_pnp_free(base_decomposition())
    with pytest.raises(MissingCertificate):
        # certificate is for a different sequence, rejected before anything else
        ideal_whitehead_graph(d, cert)


def test_index_list_formula():
    two_comps = ColoredPairLabeledGraph.build(
        3,
        [1, -1, 2, -2, 3],
        [(1, -1, PURPLE), (2, -2, PURPLE), (-2, 3, PURPLE)],
    )
    assert index_list(two_comps) == (Fraction(-1, 2), Fraction(0, 1))
    assert len(connected_components(two_comps)) == 2


def test_certificate_covers_rotations_and_powers():
    d = base_decomposition()
    cert = certify_pnp_free(d)
    assert cert.matches(d.powered(2))
    assert cert.matches(d.rotated(4))
    assert cert.matches(d.powered(2).rotated(7))
