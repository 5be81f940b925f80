import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosetrack import diagrams
from rosetrack.errors import MissingCertificate, NotTrainTrack
from rosetrack.graphs import BLACK, PURPLE, RED, ColoredPairLabeledGraph, is_isomorphic
from rosetrack.ltt import LttStructure, build_ltt, is_birecurrent, validate
from rosetrack.nielsen import PnpCertificate, certify_pnp_free, search_inps
from rosetrack.whitehead import stable_whitehead_graph
from rosetrack.words import Decomposition, NielsenGenerator, directions, turn

from helpers import (
    assembled_graph,
    base_decomposition,
    edge_list_is_birecurrent,
    graph_is_birecurrent,
    graph_validate_ltt,
    random_cyclically_admissible,
)


def base_cert():
    return certify_pnp_free(base_decomposition())


def built_structure():
    d = base_decomposition().powered(2)
    return build_ltt(d, base_cert())


# ---------------------------------------------------------------------------
# construction


def test_build_ltt_red_data_from_final_generator():
    s = built_structure()
    # final generator is [b > c-b], so d_u = b and the red edge is [b, c]
    assert s.red_vertex == 2
    assert s.red_edge == turn(2, 3)
    assert s.doubled_direction == -3


def test_build_ltt_purple_part_is_stable_graph():
    s = built_structure()
    sw = stable_whitehead_graph(base_decomposition().powered(2).as_map())
    assert s.purple_edges == frozenset(turn(u, v) for u, v, _ in sw.edges)
    ok, _ = is_isomorphic(s.purple_graph(), sw)
    assert ok


def test_build_ltt_square_equals_base():
    d = base_decomposition()
    cert = base_cert()
    assert build_ltt(d, cert) == build_ltt(d.powered(2), cert)


def test_build_ltt_requires_certificate():
    with pytest.raises(MissingCertificate):
        build_ltt(base_decomposition(), None)


def test_build_ltt_requires_a_pnp_free_certificate():
    d = base_decomposition()
    cert = base_cert()
    refuted = PnpCertificate(cert.rank, cert.cyclic_root, cert.passes_searched, cert.max_len, False)
    with pytest.raises(MissingCertificate, match="does not assert"):
        build_ltt(d, refuted)
    with pytest.raises(MissingCertificate, match="different decomposition"):
        build_ltt(d.extended(4), cert)


def test_build_ltt_rejects_empty_decomposition():
    d = Decomposition(3, ())
    cert = PnpCertificate(3, (), 1, 1)
    assert cert.matches(d)
    with pytest.raises(NotTrainTrack, match="unique nonperiodic direction"):
        build_ltt(d, cert)


def test_build_ltt_rejects_non_train_track():
    d = Decomposition(2, (NielsenGenerator(2, 1, 2), NielsenGenerator(2, 1, -2)))
    cert = base_cert()
    with pytest.raises((MissingCertificate, NotTrainTrack)):
        build_ltt(d, cert)


# ---------------------------------------------------------------------------
# axioms


def test_built_structure_is_valid():
    assert validate(built_structure()) == []


def test_two_red_edges_violate_axiom_vi():
    # only an assembled graph can carry a second red edge
    s = built_structure()
    g = s.as_graph()
    bad = ColoredPairLabeledGraph.build(
        g.rank,
        dict(g.vertex_colors),
        list(g.edges) + [(2, -3, RED)],
    )
    with pytest.raises(ValueError, match="VI"):
        LttStructure.from_graph(bad)


def test_isolated_purple_vertex_violates_axiom_i():
    s = built_structure()
    # drop every colored edge at c-, leaving it only its black edge
    assert -3 not in s.red_edge
    bad = LttStructure(
        s.rank, s.red_vertex, s.red_edge, frozenset(t for t in s.purple_edges if -3 not in t)
    )
    assert "I" in validate(bad)


def test_self_loop_violates_axiom_ii():
    s = LttStructure(2, -2, turn(-2, 1), frozenset({turn(1, 1), turn(-1, 2)}))
    assert "II" in validate(s)


def test_wrong_color_rules_violate_axiom_iv():
    # red edge with two purple endpoints, purple edge at the red vertex
    s = LttStructure(2, -2, turn(1, 2), frozenset({turn(-2, -1)}))
    assert validate(s) == ["IV"]
    s = LttStructure(2, -2, turn(-2, 1), frozenset({turn(-2, -1), turn(-1, 2)}))
    assert validate(s) == ["IV"]


def test_red_edge_also_purple_violates_axiom_v():
    s = built_structure()
    bad = LttStructure(s.rank, s.red_vertex, s.red_edge, s.purple_edges | {s.red_edge})
    assert "V" in validate(bad)


def test_out_of_range_label_raises():
    s = built_structure()
    with pytest.raises(ValueError, match="out of range"):
        validate(LttStructure(3, 4, turn(4, 1), s.purple_edges))
    with pytest.raises(ValueError, match="out of range"):
        validate(LttStructure(3, s.red_vertex, s.red_edge, s.purple_edges | {turn(0, 1)}))


def test_structure_canonicalizes_turns():
    s = built_structure()
    flipped = LttStructure(
        s.rank, s.red_vertex, s.red_edge[::-1], frozenset(t[::-1] for t in s.purple_edges)
    )
    assert flipped == s
    assert flipped.key() == s.key()


def test_from_graph_rejects_missing_black_edge():
    g = built_structure().as_graph()
    bad = ColoredPairLabeledGraph.build(
        g.rank, dict(g.vertex_colors), [e for e in g.edges if e != (-1, 1, BLACK)]
    )
    assert len(bad.edges) == len(g.edges) - 1
    with pytest.raises(ValueError):
        LttStructure.from_graph(bad)


def test_from_graph_rejects_wrong_vertex_color():
    g = built_structure().as_graph()
    # a second red vertex
    colors = dict(g.vertex_colors)
    colors[1] = RED
    with pytest.raises(ValueError, match="VI"):
        LttStructure.from_graph(ColoredPairLabeledGraph.build(g.rank, colors, g.edges))
    # the red vertex colored purple
    colors = dict(g.vertex_colors)
    colors[2] = PURPLE
    with pytest.raises(ValueError, match="VI"):
        LttStructure.from_graph(ColoredPairLabeledGraph.build(g.rank, colors, g.edges))


# ---------------------------------------------------------------------------
# birecurrence


def test_built_structure_is_birecurrent():
    assert is_birecurrent(built_structure())


def test_structures_along_the_decomposition_are_birecurrent():
    d = base_decomposition()
    cert = base_cert()
    for k in range(len(d.steps)):
        s = build_ltt(d.rotated(k), cert)
        assert validate(s) == []
        assert is_birecurrent(s), k


def test_disconnected_colored_part_is_not_birecurrent():
    # colored edges concentrated away from one pair: the smooth line cannot
    # cross the a pair, whose black edge only meets one colored edge end
    s = LttStructure(
        3,
        red_vertex=2,
        red_edge=turn(2, 3),
        purple_edges=frozenset({turn(3, -3), turn(-2, 3), turn(-2, -3)}),
    )
    assert not is_birecurrent(s)


def test_colored_edge_ending_outside_the_rank_is_not_birecurrent():
    # [c-, d-] and [d, b] put both directions of the out-of-range pair d on
    # colored edges; no black edge joins them, so no smooth line crosses
    # either edge, though every in-range arc lies in one component
    s = LttStructure(
        3,
        red_vertex=3,
        red_edge=turn(3, -1),
        purple_edges=frozenset({turn(1, -2), turn(-3, -4), turn(4, 2)}),
    )
    for ignore in (False, True):
        assert not is_birecurrent(s, ignore_isolated_pairs=ignore)


def test_birecurrence_invariant_under_relabeling():
    s = built_structure()
    perm = {1: 2, -1: -2, 2: 3, -2: -3, 3: 1, -3: -1}
    assert is_birecurrent(s.relabeled(perm)) == is_birecurrent(s)


def test_extension_birecurrent_modulo_isolated_pairs():
    s = built_structure().extended(4)
    assert not is_birecurrent(s)
    assert is_birecurrent(s, ignore_isolated_pairs=True)


def test_structure_round_trip_through_graph_json():
    s = built_structure()
    g = ColoredPairLabeledGraph.from_json(s.as_graph().to_json())
    assert LttStructure.from_graph(g) == s


def test_relabel_involution_and_isomorphism():
    s = built_structure()
    swap = {2: 3, -2: -3, 3: 2, -3: -2, 1: 1, -1: -1}
    assert s.relabeled(swap).relabeled(swap) == s
    ok, _ = is_isomorphic(s.relabeled(swap).as_graph(), s.as_graph())
    assert ok


# ---------------------------------------------------------------------------
# the field checks against the graph-assembling oracles


def assert_matches_oracles(s: LttStructure) -> None:
    try:
        expected = graph_validate_ltt(assembled_graph(s))
    except ValueError:
        with pytest.raises(ValueError):
            validate(s)
        for ignore in (False, True):
            assert is_birecurrent(s, ignore_isolated_pairs=ignore) == edge_list_is_birecurrent(
                s, ignore
            ), ignore
        return
    assert validate(s) == expected
    assert s.as_graph() == assembled_graph(s)
    for ignore in (False, True):
        assert is_birecurrent(s, ignore_isolated_pairs=ignore) == graph_is_birecurrent(s, ignore), ignore


def _built_structures():
    d = base_decomposition()
    cert = base_cert()
    return [build_ltt(d.rotated(k), cert) for k in range(len(d.steps))]


BUILT = _built_structures()


@st.composite
def structures(draw):
    """Ranks 2-4: hand-drawn fields (valid or not, loops, unsorted turns,
    now and then a label out of range), or a built rank-3 structure, either
    of them possibly extended by up to two pairs."""
    if draw(st.booleans()):
        s = draw(st.sampled_from(BUILT))
        perm_pairs = draw(st.permutations([1, 2, 3]))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=3, max_size=3))
        perm = {}
        for i, (j, e) in enumerate(zip(perm_pairs, signs), start=1):
            perm[i], perm[-i] = e * j, -e * j
        s = s.relabeled(perm)
        if draw(st.booleans()):
            drop = draw(st.sets(st.sampled_from(sorted(s.purple_edges)), max_size=2))
            s = LttStructure(s.rank, s.red_vertex, s.red_edge, s.purple_edges - drop)
    else:
        rank = draw(st.integers(2, 4))
        edge = st.tuples(st.integers(-rank, rank).filter(bool), st.integers(-rank, rank).filter(bool))
        if draw(st.integers(0, 9)) == 0:
            edge = st.tuples(st.integers(-rank - 1, rank + 1), st.integers(-rank - 1, rank + 1))
        red = draw(st.sampled_from(directions(rank)))
        red_edge = draw(st.one_of(
            st.builds(lambda w: (w, red), st.sampled_from(directions(rank))), edge
        ))
        purple = draw(st.lists(edge, max_size=3 * rank))
        s = LttStructure(rank, red, red_edge, frozenset(purple))
    extra = draw(st.integers(0, 2))
    return s.extended(s.rank + extra) if extra else s


@settings(max_examples=600, deadline=None)
@given(structures())
def test_validate_and_birecurrence_match_graph_oracles(s):
    assert_matches_oracles(s)


def test_enumeration_candidates_match_graph_oracles():
    # every candidate enumerate_admissible_structures tries on the rank-3 shape
    shape = built_structure().purple_graph()
    shape_vertices = shape.vertices()
    checked = 0
    for red in directions(3):
        labels = [d for d in directions(3) if d != red]
        for image in permutations(labels):
            assign = dict(zip(shape_vertices, image))
            purple = frozenset(turn(assign[u], assign[v]) for u, v, _ in shape.edges)
            for w in labels:
                if w != -red:
                    assert_matches_oracles(LttStructure(3, red, turn(red, w), purple))
                    checked += 1
    assert checked == 6 * 120 * 4


def certified_structures(rank: int, count: int, seed: int) -> list[LttStructure]:
    """Ltt structures of the first `count` certified random cyclically
    admissible sequences of the rank."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = random_cyclically_admissible(rng, rank, rng.randrange(6, 25))
        cert = search_inps(d).certificate()
        if cert is not None:
            out.append(build_ltt(d, cert))
    return out


def test_diagram_move_sources_match_graph_oracles(monkeypatch):
    # every candidate source extension and switch build while predecessors
    # closes the rank-3 seed and a few certified rank-4 structures
    built = []
    source = diagrams._source

    def recording(*args):
        s = source(*args)
        if s is not None:
            built.append(s)
        return s

    monkeypatch.setattr(diagrams, "_source", recording)
    diagrams.build_id_diagram(built_structure())
    for s in certified_structures(4, 3, seed=4):
        diagrams.build_id_diagram(s, node_budget=40)
    verdicts = {is_birecurrent(s) for s in built}
    assert len(built) > 500 and verdicts == {False, True}
    for s in built:
        assert_matches_oracles(s)
