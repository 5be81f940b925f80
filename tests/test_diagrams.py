import random

import pytest

from rosetrack import diagrams
from rosetrack.diagrams import (
    EXTENSION,
    SWITCH,
    GeneratingTriple,
    admissible_composition_check,
    build_id_diagram,
    check_representative_loop,
    enumerate_admissible_structures,
    extend_composition,
    extension,
    find_path,
    generator_of,
    loop_of_decomposition,
    loop_through,
    predecessors,
    switch,
)
from rosetrack.graphs import ColoredPairLabeledGraph
from rosetrack.ltt import LttStructure, build_ltt
from rosetrack.nielsen import certify_pnp_free
from rosetrack.words import turn

from helpers import base_decomposition

# regression values recorded on first computation: the strongly connected
# component of the diagram containing the base structure, for the 5-vertex
# line.  (24 size-4 and 24 size-8 components exist in the full diagram; the
# base structure's component has 8 nodes and 20 edges.)
LINE_COMPONENT_NODES = 8
LINE_COMPONENT_EDGES = 20
LINE_ADMISSIBLE_STRUCTURES = 336


def seed_structure():
    return build_ltt(base_decomposition().powered(2), base_cert())


def base_cert():
    return certify_pnp_free(base_decomposition())


def realizing_loop():
    return loop_of_decomposition(base_decomposition().powered(2), base_cert())


# ---------------------------------------------------------------------------
# moves


def test_generator_read_off_red_data():
    s = seed_structure()
    gen = generator_of(s)
    assert (gen.x, gen.y) == (2, -3)  # [b > c-b]


def test_moves_regenerate_the_decomposition_sources():
    loop = realizing_loop()
    for t in loop:
        move = extension if t.kind == EXTENSION else switch
        rebuilt = move(t.target, t.determining_edge)
        assert rebuilt is not None
        assert rebuilt.source == t.source
        assert rebuilt.generator == t.generator


def test_loop_mixes_both_move_kinds():
    kinds = {t.kind for t in realizing_loop()}
    assert kinds == {EXTENSION, SWITCH}


def test_induced_map_fixes_purple_labels_on_extensions():
    for t in realizing_loop():
        if t.kind != EXTENSION:
            continue
        gen = t.generator
        mapped = {
            turn(gen.map_direction(a), gen.map_direction(b))
            for a, b in t.source.purple_edges
        }
        assert mapped == t.target.purple_edges
        assert t.source.purple_edges == t.target.purple_edges


def test_switch_relabels_exactly_one_vertex():
    for t in realizing_loop():
        if t.kind != SWITCH:
            continue
        gen = t.generator
        assert t.source.red_vertex == gen.y
        assert t.target.red_vertex == gen.x
        rename = lambda d: gen.x if d == gen.y else d
        assert t.source.purple_edges == frozenset(
            turn(rename(a), rename(b)) for a, b in t.target.purple_edges
        )


def test_determining_edge_must_touch_doubled_direction():
    s = seed_structure()
    gen = generator_of(s)
    far = next(t for t in s.purple_edges if gen.y not in t)
    with pytest.raises(ValueError):
        extension(s, far)
    with pytest.raises(ValueError):
        switch(s, turn(1, 2))  # not a purple edge at all


def test_predecessors_of_seed():
    s = seed_structure()
    pre = predecessors(s)
    assert pre
    assert all(t.target == s for t in pre)
    assert all(not t.source.key() == () for t in pre)


# ---------------------------------------------------------------------------
# compositions


def test_realizing_loop_is_admissible_composition():
    assert admissible_composition_check(realizing_loop())


def test_broken_chain_rejected():
    loop = list(realizing_loop())
    loop[3], loop[7] = loop[7], loop[3]
    assert not admissible_composition_check(loop)


def test_incoherent_triple_rejected():
    loop = list(realizing_loop())
    t = loop[0]
    wrong = loop[1].source
    assert wrong != t.source
    loop[0] = GeneratingTriple(t.generator, wrong, t.target, t.kind, t.determining_edge)
    assert not admissible_composition_check(loop)


def test_composition_check_tests_each_structure_once(monkeypatch):
    tested = []
    is_birecurrent = diagrams.is_birecurrent
    monkeypatch.setattr(
        diagrams, "is_birecurrent", lambda s, **kw: tested.append(s) or is_birecurrent(s, **kw)
    )
    for loop, relax in ((realizing_loop(), False), (extend_composition(realizing_loop(), 4), True)):
        tested.clear()
        assert admissible_composition_check(loop, relax_isolated_pairs=relax)
        assert len(tested) == len(set(tested)) == len({t.target for t in loop} | {loop[0].source})


def test_extend_composition_preserves_admissibility():
    ext = extend_composition(realizing_loop(), 4)
    assert admissible_composition_check(ext, relax_isolated_pairs=True)
    assert all(t.generator.rank == 4 for t in ext)


def test_extend_composition_same_rank_is_identity():
    loop = realizing_loop()
    assert extend_composition(loop, 3) == loop


# ---------------------------------------------------------------------------
# the diagram


def test_component_of_seed_is_strongly_connected():
    diagram = build_id_diagram(seed_structure())
    assert not diagram.truncated
    comp = diagram.seed_component()
    assert len(comp) == LINE_COMPONENT_NODES
    assert len(diagram.component_edges(comp)) == LINE_COMPONENT_EDGES
    assert diagram.is_component_strongly_connected(comp)
    assert comp in diagram.retained_components()


def test_diagram_nodes_all_reach_seed():
    diagram = build_id_diagram(seed_structure())
    for s in diagram.nodes:
        assert find_path(diagram, s.key(), diagram.seed.key()) is not None


def test_diagram_stable_under_exploration_order():
    diagram = build_id_diagram(seed_structure())
    comp = diagram.seed_component()
    # rebuild from a different node of the same component
    other_key = sorted(comp)[len(comp) // 2]
    rebuilt = build_id_diagram(diagram.structure(other_key))
    assert rebuilt.seed_component() == comp
    assert {
        (t.source.key(), t.target.key()) for t in rebuilt.component_edges(comp)
    } == {(t.source.key(), t.target.key()) for t in diagram.component_edges(comp)}


def test_induced_map_condition_on_every_component_edge():
    # for each diagram edge, mapping the source's colored edges through the
    # generator's direction map lands exactly in the target's colored edges,
    # restricting to a bijection on the purple parts
    diagram = build_id_diagram(seed_structure())
    comp = diagram.seed_component()
    edges = diagram.component_edges(comp)
    assert len(edges) == LINE_COMPONENT_EDGES
    for t in edges:
        gen = t.generator
        mapped_purple = {
            turn(gen.map_direction(a), gen.map_direction(b))
            for a, b in t.source.purple_edges
        }
        assert mapped_purple == t.target.purple_edges
        assert len(mapped_purple) == len(t.source.purple_edges)
        red_image = turn(*(gen.map_direction(v) for v in t.source.red_edge))
        assert red_image == t.determining_edge
        assert red_image in t.target.purple_edges


def test_exhaustive_enumeration_cross_check():
    s = seed_structure()
    all_structs = enumerate_admissible_structures(s.purple_graph(), 3)
    assert len(all_structs) == LINE_ADMISSIBLE_STRUCTURES
    keys = {x.key() for x in all_structs}
    diagram = build_id_diagram(s)
    assert diagram.node_keys() <= keys


def test_graph_without_birecurrent_structure_has_no_nodes():
    # five isolated vertices: every labeling leaves valence-1 vertices
    shape = ColoredPairLabeledGraph.build(3, [1, -1, 2, -2, 3], [])
    assert enumerate_admissible_structures(shape, 3) == ()
    bad_seed = LttStructure(3, 2, turn(2, 3), frozenset())
    with pytest.raises(ValueError):
        build_id_diagram(bad_seed)


def test_diagram_rejects_non_birecurrent_seed():
    s = LttStructure(
        3, 2, turn(2, 3),
        frozenset({turn(3, -3), turn(-2, 3), turn(-2, -3), turn(1, -1)}),
    )
    with pytest.raises(ValueError):
        build_id_diagram(s)


# ---------------------------------------------------------------------------
# representative loops


def test_realizing_loop_certified():
    verdict = check_representative_loop(realizing_loop())
    assert verdict.ok, verdict.failures
    assert verdict.pnp_certificate is not None
    assert verdict.structure_returns  # G(g) = G_0


def test_loop_through_other_nodes_certified():
    diagram = build_id_diagram(seed_structure())
    loop = realizing_loop()
    rng = random.Random(2024)
    keys = sorted(diagram.seed_component())
    for key in rng.sample(keys, 3):
        lp = loop_through(diagram, key, loop)
        verdict = check_representative_loop(lp)
        assert verdict.ok, (key, verdict.failures)
        assert verdict.structure_returns


def test_non_closing_loop_rejected():
    loop = realizing_loop()[:-1]
    verdict = check_representative_loop(loop)
    assert not verdict.ok
    assert any("close" in f or "admissible" in f for f in verdict.failures)


def test_inadmissible_loop_rejected():
    loop = list(realizing_loop())
    loop[2], loop[10] = loop[10], loop[2]
    verdict = check_representative_loop(loop)
    assert not verdict.ok


def test_empty_loop_rejected():
    assert not check_representative_loop(()).ok
