import random
from fractions import Fraction

import pytest

from rosetrack.errors import Inconclusive, SpecError
from rosetrack.graphs import cut_vertices, is_connected, is_isomorphic
from rosetrack.ltt import build_ltt
from rosetrack.nielsen import certify_pnp_free
from rosetrack.synthesis import (
    GluedSide,
    GluingSpec,
    base_side,
    glue_graphs,
    normalize_achieved,
    pair_permutation,
    realize_glued,
    theorem_a_pipeline,
)
from rosetrack.words import turn

from helpers import base_decomposition

# the rank-3 + rank-3 glue along {X_1, X_2}: two 5-vertex lines identified at
# the three shared purple vertices (X_1 itself is dropped with the red edge),
# derived by hand from the normalized line 2, -3, -1, -2, 3
GLUED_RANK4_EDGES = {
    turn(-4, -1), turn(-4, 2), turn(-3, -1), turn(-3, 2),
    turn(-2, -1), turn(-2, 3), turn(-2, 4),
}


def two_sides():
    return GluingSpec(base_side(), base_side(), (1, 2))


# ---------------------------------------------------------------------------
# relabeling


def test_relabel_identity():
    s = base_side().structure
    assert s.relabeled({d: d for d in range(-3, 4) if d}) == s


def test_relabel_involution():
    s = base_side().structure
    swap = pair_permutation({2: 3, 3: 2}, 3)
    assert s.relabeled(swap).relabeled(swap) == s


def test_relabel_preserves_isomorphism_type():
    s = base_side().structure
    rng = random.Random(8)
    imgs = [1, 2, 3]
    rng.shuffle(imgs)
    perm = pair_permutation(
        {i: sign * img for i, img, sign in zip((1, 2, 3), imgs, (1, -1, 1))}, 3
    )
    ok, _ = is_isomorphic(s.relabeled(perm).as_graph(), s.as_graph())
    assert ok


def test_normalize_achieved_red_edge():
    side = base_side()
    assert side.structure.red_vertex == 1
    assert side.structure.red_edge == turn(1, 2)
    assert side.certificate.matches(side.decomposition)


def test_normalize_achieved_handles_reversed_red_vertex():
    # flip the orientation of the red vertex's pair; normalization must still
    # land the red vertex on +X_1
    flip = pair_permutation({2: -2}, 3)
    d = base_decomposition().powered(2).relabeled(flip)
    cert = certify_pnp_free(d)
    raw = build_ltt(d, cert)
    assert raw.red_vertex == -2
    side = normalize_achieved(d, cert)
    assert side.structure.red_vertex == 1
    assert side.structure.red_edge == turn(1, 2)
    combined, gcert = realize_glued(GluingSpec(side, base_side(), (1, 2)))
    assert gcert.ok, gcert.failures


# ---------------------------------------------------------------------------
# gluing graphs


def test_glue_rank3_rank3_gives_seven_vertex_graph():
    glued = glue_graphs(two_sides())
    assert len(glued.vertices()) == 7
    assert {turn(u, v) for u, v, _ in glued.edges} == GLUED_RANK4_EDGES
    assert is_connected(glued)


def test_glued_graph_has_cut_vertex_at_shared_labels():
    glued = glue_graphs(two_sides())
    cuts = cut_vertices(glued)
    assert cuts == frozenset({-1, -2})
    assert cuts & {-1, 2, -2}  # the glued labels


def test_full_overlap_glue_is_the_purple_graph():
    side = base_side()
    spec = GluingSpec(side, base_side(), (1, 2, 3))
    glued = glue_graphs(spec)
    assert spec.glued_rank == 3
    assert {turn(u, v) for u, v, _ in glued.edges} == side.structure.purple_edges
    assert len(glued.vertices()) == 5


def test_glue_requires_x1_x2():
    with pytest.raises(SpecError):
        glue_graphs(GluingSpec(base_side(), base_side(), (1, 3)))


def test_glue_rejects_unnormalized_side():
    raw = base_decomposition().powered(2)
    cert = certify_pnp_free(raw)
    crooked = GluedSide(raw, build_ltt(raw, cert), cert)
    with pytest.raises(SpecError):
        glue_graphs(GluingSpec(crooked, base_side(), (1, 2)))


def test_glue_rejects_stale_certificate():
    good = base_side()
    other = base_side()
    crooked = GluedSide(good.decomposition, good.structure, certify_pnp_free(
        base_decomposition().relabeled(pair_permutation({1: 2, 2: 1}, 3))
    ))
    with pytest.raises(SpecError):
        glue_graphs(GluingSpec(crooked, other, (1, 2)))


# ---------------------------------------------------------------------------
# realizing the glue


def test_realize_rank4():
    combined, cert = realize_glued(two_sides())
    assert cert.ok, cert.failures
    assert combined.rank == 4
    assert cert.rank == 4
    assert cert.cyclically_admissible
    assert cert.square_strictly_irreducible
    assert cert.turns_covered
    assert cert.train_track and cert.expanding and cert.irreducible
    assert cert.sandwich_expanding_irreducible
    assert cert.pnp_certificate is not None
    assert cert.iw_matches_glued_graph
    assert cert.glued_labels == (-1, 2, -2)
    # the realized structure is normalized, ready for the next glue
    assert cert.structure.red_vertex == 1
    assert cert.structure.red_edge == turn(1, 2)


def test_realized_iw_is_the_glued_graph():
    combined, cert = realize_glued(two_sides())
    from rosetrack.whitehead import ideal_whitehead_graph

    iw = ideal_whitehead_graph(combined, cert.pnp_certificate)
    assert {turn(u, v) for u, v, _ in iw.edges} == GLUED_RANK4_EDGES


def test_glued_graph_isomorphic_after_pair_relabeling():
    glued = glue_graphs(two_sides())
    rng = random.Random(17)
    for _ in range(5):
        imgs = list(range(1, 5))
        rng.shuffle(imgs)
        perm = pair_permutation(
            {i: rng.choice([1, -1]) * img for i, img in zip(range(1, 5), imgs)}, 4
        )
        keep = set(glued.vertices())
        relabeled = glued.relabeled({v: perm[v] for v in perm if v in keep or -v in keep})
        ok, witness = is_isomorphic(glued, relabeled)
        assert ok and witness is not None


# ---------------------------------------------------------------------------
# the pipeline


@pytest.mark.parametrize("rank", [3, 4, 5])
def test_pipeline_certificates(rank):
    res = theorem_a_pipeline(rank)
    assert res.ok
    assert res.iw_vertices == 2 * rank - 1
    assert res.iw_connected
    assert res.index_list == (Fraction(3, 2) - rank,)
    assert res.cut_vertices
    if rank > 3:
        assert res.cut_vertices & set(res.glued_labels)
    assert res.train_track and res.expanding and res.irreducible
    assert res.cyclically_admissible and res.prevention_sequence


def test_pipeline_rank_arithmetic():
    res = theorem_a_pipeline(5)
    # each glue adds a rank-3 side along two shared pairs: r -> r + 1
    assert res.rank == 5
    assert len(res.glue_certificates) == 2
    assert [c.rank for c in res.glue_certificates] == [4, 5]


def test_pipeline_rejects_low_rank():
    with pytest.raises(SpecError):
        theorem_a_pipeline(2)


def test_glue_refused_only_by_its_bounds_is_inconclusive():
    _, cert = realize_glued(two_sides(), max_len=1)
    assert not cert.ok
    assert cert.search_verdict == "inconclusive"
    assert cert.failures == ("Nielsen path search verdict: inconclusive",)
    assert cert.inconclusive
    _, cert = realize_glued(two_sides())
    assert cert.search_verdict == "none_legalized"
    assert cert.ok and not cert.inconclusive


@pytest.mark.parametrize("bounds", [{"max_len": 1}, {"max_passes": 1}])
def test_pipeline_certifies_its_seed_within_the_bounds(bounds):
    with pytest.raises(Inconclusive):
        theorem_a_pipeline(3, **bounds)


def test_pipeline_glue_refused_only_by_its_bounds_raises_inconclusive(monkeypatch):
    import rosetrack.synthesis as synthesis

    seed = base_side()
    monkeypatch.setattr(synthesis, "base_side", lambda *bounds: seed)
    with pytest.raises(Inconclusive, match="glue to rank 4 failed"):
        theorem_a_pipeline(4, max_len=1)


def test_full_overlap_realize_certifies_same_rank():
    spec = GluingSpec(base_side(), base_side(), (1, 2, 3))
    combined, cert = realize_glued(spec)
    assert cert.ok, cert.failures
    assert cert.rank == 3
    assert cert.iw_matches_glued_graph
    assert {turn(u, v) for u, v, _ in cert.glued_graph.edges} == base_side().structure.purple_edges
