"""Acceptance suite: every criterion at its stated budget, one line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Time limits are wall-clock budgets for the operation itself (best of three
runs for the sub-millisecond ones, so interpreter warmup is not measured).
"""

import random
import time
from fractions import Fraction

from rosetrack.catalog import rank3_base
from rosetrack.diagrams import (
    build_id_diagram,
    check_representative_loop,
    loop_of_decomposition,
    loop_through,
)
from rosetrack.graphs import cut_vertices, is_connected
from rosetrack.ltt import build_ltt, is_birecurrent, validate
from rosetrack.nielsen import NONE_LEGALIZED, certify_pnp_free, search_inps
from rosetrack.synthesis import theorem_a_pipeline
from rosetrack.whitehead import (
    ideal_whitehead_graph,
    index_list,
    is_train_track,
)
from rosetrack.words import (
    Decomposition,
    NielsenGenerator,
    format_word,
    is_cyclically_admissible,
    is_expanding,
    is_strictly_irreducible,
    parse_word,
    turn,
)

from helpers import brute_force_cut_vertices, random_admissible
from test_graphs import random_pair_graph

BASE = rank3_base()


def report(number: int, label: str, elapsed: float, budget: float) -> None:
    print(f"criterion {number}: PASS ({elapsed * 1000:.2f} ms <= {budget * 1000:.0f} ms) {label}")
    assert elapsed <= budget, f"criterion {number} exceeded its {budget}s budget"


def best_of(n: int, fn):
    best = float("inf")
    result = None
    for _ in range(n):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_criterion_1_composition_identity():
    g, elapsed = best_of(3, BASE.as_map)
    assert format_word(g.images[0]) == "acb-cab-cacacb-ca"
    assert format_word(g.images[1]) == "a-c-bc-a-c-a-c-b"
    assert format_word(g.images[2]) == "cacb-cab-cac"
    report(1, "composition identity", elapsed, 0.001)


def test_criterion_2_intermediate_traces():
    def traces():
        return (
            BASE.segment_apply(parse_word("ba-", 3), 2),
            BASE.segment_apply(parse_word("a-c-", 3), 3),
            BASE.segment_apply(parse_word("ba-c-", 3), 5),
        )

    (t21, t31, t51), elapsed = best_of(3, traces)
    assert format_word(t21) == "a-ba-ba-"
    assert format_word(t31) == "a-ba-bc-"
    assert format_word(t51) == "a-c-ba-c-ba-c-ba-c-"
    report(2, "intermediate traces", elapsed, 0.001)


def test_criterion_3_admissibility():
    broken = Decomposition(
        2,
        (NielsenGenerator.from_append(2, 1, 2), NielsenGenerator.from_append(2, 1, -2)),
    )

    def check():
        return is_cyclically_admissible(BASE), is_cyclically_admissible(broken)

    (good, bad), elapsed = best_of(3, check)
    assert good and not bad
    report(3, "cyclic admissibility", elapsed, 0.001)


def test_criterion_4_train_track_irreducible_expanding():
    def check():
        return (
            is_train_track(BASE),
            is_expanding(BASE),
            is_strictly_irreducible(BASE),
        )

    flags, elapsed = best_of(3, check)
    assert all(flags)
    report(4, "train track, expanding, strictly irreducible", elapsed, 0.010)


def test_criterion_5_prevention_certificate():
    t0 = time.perf_counter()
    outcome = search_inps(BASE.powered(2))
    elapsed = time.perf_counter() - t0
    assert outcome.verdict == NONE_LEGALIZED
    assert all(rec.death_step is not None for rec in outcome.trace)
    assert all(rec.legalized for rec in outcome.trace)
    assert all(rec.death_step <= 18 for rec in outcome.trace)  # one pass
    by_ext = {
        tuple((side, d) for side, d, _ in rec.extensions): rec for rec in outcome.trace
    }
    key = (("a", -1), ("u", -3), ("a", -3), ("u", 2))
    assert key in by_ext, "the worked branch (a-, c-, c-, b) was not explored"
    rec = by_ext[key]
    assert rec.death_step == 7
    assert rec.side_a == parse_word("ba-c-", 3)
    assert rec.side_u == parse_word("a-c-b", 3)
    assert rec.death_turn == turn(-1, 2)
    report(5, "prevention certificate with worked branch dying at g_7", elapsed, 1.0)


def test_criterion_6_rank3_invariants():
    t0 = time.perf_counter()
    cert = certify_pnp_free(BASE)
    iw = ideal_whitehead_graph(BASE.powered(2), cert)
    elapsed = time.perf_counter() - t0
    assert len(iw.vertices()) == 5
    assert is_connected(iw)
    assert index_list(iw) == (Fraction(-3, 2),)
    report(6, "rank-3 ideal Whitehead graph and index list", elapsed, 1.0)


def test_criteria_7_and_8_id_diagram_and_closing_identity():
    t0 = time.perf_counter()
    cert = certify_pnp_free(BASE)
    seed = build_ltt(BASE.powered(2), cert)
    diagram = build_id_diagram(seed)
    component = diagram.seed_component()
    assert component, "seed component is empty"
    assert diagram.is_component_strongly_connected(component)
    # regression values recorded on first computation
    assert len(component) == 8
    assert len(diagram.component_edges(component)) == 20

    loop = loop_of_decomposition(BASE.powered(2), cert)
    verdicts = [check_representative_loop(loop)]
    rng = random.Random(2024)
    for key in rng.sample(sorted(component), 3):
        verdicts.append(check_representative_loop(loop_through(diagram, key, loop)))
    elapsed = time.perf_counter() - t0
    for v in verdicts:
        assert v.ok, v.failures
        # criterion 8: the closing identity G(g) = G_0, exactly
        assert v.structure_returns
    report(7, "diagram component (8 nodes, 20 edges) and 4 certified loops", elapsed, 60.0)
    report(8, "G(g) = G_0 for every certified loop", 0.0, 60.0)


def test_criterion_9_pipeline_ranks_4_5_6():
    for rank in (4, 5, 6):
        t0 = time.perf_counter()
        res = theorem_a_pipeline(rank)
        elapsed = time.perf_counter() - t0
        assert res.ok
        assert all(c.ok for c in res.glue_certificates)
        assert res.iw_vertices == 2 * rank - 1
        assert res.iw_connected
        assert res.cut_vertices
        assert res.cut_vertices & set(res.glued_labels)
        assert res.index_list == (Fraction(3, 2) - rank,)
        report(9, f"pipeline certificates at rank {rank}", elapsed, 120.0)


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(1234)

    # (a) limited Whitehead graph recursion vs direct computation, and
    # (b) every edge's image contains that edge, on one random corpus
    for _ in range(100):
        rank = rng.choice([2, 3, 4])
        d = random_admissible(rng, rank, rng.randrange(1, 13))
        assert d.limited_turns() == d.as_map().limited_turns()
        g = d.as_map()
        for i in range(1, rank + 1):
            assert i in g.images[i - 1]

    # (c) cut vertices against the delete-and-recount oracle
    for _ in range(100):
        g = random_pair_graph(rng, 5, max_vertices=10)
        assert cut_vertices(g) == brute_force_cut_vertices(g)

    # (d) built structures always satisfy the axioms and birecurrence
    cert = certify_pnp_free(BASE)
    structures = [build_ltt(BASE.rotated(k), cert) for k in range(9)]
    structures.append(build_ltt(BASE.powered(2), cert))
    for rank in (4, 5):
        structures.append(theorem_a_pipeline(rank).structure)
    for s in structures:
        assert validate(s) == []
        assert is_birecurrent(s)
    elapsed = time.perf_counter() - t0
    report(10, "property suites (recursion, containment, cuts, axioms)", elapsed, 60.0)
