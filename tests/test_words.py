import random

import pytest
from hypothesis import given, strategies as st

from rosetrack.errors import InvalidLetter, NotTrainTrack, RankError
from rosetrack.words import (
    Decomposition,
    GraphMap,
    NielsenGenerator,
    admissible_pair,
    compose,
    directions,
    format_word,
    invert_word,
    is_cyclically_admissible,
    is_expanding,
    is_illegal,
    is_irreducible,
    is_strictly_irreducible,
    mat_mul,
    parse_word,
    periodic_directions,
    reduce_word,
    rotationless_power,
    strip_common_prefix,
    taken_turns,
    turn,
)

from helpers import (
    base_decomposition,
    product_matrix,
    random_admissible,
    random_generator,
    random_word,
    stepwise_direction_map,
    stepwise_limited_turns,
)


def W(s, rank=3):
    return parse_word(s, rank)


# ---------------------------------------------------------------------------
# free reduction


def test_reduce_inverse_cancellation():
    assert reduce_word([1, -1], 3) == ()


def test_reduce_already_reduced():
    assert reduce_word([2, 2, -1], 3) == (2, 2, -1)


def test_reduce_rejects_out_of_range():
    with pytest.raises(InvalidLetter):
        reduce_word([4], 3)
    with pytest.raises(InvalidLetter):
        reduce_word([0], 3)


def test_common_prefix_remainder_turn():
    # tightening a-b a-b a- against a-b a-b c- leaves the turn {a-, c-}
    u = W("a-ba-ba-")
    v = W("a-ba-bc-")
    prefix, ru, rv = strip_common_prefix(u, v)
    assert prefix == W("a-ba-b")
    assert (ru[0], rv[0]) == (-1, -3)
    assert turn(ru[0], rv[0]) == (-3, -1)


@given(st.lists(st.integers(-4, 4).filter(lambda d: d != 0)))
def test_reduce_idempotent_and_nonincreasing(letters):
    once = reduce_word(letters, 4)
    assert reduce_word(once, 4) == once
    assert len(once) <= len(letters)


def test_word_syntax_round_trip():
    w = W("ab-cA")
    assert w == (1, -2, 3, -1)
    assert format_word(w) == "ab-ca-"
    assert W(format_word(w)) == w


# ---------------------------------------------------------------------------
# Nielsen generators


def test_prepend_normal_form_of_append_generator():
    # [a -> ab-] normalizes to [a- -> ba-]; as a map a -> ab-
    g1 = NielsenGenerator.from_append(3, 1, -2)
    assert (g1.x, g1.y) == (-1, 2)
    assert g1.as_map().images[0] == W("ab-")


def test_generator_to_map_fixes_other_edges():
    g2 = NielsenGenerator(3, 2, -1)  # [b -> a-b]
    m = g2.as_map()
    assert m.images == (W("a"), W("a-b"), W("c"))


def test_identity_composite_is_identity():
    assert Decomposition(3, ()).as_map() == GraphMap.identity(3)


def test_generator_rejects_bad_prepend():
    with pytest.raises(InvalidLetter):
        NielsenGenerator(3, 1, 1)
    with pytest.raises(InvalidLetter):
        NielsenGenerator(3, 1, -1)


def test_generator_parse_both_notations():
    assert NielsenGenerator.parse("[a>ab-]", 3) == NielsenGenerator(3, -1, 2)
    assert NielsenGenerator.parse("b>a-b", 3) == NielsenGenerator(3, 2, -1)


# ---------------------------------------------------------------------------
# composition against the worked example


def test_composition_of_the_nine_generators():
    g = base_decomposition().as_map()
    assert format_word(g.images[0]) == "acb-cab-cacacb-ca"
    assert format_word(g.images[1]) == "a-c-bc-a-c-a-c-b"
    assert format_word(g.images[2]) == "cacb-cab-cac"


def test_intermediate_traces():
    d = base_decomposition()
    assert d.segment_apply(W("ba-"), 2) == W("a-ba-ba-")
    assert d.segment_apply(W("a-c-"), 3) == W("a-ba-bc-")
    assert d.segment_apply(W("ba-c-"), 5) == W("a-c-ba-c-ba-c-ba-c-")


def test_intermediate_traces_of_every_search_step():
    # the full set of partial-composite images the worked case analysis
    # tightens, step by step
    d = base_decomposition()
    expected = [
        ("a-", 1, "ba-"),
        ("a-", 2, "a-ba-"),
        ("ba-", 3, "a-ba-ba-"),
        ("ba-", 4, "a-ba-ba-"),
        ("a-c-", 4, "a-ba-ba-c-"),
        ("a-c-", 5, "a-c-ba-c-ba-c-"),
        ("ba-c-", 6, "ba-c-bba-c-bba-c-bba-c-"),
        ("a-c-b", 6, "ba-c-bba-c-bba-c-ba-c-b"),
    ]
    for word, k, image in expected:
        assert d.segment_apply(W(word), k) == W(image), (word, k)


def test_compose_identity_neutral():
    d = base_decomposition()
    g = d.as_map()
    ident = GraphMap.identity(3)
    assert compose(ident, g) == g
    assert compose(g, ident) == g


def test_compose_rank_mismatch():
    with pytest.raises(RankError):
        compose(GraphMap.identity(3), GraphMap.identity(4))


def test_apply_matches_composition():
    d = base_decomposition()
    g = d.as_map()
    rng = random.Random(7)
    for _ in range(20):
        w = random_word(rng, 3, 8)
        assert g.apply(w) == d.apply(w)


def test_apply_identity():
    assert GraphMap.identity(3).apply(W("ba-c")) == W("ba-c")


# ---------------------------------------------------------------------------
# direction maps and turns


def test_direction_map_of_single_generator():
    g2 = NielsenGenerator(3, 2, -1)  # [b -> a-b]
    m = g2.as_map()
    dm = m.direction_map()
    assert dm[2] == -1
    assert all(dm[d] == d for d in directions(3) if d != 2)
    assert g2.missing_direction == 2
    assert g2.doubled_direction == -1
    image = set(dm.values())
    assert 2 not in image
    doubled = [d for d in directions(3) if list(dm.values()).count(dm[d]) == 2]
    assert set(dm[d] for d in doubled) == {-1}


def test_direction_map_of_composite():
    # derived by iterating the direction map: every direction is fixed except
    # b, which lands on a- (so b is the unique nonperiodic direction)
    g = base_decomposition().as_map()
    dm = g.direction_map()
    assert dm[2] == -1
    assert all(dm[d] == d for d in directions(3) if d != 2)
    assert periodic_directions(g) == frozenset({1, -1, -2, 3, -3})


def test_taken_turns():
    assert taken_turns(W("a-b")) == frozenset({(1, 2)})
    assert taken_turns(W("abc")) == frozenset({turn(-1, 2), turn(-2, 3)})
    assert taken_turns(W("a")) == frozenset()
    g = base_decomposition().as_map()
    assert turn(1, -3) in taken_turns(g.images[1])


def test_illegal_turn_of_generators():
    assert NielsenGenerator(3, 2, -1).illegal_turn() == turn(2, -1)
    assert NielsenGenerator(3, 2, -3).illegal_turn() == turn(2, -3)
    g1 = NielsenGenerator.from_append(3, 1, -2)
    assert g1.illegal_turn() == turn(-1, 2)


def test_is_illegal():
    g = base_decomposition().as_map()
    assert is_illegal(g, turn(-1, 2))
    assert is_illegal(g, (1, 1))
    assert not is_illegal(g, turn(1, 2))


def test_illegal_monotone_under_composition_prefix():
    d = base_decomposition()
    rng = random.Random(3)
    for _ in range(10):
        k = rng.randrange(1, 9)
        prefix = Decomposition(3, d.steps[:k])
        for t in [(1, 2), (-1, 2), (2, 3), (-2, -3)]:
            if is_illegal(prefix, turn(*t)):
                assert is_illegal(d, turn(*t))


# ---------------------------------------------------------------------------
# transition matrices and irreducibility


def test_transition_matrix_of_composite():
    g = base_decomposition().as_map()
    m = g.transition_matrix()
    assert m == [[5, 3, 3], [3, 2, 2], [6, 4, 5]]
    assert m == base_decomposition().transition_matrix()


def test_transition_matrix_multiplicative():
    rng = random.Random(11)
    for _ in range(25):
        d = random_admissible(rng, rank=3, length=6)
        left = Decomposition(3, d.steps[:3])
        right = Decomposition(3, d.steps[3:])
        g, h = left.as_map(), right.as_map()
        assert compose(h, g).transition_matrix() == mat_mul(
            h.transition_matrix(), g.transition_matrix()
        )


def test_matrix_product_overcounts_cancelling_composites():
    # when the factored composite cancels, the formal product only bounds the
    # true matrix from above, and the turn recursion flags the situation
    a = NielsenGenerator(2, 1, 2)
    b = NielsenGenerator(2, 1, -2)
    d = Decomposition(2, (a, b))
    product = d.transition_matrix()
    true = d.as_map().transition_matrix()
    assert all(
        product[i][j] >= true[i][j] for i in range(2) for j in range(2)
    )
    assert product != true
    with pytest.raises(Exception):
        d.limited_turns()


def test_strict_irreducibility_of_composite():
    g = base_decomposition().as_map()
    assert is_strictly_irreducible(g)
    assert is_irreducible(g)
    assert is_expanding(g)


def test_identity_not_irreducible_not_expanding():
    ident = GraphMap.identity(3)
    assert not is_irreducible(ident)
    assert not is_expanding(ident)


def test_single_generator_not_irreducible():
    m = NielsenGenerator(3, 2, -1).as_map()
    assert not is_irreducible(m)


def test_homotopy_equivalence_lazy_check():
    g = base_decomposition().as_map()
    assert g.homotopy_equivalence_defect() == 0


# ---------------------------------------------------------------------------
# admissibility


def test_nine_generator_sequence_cyclically_admissible():
    assert is_cyclically_admissible(base_decomposition())


def test_cancelling_pair_not_admissible():
    a = NielsenGenerator.from_append(2, 1, 2)   # [a -> ab]
    b = NielsenGenerator.from_append(2, 1, -2)  # [a -> ab-]
    assert not admissible_pair(a, b)
    assert not is_cyclically_admissible(Decomposition(2, (a, b)))


def test_repeated_generator_admissible():
    a = NielsenGenerator.from_append(2, 1, 2)
    assert admissible_pair(a, a)
    assert is_cyclically_admissible(Decomposition(2, (a, a)))


def test_empty_decomposition_not_admissible():
    assert not is_cyclically_admissible(Decomposition(3, ()))


def test_admissible_images_contain_own_edge():
    rng = random.Random(23)
    for _ in range(30):
        d = random_admissible(rng, rank=rng.choice([2, 3, 4]), length=rng.randrange(1, 12))
        g = d.as_map()
        for i in range(1, d.rank + 1):
            assert i in g.images[i - 1]


def test_extension_by_identity_keeps_spelling():
    d = base_decomposition()
    e = d.extended(5)
    assert e.rank == 5
    assert [(n.x, n.y) for n in e.steps] == [(n.x, n.y) for n in d.steps]
    assert is_cyclically_admissible(e)


# ---------------------------------------------------------------------------
# rotationless powers


def test_rotationless_power_identity_directions():
    r, cert = rotationless_power(GraphMap.identity(3))
    assert r == 1
    assert cert.nonperiodic == ()


def test_rotationless_power_of_composite():
    d = base_decomposition()
    r, cert = rotationless_power(d)
    assert r == 1
    assert cert.nonperiodic == (2,)
    r2, _ = rotationless_power(d.powered(2))
    assert r % r2 == 0


def test_rotationless_power_with_genuine_cycle():
    # a 2-cycle of directions: [a -> ba] then [b -> a-b] maps a -> b- -> ...
    a = NielsenGenerator(2, 1, 2)
    b = NielsenGenerator(2, 2, 1)
    d = Decomposition(2, (a, b))
    r, cert = rotationless_power(d)
    dm = d.direction_map()
    for cycle in cert.cycles:
        for v in cycle:
            cur = v
            for _ in range(r):
                cur = dm[cur]
            assert cur == v
    assert r >= 1


def test_rotationless_certificate_fixes_periodics():
    rng = random.Random(5)
    for _ in range(20):
        d = random_admissible(rng, rank=3, length=7)
        r, _ = rotationless_power(d)
        dm = d.direction_map()
        for v in periodic_directions(d):
            cur = v
            for _ in range(r):
                cur = dm[cur]
            assert cur == v


# ---------------------------------------------------------------------------
# decomposition plumbing


def test_rotation_and_json_round_trip():
    d = base_decomposition()
    r = d.rotated(4)
    assert r.steps[0] == d.steps[4]
    assert r.origin == 4
    assert Decomposition.from_json(d.to_json()) == d


def test_limited_turns_matches_direct_computation():
    d = base_decomposition()
    g = d.as_map()
    direct = frozenset().union(*(taken_turns(w) for w in g.images))
    assert d.limited_turns() == direct


@given(st.integers(0, 2**32 - 1))
def test_apply_compose_functorial(seed):
    rng = random.Random(seed)
    d = random_admissible(rng, rank=3, length=6)
    left = Decomposition(3, d.steps[:3]).as_map()
    right = Decomposition(3, d.steps[3:]).as_map()
    w = random_word(rng, 3, 6)
    assert compose(right, left).apply(w) == right.apply(left.apply(w))


def test_invert_word_involution():
    w = W("ab-ca")
    assert invert_word(invert_word(w)) == w


# ---------------------------------------------------------------------------
# the one-pass fold against the step-by-step oracles it replaced


def _turns_or_cancel(limited_turns):
    try:
        return limited_turns()
    except NotTrainTrack as exc:
        return str(exc)


def test_fold_matches_stepwise_oracles():
    # admissible sequences never cancel; unconstrained ones often do, and for
    # those the formal product and direction map must still agree
    rng = random.Random(19)
    cancelling = 0
    for i in range(240):
        rank = rng.choice([2, 3, 4, 5])
        length = rng.randrange(1, 16)
        if i % 2:
            d = random_admissible(rng, rank, length)
        else:
            d = Decomposition(rank, tuple(random_generator(rng, rank) for _ in range(length)))
        assert d.transition_matrix() == product_matrix(d)
        assert d.direction_map() == stepwise_direction_map(d)
        turns = _turns_or_cancel(d.limited_turns)
        assert turns == _turns_or_cancel(lambda: stepwise_limited_turns(d))
        if isinstance(turns, str):
            cancelling += 1
            continue
        g = d.as_map()
        assert g.transition_matrix() == d.transition_matrix()
        assert g.direction_map() == d.direction_map()
        assert g.limited_turns() == turns
    assert cancelling > 0


def test_fold_results_cannot_be_changed_through_returned_values():
    d = base_decomposition()
    m = d.transition_matrix()
    m[0][0] = -1
    m[1] = []
    dm = d.direction_map()
    dm[1] = 0
    assert d.transition_matrix() == [[5, 3, 3], [3, 2, 2], [6, 4, 5]]
    assert d.direction_map() == stepwise_direction_map(d)
