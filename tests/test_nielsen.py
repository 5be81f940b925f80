import os
import subprocess
import sys
from pathlib import Path

import pytest

import rosetrack
from rosetrack.catalog import rank2_with_nielsen_path
from rosetrack.errors import NotTrainTrack
from rosetrack.nielsen import (
    FOUND,
    INCONCLUSIVE,
    NONE_LEGALIZED,
    certify_pnp_free,
    is_legalizing_prevention_sequence,
    search_inps,
    trace_to_text,
)
from rosetrack.words import (
    Decomposition,
    NielsenGenerator,
    is_cyclically_admissible,
    parse_word,
    turn,
)

from helpers import base_decomposition


def test_square_has_no_nielsen_paths():
    out = search_inps(base_decomposition().powered(2))
    assert out.verdict == NONE_LEGALIZED
    assert all(rec.death_step is not None for rec in out.trace)
    assert all(rec.legalized for rec in out.trace)
    # every branch dies within one pass of the 18-generator sequence
    assert all(rec.death_step <= 18 for rec in out.trace)


def test_square_reproduces_the_worked_case_analysis():
    out = search_inps(base_decomposition().powered(2))
    # the branch built from extensions e2=a-, e2'=c-, e3=c-, e3'=b has sides
    # (ba-c-, a-c-b) and dies at g_7 because the junction {a-,b} is not that
    # generator's illegal turn
    target = None
    for rec in out.trace:
        ext = tuple((side, d) for side, d, _ in rec.extensions)
        if ext == (("a", -1), ("u", -3), ("a", -3), ("u", 2)):
            target = rec
    assert target is not None
    assert target.side_a == parse_word("ba-c-", 3)
    assert target.side_u == parse_word("a-c-b", 3)
    assert target.death_step == 7
    assert target.death_turn == turn(-1, 2)
    assert target.legalized

    # the first extension on the b-side branches over exactly {b, a-}
    firsts = {rec.extensions[0] for rec in out.trace}
    assert firsts == {("a", -1, 1), ("a", 2, 1)}


def test_forced_extension_bookkeeping():
    # in the e2=a- branch the next extension is forced: only c- maps to the
    # required direction, so every such branch records u+c- at step 2
    out = search_inps(base_decomposition().powered(2))
    branches = [r for r in out.trace if r.extensions[0] == ("a", -1, 1)]
    assert branches
    assert all(r.extensions[1] == ("u", -3, 2) for r in branches)


def test_square_is_legalizing_prevention_sequence():
    ok, trace = is_legalizing_prevention_sequence(base_decomposition().powered(2))
    assert ok
    assert trace


def test_base_alone_is_not_legalizing():
    # two branches only die in the second pass, so the unsquared sequence
    # does not legalize on its own
    ok, _ = is_legalizing_prevention_sequence(base_decomposition())
    assert not ok
    out = search_inps(base_decomposition())
    assert out.verdict == NONE_LEGALIZED
    assert max(rec.death_step for rec in out.trace) > 9


def test_empty_decomposition_is_not_prevention():
    ok, trace = is_legalizing_prevention_sequence(Decomposition(3, ()))
    assert not ok
    assert trace == ()


def test_extended_sequence_remains_prevention():
    ext = base_decomposition().powered(2).extended(4)
    ok, _ = is_legalizing_prevention_sequence(ext)
    assert ok
    out = search_inps(ext)
    assert out.verdict == NONE_LEGALIZED


def test_rank2_map_with_nielsen_path_is_found():
    d = rank2_with_nielsen_path()
    out = search_inps(d)
    assert out.verdict == FOUND
    f = out.found
    assert f.verified
    assert f.rho
    # direct soundness: the rotated composite fixes the path exactly
    base = d.rotated(f.phase).powered(f.period_passes)
    assert base.apply(f.rho) == f.rho


def test_rank2_squared_feed():
    d = rank2_with_nielsen_path().powered(2)
    out = search_inps(d)
    assert out.verdict == FOUND
    f = out.found
    assert f.verified
    assert d.rotated(f.phase).powered(f.period_passes).apply(f.rho) == f.rho


def test_search_rejects_non_train_track_input():
    d = Decomposition(2, (NielsenGenerator(2, 1, 2), NielsenGenerator(2, 1, -2)))
    with pytest.raises(NotTrainTrack):
        search_inps(d)


def test_search_rejects_inadmissible_input():
    a = NielsenGenerator(2, 1, 2)
    with pytest.raises(NotTrainTrack):
        search_inps(Decomposition(2, (a, a, NielsenGenerator(2, 1, -2))))


def test_determinism():
    one = search_inps(base_decomposition().powered(2))
    two = search_inps(base_decomposition().powered(2))
    assert trace_to_text(one) == trace_to_text(two)
    assert one.trace == two.trace


def test_certificate_is_rotation_and_power_stable():
    cert = certify_pnp_free(base_decomposition())
    assert cert.pnp_free
    assert cert.matches(base_decomposition().powered(2))
    assert cert.matches(base_decomposition().rotated(3))
    other = rank2_with_nielsen_path()
    assert not cert.matches(other)
    with pytest.raises(NotTrainTrack):
        certify_pnp_free(other)


def test_inconclusive_on_starved_bounds():
    out = search_inps(rank2_with_nielsen_path(), max_passes=1, max_len=1)
    assert out.verdict in (INCONCLUSIVE, FOUND)
    if out.verdict == INCONCLUSIVE:
        assert any(rec.death_step is None for rec in out.trace)


def brute_force_fixed_paths(d: Decomposition, max_len: int):
    """Independent oracle: enumerate every tight edge path up to max_len and
    keep those the rotationless composite fixes exactly (vertex-based Nielsen
    paths)."""
    from rosetrack.words import directions, rotationless_power

    exponent, _ = rotationless_power(d)
    work = d if exponent == 1 else d.powered(exponent)
    fixed = []
    frontier = [(dirn,) for dirn in directions(d.rank)]
    while frontier:
        w = frontier.pop()
        if work.apply(w) == w:
            fixed.append(w)
        if len(w) < max_len:
            frontier.extend(
                w + (e,) for e in directions(d.rank) if e != -w[-1]
            )
    return fixed


def test_search_against_brute_force_oracle_on_random_corpus():
    import random

    from rosetrack.whitehead import is_train_track
    from rosetrack.words import is_expanding, is_irreducible

    from helpers import random_admissible

    rng = random.Random(77)
    checked = 0
    seen_none = seen_found = 0
    while checked < 40:
        rank = rng.choice([2, 3])
        length = rng.randrange(2, 7)
        d = random_admissible(rng, rank, length)
        if not (d.steps and is_cyclically_admissible(d)):
            continue
        if not (is_train_track(d) and is_expanding(d) and is_irreducible(d)):
            continue
        checked += 1
        out = search_inps(d, max_passes=4)
        brute = brute_force_fixed_paths(d, max_len=5)
        if out.verdict == NONE_LEGALIZED:
            seen_none += 1
            assert brute == [], (d.to_json(), brute)
        elif out.verdict == FOUND:
            seen_found += 1
            f = out.found
            assert f.verified
            assert d.rotated(f.phase).powered(f.period_passes).apply(f.rho) == f.rho
    # the corpus should exercise both verdicts
    assert seen_none > 0 and seen_found > 0, (seen_none, seen_found)


def test_found_is_always_verified_on_cyclic_corpus():
    # a recurrent state whose path fails verification is not a Nielsen path:
    # the search keeps looking and never reports it as found
    import random

    from helpers import random_cyclically_admissible

    rng = random.Random(1)
    found = 0
    for _ in range(150):
        d = random_cyclically_admissible(rng, rng.choice([3, 4]), rng.randrange(6, 17))
        try:
            out = search_inps(d)
        except NotTrainTrack:
            continue
        assert not (out.verdict == FOUND and not out.found.verified), d.to_json()
        if out.verdict == FOUND:
            found += 1
            f = out.found
            assert d.rotated(f.phase).powered(f.period_passes).apply(f.rho) == f.rho
        if out.verdict == INCONCLUSIVE:
            assert any(rec.death_step is None for rec in out.trace)
    assert found > 0


LARGE_PASS_BOUND = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
from rosetrack.catalog import rank3_base
from rosetrack.nielsen import search_inps, trace_to_text
sys.stdout.write(trace_to_text(search_inps(rank3_base(), max_passes=10**7)))
"""


def test_search_cost_follows_the_steps_it_reaches():
    # the verdict on lemma-3-6 is settled within a few steps, so a huge pass
    # bound must neither build its per-step tables up front nor change the trace
    src = str(Path(rosetrack.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", LARGE_PASS_BOUND],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == trace_to_text(search_inps(base_decomposition(), max_passes=3))
