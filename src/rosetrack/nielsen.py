"""Branching search for indivisible Nielsen paths.

An indivisible Nielsen path for a rotationless expanding irreducible train
track composite splits as inverse(rho_1) rho_2 with both sides legal and the
junction at the unique illegal turn.  Applying the factor generators one at a
time and tightening the shared prefix, the junction turn must equal the next
generator's illegal turn at every step; a branch whose junction turn misses
that target is dead, and a branch whose tightened state recurs at the same
phase of the cyclic sequence witnesses a genuine Nielsen path.

The search therefore has three honest outcomes: every branch dies
(none_legalized), a verified path is produced (found), or the bounds run out
or a recurrent state fails verification (inconclusive).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import Inconclusive, NotTrainTrack
from .whitehead import is_train_track
from .words import (
    Decomposition,
    Direction,
    Turn,
    Word,
    directions,
    format_direction,
    format_word,
    invert_word,
    is_cyclically_admissible,
    is_expanding,
    is_illegal,
    is_irreducible,
    reduce_word,
    rotationless_power,
    strip_common_prefix,
    turn,
)

SIDE_U = "u"  # the side whose first edge is the missing direction of step 1
SIDE_A = "a"  # the side whose first edge is the doubled direction of step 1

NONE_LEGALIZED = "none_legalized"
FOUND = "found"
INCONCLUSIVE = "inconclusive"

DEFAULT_MAX_PASSES = 3


@dataclass(frozen=True)
class BranchRecord:
    """One explored candidate: which edges were appended to which side, and
    how (or whether) the branch died."""

    extensions: tuple[tuple[str, Direction, int], ...]
    side_u: Word
    side_a: Word
    steps_applied: int
    death_step: int | None  # 1-based index of the generator whose illegal
    #                         turn the junction failed to match
    death_turn: Turn | None
    death_reason: str | None  # "legal_turn" | "no_extension" | None (alive)
    legalized: bool

    def describe(self) -> str:
        ext = ",".join(
            f"{side}+{format_direction(d)}@{at}" for side, d, at in self.extensions
        )
        if self.death_step is None:
            return f"alive[{ext}] after {self.steps_applied} steps"
        t = "-" if self.death_turn is None else (
            "{%s,%s}" % (format_direction(self.death_turn[0]), format_direction(self.death_turn[1]))
        )
        return (
            f"sides({format_word(self.side_u)},{format_word(self.side_a)}) "
            f"ext[{ext}] dead at g_{self.death_step} turn {t} "
            f"{self.death_reason}{' legal' if self.legalized else ''}"
        )


@dataclass(frozen=True)
class FoundNp:
    """A Nielsen path produced by a recurrent state, with the phase of the
    cyclic sequence it is based at and its period in full passes."""

    rho: Word
    phase: int
    period_passes: int
    verified: bool


@dataclass(frozen=True)
class PnpCertificate:
    """Asserts that the searched decomposition (all rotations and powers of
    it) carries no periodic Nielsen paths."""

    rank: int
    cyclic_root: tuple
    passes_searched: int
    max_len: int
    pnp_free: bool = True

    def matches(self, d: Decomposition) -> bool:
        return d.rank == self.rank and _primitive_root(d) == self.cyclic_root


def _primitive_root(d: Decomposition) -> tuple:
    """Lexicographically least rotation of the primitive cyclic root of the
    generator spelling; equal for all rotations and powers of one sequence."""
    spell = tuple((n.x, n.y) for n in d.steps)
    m = len(spell)
    for k in range(1, m + 1):
        if m % k == 0 and spell == spell[:k] * (m // k):
            root = spell[:k]
            return min(root[i:] + root[:i] for i in range(k))
    return spell


@dataclass(frozen=True)
class SearchOutcome:
    verdict: str
    rank: int
    trace: tuple[BranchRecord, ...]
    found: FoundNp | None = None
    passes: int = 0
    sequence_length: int = 0
    expanding_irreducible: bool = False
    pnp_certificate: PnpCertificate | None = None

    def certificate(self) -> PnpCertificate | None:
        """The Nielsen-path-freeness certificate, or None: only a fully dead
        search on an expanding irreducible composite supports the no-paths
        reading."""
        return self.pnp_certificate


@dataclass
class NpCandidate:
    """A live candidate: the two legal side paths being built (side_u starts
    with the first generator's missing direction, side_a with its doubled
    direction), the tightened images of both sides with the shared prefix
    removed, and the step count into the cyclic sequence."""

    side_u: Word
    side_a: Word
    rem_u: Word
    rem_a: Word
    step: int  # generators applied so far
    extensions: tuple[tuple[str, Direction, int], ...]
    seen: dict


def _direction_order(ds: Iterable[Direction]) -> list[Direction]:
    return sorted(ds, key=lambda d: (abs(d), 0 if d > 0 else 1))


def search_inps(
    d: Decomposition,
    max_passes: int = DEFAULT_MAX_PASSES,
    max_len: int | None = None,
) -> SearchOutcome:
    """Breadth-first branching search for an indivisible Nielsen path of the
    cyclic composite, on the rotationless power of the given sequence.

    max_len bounds the candidate side paths (default: four times the total
    image length of the composite, computed from the transition matrix).
    """
    if not d.steps:
        raise NotTrainTrack("empty decomposition is not expanding")
    if not is_cyclically_admissible(d):
        raise NotTrainTrack("sequence is not cyclically admissible")
    if not is_train_track(d):
        raise NotTrainTrack("composite is not a train track map")
    expanding_irreducible = is_expanding(d) and is_irreducible(d)

    exponent, _ = rotationless_power(d)
    work = d.powered(exponent)
    steps = work.steps
    n = len(steps)
    if max_len is None:
        max_len = 4 * d.total_image_length()

    flat = steps * max_passes

    def prefix_image(e: Direction, upto: int) -> Word:
        w: Word = (e,)
        for g in flat[:upto]:
            w = g.apply(w)
        return w

    # the composite direction map after each prefix, for extension choices
    prefix_dmap = [
        {v: v for v in directions(d.rank)}
    ]
    for g in flat:
        prefix_dmap.append({v: g.map_direction(w) for v, w in prefix_dmap[-1].items()})

    rotations = {k: work.rotated(k) for k in range(n)}

    first = steps[0]
    root = NpCandidate(
        side_u=(first.x,),
        side_a=(first.y,),
        rem_u=(first.x,),
        rem_a=(first.y,),
        step=0,
        extensions=(),
        seen={((first.x,), (first.y,), 0): 0},
    )

    frontier: deque[NpCandidate] = deque([root])
    dead: list[BranchRecord] = []
    survivors: list[BranchRecord] = []
    max_steps = max_passes * n

    def settle(cand: NpCandidate) -> FoundNp | None:
        """Queue a live candidate.  A recurrent state is returned as a found
        path only when the path verifies; otherwise it is not a Nielsen path,
        and the branch is kept as an unsettled survivor."""
        out = _advance(cand, rotations, n)
        if not isinstance(out, FoundNp):
            frontier.append(out)
        elif out.verified:
            return out
        else:
            survivors.append(_record(cand, None, None, "unverified_recurrence", False))
        return None

    found: FoundNp | None = None
    while frontier and found is None:
        br = frontier.popleft()
        if br.step >= max_steps:
            survivors.append(_record(br, None, None, None, False))
            continue
        gen = steps[br.step % n]
        _, rem_u, rem_a = strip_common_prefix(gen.apply(br.rem_u), gen.apply(br.rem_a))
        s = br.step + 1
        target = steps[s % n].illegal_turn()
        if rem_u and rem_a:
            junction = turn(rem_u[0], rem_a[0])
            if junction != target:
                legal = not is_illegal(rotations[s % n], junction)
                dead.append(_record(br, s + 1, junction, "legal_turn", legal))
                continue
            found = settle(NpCandidate(br.side_u, br.side_a, rem_u, rem_a, s,
                                       br.extensions, br.seen))
            continue
        if not rem_u and not rem_a:
            # distinct legal candidates cannot have identical tight images
            survivors.append(_record(br, None, None, "collapsed", False))
            continue
        empty_side = SIDE_U if not rem_u else SIDE_A
        other_head = (rem_a if not rem_u else rem_u)[0]
        if other_head == target[0]:
            required = target[1]
        elif other_head == target[1]:
            required = target[0]
        else:
            # no appended edge can complete the required turn; conclusive for
            # the no-paths verdict, but not the verified legal-turn scenario
            dead.append(_record(br, s + 1, None, "no_extension", False))
            continue
        dmap = prefix_dmap[s]
        candidates = _direction_order(
            e for e in directions(d.rank) if dmap[e] == required
        )
        side = br.side_u if empty_side == SIDE_U else br.side_a
        if candidates and len(side) >= max_len:
            survivors.append(_record(br, None, None, "length_bound", False))
            continue
        extended_any = False
        for e in candidates:
            inner = turn(-side[-1], e)
            if is_illegal(work, inner):
                continue  # the extended side would not stay legal
            img = prefix_image(e, s)
            if empty_side == SIDE_U:
                nb = NpCandidate(side + (e,), br.side_a, img, rem_a, s,
                             br.extensions + ((SIDE_U, e, s),), dict(br.seen))
            else:
                nb = NpCandidate(br.side_u, side + (e,), rem_u, img, s,
                             br.extensions + ((SIDE_A, e, s),), dict(br.seen))
            extended_any = True
            found = settle(nb)
            if found is not None:
                break
        if not extended_any:
            dead.append(_record(br, s + 1, None, "no_extension", False))

    if found is not None:
        verdict = FOUND
    elif survivors:
        verdict = INCONCLUSIVE
    else:
        verdict = NONE_LEGALIZED
    cert = None
    if verdict == NONE_LEGALIZED and expanding_irreducible:
        cert = PnpCertificate(d.rank, _primitive_root(d), max_passes, max_len)
    return SearchOutcome(
        verdict, d.rank, tuple(dead + survivors), found, max_passes, n,
        expanding_irreducible, cert,
    )


def _advance(br: NpCandidate, rotations, n: int):
    """Record the branch state; a repeat at the same phase is a Nielsen path."""
    key = (br.rem_u, br.rem_a, br.step % n)
    if key in br.seen:
        gap = br.step - br.seen[key]
        phase = br.step % n
        rho = reduce_word(
            invert_word(br.rem_u) + br.rem_a, rotations[0].rank
        )
        period = max(1, gap // n)
        base = rotations[phase].powered(period)
        verified = bool(rho) and base.apply(rho) == rho
        return FoundNp(rho, phase, period, verified)
    br.seen[key] = br.step
    return br


def _record(
    br: NpCandidate,
    death_step: int | None,
    death_turn: Turn | None,
    reason: str | None,
    legalized: bool,
) -> BranchRecord:
    return BranchRecord(
        br.extensions,
        br.side_u,
        br.side_a,
        br.step,
        death_step,
        death_turn,
        reason,
        legalized,
    )


def is_legalizing_prevention_sequence(
    d: Decomposition, bound: int | None = None
) -> tuple[bool, tuple[BranchRecord, ...]]:
    """True when every candidate branch dies, in the legal turn scenario,
    within a single pass of the sequence (so no power-taking is ever needed).
    """
    if not d.steps or not is_cyclically_admissible(d):
        return False, ()
    try:
        outcome = search_inps(d, max_passes=1, max_len=bound)
    except NotTrainTrack:
        return False, ()
    if outcome.verdict != NONE_LEGALIZED:
        return False, outcome.trace
    n = outcome.sequence_length
    ok = all(
        rec.death_step is not None and rec.death_step <= n and rec.legalized
        for rec in outcome.trace
    )
    return ok, outcome.trace


def certify_pnp_free(
    d: Decomposition,
    max_passes: int = DEFAULT_MAX_PASSES,
    max_len: int | None = None,
) -> PnpCertificate:
    """Run the search and return a certificate, or raise NotTrainTrack with
    the offending verdict (Inconclusive when the bounds ran out)."""
    outcome = search_inps(d, max_passes=max_passes, max_len=max_len)
    cert = outcome.certificate()
    if cert is None:
        error = Inconclusive if outcome.verdict == INCONCLUSIVE else NotTrainTrack
        raise error(f"no certificate: search verdict {outcome.verdict}")
    return cert


def trace_to_text(outcome: SearchOutcome) -> str:
    lines = [f"verdict: {outcome.verdict}"]
    if outcome.found is not None:
        f = outcome.found
        lines.append(
            f"nielsen path: {format_word(f.rho)} (phase {f.phase}, "
            f"period {f.period_passes} pass(es), verified={f.verified})"
        )
    for rec in outcome.trace:
        lines.append("branch " + rec.describe())
    return "\n".join(lines) + "\n"
