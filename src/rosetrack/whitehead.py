"""Turn closures and the local/stable/limited/ideal Whitehead graphs.

The local Whitehead graph records every turn taken by any iterate image of an
edge.  It is computed as a least fixed point: start from the turns taken by
single-edge images and close under the turn map.  For train track maps this
agrees with the iterate-based definition; for other maps the turns of the
first iterate are included all the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MissingCertificate, NotTrainTrack
from .graphs import PURPLE, RED, ColoredPairLabeledGraph, connected_components
from .words import (
    Decomposition,
    Turn,
    directions,
    index_entry,
    is_degenerate,
    is_illegal,
    periodic_directions,
    rotationless_power,
    turn,
)


@dataclass(frozen=True)
class TurnClosure:
    """The taken-turn closure of a map, with the first iterate at which each
    turn appears.  Degenerate turns are retained (they witness illegality)
    but are never emitted as Whitehead-graph edges."""

    rank: int
    turns: frozenset[Turn]
    generations: tuple[tuple[Turn, int], ...]

    def generation_of(self, t: Turn) -> int:
        return dict(self.generations)[t]

    def nondegenerate(self) -> frozenset[Turn]:
        return frozenset(t for t in self.turns if not is_degenerate(t))


def turn_closure(g) -> TurnClosure:
    """Least fixed point of T -> D^t(T) united with the single-image turns.

    Stabilizes within C(2r, 2) rounds since there are finitely many turns.
    """
    rank = g.rank
    dmap = g.direction_map()
    frontier = g.limited_turns()
    generations: dict[Turn, int] = {t: 1 for t in frontier}
    turns = set(frontier)
    gen = 1
    while frontier:
        gen += 1
        nxt = set()
        for t in frontier:
            image = turn(dmap[t[0]], dmap[t[1]])
            if image not in turns:
                turns.add(image)
                generations[image] = gen
                nxt.add(image)
        frontier = nxt
    return TurnClosure(rank, frozenset(turns), tuple(sorted(generations.items())))


def local_whitehead_graph(g) -> ColoredPairLabeledGraph:
    """One vertex per direction; an edge per nondegenerate closure turn.
    Vertices and edges are colored by periodicity (stable part purple)."""
    closure = turn_closure(g)
    periodic = periodic_directions(g)
    vertices = {
        d: (PURPLE if d in periodic else RED) for d in directions(g.rank)
    }
    edges = []
    for t in closure.nondegenerate():
        color = PURPLE if t[0] in periodic and t[1] in periodic else RED
        edges.append((t[0], t[1], color))
    return ColoredPairLabeledGraph.build(g.rank, vertices, edges)


def stable_whitehead_graph(g) -> ColoredPairLabeledGraph:
    """The induced subgraph of the local Whitehead graph on periodic
    directions."""
    lw = local_whitehead_graph(g)
    return lw.induced(periodic_directions(g))


def ideal_whitehead_graph(d: Decomposition, pnp_certificate) -> ColoredPairLabeledGraph:
    """The stable Whitehead graph of the rotationless power of the composite,
    valid as the outer-automorphism invariant only for Nielsen-path-free
    train track maps, so a certificate is demanded rather than assumed."""
    if pnp_certificate is None:
        raise MissingCertificate("an explicit Nielsen-path-freeness certificate is required")
    if not getattr(pnp_certificate, "pnp_free", False):
        raise MissingCertificate("certificate does not assert Nielsen-path-freeness")
    if not pnp_certificate.matches(d):
        raise MissingCertificate("certificate was issued for a different decomposition")
    if not is_train_track(d):
        raise NotTrainTrack("the composite takes an illegal turn")
    exponent, _ = rotationless_power(d)
    power = d.powered(exponent)
    return stable_whitehead_graph(power)


def index_list(iw: ColoredPairLabeledGraph) -> tuple[Fraction, ...]:
    """One entry 1 - k/2 per connected component with k vertices, sorted."""
    return tuple(
        sorted(index_entry(len(comp)) for comp in connected_components(iw))
    )


def is_train_track(g) -> bool:
    """No turn in the taken-turn closure is illegal, i.e. every iterate stays
    locally injective on edge interiors."""
    try:
        closure = turn_closure(g)
    except NotTrainTrack:
        return False
    return not any(is_illegal(g, t) for t in closure.turns)
