"""Seeded inputs for the benchmark workloads.

Decompositions are made by walking admissible generator pairs, so every
input is cyclically admissible by construction. Inputs are never filtered on
the verdict the library reaches for them, except where a workload needs a
certified structure by definition (the rank-4 diagram seeds).
"""

from __future__ import annotations

import random
from collections import Counter

from rosetrack.ltt import build_ltt
from rosetrack.nielsen import FOUND, NONE_LEGALIZED, search_inps
from rosetrack.words import Decomposition, NielsenGenerator, admissible_pair, directions

# corpus sizes: every (rank, length) cell gets the same number of inputs, so
# the latency mix does not drift with the seed
CORPUS_RANKS = (3, 4, 5)
CORPUS_LENGTHS = tuple(range(6, 25))


class AdmissibleWalk:
    """Random cyclically admissible sequences of one rank."""

    def __init__(self, rank: int):
        ds = directions(rank)
        self.rank = rank
        self.generators = [NielsenGenerator(rank, x, y) for x in ds for y in ds if y not in (x, -x)]
        self.successors = {
            a: [b for b in self.generators if admissible_pair(a, b)] for a in self.generators
        }

    def draw(self, rng: random.Random, length: int) -> Decomposition:
        while True:
            steps = [rng.choice(self.generators)]
            while len(steps) < length - 1:
                steps.append(rng.choice(self.successors[steps[-1]]))
            closing = [g for g in self.successors[steps[-1]] if admissible_pair(g, steps[0])]
            if closing:
                steps.append(rng.choice(closing))
                return Decomposition(self.rank, tuple(steps))


def corpus(seed: int, per_cell: int) -> list[Decomposition]:
    """per_cell decompositions for every rank and length, in seeded order."""
    rng = random.Random(f"corpus-{seed}")
    out = []
    for rank in CORPUS_RANKS:
        walk = AdmissibleWalk(rank)
        for length in CORPUS_LENGTHS:
            out.extend(walk.draw(rng, length) for _ in range(per_cell))
    rng.shuffle(out)
    return out


def certified_structures(seed: int, count: int, rank: int = 4):
    """Ltt structures of the first `count` certified random decompositions;
    lengths are drawn from the corpus range."""
    rng = random.Random(f"structures-{seed}")
    walk = AdmissibleWalk(rank)
    out = []
    while len(out) < count:
        d = walk.draw(rng, rng.choice(CORPUS_LENGTHS))
        cert = search_inps(d).certificate()
        if cert is not None:
            out.append(build_ltt(d, cert))
    return out


def verdict_of(outcome) -> str:
    """The corpus verdict class of one search outcome."""
    if outcome.verdict == FOUND:
        return "found" if outcome.found.verified else "found_unverified"
    if outcome.verdict == NONE_LEGALIZED:
        return "certified" if outcome.certificate() is not None else "not_expanding_irreducible"
    return outcome.verdict


def histogram(verdicts) -> dict[str, int]:
    return dict(sorted(Counter(verdicts).items()))
