"""Free words, Nielsen generators, and graph maps on a rank-r rose.

Directions (oriented edge germs at the rose's single vertex) are encoded as
nonzero integers: +i is the positive edge E_i, -i its reverse.  A word is a
freely reduced tuple of directions.  Everything here is immutable and every
operation is a pure function, so values are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InvalidLetter, NotTrainTrack, RankError

Direction = int
Word = tuple[Direction, ...]
Turn = tuple[Direction, Direction]

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def directions(rank: int) -> tuple[Direction, ...]:
    """All 2r directions in canonical order a, a-, b, b-, ..."""
    out = []
    for i in range(1, rank + 1):
        out.append(i)
        out.append(-i)
    return tuple(out)


def check_direction(d: Direction, rank: int) -> None:
    if not isinstance(d, int) or d == 0 or abs(d) > rank:
        raise InvalidLetter(f"direction {d!r} is not valid in rank {rank}")


def turn(d1: Direction, d2: Direction) -> Turn:
    """Canonical (sorted) form of the unordered pair {d1, d2}."""
    return (d1, d2) if d1 <= d2 else (d2, d1)


def is_degenerate(t: Turn) -> bool:
    return t[0] == t[1]


# ---------------------------------------------------------------------------
# word syntax: lowercase letter = positive edge, trailing '-' or uppercase =
# inverse.  Canonical output uses the trailing '-' form.


def parse_direction(token: str, rank: int) -> Direction:
    token = token.strip()
    neg = False
    if token.endswith("-"):
        neg = True
        token = token[:-1]
    if len(token) != 1:
        raise InvalidLetter(f"cannot parse direction {token!r}")
    if token.isupper():
        neg = not neg
        token = token.lower()
    idx = _LETTERS.find(token)
    if idx < 0 or idx >= rank:
        raise InvalidLetter(f"letter {token!r} is out of range for rank {rank}")
    return -(idx + 1) if neg else idx + 1


def format_direction(d: Direction) -> str:
    name = _LETTERS[abs(d) - 1]
    return name + "-" if d < 0 else name


def parse_word(text: str, rank: int) -> Word:
    """Parse ASCII word syntax ('ab-c', 'abC' ...) into a reduced word."""
    letters: list[Direction] = []
    for ch in text:
        if ch.isspace():
            continue
        if ch == "-":
            if not letters:
                raise InvalidLetter(f"dangling '-' in {text!r}")
            letters[-1] = -letters[-1]
        else:
            letters.append(parse_direction(ch, rank))
    return reduce_word(letters, rank)


def format_word(w: Sequence[Direction]) -> str:
    return "".join(format_direction(d) for d in w)


def reduce_word(letters: Iterable[Direction], rank: int) -> Word:
    """Freely reduce a letter sequence; idempotent and length-nonincreasing."""
    out: list[Direction] = []
    for d in letters:
        check_direction(d, rank)
        if out and out[-1] == -d:
            out.pop()
        else:
            out.append(d)
    return tuple(out)


def invert_word(w: Sequence[Direction]) -> Word:
    return tuple(-d for d in reversed(w))


def strip_common_prefix(u: Word, v: Word) -> tuple[Word, Word, Word]:
    """Split off the longest common prefix: returns (prefix, u', v')."""
    n = 0
    for a, b in zip(u, v):
        if a != b:
            break
        n += 1
    return u[:n], u[n:], v[n:]


def taken_turns(w: Sequence[Direction]) -> frozenset[Turn]:
    """The k-1 turns an edge-path of length k takes at its interior junctions."""
    return frozenset(turn(-w[i], w[i + 1]) for i in range(len(w) - 1))


# ---------------------------------------------------------------------------
# standard Nielsen generators, stored in prepend normal form [x -> yx]


@dataclass(frozen=True)
class NielsenGenerator:
    """The automorphism sending direction x to yx and fixing everything else.

    Append-style input [x -> xy] is normalized to the prepend form
    [bar(x) -> bar(y) bar(x)] so that the missing direction d_u = x, the
    doubled direction d_a = y, and the unique illegal turn {x, y} read off
    uniformly.
    """

    rank: int
    x: Direction
    y: Direction

    def __post_init__(self) -> None:
        check_direction(self.x, self.rank)
        check_direction(self.y, self.rank)
        if self.y in (self.x, -self.x):
            raise InvalidLetter(
                f"prepended direction {self.y} collides with {self.x}"
            )

    @classmethod
    def from_append(cls, rank: int, x: Direction, y: Direction) -> "NielsenGenerator":
        """Build from append notation [x -> xy]."""
        return cls(rank, -x, -y)

    @classmethod
    def parse(cls, text: str, rank: int) -> "NielsenGenerator":
        """Parse '[a>ab-]' / 'a>ab-' append or 'x:y' prepend shorthand."""
        text = text.strip().strip("[]")
        if ">" in text:
            lhs, rhs = text.split(">")
            x = parse_direction(lhs, rank)
            image = parse_word(rhs, rank)
            if len(image) != 2:
                raise InvalidLetter(f"image {rhs!r} is not of Nielsen shape")
            if image[0] == x:
                return cls.from_append(rank, x, image[1])
            if image[1] == x:
                return cls(rank, x, image[0])
            raise InvalidLetter(f"{text!r} does not fix an end of the image")
        lhs, rhs = text.split(":")
        return cls(rank, parse_direction(lhs, rank), parse_direction(rhs, rank))

    def __str__(self) -> str:
        return f"[{format_direction(self.x)}>{format_direction(self.y)}{format_direction(self.x)}]"

    @property
    def missing_direction(self) -> Direction:
        """d_u: the one direction absent from the image of the direction map."""
        return self.x

    @property
    def doubled_direction(self) -> Direction:
        """d_a: the one direction with two preimages under the direction map."""
        return self.y

    def illegal_turn(self) -> Turn:
        return turn(self.x, self.y)

    def taken_turn(self) -> Turn:
        """The single turn taken by the image path yx: {bar(y), x}."""
        return turn(-self.y, self.x)

    def map_direction(self, d: Direction) -> Direction:
        return self.y if d == self.x else d

    def map_turn(self, t: Turn) -> Turn:
        return turn(self.map_direction(t[0]), self.map_direction(t[1]))

    def apply(self, w: Sequence[Direction]) -> Word:
        """Image of a word: substitute x -> yx, bar(x) -> bar(x)bar(y), reduce."""
        out: list[Direction] = []
        x, y = self.x, self.y
        for d in w:
            if d == x:
                letters: tuple[Direction, ...] = (y, x)
            elif d == -x:
                letters = (-x, -y)
            else:
                letters = (d,)
            for e in letters:
                if out and out[-1] == -e:
                    out.pop()
                else:
                    out.append(e)
        return tuple(out)

    def as_map(self) -> "GraphMap":
        images = []
        for i in range(1, self.rank + 1):
            images.append(self.apply((i,)))
        return GraphMap(self.rank, tuple(images))

    def relabeled(self, perm: Mapping[Direction, Direction]) -> "NielsenGenerator":
        return NielsenGenerator(self.rank, perm[self.x], perm[self.y])

    def extended(self, rank: int) -> "NielsenGenerator":
        if rank < self.rank:
            raise RankError(f"cannot shrink rank {self.rank} to {rank}")
        return NielsenGenerator(rank, self.x, self.y)

    def to_json(self) -> dict:
        return {"x": format_direction(self.x), "y": format_direction(self.y)}

    @classmethod
    def from_json(cls, data: Mapping, rank: int) -> "NielsenGenerator":
        return cls(rank, parse_direction(data["x"], rank), parse_direction(data["y"], rank))


# ---------------------------------------------------------------------------
# graph maps on the rose


@dataclass(frozen=True)
class GraphMap:
    """An edge-to-edge-path assignment on the rank-r rose.

    Images are stored for the positive edges only; each must be a nonempty
    reduced word (local injectivity on edge interiors).
    """

    rank: int
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise RankError(f"expected {self.rank} images, got {len(self.images)}")
        for w in self.images:
            if not w:
                raise InvalidLetter("edge images must be nonempty")
            if reduce_word(w, self.rank) != tuple(w):
                raise InvalidLetter(f"image {format_word(w)} is not reduced")

    @classmethod
    def identity(cls, rank: int) -> "GraphMap":
        return cls(rank, tuple((i,) for i in range(1, rank + 1)))

    def image_of(self, d: Direction) -> Word:
        check_direction(d, self.rank)
        w = self.images[abs(d) - 1]
        return w if d > 0 else invert_word(w)

    def apply(self, w: Sequence[Direction]) -> Word:
        out: list[Direction] = []
        for d in w:
            for e in self.image_of(d):
                if out and out[-1] == -e:
                    out.pop()
                else:
                    out.append(e)
        return tuple(out)

    def direction_map(self) -> dict[Direction, Direction]:
        """d -> first edge of the image of d, on all 2r directions."""
        return {d: self.image_of(d)[0] for d in directions(self.rank)}

    def transition_matrix(self) -> list[list[int]]:
        """Entry (i, j) counts occurrences of E_i and bar(E_i) in g(E_j)."""
        m = [[0] * self.rank for _ in range(self.rank)]
        for j in range(1, self.rank + 1):
            for d in self.images[j - 1]:
                m[abs(d) - 1][j - 1] += 1
        return m

    def limited_turns(self) -> frozenset[Turn]:
        """Turns taken by the single-edge images."""
        return frozenset().union(*(taken_turns(w) for w in self.images))

    def homotopy_equivalence_defect(self) -> int:
        """abs(det) - 1 of the abelianized transition matrix; 0 for a
        homotopy equivalence.  Checked lazily, not in the constructor."""
        m = [[0] * self.rank for _ in range(self.rank)]
        for j in range(1, self.rank + 1):
            for d in self.images[j - 1]:
                m[abs(d) - 1][j - 1] += 1 if d > 0 else -1
        return abs(_int_det(m)) - 1


def _int_det(m: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    n = len(m)
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def compose(outer: GraphMap, inner: GraphMap) -> GraphMap:
    """outer after inner; images substituted and freely reduced."""
    if outer.rank != inner.rank:
        raise RankError(f"rank mismatch: {outer.rank} vs {inner.rank}")
    return GraphMap(outer.rank, tuple(outer.apply(w) for w in inner.images))


def is_illegal(g, t: Turn) -> bool:
    """Whether the two directions collide under some iterate of the direction
    map.  Degenerate turns are illegal.  The orbit of the pair is followed
    until it revisits a state, which is exact."""
    dmap = g.direction_map()
    d1, d2 = t
    check_direction(d1, g.rank)
    check_direction(d2, g.rank)
    seen = set()
    while (d1, d2) not in seen:
        if d1 == d2:
            return True
        seen.add((d1, d2))
        d1, d2 = dmap[d1], dmap[d2]
    return False


def periodic_directions(g) -> frozenset[Direction]:
    """Directions lying on a cycle of the direction map's functional graph."""
    dmap = g.direction_map()
    periodic = set()
    for d in directions(g.rank):
        seen = []
        cur = d
        while cur not in seen:
            seen.append(cur)
            cur = dmap[cur]
        if cur == d:
            periodic.add(d)
    return frozenset(periodic)


# ---------------------------------------------------------------------------
# transition matrices (exact integer arithmetic; entries can be huge)


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def is_irreducible(g) -> bool:
    """No invariant proper subgraph: the digraph 'E_j -> E_i when (i,j) > 0'
    is strongly connected."""
    rank, m = g.rank, g.transition_matrix()
    succ = {j: [i for i in range(rank) if m[i][j] > 0] for j in range(rank)}
    pred = {j: [i for i in range(rank) if m[j][i] > 0] for j in range(rank)}
    return _reaches_all(succ, rank) and _reaches_all(pred, rank)


def _reaches_all(adj: Mapping[int, list[int]], n: int) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def is_strictly_irreducible(g) -> bool:
    """Every image g(E_j) contains every E_i up to orientation."""
    return all(all(e > 0 for e in row) for row in g.transition_matrix())


def is_expanding(g) -> bool:
    """Every column sum of the matrix powers is above 1 at power 2r^2 and
    grew over the last 2r powers.

    The 2r^2 horizon is a heuristic with no proof behind it: nothing shows
    that the column sums of every nonnegative integer matrix settle within
    it, so this verdict is not certified."""
    rank, m = g.rank, g.transition_matrix()
    horizon = max(2 * rank * rank, 2)
    window = min(2 * rank, horizon - 1)
    sums = []
    p = identity_matrix(rank)
    for _ in range(horizon):
        p = mat_mul(m, p)
        sums.append([sum(p[i][j] for i in range(rank)) for j in range(rank)])
    for j in range(rank):
        if sums[-1][j] <= 1 or sums[-1][j] <= sums[-1 - window][j]:
            return False
    return True


# ---------------------------------------------------------------------------
# decompositions: cyclically ordered Nielsen generator sequences


def admissible_pair(a: NielsenGenerator, b: NielsenGenerator) -> bool:
    """Chaining condition on consecutive generators [x->yx] then [x'->y'x']:
    either x' = x and y' != bar(y), or y' = x and x' != bar(y)."""
    if b.x == a.x:
        return b.y != -a.y
    if b.y == a.x:
        return b.x != -a.y
    return False


class _Fold(NamedTuple):
    """The invariants one pass over a decomposition's steps yields."""

    direction_map: dict[Direction, Direction]
    transition_matrix: list[list[int]]
    limited_turns: frozenset[Turn]
    cancelling_step: int | None  # index of the first step that cancels


@dataclass(frozen=True)
class Decomposition:
    """A cyclically ordered sequence of standard Nielsen generators.

    The composite map applies steps[0] first.  `origin` records which rotation
    of the cyclic word this object is based at.
    """

    rank: int
    steps: tuple[NielsenGenerator, ...]
    origin: int = 0

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise RankError(f"rank must be at least 1, got {self.rank}")
        for n in self.steps:
            if n.rank != self.rank:
                raise RankError(f"generator {n} has rank {n.rank}, expected {self.rank}")

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[NielsenGenerator]:
        return iter(self.steps)

    def as_map(self) -> GraphMap:
        """Materialize the composite graph map.  Fine at desk scale; for long
        high-rank sequences prefer the matrix/turn-based accessors below."""
        images = []
        for i in range(1, self.rank + 1):
            w: Word = (i,)
            for n in self.steps:
                w = n.apply(w)
            images.append(w)
        return GraphMap(self.rank, tuple(images))

    def apply(self, w: Sequence[Direction]) -> Word:
        w = reduce_word(w, self.rank)
        for n in self.steps:
            w = n.apply(w)
        return w

    def segment_apply(self, w: Sequence[Direction], stop: int, start: int = 0) -> Word:
        """Apply steps[start:stop] only (the partial composite g_{stop,start+1})."""
        w = reduce_word(w, self.rank)
        for n in self.steps[start:stop]:
            w = n.apply(w)
        return w

    @cached_property
    def _fold(self) -> "_Fold":
        """One pass over the steps, cached on the instance.

        A step [x -> yx] maps the direction x to y; it multiplies the
        transition matrix on the left by I + E_{|y|,|x|}, which is the row
        operation row |y| += row |x|; and it maps the turns taken so far by
        single-edge images, then adds its own turn {bar(y), x}.  The matrix is
        the formal product of the per-generator matrices, exact only while no
        step cancels inside an edge image; the turn recursion stops at the
        first step that would (its illegal turn is already taken).
        """
        dmap = {d: d for d in directions(self.rank)}
        m = identity_matrix(self.rank)
        turns: set[Turn] = set()
        cancelling = None
        for k, n in enumerate(self.steps):
            x, y = n.x, n.y
            for d, v in dmap.items():
                if v == x:
                    dmap[d] = y
            row, src = abs(y) - 1, abs(x) - 1
            m[row] = [a + b for a, b in zip(m[row], m[src])]
            if cancelling is None:
                if n.illegal_turn() in turns:
                    cancelling = k
                else:
                    turns = {n.map_turn(t) if x in t else t for t in turns}
                    turns.add(n.taken_turn())
        return _Fold(dmap, m, frozenset(turns), cancelling)

    def direction_map(self) -> dict[Direction, Direction]:
        return dict(self._fold.direction_map)

    def transition_matrix(self) -> list[list[int]]:
        """Product of the per-generator matrices.  Exact whenever no free
        reduction occurs inside single-edge images, which holds for admissible
        sequences (and is verified by limited_turns)."""
        return [row[:] for row in self._fold.transition_matrix]

    def limited_turns(self) -> frozenset[Turn]:
        """Turns taken by single-edge images of the composite, computed by the
        recursion W(g_{k,1}) = T(g_k) u D g_k(W(g_{k-1,1})) without ever
        materializing the image words.

        Raises NotTrainTrack if a step would cancel (the running turn set hits
        the next generator's illegal turn), since the recursion and the matrix
        product are only exact for cancellation-free composites.
        """
        k = self._fold.cancelling_step
        if k is not None:
            raise NotTrainTrack(
                f"step {k + 1} ({self.steps[k]}) cancels inside an edge image; "
                "the composite is not a graph map"
            )
        return self._fold.limited_turns

    def total_image_length(self) -> int:
        """Sum of the composite's image lengths, from the matrix product."""
        return sum(map(sum, self._fold.transition_matrix))

    def rotated(self, k: int) -> "Decomposition":
        """The decomposition of f_k based at the k-th rose: steps k+1..n, 1..k."""
        n = len(self.steps)
        k %= n
        return Decomposition(self.rank, self.steps[k:] + self.steps[:k], (self.origin + k) % n)

    def powered(self, p: int) -> "Decomposition":
        """The p-th power; the first power is this object, cached fold and all."""
        if p < 1:
            raise ValueError("power must be >= 1")
        if p == 1:
            return self
        return Decomposition(self.rank, self.steps * p, self.origin)

    def extended(self, rank: int) -> "Decomposition":
        """Extension by the identity on the new letters; spelling unchanged."""
        if rank < self.rank:
            raise RankError(f"cannot shrink rank {self.rank} to {rank}")
        return Decomposition(rank, tuple(n.extended(rank) for n in self.steps), self.origin)

    def relabeled(self, perm: Mapping[Direction, Direction]) -> "Decomposition":
        return Decomposition(self.rank, tuple(n.relabeled(perm) for n in self.steps), self.origin)

    def concat(self, other: "Decomposition") -> "Decomposition":
        if other.rank != self.rank:
            raise RankError(f"rank mismatch: {self.rank} vs {other.rank}")
        return Decomposition(self.rank, self.steps + other.steps, self.origin)

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "generators": [n.to_json() for n in self.steps],
            "origin": self.origin,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Decomposition":
        rank = int(data["rank"])
        steps = tuple(NielsenGenerator.from_json(g, rank) for g in data["generators"])
        return cls(rank, steps, int(data.get("origin", 0)))


def is_cyclically_admissible(d: Decomposition) -> bool:
    """Every cyclically consecutive generator pair satisfies the chaining
    condition; vacuously true only for nonempty sequences of length 1."""
    if not d.steps:
        return False
    n = len(d.steps)
    return all(admissible_pair(d.steps[i], d.steps[(i + 1) % n]) for i in range(n))


@dataclass(frozen=True)
class RotationlessCertificate:
    """Why g^R fixes every periodic direction: the cycle decomposition of the
    direction map's functional graph."""

    exponent: int
    cycles: tuple[tuple[Direction, ...], ...]
    nonperiodic: tuple[Direction, ...]


def rotationless_power(g) -> tuple[int, RotationlessCertificate]:
    """Smallest R (the lcm of direction-orbit cycle lengths) such that every
    periodic direction of g is fixed by the R-th direction map iterate."""
    rank, dmap = g.rank, g.direction_map()
    cycles: list[tuple[Direction, ...]] = []
    on_cycle: set[Direction] = set()
    visited: set[Direction] = set()
    for d in directions(rank):
        if d in visited:
            continue
        trail: list[Direction] = []
        pos: dict[Direction, int] = {}
        cur = d
        while cur not in pos and cur not in visited:
            pos[cur] = len(trail)
            trail.append(cur)
            cur = dmap[cur]
        if cur in pos:
            cycle = tuple(trail[pos[cur]:])
            cycles.append(cycle)
            on_cycle.update(cycle)
        visited.update(trail)
    exponent = 1
    for c in cycles:
        exponent = math.lcm(exponent, len(c))
    nonper = tuple(d for d in directions(rank) if d not in on_cycle)
    return exponent, RotationlessCertificate(exponent, tuple(sorted(cycles)), nonper)


def index_entry(vertex_count: int) -> Fraction:
    """The index contribution 1 - k/2 of a component with k vertices."""
    return Fraction(2 - vertex_count, 2)
