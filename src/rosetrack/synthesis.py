"""Gluing achieved structures and the higher-rank pipeline.

Two achieved ltt structures, each normalized so its red edge is [X_1, X_2],
are glued by identifying a shared index set of colored vertices and deleting
the red edge; the result is realized by extending both decompositions to the
joint rank and concatenating their generator sequences.  Every property the
construction promises is machine-checked and returned as a certificate, never
assumed.  Iterating the glue one rank at a time manufactures, for every rank
r >= 3, an ageometric fully irreducible automorphism whose ideal Whitehead
graph is connected with 2r-1 vertices, has a cut vertex, and has single-entry
index list 3/2 - r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .catalog import rank3_base
from .errors import Inconclusive, SpecError
from .graphs import ColoredPairLabeledGraph, PURPLE, cut_vertices, is_connected
from .ltt import LttStructure, build_ltt
from .nielsen import (
    DEFAULT_MAX_PASSES,
    INCONCLUSIVE,
    PnpCertificate,
    certify_pnp_free,
    is_legalizing_prevention_sequence,
    search_inps,
)
from .whitehead import (
    ideal_whitehead_graph,
    index_list,
    is_train_track,
    turn_closure,
)
from .words import (
    MAX_PREP_POWER,
    Decomposition,
    Direction,
    directions,
    is_cyclically_admissible,
    is_expanding,
    is_irreducible,
    is_strictly_irreducible,
    mat_mul,
    periodic_directions,
    rotationless_power,
    smallest_power,
    turn,
)


def pair_permutation(mapping: dict[int, int], rank: int) -> dict[Direction, Direction]:
    """Extend a (possibly signed, possibly range-enlarging) map of positive
    indices to an edge-pair-respecting relabeling of the 2r directions."""
    out: dict[Direction, Direction] = {}
    for i in range(1, rank + 1):
        img = mapping.get(i, i)
        out[i] = img
        out[-i] = -img
    if len({abs(out[i]) for i in range(1, rank + 1)}) != rank:
        raise ValueError("mapping is not injective on the indices")
    return out


@dataclass(frozen=True)
class GluedSide:
    decomposition: Decomposition
    structure: LttStructure
    certificate: PnpCertificate

    @property
    def rank(self) -> int:
        return self.decomposition.rank


@dataclass(frozen=True)
class GluingSpec:
    left: GluedSide
    right: GluedSide
    shared: tuple[int, ...] = (1, 2)

    @property
    def glued_rank(self) -> int:
        return self.left.rank + self.right.rank - len(self.shared)


def normalize_achieved(
    d: Decomposition,
    cert: PnpCertificate,
    max_passes: int = DEFAULT_MAX_PASSES,
    max_len: int | None = None,
) -> GluedSide:
    """Relabel an achieved decomposition so its structure's red edge is
    [X_1, X_2] with the red vertex at X_1, re-certifying the relabeled
    sequence within the given search bounds."""
    s = build_ltt(d, cert)
    red = s.red_vertex
    other = s.red_edge[0] if s.red_edge[1] == red else s.red_edge[1]
    mapping: dict[Direction, Direction] = {}
    mapping[abs(red)] = 1 if red > 0 else -1
    mapping[abs(other)] = 2 if other > 0 else -2
    nxt = 3
    for i in range(1, d.rank + 1):
        if i not in mapping:
            mapping[i] = nxt
            nxt += 1
    perm = pair_permutation(mapping, d.rank)
    nd = d.relabeled(perm)
    ncert = certify_pnp_free(nd, max_passes=max_passes, max_len=max_len)
    return GluedSide(nd, build_ltt(nd, ncert), ncert)


def _check_spec(spec: GluingSpec) -> None:
    if 1 not in spec.shared or 2 not in spec.shared:
        raise SpecError("shared index set must contain X_1 and X_2")
    if len(set(spec.shared)) != len(spec.shared):
        raise SpecError("shared index set has repeats")
    top = min(spec.left.rank, spec.right.rank)
    if any(i < 1 or i > top for i in spec.shared):
        raise SpecError("shared indices out of range for the smaller side")
    for side, name in ((spec.left, "left"), (spec.right, "right")):
        if side.structure.red_vertex != 1 or side.structure.red_edge != turn(1, 2):
            raise SpecError(
                f"{name} structure is not normalized: red edge must be [X_1, X_2]"
            )
        if not side.certificate.matches(side.decomposition):
            raise SpecError(f"{name} certificate does not match its decomposition")


def _right_relabeling(spec: GluingSpec) -> dict[Direction, Direction]:
    """A bijection of the joint rank's indices: shared indices persist, the
    right side's other pairs move above the left side's range ascending, and
    the identity-acting extension letters take the vacated indices."""
    r = spec.glued_rank
    shared = set(spec.shared)
    mapping: dict[int, int] = {i: i for i in shared}
    nxt = spec.left.rank + 1
    for i in range(1, spec.right.rank + 1):
        if i not in shared:
            mapping[i] = nxt
            nxt += 1
    leftover = sorted(set(range(1, r + 1)) - set(mapping.values()))
    for i in range(spec.right.rank + 1, r + 1):
        mapping[i] = leftover.pop(0)
    return pair_permutation(mapping, r)


def glue_graphs(spec: GluingSpec) -> ColoredPairLabeledGraph:
    """Identify the shared-index vertices of the two colored graphs and
    delete the red edge: the resulting purple graph on 2r-1 vertices (the
    glued red vertex X_1 loses its only colored edge and is dropped)."""
    _check_spec(spec)
    r = spec.glued_rank
    perm = _right_relabeling(spec)
    left_edges = set(spec.left.structure.purple_edges)
    right_edges = {
        turn(perm[a], perm[b]) for a, b in spec.right.structure.purple_edges
    }
    vertices = {d: PURPLE for d in directions(r) if d != 1}
    return ColoredPairLabeledGraph.build(
        r, vertices, [(a, b, PURPLE) for a, b in sorted(left_edges | right_edges)]
    )


def _is_prepared(d: Decomposition) -> bool:
    """Rotationless, strictly irreducible, and with its limited Whitehead
    graph already the full local one."""
    return (
        rotationless_power(d)[0] == 1
        and is_strictly_irreducible(d)
        and d.limited_turns() == turn_closure(d).turns
    )


def _prepared(d: Decomposition) -> Decomposition:
    """The smallest prepared power of a side."""
    p = smallest_power(d, _is_prepared)
    if p is None:
        raise SpecError(f"no preparation power <= {MAX_PREP_POWER} found")
    return d.powered(p)


@dataclass(frozen=True)
class GlueCertificate:
    """Machine-checked record of one gluing: each named check either passed
    or carries its counterexample description."""

    ok: bool
    failures: tuple[str, ...]
    rank: int
    glued_graph: ColoredPairLabeledGraph
    glued_labels: tuple[Direction, ...]
    cyclically_admissible: bool
    square_strictly_irreducible: bool
    turns_covered: bool
    train_track: bool
    expanding: bool
    irreducible: bool
    sandwich_expanding_irreducible: bool
    search_verdict: str | None  # None when the search did not run
    pnp_certificate: PnpCertificate | None
    iw_matches_glued_graph: bool
    structure: LttStructure | None

    @property
    def inconclusive(self) -> bool:
        """Only a Nielsen path search that ran out of its bounds refused it."""
        return self.search_verdict == INCONCLUSIVE and len(self.failures) == 1


def realize_glued(
    spec: GluingSpec,
    max_passes: int = DEFAULT_MAX_PASSES,
    max_len: int | None = None,
) -> tuple[Decomposition, GlueCertificate]:
    """Concatenate the (prepared, extended, relabeled) generator sequences and
    certify the composite: admissibility of the seams, strict irreducibility
    of the square, coverage of every glued edge by a taken turn with periodic
    ends, Nielsen-path-freeness, and that the ideal Whitehead graph equals the
    glued graph on the nose.  The spec is checked by glue_graphs."""
    glued = glue_graphs(spec)
    r = spec.glued_rank
    failures: list[str] = []

    perm = _right_relabeling(spec)
    left_ext = _prepared(spec.left.decomposition).extended(r)
    right_ext = _prepared(spec.right.decomposition).extended(r).relabeled(perm)
    combined = left_ext.concat(right_ext)

    admissible = is_cyclically_admissible(combined)
    if not admissible:
        failures.append("concatenated sequence is not cyclically admissible")

    m = combined.transition_matrix()
    m2 = mat_mul(m, m)
    square_strict = all(all(e > 0 for e in row) for row in m2)
    if not square_strict:
        bad = next(
            (i, j) for i in range(r) for j in range(r) if m2[i][j] == 0
        )
        failures.append(f"square misses edge pair {bad} (strict irreducibility)")

    train_track = is_train_track(combined)
    if not train_track:
        failures.append("composite takes an illegal turn")
    expanding = is_expanding(combined)
    if not expanding:
        failures.append("composite is not expanding")
    irreducible = is_irreducible(combined)
    if not irreducible:
        failures.append("composite is not irreducible")

    turns_covered = True
    if train_track:
        closure = turn_closure(combined).turns
        periodic = periodic_directions(combined)
        for t in sorted(turn(u, v) for u, v, _ in glued.edges):
            if t not in closure:
                turns_covered = False
                failures.append(f"glued edge {t} is not a taken turn")
            elif t[0] not in periodic or t[1] not in periodic:
                turns_covered = False
                failures.append(f"glued edge {t} has a nonperiodic end")

    sandwich = right_ext.concat(left_ext).concat(right_ext)
    sandwich_ok = is_expanding(sandwich) and is_irreducible(sandwich)
    if not sandwich_ok:
        failures.append("h o g o h is not expanding irreducible")

    pnp_cert = search_verdict = None
    if train_track and admissible:
        outcome = search_inps(combined, max_passes=max_passes, max_len=max_len)
        search_verdict = outcome.verdict
        pnp_cert = outcome.certificate()
        if pnp_cert is None:
            failures.append(f"Nielsen path search verdict: {outcome.verdict}")

    iw_matches = False
    structure = None
    if pnp_cert is not None and not failures:
        iw = ideal_whitehead_graph(combined, pnp_cert)
        iw_matches = set(iw.vertices()) == set(glued.vertices()) and {
            turn(u, v) for u, v, _ in iw.edges
        } == {turn(u, v) for u, v, _ in glued.edges}
        if not iw_matches:
            failures.append("ideal Whitehead graph differs from the glued graph")
        else:
            structure = build_ltt(combined, pnp_cert)

    glued_labels = tuple(
        sorted(
            (d for i in spec.shared for d in (i, -i) if d != 1),
            key=lambda v: (abs(v), v < 0),
        )
    )
    cert = GlueCertificate(
        not failures,
        tuple(failures),
        r,
        glued,
        glued_labels,
        admissible,
        square_strict,
        turns_covered,
        train_track,
        expanding,
        irreducible,
        sandwich_ok,
        search_verdict,
        pnp_cert,
        iw_matches,
        structure,
    )
    return combined, cert


# ---------------------------------------------------------------------------
# the rank-by-rank pipeline


@dataclass(frozen=True)
class PipelineResult:
    """A decomposition in the requested rank together with the full bundle of
    machine-checked certificates."""

    rank: int
    decomposition: Decomposition
    structure: LttStructure
    pnp_certificate: PnpCertificate
    iw: ColoredPairLabeledGraph
    iw_connected: bool
    iw_vertices: int
    index_list: tuple[Fraction, ...]
    cut_vertices: frozenset[Direction]
    glued_labels: tuple[Direction, ...]
    train_track: bool
    expanding: bool
    irreducible: bool
    strictly_irreducible_power: bool
    cyclically_admissible: bool
    prevention_sequence: bool
    glue_certificates: tuple[GlueCertificate, ...]

    @property
    def ok(self) -> bool:
        return (
            self.train_track
            and self.expanding
            and self.irreducible
            and self.strictly_irreducible_power
            and self.cyclically_admissible
            and self.prevention_sequence
            and self.iw_connected
            and self.iw_vertices == 2 * self.rank - 1
            and self.index_list == (Fraction(3, 2) - self.rank,)
            and bool(self.cut_vertices)
            and all(c.ok for c in self.glue_certificates)
        )


def base_side(max_passes: int = DEFAULT_MAX_PASSES, max_len: int | None = None) -> GluedSide:
    """The normalized rank-3 seed: the worked nine-generator sequence,
    squared (its square is the legalizing prevention sequence), certified
    within the given search bounds."""
    base = rank3_base()
    cert = certify_pnp_free(base, max_passes=max_passes, max_len=max_len)
    return normalize_achieved(base.powered(2), cert, max_passes=max_passes, max_len=max_len)


def _result_from(
    side_d: Decomposition,
    cert: PnpCertificate,
    structure: LttStructure,
    glued_labels: tuple[Direction, ...],
    glue_certs: tuple[GlueCertificate, ...],
    max_len: int | None,
) -> PipelineResult:
    iw = ideal_whitehead_graph(side_d, cert)
    prevention, _ = is_legalizing_prevention_sequence(side_d, bound=max_len)
    return PipelineResult(
        rank=side_d.rank,
        decomposition=side_d,
        structure=structure,
        pnp_certificate=cert,
        iw=iw,
        iw_connected=is_connected(iw),
        iw_vertices=len(iw.vertices()),
        index_list=index_list(iw),
        cut_vertices=cut_vertices(iw),
        glued_labels=glued_labels,
        train_track=is_train_track(side_d),
        expanding=is_expanding(side_d),
        irreducible=is_irreducible(side_d),
        strictly_irreducible_power=smallest_power(side_d, is_strictly_irreducible) is not None,
        cyclically_admissible=is_cyclically_admissible(side_d),
        prevention_sequence=prevention,
        glue_certificates=glue_certs,
    )


def theorem_a_pipeline(
    r: int,
    max_passes: int = DEFAULT_MAX_PASSES,
    max_len: int | None = None,
) -> PipelineResult:
    """For every rank r >= 3, an automorphism whose ideal Whitehead graph is
    connected with 2r-1 vertices and a cut vertex: the rank-3 seed for r = 3
    and the (r-3)-fold iterated glue above it.  Every Nielsen path search
    runs within the given bounds; a glue refused only because its search ran
    out of them raises Inconclusive."""
    if r < 3:
        raise SpecError("the construction needs rank >= 3")
    current = right = base_side(max_passes, max_len)
    glue_certs: list[GlueCertificate] = []
    glued_labels: tuple[Direction, ...] = ()
    for target_rank in range(4, r + 1):
        spec = GluingSpec(current, right, (1, 2))
        combined, cert = realize_glued(spec, max_passes=max_passes, max_len=max_len)
        glue_certs.append(cert)
        if not cert.ok:
            error = Inconclusive if cert.inconclusive else SpecError
            raise error(f"glue to rank {target_rank} failed: {cert.failures}")
        glued_labels = cert.glued_labels
        current = GluedSide(combined, cert.structure, cert.pnp_certificate)
    return _result_from(
        current.decomposition,
        current.certificate,
        current.structure,
        glued_labels,
        tuple(glue_certs),
        max_len,
    )
