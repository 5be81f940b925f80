"""Command-line front end.

Every verb is a thin wrapper over the library; no invariant logic lives here.
Exit codes: 0 success / certificate granted, 1 checked failure or
counterexample, 2 usage or I/O error, 3 inconclusive search.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import catalog
from .errors import RosetrackError
from .graphs import to_dot
from .ltt import build_ltt
from .nielsen import (
    FOUND,
    INCONCLUSIVE,
    NONE_LEGALIZED,
    is_legalizing_prevention_sequence,
    search_inps,
    trace_to_text,
)
from .synthesis import (
    MAX_PREP_POWER,
    GluingSpec,
    normalize_achieved,
    realize_glued,
    smallest_power,
    theorem_a_pipeline,
)
from .diagrams import build_id_diagram, diagram_to_dot, diagram_to_json
from .whitehead import ideal_whitehead_graph, index_list, is_train_track
from .words import (
    Decomposition,
    format_direction,
    is_cyclically_admissible,
    is_expanding,
    is_irreducible,
    is_strictly_irreducible,
)

OK, FAIL, USAGE, UNDECIDED = 0, 1, 2, 3


class _Exit(Exception):
    """Ends a verb early with an exit code; the message goes to stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_decomposition(path: str | None) -> Decomposition:
    """Parse a decomposition document; any malformed one is a usage error."""
    if path is None or path == "-":
        data = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            data = fh.read()
    doc = json.loads(data)
    try:
        return Decomposition.from_json(doc)
    except (KeyError, TypeError, AttributeError, ValueError, RosetrackError) as exc:
        raise ValueError(f"malformed decomposition: {exc!r}") from None


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_graph(args, graph) -> None:
    if args.emit == "dot":
        _write(args, to_dot(graph))
    elif args.emit == "json":
        _write(args, json.dumps(graph.to_json(), indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"vertices: {', '.join(format_direction(v) for v in graph.vertices())}"]
        for u, v, c in graph.edges:
            lines.append(f"edge {format_direction(u)} -- {format_direction(v)} [{c}]")
        _write(args, "\n".join(lines) + "\n")


def _search(d: Decomposition, args):
    return search_inps(d, max_passes=args.max_passes, max_len=args.max_len)


def _certificate(d: Decomposition, args):
    """The Nielsen-path-freeness certificate of d; without one the verb exits
    3 if the search was inconclusive and 1 otherwise."""
    outcome = _search(d, args)
    cert = outcome.certificate()
    if cert is None:
        code = UNDECIDED if outcome.verdict == INCONCLUSIVE else FAIL
        raise _Exit(code, f"no certificate: search verdict {outcome.verdict}")
    return cert


def _certified(body):
    """A verb that runs body(args, d, cert) on the input decomposition and its
    certificate."""

    def cmd(args) -> int:
        d = _read_decomposition(args.input)
        return body(args, d, _certificate(d, args))

    return cmd


def cmd_example(args) -> int:
    try:
        d = catalog.example(args.name)
    except KeyError as exc:
        sys.stderr.write(f"{exc.args[0]}\n")
        return USAGE
    _write(args, json.dumps(d.to_json(), indent=2, sort_keys=True) + "\n")
    return OK


def cmd_verify(args) -> int:
    d = _read_decomposition(args.input)
    checks: list[tuple[str, bool]] = []
    admissible = is_cyclically_admissible(d)
    checks.append(("cyclically admissible", admissible))
    tt = is_train_track(d)
    checks.append(("train track", tt))
    checks.append(("expanding", is_expanding(d)))
    checks.append(("irreducible", is_irreducible(d)))
    checks.append((f"strictly irreducible (some power <= {MAX_PREP_POWER})",
                   smallest_power(d, is_strictly_irreducible) is not None))
    prevention_label = "prevention sequence"
    prevention = False
    inconclusive = False
    if admissible and tt:
        ok1, _ = is_legalizing_prevention_sequence(d, bound=args.max_len)
        if ok1:
            prevention = True
        else:
            ok2, _ = is_legalizing_prevention_sequence(d.powered(2), bound=args.max_len)
            prevention = ok2
            prevention_label = "prevention sequence (square)"
        if not prevention:
            try:
                inconclusive = _search(d, args).verdict == INCONCLUSIVE
            except RosetrackError:
                inconclusive = False
    checks.append((prevention_label, prevention))
    lines = [f"{name}: {'ok' if good else 'FAIL'}" for name, good in checks]
    _write(args, "\n".join(lines) + "\n")
    if all(good for _, good in checks):
        return OK
    return UNDECIDED if inconclusive else FAIL


def cmd_pnp(args) -> int:
    outcome = _search(_read_decomposition(args.input), args)
    _write(args, trace_to_text(outcome))
    if outcome.verdict == NONE_LEGALIZED:
        return OK
    if outcome.verdict == FOUND:
        return FAIL
    return UNDECIDED


@_certified
def cmd_iwg(args, d, cert) -> int:
    _emit_graph(args, ideal_whitehead_graph(d, cert))
    return OK


@_certified
def cmd_index(args, d, cert) -> int:
    entries = index_list(ideal_whitehead_graph(d, cert))
    _write(args, "{" + ", ".join(str(e) for e in entries) + "}\n")
    return OK


@_certified
def cmd_ltt(args, d, cert) -> int:
    _emit_graph(args, build_ltt(d, cert).as_graph())
    return OK


@_certified
def cmd_id_diagram(args, d, cert) -> int:
    diagram = build_id_diagram(build_ltt(d, cert), node_budget=args.budget)
    comp = diagram.seed_component()
    if args.emit == "dot":
        _write(args, diagram_to_dot(diagram))
    elif args.emit == "json":
        _write(args, json.dumps(diagram_to_json(diagram), indent=2, sort_keys=True) + "\n")
    else:
        _write(
            args,
            f"nodes: {len(diagram.nodes)}\nedges: {len(diagram.edges)}\n"
            f"seed component: {len(comp)} nodes, "
            f"{len(diagram.component_edges(comp))} edges\n"
            f"strongly connected: {diagram.is_component_strongly_connected(comp)}\n"
            f"truncated: {diagram.truncated}\n",
        )
    return OK if not diagram.truncated else UNDECIDED


def cmd_glue(args) -> int:
    left_d = _read_decomposition(args.left)
    right_d = _read_decomposition(args.right)
    left = normalize_achieved(left_d, _certificate(left_d, args))
    right = normalize_achieved(right_d, _certificate(right_d, args))
    shared = tuple(int(tok) for tok in args.shared.split(","))
    combined, cert = realize_glued(
        GluingSpec(left, right, shared), max_passes=args.max_passes, max_len=args.max_len
    )
    if args.emit == "dot":
        _write(args, to_dot(cert.glued_graph))
    elif args.emit == "json":
        _write(args, json.dumps(combined.to_json(), indent=2, sort_keys=True) + "\n")
    else:
        lines = [f"rank: {cert.rank}", f"certificate: {'granted' if cert.ok else 'refused'}"]
        lines += [f"failure: {f}" for f in cert.failures]
        _write(args, "\n".join(lines) + "\n")
    return OK if cert.ok else FAIL


def cmd_pipeline(args) -> int:
    if args.rank < 3:
        sys.stderr.write("the construction needs --rank >= 3\n")
        return USAGE
    res = theorem_a_pipeline(args.rank, max_passes=args.max_passes, max_len=args.max_len)
    if args.emit == "dot":
        _write(args, to_dot(res.iw))
    elif args.emit == "json":
        _write(args, json.dumps(res.decomposition.to_json(), indent=2, sort_keys=True) + "\n")
    else:
        lines = [
            f"rank: {res.rank}",
            f"generators: {len(res.decomposition.steps)}",
            f"train track: {res.train_track}",
            f"expanding: {res.expanding}",
            f"irreducible: {res.irreducible}",
            f"cyclically admissible: {res.cyclically_admissible}",
            f"prevention sequence: {res.prevention_sequence}",
            f"ideal Whitehead graph: {res.iw_vertices} vertices, connected={res.iw_connected}",
            "index list: {" + ", ".join(str(e) for e in res.index_list) + "}",
            "cut vertices: "
            + ", ".join(format_direction(v) for v in sorted(res.cut_vertices)),
            "glued labels: "
            + ", ".join(format_direction(v) for v in res.glued_labels),
        ]
        _write(args, "\n".join(lines) + "\n")
    return OK if res.ok else FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rosetrack",
        description="train track map invariants on roses: verification, "
        "Whitehead graphs, Nielsen path prevention, diagrams, and gluing",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("input", nargs="?", default=None,
                           help="decomposition file (default: stdin)")
        p.add_argument("--bounds.max-passes", dest="max_passes", type=int, default=3)
        p.add_argument("--bounds.max-len", dest="max_len", type=int, default=None)
        p.add_argument("--emit", choices=["text", "dot", "json"], default="text")
        p.add_argument("--out", default=None, help="write output to a file")

    p = sub.add_parser("example", help="emit a built-in decomposition")
    p.add_argument("name")
    p.add_argument("--emit", choices=["text", "json"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_example)

    for name, func, help_text in [
        ("verify", cmd_verify, "check train track, admissibility, prevention"),
        ("pnp", cmd_pnp, "run the Nielsen path search and print its trace"),
        ("iwg", cmd_iwg, "compute the ideal Whitehead graph"),
        ("index", cmd_index, "compute the index list"),
        ("ltt", cmd_ltt, "build the lamination train track structure"),
    ]:
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("id-diagram", help="build the ideal decomposition diagram")
    common(p)
    p.add_argument("--budget", type=int, default=100_000)
    p.set_defaults(func=cmd_id_diagram)

    p = sub.add_parser("glue", help="glue two achieved structures")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--shared", default="1,2", help="comma-separated shared indices")
    common(p, needs_input=False)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("pipeline", help="produce the rank-r cut-vertex example")
    p.add_argument("--rank", type=int, required=True)
    common(p, needs_input=False)
    p.set_defaults(func=cmd_pipeline)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except _Exit as exc:
        sys.stderr.write(f"{exc}\n")
        return exc.code
    except RosetrackError as exc:
        sys.stderr.write(f"{exc}\n")
        return FAIL
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"{exc}\n")
        return USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
