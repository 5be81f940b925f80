import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosetrack.cli import run
from rosetrack.graphs import cut_vertices, ColoredPairLabeledGraph
from rosetrack.words import Decomposition


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pipe(monkeypatch, capsys, upstream, downstream):
    code, out, _ = run_cli(capsys, *upstream)
    assert code == 0
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(out))
    return run_cli(capsys, *downstream)


def test_example_emits_interchange_json(capsys):
    code, out, _ = run_cli(capsys, "example", "lemma-3-6")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 3
    assert len(data["generators"]) == 9
    assert data["generators"][1] == {"x": "b", "y": "a-"}
    Decomposition.from_json(data)


def test_unknown_example_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "example", "no-such-thing")
    assert code == 2
    assert "unknown example" in err


def test_example_verify_pipe(monkeypatch, capsys):
    code, out, _ = pipe(
        monkeypatch, capsys, ["example", "lemma-3-6"], ["verify"]
    )
    assert code == 0
    assert "train track: ok" in out
    assert "cyclically admissible: ok" in out
    assert "prevention sequence (square): ok" in out


def test_verify_fails_on_inadmissible_pair(monkeypatch, capsys):
    import io
    import sys

    doc = {
        "rank": 2,
        "generators": [{"x": "a-", "y": "b-"}, {"x": "a-", "y": "b"}],
        "origin": 0,
    }
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    assert "cyclically admissible: FAIL" in out


def test_pnp_exit_codes(monkeypatch, capsys):
    code, out, _ = pipe(monkeypatch, capsys, ["example", "lemma-3-6-squared"], ["pnp"])
    assert code == 0
    assert "none_legalized" in out
    code, out, _ = pipe(monkeypatch, capsys, ["example", "rank2-nielsen-path"], ["pnp"])
    assert code == 1
    assert "nielsen path: aba-b-" in out


def test_iwg_and_index(monkeypatch, capsys):
    code, out, _ = pipe(monkeypatch, capsys, ["example", "lemma-3-6"], ["index"])
    assert code == 0
    assert out.strip() == "{-3/2}"
    code, out, _ = pipe(
        monkeypatch, capsys, ["example", "lemma-3-6"], ["iwg", "--emit", "json"]
    )
    assert code == 0
    g = ColoredPairLabeledGraph.from_json(json.loads(out))
    assert len(g.vertices()) == 5


def test_ltt_dot_output(monkeypatch, capsys):
    code, out, _ = pipe(
        monkeypatch, capsys, ["example", "lemma-3-6"], ["ltt", "--emit", "dot"]
    )
    assert code == 0
    assert out.startswith("graph ")
    assert "[color=red]" in out
    assert "[color=black]" in out


def test_id_diagram_summary(monkeypatch, capsys):
    code, out, _ = pipe(monkeypatch, capsys, ["example", "lemma-3-6"], ["id-diagram"])
    assert code == 0
    assert "seed component: 8 nodes, 20 edges" in out
    assert "strongly connected: True" in out


def test_pipeline_dot_has_cut_vertex(capsys):
    code, out, _ = run_cli(capsys, "pipeline", "--rank", "4", "--emit", "dot")
    assert code == 0
    assert out.startswith("graph ")
    # reparse the DOT body back into a graph and recompute the cut vertices
    edges = []
    verts = set()
    for line in out.splitlines():
        line = line.strip()
        if " -- " in line:
            u, rest = line.split(" -- ")
            v = rest.split(" ")[0]
            u = u.strip('"')
            v = v.strip('"')
            edges.append((u, v))
            verts.update((u, v))

    def decode(s):
        from rosetrack.words import parse_direction

        return parse_direction(s, 4)

    g = ColoredPairLabeledGraph.build(
        4,
        {decode(v): "purple" for v in verts},
        [(decode(u), decode(v), "purple") for u, v in edges],
    )
    assert cut_vertices(g)


def test_id_diagram_dot_deterministic(monkeypatch, capsys):
    runs = []
    for _ in range(2):
        code, out, _ = pipe(
            monkeypatch, capsys, ["example", "lemma-3-6"], ["id-diagram", "--emit", "dot"]
        )
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    assert runs[0].startswith("digraph ")


def test_id_diagram_json_lists_triples(monkeypatch, capsys):
    code, out, _ = pipe(
        monkeypatch, capsys, ["example", "lemma-3-6"], ["id-diagram", "--emit", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 8
    assert len(data["edges"]) == 20
    assert sum(1 for n in data["nodes"] if n["seed"]) == 1
    kinds = {e["kind"] for e in data["edges"]}
    assert kinds == {"extension", "switch"}


def test_pipeline_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "pipeline", "--rank", "4")
    code2, out2, _ = run_cli(capsys, "pipeline", "--rank", "4")
    assert (code1, out1) == (code2, out2)
    assert code1 == 0


def test_glue_verb(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "example", "lemma-3-6-squared")
    assert code == 0
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(out)
    right.write_text(out)
    code, out, _ = run_cli(capsys, "glue", str(left), str(right))
    assert code == 0
    assert "certificate: granted" in out
    assert "rank: 4" in out


def test_glue_inconclusive_search_exits_3(tmp_path, capsys):
    """An input whose search runs out of bounds is undecided, as in pnp/iwg."""
    code, out, _ = run_cli(capsys, "example", "lemma-3-6")
    path = tmp_path / "l.json"
    path.write_text(out)
    bounds = ("--bounds.max-len", "1")
    assert run_cli(capsys, "pnp", str(path), *bounds)[0] == 3
    code, out, err = run_cli(capsys, "glue", str(path), str(path), *bounds)
    assert code == 3, err
    assert out == ""
    assert "no certificate: search verdict inconclusive" in err


@pytest.mark.parametrize(
    "rank, bound",
    [("4", ("--bounds.max-len", "1")),
     ("3", ("--bounds.max-len", "1")),
     ("3", ("--bounds.max-passes", "1"))],
)
def test_pipeline_inconclusive_search_exits_3(capsys, rank, bound):
    """Every search of the pipeline runs within the given bounds, and one
    that runs out of them leaves the construction undecided, as in pnp."""
    code, out, err = run_cli(capsys, "pipeline", "--rank", rank, *bound)
    assert code == 3, err
    assert out == ""
    assert "inconclusive" in err


def test_glue_exits_3_when_only_the_glued_search_is_inconclusive(monkeypatch, tmp_path, capsys):
    import rosetrack.synthesis as synthesis

    realize = synthesis.realize_glued
    monkeypatch.setattr(synthesis, "realize_glued",
                        lambda spec, **bounds: realize(spec, max_len=1))
    code, out, _ = run_cli(capsys, "example", "lemma-3-6-squared")
    path = tmp_path / "l.json"
    path.write_text(out)
    code, out, err = run_cli(capsys, "glue", str(path), str(path))
    assert code == 3, err
    assert out == ("rank: 4\ncertificate: refused\n"
                   "failure: Nielsen path search verdict: inconclusive\n")


@pytest.mark.parametrize(
    "argv",
    [[verb] for verb in ("verify", "pnp", "iwg", "index", "ltt", "id-diagram")]
    + [["glue", "l.json", "r.json"], ["pipeline", "--rank", "3"]],
)
def test_parsed_default_max_passes_is_the_search_default(argv):
    from rosetrack.cli import build_parser
    from rosetrack.nielsen import DEFAULT_MAX_PASSES

    assert build_parser().parse_args(argv).max_passes == DEFAULT_MAX_PASSES


def test_out_file(tmp_path, capsys):
    target = tmp_path / "d.json"
    code, out, _ = run_cli(capsys, "example", "lemma-3-6", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["rank"] == 3


def test_unknown_verb_usage(capsys):
    assert run_cli(capsys, "frobnicate")[0] == 2


def test_bounds_flags_accepted(monkeypatch, capsys):
    code, out, _ = pipe(
        monkeypatch,
        capsys,
        ["example", "rank2-nielsen-path"],
        ["pnp", "--bounds.max-passes", "1", "--bounds.max-len", "1"],
    )
    assert code in (1, 3)


MALFORMED_DOCS = [
    [{"rank": 3, "generators": [{"x": "a", "y": "b"}]}],  # top-level list
    {"rank": 3, "generators": [{"x": "a"}]},  # generator without "y"
    {"rank": 3, "generators": [{"x": "a", "y": "d"}]},  # letter out of range
    {"rank": 3, "generators": [{"x": 1, "y": "b"}]},  # letter not a string
    {"rank": 3, "generators": 7},  # generators not a list
    {"generators": []},  # no rank
]


@pytest.mark.parametrize(
    "argv, doc",
    [([verb], doc) for verb in ("verify", "pnp", "iwg") for doc in MALFORMED_DOCS]
    + [(["pipeline", "--rank", rank], None) for rank in ("2", "0", "-1")]
    # appended after the pipeline cases so the earlier cases keep their ids
    + [([verb], {"rank": rank, "generators": []})
       for verb in ("verify", "pnp", "iwg") for rank in (0, -1)],
)
def test_malformed_input_is_usage_error(monkeypatch, capsys, argv, doc):
    import io
    import sys

    if doc is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, _, err = run_cli(capsys, *argv)
    assert code == 2, err
    assert "Traceback" not in err
    assert ("malformed decomposition" if doc is not None else "rank") in err


# decomposition-shaped documents: ranks -2..4, short generator lists whose
# letters are valid, out of range, not strings or missing, and wrong
# top-level types
_letters = st.one_of(
    st.sampled_from(["a", "a-", "B", "b-", "c", "C", "d", "e-"]),
    st.text(max_size=2),
    st.integers(-3, 3),
    st.none(),
)
_generator = st.one_of(
    st.fixed_dictionaries({}, optional={"x": _letters, "y": _letters}),
    st.integers(),
    st.text(max_size=2),
)
_documents = st.one_of(
    st.fixed_dictionaries(
        {"rank": st.integers(-2, 4), "generators": st.lists(_generator, max_size=4)}
    ),
    st.none(),
    st.integers(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(verb=st.sampled_from(["verify", "pnp", "iwg", "index", "ltt"]), doc=_documents)
def test_fuzzed_documents_end_in_an_exit_code(verb, doc):
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([verb, "--bounds.max-passes", "1"])
    finally:
        sys.stdin = stdin
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
