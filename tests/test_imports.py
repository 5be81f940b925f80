"""The import contract, checked in fresh interpreters: the package loads no
module, and each CLI verb loads only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rosetrack
from rosetrack.catalog import rank3_base

SRC = str(Path(rosetrack.__file__).resolve().parent.parent)

LOADED = (
    "import sys; print(' '.join(sorted(m[len('rosetrack.'):] for m in sys.modules "
    "if m.startswith('rosetrack.'))))"
)
RUN_VERB = (
    "import contextlib, io, sys\n"
    "from rosetrack.cli import run\n"
    "with contextlib.redirect_stdout(io.StringIO()), "
    "contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = run(sys.argv[1:])\n"
    "print(code)\n" + LOADED
)

SEARCHED = "cli errors graphs nielsen whitehead words"
ALL_BUT_DIAGRAMS = "catalog cli errors graphs ltt nielsen synthesis whitehead words"


def loaded_modules(script, *argv):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def verb_exit_and_modules(*argv):
    """The exit code of one verb run through cli.run, and the sorted names of
    the rosetrack modules it left loaded."""
    code, *modules = loaded_modules(RUN_VERB, *argv)
    return int(code), modules


def test_package_import_loads_no_module():
    assert loaded_modules("import rosetrack\n" + LOADED) == []


@pytest.mark.parametrize(
    "verb, modules",
    [
        ("example", "catalog cli errors words"),
        ("verify", SEARCHED),
        ("pnp", SEARCHED),
        ("iwg", SEARCHED),
        ("index", SEARCHED),
        ("ltt", SEARCHED + " ltt"),
        ("id-diagram", SEARCHED + " ltt diagrams"),
        ("glue", ALL_BUT_DIAGRAMS),
        ("pipeline", ALL_BUT_DIAGRAMS),
    ],
)
def test_each_verb_loads_only_its_modules(tmp_path, verb, modules):
    path = tmp_path / "lemma-3-6.json"
    path.write_text(json.dumps(rank3_base().to_json()))
    argv = {
        "example": ["example", "lemma-3-6"],
        "glue": ["glue", str(path), str(path)],
        "pipeline": ["pipeline", "--rank", "3"],
    }.get(verb, [verb, str(path)])
    assert verb_exit_and_modules(*argv) == (0, sorted(modules.split()))


@pytest.mark.parametrize(
    "argv",
    [["pipeline", "--rank", "2"], ["verify", "bad.json"], ["verify", "rank0.json"],
     ["pnp", "bad.json"], ["iwg", "rank0.json"], ["glue", "bad.json", "rank0.json"]],
)
def test_usage_errors_load_no_search_module(tmp_path, monkeypatch, argv):
    """A verb that rejects its input stops before importing what it would run."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "rank0.json").write_text(json.dumps({"rank": 0, "generators": []}))
    assert verb_exit_and_modules(*argv) == (2, ["cli", "errors", "words"])
