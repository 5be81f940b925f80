"""The traced benchmark run wraps library names listed in bench/spans.py; each
of them must exist, so that deleting one fails here and not only in a traced
benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # the recorder imports only the stdlib
    return module.TARGETS


@pytest.mark.parametrize("span, module_name, attr", _targets())
def test_traced_name_exists(span, module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in getattr(owner, cls_name).__dict__, span
    else:
        assert callable(getattr(owner, attr, None)), span
