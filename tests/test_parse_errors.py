"""Pinned parse errors of the three text readers.

``tests/data/parse_errors.json`` holds, for graph files (``parse_multigraph``),
cover files (``parse_cover``, with or without a base graph) and list files
(``cli._parse_lists``), one input per error branch together with the
exception type, message and line number the readers raised before cover
parsing became one pass.  Several inputs carry two faults, so the corpus
also pins which error wins: the first faulty line in file order, and within
a line the order of the checks.
"""

import json
from pathlib import Path

import pytest

from dpcolor import cli
from dpcolor.cover import parse_cover
from dpcolor.errors import CapExceeded, ParseError
from dpcolor.multigraph import parse_multigraph

CASES = json.loads((Path(__file__).parent / "data" / "parse_errors.json").read_text())["cases"]


def _read(case):
    if case["parser"] == "graph":
        return parse_multigraph(case["text"])
    if case["parser"] == "cover":
        base = None if case["base"] is None else parse_multigraph(case["base"])
        return parse_cover(case["text"], base=base)
    return cli._parse_lists(case["text"], case["n"])


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_pinned_parse_error(case):
    with pytest.raises((ParseError, CapExceeded)) as info:
        _read(case)
    err = info.value
    assert type(err).__name__ == case["error"]
    assert str(err) == case["message"]
    assert getattr(err, "line", None) == case["line"]


def test_corpus_reaches_every_message():
    """Every distinct error text of the three readers appears in the corpus."""
    stems = ["empty input: missing vertex count", "expected a single vertex count",
             "bad vertex count", "vertex count must be at least 1", "exceeds cap 100000",
             "expected 'u v k'", "non-integer entry in", "loop at vertex",
             "vertex out of range in", "multiplicity must be at least 1", "duplicate pair",
             "missing list sizes line", "expected 3 list sizes", "non-integer list size",
             "list sizes must be nonnegative", "list size 1001 exceeds cap 1000",
             "list size 1001 of vertex 1 exceeds cap 1000", "expected 'u i v j'",
             "cross edges must be written with u < v", "outside list of vertex",
             "duplicate cross edge", "vertices but base graph has", "bad vertex '",
             "out of range 1..", "duplicate list for vertex", "repeats a color"]
    for parser in ("graph", "cover", "lists"):
        assert any(c["parser"] == parser for c in CASES)
    for stem in stems:
        assert any(stem in c["message"] for c in CASES), stem
    assert {c["error"] for c in CASES} == {"ParseError", "CapExceeded"}
