"""Degree-cover witnesses pinned by digest.

``tests/data/witness_digests.json`` maps each graph's ``format_multigraph``
text to the first 16 hex digits of the sha256 of ``format_cover`` of its
``decide_degree_colorable`` witness, or to ``"colorable"``; and each key
``"build_bad_complete n k"`` or ``"build_bad_cycle n k"`` to the digest of
that construction.  The graphs are ``connected_multigraphs(4, 2)``,
``connected_multigraphs(5, 1)``, ``connected_simple_graphs(6)``,
``gdp_trees(8, 4, 4)`` and 300 seeded random multigraphs on at most 8
vertices, many of them disconnected.  The test reads its graphs from the
record, so a new census order does not change it.

Rewrite the record only for an intended change of witness:
``PYTHONPATH=src python tests/test_witness_digests.py``.
"""

import hashlib
import json
import random
from pathlib import Path

from dpcolor import (build_bad_complete, build_bad_cycle,
                     connected_multigraphs, connected_simple_graphs,
                     decide_degree_colorable, format_cover, format_multigraph,
                     gdp_trees, parse_multigraph)
from oracles import random_multigraph

CONSTRUCTIONS = {"build_bad_complete": build_bad_complete,
                 "build_bad_cycle": build_bad_cycle}


def digest(cover):
    return hashlib.sha256(format_cover(cover).encode()).hexdigest()[:16]


def value(key):
    """What the current code gives for one record key."""
    name, *args = key.split()
    if name in CONSTRUCTIONS:
        return digest(CONSTRUCTIONS[name](*map(int, args)))
    verdict = decide_degree_colorable(parse_multigraph(key))
    return "colorable" if verdict.colorable else digest(verdict.witness)


def record_keys():
    """The record's keys, in the order they are written."""
    graphs = [*connected_multigraphs(4, 2), *connected_multigraphs(5, 1),
              *connected_simple_graphs(6), *gdp_trees(8, 4, 4)]
    rng = random.Random(1609)
    graphs.extend(random_multigraph(rng, 8, 3) for _ in range(300))
    keys = dict.fromkeys(format_multigraph(g) for g in graphs)
    keys.update(dict.fromkeys(f"build_bad_complete {n} {k}"
                              for n in range(2, 7) for k in (1, 2, 3)))
    keys.update(dict.fromkeys(f"build_bad_cycle {n} {k}"
                              for n in range(3, 7) for k in (1, 2, 3)))
    keys.update(dict.fromkeys(f"build_bad_cycle {n} 1" for n in (300, 500, 1100)))
    return list(keys)


def test_witnesses_match_the_record(witness_record):
    assert len(witness_record) == 663
    for key, expected in witness_record.items():
        assert value(key) == expected, f"witness changed for:\n{key}"


if __name__ == "__main__":
    path = Path(__file__).parent / "data" / "witness_digests.json"
    record = {key: value(key) for key in record_keys()}
    path.write_text(json.dumps(record, indent=0) + "\n")
    print(f"wrote {len(record)} entries to {path}")
