import json
import time
from pathlib import Path

import pytest

from dpcolor import (canonical_key, connected_multigraphs,
                     connected_simple_graphs, degree_colorable_oracle)


@pytest.fixture(scope="session")
def census_oracle_run():
    """Oracle verdicts over the full small census, shared across criteria.

    Census: connected multigraphs on <= 4 vertices with multiplicities <= 2,
    plus connected simple graphs on exactly 5 vertices (smaller simple graphs
    already appear in the multigraph census).
    """
    graphs = list(connected_multigraphs(4, 2))
    graphs.extend(g for g in connected_simple_graphs(5) if g.n == 5)
    assert len({canonical_key(g) for g in graphs}) == len(graphs)
    start = time.perf_counter()
    results = []
    for g in graphs:
        colorable, witness = degree_colorable_oracle(g)
        results.append((g, colorable, witness))
    elapsed = time.perf_counter() - start
    return results, elapsed


@pytest.fixture(scope="session")
def witness_record():
    """tests/data/witness_digests.json: record key -> recorded digest (see
    test_witness_digests.py)."""
    path = Path(__file__).parent / "data" / "witness_digests.json"
    return json.loads(path.read_text())
