import random

import pytest

import dpcolor.multigraph
from dpcolor import (CapExceeded, CompletePower, CyclePower, Multigraph,
                     Other, ParseError, blocks, connected_multigraphs,
                     connected_simple_graphs, format_cover, format_multigraph,
                     parse_cover, parse_multigraph, product_reduction, solve)
from dpcolor.multigraph import MAX_VERTICES
from oracles import (brute_blocks, brute_components, brute_degeneracy, induced,
                     random_connected_multigraph, random_multigraph)


def test_no_loops_or_bad_vertices():
    with pytest.raises(ValueError):
        Multigraph(2, {(1, 1): 1})
    with pytest.raises(ValueError):
        Multigraph(2, {(1, 3): 1})
    with pytest.raises(ValueError):
        Multigraph(0)


def test_zero_multiplicity_not_stored():
    g = Multigraph(3, {(1, 2): 1, (2, 3): 0})
    assert g.multiplicity(2, 3) == 0
    assert g.pairs() == [(1, 2, 1)]
    assert g.neighbors(2) == (1,)


def test_pairs_share_triples_in_a_fresh_list(monkeypatch):
    monkeypatch.setattr(dpcolor.multigraph, "_shared", {})
    a = Multigraph(4, {(3, 4): 2, (1, 2): 1, (2, 3): 1})
    b = Multigraph(3, {(2, 3): 1, (1, 2): 1})
    assert a.pairs() == [(1, 2, 1), (2, 3, 1), (3, 4, 2)]
    assert b.pairs() == [(1, 2, 1), (2, 3, 1)]
    assert a.pairs()[0] is b.pairs()[0] and a.pairs()[1] is b.pairs()[1]
    # a new list on every call, so a caller may change the one it gets
    first = a.pairs()
    assert first is not a.pairs()
    first.clear()
    assert a.pairs() == [(1, 2, 1), (2, 3, 1), (3, 4, 2)]
    rng = random.Random(5)
    for _ in range(50):
        g = random_multigraph(rng, 6, 3)
        assert g.pairs() == [(u, v, k) for (u, v), k in sorted(g.multiplicities())]


def test_census_graphs_share_their_triples(monkeypatch):
    monkeypatch.setattr(dpcolor.multigraph, "_shared", {})
    edges = [t for g in connected_simple_graphs(5) for t in g.pairs() if t == (1, 2, 1)]
    assert len(edges) > 1
    assert all(t is edges[0] for t in edges)


def test_sharing_resumes_after_a_large_graph_fills_the_table(monkeypatch):
    monkeypatch.setattr(dpcolor.multigraph, "_shared", {})
    Multigraph.path(5000)  # 4,999 pair keys, more than the table holds
    assert len(dpcolor.multigraph._shared) <= dpcolor.multigraph._SHARED_MAX
    edges = [t for g in connected_multigraphs(4, 2) for t in g.pairs() if t == (1, 2, 1)]
    assert len(edges) > 1
    assert all(t is edges[0] for t in edges)


def test_degree_examples():
    assert Multigraph(1).degree(1) == 0
    c4_cubed = Multigraph.cycle(4, 3)
    assert all(c4_cubed.degree(v) == 6 for v in c4_cubed.vertices())
    k4_squared = Multigraph.complete(4, 2)
    assert all(k4_squared.degree(v) == 6 for v in k4_squared.vertices())
    with pytest.raises(ValueError):
        Multigraph(2).degree(3)


def test_handshake():
    rng = random.Random(7)
    for _ in range(50):
        g = random_connected_multigraph(rng, 6, 3)
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.edge_total()


def test_is_connected_matches_reachability():
    rng = random.Random(17)
    graphs = [Multigraph(1), Multigraph(2), Multigraph(3, {(1, 2): 2}),
              Multigraph(4, {(1, 2): 1, (3, 4): 3}), Multigraph(4, {(2, 4): 1, (1, 3): 1}),
              Multigraph.path(5), Multigraph(5, {(1, 5): 1, (2, 5): 1, (3, 4): 1})]
    graphs += [random_multigraph(rng, 8, 3) for _ in range(400)]
    assert any(g.n == 1 for g in graphs[7:])
    assert any(0 in g.degrees() for g in graphs[7:] if g.n > 1)
    answers = [g.is_connected() for g in graphs]
    comps = [brute_components(g) for g in graphs]
    assert answers == [len(c) == 1 for c in comps]
    assert [list(blocks(g).components) for g in graphs] == comps
    assert answers[:7] == [True, False, False, False, False, True, False]
    assert 50 < answers.count(False) < 350


def test_blocks_cycle():
    dec = blocks(Multigraph.cycle(5))
    assert dec.blocks == ((1, 2, 3, 4, 5),)
    assert dec.components == ((1, 2, 3, 4, 5),)
    assert dec.classifications == (CyclePower(5, 1),)


def test_blocks_two_triangles_sharing_vertex():
    g = Multigraph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    dec = blocks(g)
    assert dec.blocks == ((1, 2, 3), (3, 4, 5))
    assert dec.components == ((1, 2, 3, 4, 5),)
    assert dec.classifications == (CompletePower(3, 1), CompletePower(3, 1))


def test_blocks_path():
    dec = blocks(Multigraph.path(3))
    assert dec.blocks == ((1, 2), (2, 3))
    assert dec.components == ((1, 2, 3),)
    assert all(c == CompletePower(2, 1) for c in dec.classifications)


def test_blocks_isolated_vertex_and_parallel_edges():
    g = Multigraph(3, {(1, 2): 4})
    dec = blocks(g)
    assert dec.blocks == ((1, 2), (3,))
    assert dec.classifications == (CompletePower(2, 4), CompletePower(1, 1))


def test_blocks_partition_edges():
    rng = random.Random(23)
    for _ in range(40):
        g = random_connected_multigraph(rng, 7, 2)
        dec = blocks(g)
        seen = {}
        for vs in dec.blocks:
            sub = set(vs)
            for u, v, k in g.pairs():
                if u in sub and v in sub:
                    seen[(u, v)] = seen.get((u, v), 0) + 1
        assert all(count == 1 for count in seen.values())
        assert len(seen) == len(g.pairs())
        assert list(zip(dec.blocks, dec.classifications)) == brute_blocks(g)


def test_blocks_match_brute_force(witness_record):
    graphs = [parse_multigraph(key) for key in witness_record
              if not key.startswith("build_bad")]
    assert len(graphs) == 633
    for g in graphs:
        dec = blocks(g)
        where = format_multigraph(g)
        assert list(zip(dec.blocks, dec.classifications)) == brute_blocks(g), where
        assert list(dec.components) == brute_components(g), where


def test_classify_examples():
    def shapes(g):
        return blocks(g).classifications

    assert shapes(Multigraph.complete(4, 3)) == (CompletePower(4, 3),)
    assert shapes(Multigraph.cycle(5, 2)) == (CyclePower(5, 2),)
    alternating = Multigraph(4, {(1, 2): 1, (2, 3): 2, (3, 4): 1, (1, 4): 2})
    assert shapes(alternating) == (Other(),)
    # uniform triangle ties to the complete side, keeping cycles at n >= 4
    assert shapes(Multigraph.cycle(3, 2)) == (CompletePower(3, 2),)
    assert shapes(Multigraph(1)) == (CompletePower(1, 1),)
    assert shapes(Multigraph(2, {(1, 2): 5})) == (CompletePower(2, 5),)


def test_degeneracy():
    assert Multigraph(1).degeneracy() == 0
    assert Multigraph.complete(5).degeneracy() == 4
    for n in (3, 4, 5):
        for k in (1, 2, 3):
            assert Multigraph.cycle(n, k).degeneracy() == 2 * k
            assert Multigraph.complete(n, k).degeneracy() == k * (n - 1)


def test_degeneracy_against_brute_force():
    rng = random.Random(31)
    for _ in range(25):
        g = random_connected_multigraph(rng, 5, 2)
        assert g.degeneracy() == brute_degeneracy(g)
        assert g.degeneracy() <= g.max_degree()


def test_delete_and_induce():
    g = Multigraph.from_edges(4, [(1, 2, 2), (2, 3), (3, 4)])
    assert g.delete_single_edge(1, 2).multiplicity(1, 2) == 1
    assert g.delete_single_edge(2, 3).multiplicity(2, 3) == 0
    with pytest.raises(ValueError):
        g.delete_single_edge(1, 4)
    sub = induced(g, [2, 3, 4])
    assert sub.n == 3 and sub.pairs() == [(1, 2, 1), (2, 3, 1)]


def test_text_round_trip():
    rng = random.Random(43)
    for _ in range(25):
        g = random_connected_multigraph(rng, 6, 3)
        assert parse_multigraph(format_multigraph(g)) == g


@pytest.mark.parametrize("text,fragment", [
    ("", "vertex count"),
    ("2\n1 1 1\n", "loop"),
    ("2\n1 3 1\n", "out of range"),
    ("2\n1 2 1\n2 1 2\n", "duplicate"),
    ("2\n1 2 0\n", "at least 1"),
    ("2\n1 2\n", "expected"),
])
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_multigraph(text)
    assert fragment in str(exc.value)


def test_parse_caps_vertex_count():
    with pytest.raises(CapExceeded):
        parse_multigraph("100000000\n")
    with pytest.raises(CapExceeded):
        parse_multigraph(f"{MAX_VERTICES + 1}\n")
    # the cap itself is allowed: the parse gets as far as the bad pair line
    with pytest.raises(ParseError):
        parse_multigraph(f"{MAX_VERTICES}\nbad\n")


def test_adjacency_built_on_first_use():
    # a graph used only as a cover base never builds its adjacency; asked
    # for later, it gives the answers recorded when it was built eagerly
    text = "5\n1 2 1\n1 3 1\n1 4 1\n1 5 1\n2 3 1\n4 5 1\n"  # the bowtie
    g = parse_multigraph(text)
    cover = parse_cover(format_cover(product_reduction(g, 3)), base=g)
    assert solve(cover).colorable
    assert g._adj is None
    assert [g.neighbors(v) for v in g.vertices()] == [(2, 3, 4, 5), (1, 3), (1, 2),
                                                      (1, 5), (1, 4)]
    b = blocks(g)
    assert b.components == ((1, 2, 3, 4, 5),)
    assert b.blocks == ((1, 2, 3), (1, 4, 5))
    assert b.classifications == (CompletePower(3, 1), CompletePower(3, 1))
    two = parse_multigraph("6\n1 2 1\n1 3 1\n2 3 1\n2 4 1\n3 4 1\n5 6 1\n")
    assert blocks(two).components == ((1, 2, 3, 4), (5, 6))
    assert two.degeneracy() == 2
    assert [two.neighbors(v) for v in two.vertices()] == [(2, 3), (1, 3, 4), (1, 2, 4),
                                                          (2, 3), (6,), (5,)]
