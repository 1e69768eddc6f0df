import itertools
import random

import pytest

import dpcolor.census
from dpcolor import (CapExceeded, Multigraph, are_isomorphic, canonical_key,
                     connected_multigraphs, connected_simple_graphs,
                     gdp_trees)
from dpcolor.census import MAX_CENSUS_VECTORS, _canonical_vector, _census, _pairs_of
from oracles import brute_canonical_key, brute_census, is_gdp_tree


def test_simple_census_counts():
    # connected simple graphs up to isomorphism: 1, 1, 2, 6, 21
    counts = {}
    for g in connected_simple_graphs(5):
        counts[g.n] = counts.get(g.n, 0) + 1
    assert counts == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21}


def test_multigraph_census_counts():
    counts = {}
    for g in connected_multigraphs(4, 2):
        counts[g.n] = counts.get(g.n, 0) + 1
    # n=2: single or doubled edge; n=3: 3 paths + 4 triangles
    assert counts[1] == 1
    assert counts[2] == 2
    assert counts[3] == 7
    assert counts[4] == 53
    simple_only = [g for g in connected_multigraphs(4, 1)]
    assert sum(1 for g in simple_only if g.n == 4) == 6


def test_census_has_no_duplicates():
    graphs = connected_multigraphs(4, 2)
    keys = {canonical_key(g) for g in graphs}
    assert len(keys) == len(graphs)


def test_min_degree_filter():
    graphs = connected_simple_graphs(5, min_degree=3)
    assert all(min(g.degrees()) >= 3 for g in graphs)
    assert all(g.n >= 4 for g in graphs)
    assert any(are_isomorphic(g, Multigraph.complete(4)) for g in graphs)


@pytest.fixture(scope="module")
def simple6():
    return connected_simple_graphs(6)


def _census_order(g):
    return (g.n, g.edge_total(), canonical_key(g))


def test_simple_census_is_the_multiplicity_1_census(simple6):
    # same representatives in the same order, n = 1..6 at once
    assert simple6 == connected_multigraphs(6, 1)
    # the path on 3 vertices is represented centred at vertex 3
    assert connected_simple_graphs(3)[2].pairs() == [(1, 3, 1), (2, 3, 1)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_min_degree_census_is_a_filter_of_the_full_census(simple6, d):
    assert connected_simple_graphs(6, d) == [g for g in simple6 if min(g.degrees()) >= d]


def test_censuses_share_one_order(simple6):
    for graphs in (simple6, connected_multigraphs(4, 2),
                   gdp_trees(7, max_complete_block=3, max_degree=3)):
        assert graphs == sorted(graphs, key=_census_order)


def test_representatives_are_their_canonical_vectors(simple6):
    # the census keeps a vector exactly when _canonical_vector of its masks
    # returns it, so each representative is its class's canonical vector
    censuses = [connected_multigraphs(4, 2), connected_multigraphs(4, 3),
                connected_multigraphs(5, 1), simple6, connected_simple_graphs(6, 3)]
    for g in itertools.chain(*censuses):
        vec = tuple(g.multiplicity(u, v) for u, v in _pairs_of(g.n))
        assert vec == canonical_key(g)[1], g.pairs()


@pytest.mark.parametrize("n, max_mult", [(4, 2), (4, 3), (5, 1)])
def test_target_is_returned_exactly_when_canonical(n, max_mult):
    # every vector, disconnected ones too: given the vector as target,
    # _canonical_vector returns it exactly when it is the canonical vector,
    # and otherwise some vector below it
    pairs = _pairs_of(n)
    for vec in itertools.product(range(max_mult + 1), repeat=len(pairs)):
        vec = list(vec)
        # masks[x][0] holds the non-neighbours of x, as the census keeps it
        masks = [[((1 << n) - 1) ^ (1 << x)] + [0] * max_mult for x in range(n)]
        for (u, v), k in zip(pairs, vec):
            if k:
                for x, y in ((u - 1, v - 1), (v - 1, u - 1)):
                    masks[x][0] ^= 1 << y
                    masks[x][k] |= 1 << y
        got = _canonical_vector(masks, vec)
        g = Multigraph(n, {p: k for p, k in zip(pairs, vec) if k})
        if brute_canonical_key(g) == (n, tuple(vec)):
            assert got == vec
        else:
            # below vec at a position both have, not a shorter prefix of it
            assert got < vec[:len(got)], vec


@pytest.mark.parametrize("max_n, max_mult, min_degree",
                         [(4, 2, 0), (4, 3, 0), (5, 1, 0), (6, 1, 0),
                          (6, 1, 1), (6, 1, 2), (6, 1, 3)])
def test_row_scan_matches_the_product_scan(max_n, max_mult, min_degree):
    # same graphs, same labels, same order as a Multigraph per vector
    assert _census(max_n, max_mult, min_degree) == brute_census(max_n, max_mult, min_degree)


def test_census_builds_one_multigraph_per_class(monkeypatch):
    built = []

    def counted(*args):
        built.append(args)
        return Multigraph(*args)

    monkeypatch.setattr(dpcolor.census, "Multigraph", counted)
    for census in (lambda: connected_multigraphs(4, 2),
                   lambda: connected_simple_graphs(6, min_degree=2)):
        built.clear()
        graphs = census()
        assert len(built) == len(graphs)


def test_are_isomorphic():
    p1 = Multigraph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    p2 = Multigraph.from_edges(4, [(2, 4), (1, 4), (1, 3)])
    assert are_isomorphic(p1, p2)
    star = Multigraph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    assert not are_isomorphic(p1, star)
    a = Multigraph(3, {(1, 2): 2, (2, 3): 1})
    b = Multigraph(3, {(1, 3): 1, (2, 3): 2})
    assert are_isomorphic(a, b)
    assert not are_isomorphic(a, Multigraph(3, {(1, 2): 1, (2, 3): 1}))


def test_canonical_key_invariant():
    a = Multigraph(3, {(1, 2): 2, (2, 3): 1})
    b = Multigraph(3, {(1, 3): 1, (2, 3): 2})
    assert canonical_key(a) == canonical_key(b)
    assert canonical_key(a) != canonical_key(Multigraph(3, {(1, 2): 1, (2, 3): 1}))


def _labeled_multigraphs(n, max_mult):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for vec in itertools.product(range(max_mult + 1), repeat=len(pairs)):
        yield Multigraph(n, {p: m for p, m in zip(pairs, vec) if m})


def _random_multigraphs(rng, n, max_mult, count):
    for _ in range(count):
        yield Multigraph(n, {p: rng.randint(0, max_mult)
                             for p in itertools.combinations(range(1, n + 1), 2)})


def test_canonical_key_matches_brute_force():
    rng = random.Random(1609)
    families = [_labeled_multigraphs(n, 3) for n in range(1, 5)]
    families.append(_labeled_multigraphs(5, 1))
    families += [_random_multigraphs(rng, 6, 1, 200), _random_multigraphs(rng, 6, 2, 200),
                 _random_multigraphs(rng, 7, 1, 12), _random_multigraphs(rng, 7, 2, 12)]
    for family in families:
        for g in family:
            assert canonical_key(g) == brute_canonical_key(g), g.pairs()


def test_gdp_trees_census():
    trees = gdp_trees(6, max_complete_block=3, max_degree=3)
    assert all(is_gdp_tree(t) for t in trees)
    assert all(t.max_degree() <= 3 for t in trees)
    assert all(t.n <= 6 for t in trees)
    # no duplicates
    keys = {canonical_key(t) for t in trees}
    assert len(keys) == len(trees)
    # contains the path, the triangle, and the 6-cycle
    assert any(are_isomorphic(t, Multigraph.path(4)) for t in trees)
    assert any(are_isomorphic(t, Multigraph.cycle(3)) for t in trees)
    assert any(are_isomorphic(t, Multigraph.cycle(6)) for t in trees)
    # no 4-cliques when capped at 3
    assert not any(are_isomorphic(t, Multigraph.complete(4)) for t in trees)


def test_gdp_trees_deterministic():
    a = gdp_trees(6, max_complete_block=3, max_degree=3)
    b = gdp_trees(6, max_complete_block=3, max_degree=3)
    assert a == b


def test_gdp_trees_refuses_a_nonpositive_max_n():
    for max_n in (0, -2):
        with pytest.raises(ValueError, match="^max_n must be positive$"):
            gdp_trees(max_n, 3, 3)


def test_multigraph_census_cap():
    with pytest.raises(ValueError):
        connected_multigraphs(7, 1)


def test_simple_census_cap_refuses_before_any_scan(monkeypatch):
    # at 8 vertices the scan would run over 2^28 vectors
    def scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr(dpcolor.census, "_census", scan)
    with pytest.raises(ValueError, match="^simple-graph census supported up to 7 vertices$"):
        connected_simple_graphs(8, min_degree=3)


def test_census_vector_cap_refuses_before_any_scan(monkeypatch):
    # connected_multigraphs(4, 1000) would scan 1001^6 vectors on 4 vertices
    def scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr(dpcolor.census, "_pairs_of", scan)
    for max_n, max_mult in ((4, 1000), (2, 100_000_000), (6, 2)):
        with pytest.raises(CapExceeded,
                           match=f"^census vector count exceeds cap {MAX_CENSUS_VECTORS}$"):
            connected_multigraphs(max_n, max_mult)
    # the 7-vertex simple census, 2,131,019 vectors, is admitted
    with pytest.raises(AssertionError, match="^scan started$"):
        connected_simple_graphs(7, min_degree=3)


def test_multigraph_census_refuses_a_negative_multiplicity():
    with pytest.raises(ValueError, match="^max_mult must be nonnegative$"):
        connected_multigraphs(3, -1)
    assert connected_multigraphs(3, 0) == [Multigraph(1)]  # K1 alone
