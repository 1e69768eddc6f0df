import gc
import random
import tracemalloc

import pytest

import dpcolor.cover
import dpcolor.multigraph

from dpcolor import (CapExceeded, Cover, Multigraph, ParseError,
                     build_bad_complete, build_bad_cycle, format_cover,
                     iter_violations, parse_cover, permute_colors,
                     product_reduction, random_degree_cover, reduce_list,
                     solve, validate_cover)
from dpcolor.cover import MAX_LIST_SIZE
from dpcolor.multigraph import MAX_VERTICES
from oracles import brute_force_transversal, random_connected_multigraph


def test_validate_good_covers():
    assert validate_cover(build_bad_complete(3, 2)) is None
    assert validate_cover(Cover(Multigraph(1), (1,), {})) is None


def test_validate_reports_first_violation():
    g = Multigraph.complete(2)
    bad = Cover(g, (1, 2), {(1, 2): {(1, 1), (1, 2)}})
    viol = validate_cover(bad)
    assert viol is not None
    assert viol.pair == (1, 2)
    assert viol.color == (1, 1)
    assert "bipartite degree 2" in viol.message


def test_validate_non_adjacent_and_range():
    g = Multigraph.path(3)
    viol = validate_cover(Cover(g, (1, 1, 1), {(1, 3): {(1, 1)}}))
    assert viol.pair == (1, 3) and "non-adjacent" in viol.message
    viol = validate_cover(Cover(g, (1, 1, 1), {(1, 2): {(1, 2)}}))
    assert viol.color == (2, 2) and "outside list" in viol.message


def test_all_violations_listed():
    g = Multigraph.complete(2)
    bad = Cover(g, (2, 2), {(1, 2): {(1, 1), (1, 2), (2, 1), (2, 2)}})
    assert len(list(iter_violations(bad))) == 4  # every color over degree 1


def test_reduce_list_matchings():
    k2 = Multigraph.complete(2)
    shared = reduce_list(k2, {1: ["a", "b"], 2: ["a", "b"]})
    assert shared.cross == {(1, 2): ((1, 1), (2, 2))}
    disjoint = reduce_list(k2, {1: ["a", "b"], 2: ["c", "d"]})
    assert disjoint.cross == {}
    crossed = reduce_list(k2, {1: ["a", "b", "c"], 2: ["c", "x", "a"]})
    assert crossed.cross == {(1, 2): ((1, 3), (3, 1))}
    assert validate_cover(shared) is None


def test_reduce_list_c4_two_colors_colorable():
    c4 = Multigraph.cycle(4)
    cover = reduce_list(c4, {v: ["a", "b"] for v in c4.vertices()})
    identity = ((1, 1), (2, 2))
    assert all(cover.cross[(u, v)] == identity for u, v, _ in c4.pairs())
    res = solve(cover)
    assert res.colorable
    assert brute_force_transversal(cover) is not None


def test_reduce_list_rejects_multigraph_and_bad_lists():
    with pytest.raises(ValueError):
        reduce_list(Multigraph(2, {(1, 2): 2}), {1: [1], 2: [1]})
    with pytest.raises(ValueError):
        reduce_list(Multigraph.complete(2), {1: [1, 1], 2: [1]})
    with pytest.raises(ValueError):
        reduce_list(Multigraph.complete(2), {1: [1]})


def test_product_reduction():
    k3 = Multigraph.complete(3)
    assert solve(product_reduction(k3, 3)).colorable
    assert not solve(product_reduction(k3, 2)).colorable
    assert not solve(product_reduction(Multigraph.cycle(5), 2)).colorable
    with pytest.raises(ValueError):
        product_reduction(k3, 0)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (2, 3)])
def test_build_bad_complete_examples(n, k):
    cover = build_bad_complete(n, k)
    assert validate_cover(cover) is None
    assert cover.list_sizes == (k * (n - 1),) * n
    assert brute_force_transversal(cover) is None


def test_build_bad_complete_rejects_small():
    with pytest.raises(ValueError):
        build_bad_complete(1, 2)
    with pytest.raises(ValueError):
        build_bad_complete(3, 0)


@pytest.mark.parametrize("n,k", [(4, 1), (3, 1), (5, 2)])
def test_build_bad_cycle_examples(n, k):
    cover = build_bad_cycle(n, k)
    assert validate_cover(cover) is None
    assert cover.list_sizes == (2 * k,) * n
    assert brute_force_transversal(cover) is None


def test_build_bad_cycle_rejects_small():
    with pytest.raises(ValueError):
        build_bad_cycle(2, 1)


def test_bad_cycle_on_triangle_matches_bad_complete():
    # C_3 with k-fold edges is the same multigraph as the 3-vertex complete
    # power, and for odd length the closing matching is straight
    for k in (1, 2):
        assert build_bad_cycle(3, k) == build_bad_complete(3, k)


def test_permute_colors_round_trip():
    cover = build_bad_cycle(4, 1)
    perms = {1: (2, 1), 3: (2, 1)}
    back = {1: (2, 1), 3: (2, 1)}
    assert permute_colors(permute_colors(cover, perms), back) == cover
    assert validate_cover(permute_colors(cover, perms)) is None
    with pytest.raises(ValueError):
        permute_colors(cover, {1: (1, 1)})


def test_permute_colors_preserves_coloring_count():
    from oracles import brute_count_transversals
    rng = random.Random(61)
    for _ in range(20):
        g = random_connected_multigraph(rng, 4, 2)
        cover = random_degree_cover(g, rng)
        perms = {v: tuple(rng.sample(range(1, cover.size(v) + 1), cover.size(v)))
                 for v in g.vertices()}
        relabeled = permute_colors(cover, perms)
        assert brute_count_transversals(cover) == brute_count_transversals(relabeled)


def test_random_degree_cover_seeded():
    g = Multigraph.from_edges(4, [(1, 2, 2), (2, 3), (3, 4), (1, 4)])
    c1 = random_degree_cover(g, random.Random(99))
    c2 = random_degree_cover(g, random.Random(99))
    assert c1 == c2
    assert validate_cover(c1) is None
    assert c1.list_sizes == g.degrees()


def test_cover_text_round_trip():
    rng = random.Random(3)
    for _ in range(15):
        g = random_connected_multigraph(rng, 5, 2)
        cover = random_degree_cover(g, rng)
        assert parse_cover(format_cover(cover), base=g) == cover


def _edge_lines_shuffled(text, rng):
    lines = text.splitlines()
    body = lines[2:]
    rng.shuffle(body)
    return "\n".join(lines[:2] + body) + "\n"


def test_parse_matches_the_checked_constructor():
    # parse_cover builds its cover without Cover.__init__; over random degree
    # covers, in any line order, it must give what __init__ makes of the
    # same cells handed over as sets, down to the sorted tuple per pair
    rng = random.Random(29)
    for _ in range(300):
        g = random_connected_multigraph(rng, 6, 3)
        cover = random_degree_cover(g, rng)
        sets = {pair: set(edges) for pair, edges in cover.cross.items()}
        built = Cover(g, g.degrees(), sets)
        text = _edge_lines_shuffled(format_cover(cover), rng)
        parsed = parse_cover(text, base=g)
        assert parsed == built
        assert parsed.cross == {pair: tuple(sorted(es)) for pair, es in sets.items()}
        assert all(u < v for u, v in parsed.cross)
        assert format_cover(parsed) == format_cover(built)
        inferred = parse_cover(text)
        assert inferred.cross == built.cross
        assert all(inferred.base.multiplicity(u, v) <= m for u, v, m in g.pairs())


def test_parse_shares_cells_within_the_table_bound(monkeypatch):
    class Table(dict):  # records the most tuples it ever held
        most = 0

        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            self.most = max(self.most, len(self))

    g = dpcolor.multigraph.parse_multigraph("3\n1 2 1\n1 3 1\n2 3 1\n")
    table = Table()
    monkeypatch.setattr(dpcolor.multigraph, "_shared", table)
    monkeypatch.setattr(dpcolor.multigraph, "_SHARED_MAX", 6)
    # offers, in file order, 3 pair keys and 5 distinct cells: the first 6
    # fill the table, and the 7th, pair key (2, 3), finds it full and starts
    # it over, so the parse leaves (2, 3) and its cell (4, 3)
    text = "3\n4 4 4\n1 1 2 1\n1 4 2 4\n1 3 2 4\n1 1 3 4\n2 4 3 3\n"
    big = parse_cover(text, base=g)
    assert set(table) == {(2, 3), (4, 3)}
    assert big.cross[(2, 3)] == ((4, 3),)
    # sharing resumes after the reset: two parses of a new cover hold one
    # tuple per cell and pair key
    small = "3\n4 4 4\n1 2 2 1\n"
    one, two = parse_cover(small, base=g), parse_cover(small, base=g)
    assert one.cross[(1, 2)][0] is two.cross[(1, 2)][0]
    assert next(iter(one.cross)) is next(iter(two.cross))
    assert table.most == 6


def test_parsed_covers_stay_small(monkeypatch):
    # a batch of parsed small covers holds under 1 KB per cover, counting the
    # share table it fills from empty; a cover stored as a dict of frozensets
    # held about 2.1 KB
    table = {}
    monkeypatch.setattr(dpcolor.multigraph, "_shared", table)
    rng = random.Random(47)
    corpus = []
    for _ in range(1200):
        g = random_connected_multigraph(rng, 5, 2, min_n=2)
        corpus.append((g, format_cover(random_degree_cover(g, rng))))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parsed = [parse_cover(text, base=g) for g, text in corpus]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(parsed) == 1200
    assert held / len(parsed) < 1024, held / len(parsed)


def test_cover_parse_inferred_base():
    cover = build_bad_complete(3, 2)
    again = parse_cover(format_cover(cover))
    # the witness is saturated, so the minimal base is the true one
    assert again == cover


@pytest.mark.parametrize("text,fragment", [
    ("", "vertex count"),
    ("2\n1\n", "expected 2 list sizes"),
    ("2\n1 1\n1 1 1 1\n", "u < v"),
    ("2\n1 1\n1 2 2 1\n", "outside list"),
    ("2\n2 2\n1 1 2 1\n1 1 2 1\n", "duplicate"),
    ("1\n", "missing list sizes"),
])
def test_cover_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_cover(text)
    assert fragment in str(exc.value)


def test_cover_parse_caps_vertex_count():
    with pytest.raises(CapExceeded):
        parse_cover("100000000\n")
    with pytest.raises(CapExceeded):
        parse_cover(f"{MAX_VERTICES + 1}\n")
    # the cap itself is allowed: the parse gets as far as the missing sizes
    with pytest.raises(ParseError):
        parse_cover(f"{MAX_VERTICES}\n")


def test_cover_parse_caps_list_sizes():
    with pytest.raises(CapExceeded) as exc:
        parse_cover("2\n1000000000 1000000000\n1 1 2 1\n")
    assert str(exc.value) == f"list size 1000000000 exceeds cap {MAX_LIST_SIZE}"
    with pytest.raises(CapExceeded):
        parse_cover(f"2\n1 {MAX_LIST_SIZE + 1}\n")
    assert parse_cover(f"2\n{MAX_LIST_SIZE} 1\n1 1 2 1\n").list_sizes == (MAX_LIST_SIZE, 1)
