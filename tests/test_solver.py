import heapq
import itertools
import math
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

import dpcolor.solver
from dpcolor import (CapExceeded, Cover, CoverInvalid,
                     InternalInvariantError, Multigraph,
                     build_bad_complete, build_bad_cycle,
                     chi_dp, connected_multigraphs, connected_simple_graphs,
                     degree_colorable_oracle, find_uncolorable_cover,
                     parse_multigraph,
                     permute_colors, product_reduction, random_degree_cover,
                     solve, validate_cover)
from dpcolor.solver import (MAX_MASK_BITS, MAX_ORACLE_TOTAL_DEGREE,
                            MAX_TRANSVERSAL_SPACE, _class_masks,
                            _complete_to_maximal, _fewest, _reach,
                            _spanning_forest)
from oracles import (brute_chromatic_number, brute_cover_count, brute_fewest,
                     brute_force_transversal, brute_uncolorable_cover_exists,
                     degree_bounded_cell_sets, gauge_equivalent,
                     is_transversal, is_union_of_maximum_matchings,
                     maximal_cell_sets, random_connected_multigraph)

DATA = Path(__file__).parent / "data"


def identity_cycle_cover(n, k):
    return product_reduction(Multigraph.cycle(n), k)


def test_check_transversal_examples():
    cover = identity_cycle_cover(4, 2)
    assert is_transversal(cover, (1, 2, 1, 2))
    assert not is_transversal(cover, (1, 1, 1, 1))
    k1 = Cover(Multigraph(1), (1,), {})
    assert is_transversal(k1, (1,))


def test_solve_bad_constructions_uncolorable():
    assert not solve(build_bad_cycle(4, 1)).colorable
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            assert not solve(build_bad_complete(n, k)).colorable


def test_solve_surplus_color_colorable():
    rng = random.Random(2)
    for _ in range(15):
        g = random_connected_multigraph(rng, 4, 2)
        cover = random_degree_cover(g, rng)
        v = rng.randint(1, g.n)
        sizes = list(cover.list_sizes)
        sizes[v - 1] += 1  # one fresh color with no conflicts
        enlarged = Cover(g, sizes, cover.cross)
        res = solve(enlarged)
        assert res.colorable
        assert is_transversal(enlarged, res.transversal.choice)


def test_solve_matches_brute_force():
    rng = random.Random(13)
    for _ in range(40):
        g = random_connected_multigraph(rng, 4, 2)
        cover = random_degree_cover(g, rng)
        res = solve(cover)
        brute = brute_force_transversal(cover)
        assert res.colorable == (brute is not None)
        if res.colorable:
            assert is_transversal(cover, res.transversal.choice)


def test_solve_deterministic():
    cover = random_degree_cover(Multigraph.complete(4), random.Random(8))
    r1, r2 = solve(cover), solve(cover)
    assert r1.colorable == r2.colorable
    assert r1.transversal == r2.transversal
    assert r1.nodes_explored == r2.nodes_explored


def test_solve_rejects_invalid_and_budget():
    g = Multigraph.complete(2)
    bad = Cover(g, (1, 2), {(1, 2): {(1, 1), (1, 2)}})
    with pytest.raises(CoverInvalid):
        solve(bad)
    with pytest.raises(CapExceeded):
        solve(build_bad_complete(4, 2), 1)


def test_greedy_succeeds_with_surplus_everywhere():
    # a list longer than the degree everywhere leaves a free color at every
    # vertex in any greedy order, so a transversal must exist
    rng = random.Random(21)
    for _ in range(15):
        g = random_connected_multigraph(rng, 4, 2)
        cover = random_degree_cover(g, rng)
        sizes = [s + 1 for s in cover.list_sizes]
        enlarged = Cover(g, sizes, cover.cross)
        res = solve(enlarged)
        assert res.colorable and is_transversal(enlarged, res.transversal.choice)


def test_chi_dp_examples():
    for n in (3, 4, 5):
        assert chi_dp(Multigraph.cycle(n)) == 3
    for k in (1, 2, 3):
        assert chi_dp(Multigraph.complete(2, k)) == k + 1
    assert chi_dp(Multigraph(1)) == 1
    assert chi_dp(Multigraph.complete(4)) == 4


def test_chi_dp_bounds():
    rng = random.Random(37)
    for _ in range(12):
        g = random_connected_multigraph(rng, 4, 2)
        chi = chi_dp(g)
        assert chi >= brute_chromatic_number(g)
        assert chi <= g.degeneracy() + 1


def test_chi_dp_does_not_search_its_upper_bound(monkeypatch):
    searched = []
    search = dpcolor.solver.find_uncolorable_cover

    def recording(g, k, node_budget):
        searched.append(k)
        return search(g, k, node_budget)

    monkeypatch.setattr(dpcolor.solver, "find_uncolorable_cover", recording)
    for g, chi in ((Multigraph.complete(4), 4), (Multigraph.cycle(5), 3),
                   (parse_multigraph((DATA / "k2x3.graph").read_text()), 4),
                   (parse_multigraph((DATA / "c4x2.graph").read_text()), 5)):
        searched.clear()
        assert chi_dp(g) == chi
        assert all(k < g.degeneracy() + 1 for k in searched), (g, searched)


def test_chi_dp_disconnected_is_max_over_components():
    g = Multigraph(5, {(1, 2): 1, (3, 4): 1, (4, 5): 1, (3, 5): 1})
    assert chi_dp(g) == 3  # triangle component dominates


def test_find_uncolorable_cover_properties():
    g = Multigraph.cycle(4)
    witness = find_uncolorable_cover(g, g.degrees())
    assert witness is not None
    assert validate_cover(witness) is None
    assert witness.list_sizes == g.degrees()
    assert not solve(witness).colorable
    # deterministic
    assert find_uncolorable_cover(g, g.degrees()) == witness
    # none at the greedy bound
    assert find_uncolorable_cover(g, 3) is None


def test_find_uncolorable_cover_refuses_negative_list_sizes():
    for sizes in (-1, (1, -1, 1)):
        with pytest.raises(ValueError, match="^list sizes must be nonnegative$"):
            find_uncolorable_cover(Multigraph.path(3), sizes)


def test_find_uncolorable_cover_deeper_than_the_recursion_limit():
    # K2 with 32 parallel edges and 32-lists: every one of the 1024 cells is
    # needed, so the search path is 1024 nodes deep
    witness = find_uncolorable_cover(Multigraph(2, {(1, 2): 32}), 32)
    assert witness is not None
    assert not solve(witness).colorable


def test_find_uncolorable_cover_space_cap():
    # 7 ** 7 = 823,543 transversals
    with pytest.raises(CapExceeded,
                       match=f"^transversal space exceeds cap {MAX_TRANSVERSAL_SPACE}$"):
        find_uncolorable_cover(Multigraph.complete(7), 7)


def test_find_uncolorable_cover_refuses_cell_masks_over_the_cap():
    # K2^250 with 250-lists: 62,500 transversals are under the space cap,
    # but 62,500 cells of 62,500-bit masks are not under the mask cap
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded,
                           match=f"^cell masks of .* exceed cap {MAX_MASK_BITS}$"):
            find_uncolorable_cover(Multigraph.complete(2, 250), 250, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def _assert_cannot_grow(cover):
    """Every pair keeps its bipartite degrees within its multiplicity and
    has no cell left that it could still take."""
    assert validate_cover(cover) is None
    for u, v, m in cover.base.pairs():
        cells = set(cover.cross.get((u, v), ()))
        rows = Counter(i for i, _ in cells)
        cols = Counter(j for _, j in cells)
        addable = [(i, j) for i in range(1, cover.size(u) + 1)
                   for j in range(1, cover.size(v) + 1)
                   if (i, j) not in cells and rows[i] < m and cols[j] < m]
        assert addable == [], (cover.base.pairs(), cover.list_sizes, (u, v))


def test_completion_is_a_union_of_maximum_matchings():
    """Every degree-capped starting set on lists of size <= 3 with m <= 3
    completes to a superset that cannot grow and is a union of m maximum
    matchings."""
    checked = 0
    for a, b, m in itertools.product(range(1, 4), repeat=3):
        g = Multigraph(2, {(1, 2): m})
        for start in degree_bounded_cell_sets(a, b, m):
            cells = _complete_to_maximal(g, (a, b), {(1, 2): start})[(1, 2)]
            checked += 1
            assert start <= cells
            _assert_cannot_grow(Cover(g, (a, b), {(1, 2): cells}))
            assert is_union_of_maximum_matchings(cells, a, b, m), (a, b, m, start)
    assert checked == 1168


def test_oracle_witnesses_cannot_grow(census_oracle_run):
    # a completion that extends each matching of an edge colouring on its
    # own leaves an addable cell on this graph's pair (3, 4)
    g = parse_multigraph("4\n1 4 1\n2 3 2\n3 4 2\n")
    witnesses = [find_uncolorable_cover(g, g.degrees())]
    witnesses.extend(w for _, _, w in census_oracle_run[0] if w is not None)
    for witness in witnesses:
        _assert_cannot_grow(witness)


def test_oracle_examples():
    ok, witness = degree_colorable_oracle(Multigraph.cycle(4))
    assert not ok
    assert gauge_equivalent(witness, build_bad_cycle(4, 1))
    diamond = Multigraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    assert degree_colorable_oracle(diamond) == (True, None)
    ok, witness = degree_colorable_oracle(Multigraph(1))
    assert not ok and witness.list_sizes == (0,)
    with pytest.raises(ValueError):
        degree_colorable_oracle(Multigraph(3, {(1, 2): 1}))
    with pytest.raises(CapExceeded):
        degree_colorable_oracle(Multigraph.complete(5, 2))


def test_oracle_total_degree_cap_boundary():
    # K2^12 has total degree 24, at the cap: it is searched and has a witness
    ok, witness = degree_colorable_oracle(Multigraph.complete(2, 12))
    assert MAX_ORACLE_TOTAL_DEGREE == 24
    assert not ok and witness.list_sizes == (12, 12)
    with pytest.raises(CapExceeded, match="^total degree 26 exceeds cap 24$"):
        degree_colorable_oracle(Multigraph.complete(2, 13))


def test_oracle_rejects_a_bad_witness(monkeypatch):
    edge = Multigraph.complete(2)
    invalid = Cover(edge, (1, 1), {(1, 2): {(1, 1), (1, 2)}})
    colorable = Cover(edge, (1, 1), {})
    for witness, message in ((invalid, "fails validation"), (colorable, "colorable")):
        monkeypatch.setattr(dpcolor.solver, "find_uncolorable_cover",
                            lambda g, sizes, node_budget, w=witness: w)
        with pytest.raises(InternalInvariantError, match=message):
            degree_colorable_oracle(edge)


def test_oracle_agrees_with_enumeration():
    rng = random.Random(41)
    seen = set()
    checked = 0
    for _ in range(10):
        g = random_connected_multigraph(rng, 3, 2)
        if g in seen:
            continue
        seen.add(g)
        if brute_cover_count(g, g.degrees()) > 50_000:
            continue  # the brute force would take too long
        checked += 1
        colorable = degree_colorable_oracle(g)[0]
        assert colorable == (not brute_uncolorable_cover_exists(g, g.degrees())), g
    assert checked == 5


def test_gauge_invariance_of_solve():
    rng = random.Random(53)
    for _ in range(60):
        g = random_connected_multigraph(rng, 4, 2)
        cover = random_degree_cover(g, rng)
        perms = {v: tuple(rng.sample(range(1, cover.size(v) + 1), cover.size(v)))
                 for v in g.vertices()}
        relabeled = permute_colors(cover, perms)
        assert solve(cover).colorable == solve(relabeled).colorable


def test_solve_result_counts_and_time():
    res = solve(build_bad_cycle(4, 1))
    assert res.nodes_explored > 0
    assert res.transversal is None


def test_solve_long_path_runs_without_recursion():
    n = 5000
    res = solve(product_reduction(Multigraph.path(n), 2))
    assert res.colorable
    assert res.nodes_explored == n
    assert res.transversal.choice == (1, 2) * (n // 2)


def test_solve_heap_stays_bounded(monkeypatch):
    # a long failing search pushes far more entries than there are vertices
    # (over 700 here without the rebuild); the heap never holds more than 4n + 1
    cover = build_bad_complete(9, 1)
    lengths = []
    push = heapq.heappush

    def tracking_push(heap, item):
        push(heap, item)
        lengths.append(len(heap))

    monkeypatch.setattr(heapq, "heappush", tracking_push)
    with pytest.raises(CapExceeded):
        solve(cover, 20_000)
    assert len(lengths) > 20_000
    assert max(lengths) <= 4 * 9 + 1


@pytest.mark.parametrize("sizes", [(1,), (4,), (1, 1), (2, 1, 3), (3, 2, 1, 2),
                                   (1, 3, 1), (2, 2, 2)])
def test_class_masks_match_product_definition(sizes):
    want = [None] + [[0] * s for s in sizes]
    for b, t in enumerate(itertools.product(*[range(1, s + 1) for s in sizes])):
        for v, c in enumerate(t, start=1):
            want[v][c - 1] |= 1 << b
    masks, strides = _class_masks(sizes)
    assert masks == want
    assert strides == [math.prod(sizes[v:]) for v in range(len(sizes) + 1)]
    for b, t in enumerate(itertools.product(*[range(1, s + 1) for s in sizes])):
        assert t == tuple(b // strides[v] % s + 1 for v, s in enumerate(sizes, start=1))


def test_fewest_matches_per_bit_counts():
    """The fail-first target: the bits of S that the fewest coverage masks
    hold, and how many hold them, against counting bit by bit."""
    rng = random.Random(1609)

    def coverage(bits, density):  # a bit is set with probability 1/4, 1/2 or 7/8
        a, b, c = (rng.getrandbits(bits) for _ in range(3))
        return (a & b, a, a | b | c)[density]

    inputs = []
    for _ in range(150):
        bits = rng.randint(1, 200)
        S = rng.getrandbits(bits) | 1 << (bits - 1)
        density = rng.randrange(3)
        inputs.append((S, [coverage(bits, density) for _ in range(rng.randint(0, 64))]))
    for pairs in (1, 2, 3, 7, 8, 63, 64):  # every coverage equal: count P
        mask = rng.getrandbits(150)
        inputs.append((mask, [mask] * pairs))
        inputs.append((mask | 1 << 150, [mask] * pairs))  # one bit held by none
    counts = Counter()
    for S, masks in inputs:
        want = brute_fewest(S, masks)
        assert _fewest(S, masks) == want, (S, masks)
        counts[want[1] == 0, want[1] == len(masks)] += 1
    # (some bit held by none, every bit held by all): both shapes and neither
    assert counts[True, False] >= 10 and counts[False, True] >= 7
    assert counts[False, False] >= 100


@pytest.mark.parametrize("max_n,max_mult,max_size,instances", [
    (3, 2, 2, 60),
    (4, 1, 3, 40),
    (3, 2, 3, 40),  # doubled pairs on 3-lists, where the row and column caps bind
])
def test_cover_search_matches_brute_force(max_n, max_mult, max_size, instances):
    """Existence of an uncolorable cover agrees with scanning every cover."""
    rng = random.Random(1609 + max_size)
    answers = set()
    done = 0
    while done < instances:
        g = random_connected_multigraph(rng, max_n, max_mult, min_n=2)
        sizes = tuple(rng.randint(1, max_size) for _ in g.vertices())
        if brute_cover_count(g, sizes) > 50_000:
            continue  # the brute force would take too long
        done += 1
        witness = find_uncolorable_cover(g, sizes)
        expected = brute_uncolorable_cover_exists(g, sizes)
        assert (witness is not None) == expected, (g, sizes)
        answers.add(expected)
        if witness is not None:
            assert validate_cover(witness) is None
            assert witness.list_sizes == sizes
            assert brute_force_transversal(witness) is None
    assert answers == {True, False}


def test_reach_bounds_every_cell_set_within_the_caps():
    """_reach is at least the kill count of every set of live cells that
    respects the remaining row and column degrees, against scanning every
    cell set.  When the held degrees agree, as in a search, it is never above
    the largest kill counts of as many cells as the pair has room for."""
    rng = random.Random(1610)
    tight = 0
    for _ in range(400):
        m, a, b = rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 3)
        rowdeg = [0] + [rng.randint(0, m) for _ in range(a)]
        coldeg = [0] + [rng.randint(0, m) for _ in range(b)]
        mus = [rng.choice((0, rng.randint(1, 9))) for _ in range(a * b)]
        bound = _reach(mus, b, m, rowdeg, coldeg)
        best = 0
        for chosen in itertools.product((0, 1), repeat=a * b):
            rows = [sum(chosen[(i - 1) * b:i * b]) for i in range(1, a + 1)]
            cols = [sum(chosen[j - 1::b]) for j in range(1, b + 1)]
            if all(rowdeg[i] + rows[i - 1] <= m for i in range(1, a + 1)) and \
                    all(coldeg[j] + cols[j - 1] <= m for j in range(1, b + 1)):
                best = max(best, sum(itertools.compress(mus, chosen)))
        assert best <= bound, (mus, b, m, rowdeg, coldeg)
        tight += best == bound
        held = sum(rowdeg)
        if held == sum(coldeg):  # as in a search: the caps imply the pair's room
            room = m * min(a, b) - held
            assert sum(sorted(mus, reverse=True)[:room]) >= bound
    assert tight >= 100  # the bound is often exact, so it is not trivially loose


def test_reach_cut_keeps_the_first_cover_on_real_instances(monkeypatch):
    """The reach cut only drops subtrees that hold no uncolorable cover, so
    the depth-first search finds the same first cover, or none, with the
    cut disabled: degree lists over connected_multigraphs(4, 2) and 3-lists
    over the connected 6-vertex simple graphs of minimum degree 3."""
    instances = [(g, g.degrees()) for g in connected_multigraphs(4, 2)
                 if sum(g.degrees()) <= MAX_ORACLE_TOTAL_DEGREE]
    instances += [(g, 3) for g in connected_simple_graphs(6, min_degree=3)]
    assert len(instances) == 63 + 23
    reach = dpcolor.solver._reach
    found = set()
    # instance by instance, uncut first: a cut that drops the first cover can
    # send the search through the rest of a very large tree
    for g, sizes in instances:
        monkeypatch.setattr(dpcolor.solver, "_reach", lambda *args: 1 << 62)
        without = find_uncolorable_cover(g, sizes)
        monkeypatch.setattr(dpcolor.solver, "_reach", reach)
        assert find_uncolorable_cover(g, sizes) == without, (g.pairs(), sizes)
        found.add(without is not None)
    assert found == {True, False}


def _doubled_multigraphs():
    """Every labelled connected multigraph on 2 or 3 vertices with
    multiplicity <= 2 and at least one pair of multiplicity 2."""
    yield Multigraph(2, {(1, 2): 2})
    pairs = [(1, 2), (1, 3), (2, 3)]
    for mults in itertools.product(range(3), repeat=3):
        g = Multigraph(3, {p: m for p, m in zip(pairs, mults) if m})
        if 2 in mults and g.is_connected():
            yield g


def test_gauge_on_doubled_pairs_matches_brute_force():
    """The gauge takes a diagonal matching up front on a doubled tree pair
    whose parent has the shorter list; existence answers must agree with
    scanning every cover, under every list-size vector with sizes 1..3."""
    checked = 0
    answers = set()
    for g in _doubled_multigraphs():
        for sizes in itertools.product(range(1, 4), repeat=g.n):
            if brute_cover_count(g, sizes) > 50_000:
                continue  # the brute force would take too long
            checked += 1
            expected = brute_uncolorable_cover_exists(g, sizes)
            witness = find_uncolorable_cover(g, sizes)
            assert (witness is not None) == expected, (g.pairs(), sizes)
            answers.add(expected)
            if witness is not None:
                assert brute_force_transversal(witness) is None
                _assert_cannot_grow(witness)
    assert checked == 419
    assert answers == {True, False}


def _assert_search_nodes(g, sizes, nodes, found):
    """The cell search takes exactly `nodes` nodes: it finishes with that
    budget, with the answer `found`, and runs out one node below it."""
    assert (find_uncolorable_cover(g, sizes, nodes) is not None) == found
    with pytest.raises(CapExceeded, match=f"^cover search exceeded node budget {nodes - 1}$"):
        find_uncolorable_cover(g, sizes, nodes - 1)


def test_gauge_keeps_the_left_out_oracle_search_small():
    # the degree-list search on this (4,4,6,6) graph took 339,798 nodes
    # before doubled tree pairs were gauge-fixed, and exhausts in 3,639 now
    g = parse_multigraph("4\n1 3 2\n1 4 2\n2 3 2\n2 4 2\n3 4 2\n")
    assert g.degrees() == (4, 4, 6, 6)
    _assert_search_nodes(g, g.degrees(), 3_639, False)


def test_forest_from_the_shortest_lists_keeps_a_mixed_degree_search_small():
    # with the BFS tree from vertex 1, 1 of this (4,4,3,3,2) graph's 4 tree
    # pairs was gauge-fixed and the search took 2,553 nodes; grown from the
    # shortest lists, all 4 are, and it exhausted in 333 while each searched
    # its diagonal, and in 162 now that each takes its diagonal up front
    g = parse_multigraph("5\n1 2 1\n1 3 1\n1 4 1\n1 5 1\n2 3 1\n2 4 1\n2 5 1\n3 4 1\n")
    assert g.degrees() == (4, 4, 3, 3, 2)
    _assert_search_nodes(g, g.degrees(), 162, False)


@pytest.mark.parametrize("g,k,nodes,found", [
    (Multigraph.complete(4), 3, 10, True),
    (Multigraph.complete(4), 4, 4, False),
    (Multigraph.cycle(5), 2, 3, True),
], ids=["K4-k3", "K4-k4", "C5-k2"])
def test_search_node_counts_are_pinned(g, k, nodes, found):
    # exact counts: any change to the search's branching or cuts moves them
    _assert_search_nodes(g, k, nodes, found)


def test_forests_with_several_roots_match_brute_force():
    """Grown from the shortest lists, a component's forest has one root per
    connected set of equal-size vertices with no neighbor of a shorter list.
    Existence answers must agree with scanning every maximal cover, on
    every connected multigraph on at most 4 vertices with multiplicity <= 2
    and every list-size vector with sizes 1..4 and at most 200
    transversals, leaving out those with over 2,000 maximal covers."""
    checked = several_roots = 0
    answers = set()
    for g in connected_multigraphs(4, 2):
        for sizes in itertools.product(range(1, 5), repeat=g.n):
            if math.prod(sizes) > 200 or math.prod(
                    len(maximal_cell_sets(sizes[u - 1], sizes[v - 1], m))
                    for u, v, m in g.pairs()) > 2_000:
                continue  # the brute force would take too long
            checked += 1
            several_roots += g.n - len(_spanning_forest(g, sizes)) >= 2
            expected = brute_uncolorable_cover_exists(g, sizes)
            assert (find_uncolorable_cover(g, sizes) is not None) == expected, \
                (g.pairs(), sizes)
            answers.add(expected)
    assert (checked, several_roots) == (6_717, 1_357)
    assert answers == {True, False}


def _broken_cover(rng, kind):
    """A seeded random degree cover, then one change of the given kind:
    "valid" and "empty" (a zero-size list touched by no cross edge) keep
    the cover conditions; the other kinds break one."""
    while True:
        g = random_connected_multigraph(rng, 4, 2, min_n=2)
        cover = random_degree_cover(g, rng)
        sizes = list(cover.list_sizes)
        cross = {p: set(e) for p, e in cover.cross.items()}
        u, v, m = rng.choice(g.pairs())
        su, sv = sizes[u - 1], sizes[v - 1]
        if kind == "nonadjacent":
            free = [(a, b) for a in g.vertices() for b in range(a + 1, g.n + 1)
                    if not g.multiplicity(a, b)]
            if not free:
                continue
            a, b = rng.choice(free)
            cross[(a, b)] = {(rng.randint(1, sizes[a - 1]), rng.randint(1, sizes[b - 1]))}
        elif kind in ("index0", "negative", "over"):
            bad_u, bad_v = {"index0": (0, 0), "negative": (-1, -1),
                            "over": (su + 1, sv + 1)}[kind]
            cross[(u, v)].add(rng.choice([(bad_u, rng.randint(1, sv)),
                                          (rng.randint(1, su), bad_v)]))
        elif kind == "degree":
            # raise one row (or, transposed, one column) to degree m + 1
            flip = rng.random() < 0.5
            own, other = (sv, su) if flip else (su, sv)
            if other <= m:
                continue
            edges = {(j, i) for i, j in cross[(u, v)]} if flip else cross[(u, v)]
            i = rng.randint(1, own)
            row = {j for r, j in edges if r == i}
            spare = [j for j in range(1, other + 1) if j not in row]
            rng.shuffle(spare)
            added = {(i, j) for j in spare[:m + 1 - len(row)]}
            if flip:
                added = {(j, i) for i, j in added}
            cross[(u, v)].update(added)
        elif kind == "zero":
            sizes[rng.choice([u, v]) - 1] = 0  # its cross edges now leave the list
        elif kind == "empty":
            w = rng.choice(list(g.vertices()))
            cross = {p: e for p, e in cross.items() if w not in p}
            sizes[w - 1] = 0
        return Cover(g, sizes, cross)


@pytest.mark.parametrize("kind", ["valid", "empty", "nonadjacent", "index0", "negative",
                                  "over", "degree", "zero"])
def test_walk_agrees_with_validate_cover(kind):
    # solve decides the cover conditions in its walk over the cross edges;
    # it must raise exactly when validate_cover finds a violation, with
    # validate_cover's message
    rng = random.Random(sum(map(ord, kind)))
    for _ in range(40):
        cover = _broken_cover(rng, kind)
        viol = validate_cover(cover)
        assert (viol is None) == (kind in ("valid", "empty"))
        assert (dpcolor.solver._conflict_masks(cover) is None) == (viol is not None)
        if viol is not None:
            with pytest.raises(CoverInvalid) as err:
                solve(cover)
            assert str(err.value) == str(viol)
            continue
        res = solve(cover)
        assert res.colorable == (brute_force_transversal(cover) is not None)
        if res.colorable:
            assert is_transversal(cover, res.transversal.choice)


@pytest.mark.parametrize("build,nodes,choice", [
    (lambda: build_bad_complete(4, 1), 15, None),
    (lambda: build_bad_complete(4, 2), 78, None),
    (lambda: build_bad_complete(5, 1), 64, None),
    (lambda: build_bad_complete(5, 2), 632, None),
    (lambda: build_bad_cycle(5, 2), 60, None),
    (lambda: product_reduction(Multigraph.path(2000), 2), 2000, (1, 2) * 1000),
], ids=["K4", "K4x2", "K5", "K5x2", "C5x2", "path2000"])
def test_solve_pinned_nodes_and_choice(build, nodes, choice):
    # node counts and transversals recorded before the search loop was
    # inlined; the pick rule must not change them
    res = solve(build())
    assert res.nodes_explored == nodes
    assert (res.transversal.choice if res.colorable else None) == choice
