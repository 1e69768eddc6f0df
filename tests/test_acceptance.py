"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the PASS lines
live).  Several criteria carry wall-clock budgets; they are asserted here.
"""

import random
import time
from fractions import Fraction

from dpcolor import (Cover, Multigraph, blocks, build_bad_complete,
                     build_bad_cycle, canonical_key, check_bound_multigraph,
                     check_bound_simple, check_critical, connected_simple_graphs,
                     decide_degree_colorable, format_multigraph, gdp_trees,
                     permute_colors, random_degree_cover, reduce_list, solve,
                     validate_cover)
from dpcolor.census import _pairs_of
from dpcolor.cli import main as cli_main
from dpcolor.solver import find_uncolorable_cover
from oracles import brute_list_coloring, random_connected_multigraph

SEED = 20250808


def _report(num, detail):
    print(f"ACCEPTANCE {num} PASS: {detail}")


def test_c01_cycles_have_dp_chromatic_number_3(tmp_path, capsys):
    worst = 0.0
    for n in range(3, 8):
        path = tmp_path / f"c{n}.graph"
        path.write_text(format_multigraph(Multigraph.cycle(n)))
        start = time.perf_counter()
        code = cli_main(["chi-dp", str(path)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out.strip()
        assert code == 0 and out == "3", f"cycle on {n} vertices: got {out!r}"
        assert elapsed < 30.0
        worst = max(worst, elapsed)
    _report(1, f"chi_dp(C_n)=3 for n=3..7 via the CLI, worst run {worst:.2f}s")


def test_c02_doubled_edge_dp_chromatic_numbers():
    from dpcolor import chi_dp
    start = time.perf_counter()
    for k in range(1, 5):
        assert chi_dp(Multigraph.complete(2, k)) == k + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(2, f"chi_dp(K_2^k)=k+1 for k=1..4 in {elapsed:.2f}s")


def test_c03_bad_cover_grids():
    start = time.perf_counter()
    checked = 0
    for n in range(2, 5):
        for k in range(1, 4):
            cover = build_bad_complete(n, k)
            assert validate_cover(cover) is None
            assert cover.list_sizes == cover.base.degrees()
            assert not solve(cover).colorable
            checked += 1
    for n in range(3, 7):
        for k in range(1, 3):
            cover = build_bad_cycle(n, k)
            assert validate_cover(cover) is None
            assert cover.list_sizes == cover.base.degrees()
            assert not solve(cover).colorable
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(3, f"{checked} constructed degree covers all valid and uncolorable "
               f"in {elapsed:.1f}s")


def test_c04_block_characterization_matches_oracle(census_oracle_run):
    results, elapsed = census_oracle_run
    disagreements = 0
    for g, oracle_colorable, _ in results:
        verdict = decide_degree_colorable(g, build_witness=False)
        if verdict.colorable != oracle_colorable:
            disagreements += 1
    assert disagreements == 0
    assert elapsed < 1800.0
    _report(4, f"structural decision agrees with the exhaustive oracle on all "
               f"{len(results)} census instances (oracle time {elapsed:.0f}s)")


def test_c05_uncolorable_witnesses_are_regular(census_oracle_run):
    results, _ = census_oracle_run
    checked = 0
    for g, colorable, witness in results:
        if colorable or g.n < 2:
            continue
        if len(blocks(g).blocks) != 1:
            continue  # only 2-connected instances
        degs = set(g.degrees())
        assert len(degs) == 1, f"irregular base admits a bad degree cover: {g}"
        for u, v, m in g.pairs():
            edges = witness.cross.get((u, v), frozenset())
            left = {i: 0 for i in range(1, witness.size(u) + 1)}
            right = {j: 0 for j in range(1, witness.size(v) + 1)}
            for i, j in edges:
                left[i] += 1
                right[j] += 1
            assert set(left.values()) == {m} and set(right.values()) == {m}, \
                f"cross edges between {u},{v} not exactly {m}-regular"
        checked += 1
    assert checked > 0
    _report(5, f"all {checked} two-connected witnesses have regular bases and "
               f"exactly multiplicity-regular cross edges")


def test_c06_one_surplus_color_restores_colorability(census_oracle_run):
    results, _ = census_oracle_run
    graphs = [g for g, _, _ in results]
    rng = random.Random(SEED)
    trials = 0
    while trials < 500:
        g = graphs[trials % len(graphs)]
        cover = random_degree_cover(g, rng)
        v = rng.randint(1, g.n)
        sizes = list(cover.list_sizes)
        sizes[v - 1] += 1
        enlarged = Cover(g, sizes, cover.cross)
        assert solve(enlarged).colorable, \
            f"surplus color at {v} failed on {g} (trial {trials})"
        trials += 1
    _report(6, f"{trials} random degree covers became colorable after one "
               f"fresh color")


def test_c07_criticality_and_equality():
    for g, k in [(Multigraph.complete(4), 4), (Multigraph.cycle(3), 3),
                 (Multigraph.cycle(4), 3), (Multigraph.cycle(3, 2), 5)]:
        report = check_critical(g, k)
        assert report.is_critical and report.chi == k
    for g, k in [(Multigraph.cycle(3), 3), (Multigraph.cycle(4), 3),
                 (Multigraph.cycle(3, 2), 5), (Multigraph.complete(4), 4)]:
        ok, slack = check_bound_multigraph(g, k)
        assert ok and slack == Fraction(0)
        assert slack.denominator == 1
    _report(7, "K_4, C_3, C_4, C_3^2 certified critical; edge bound met with "
               "equality, exact arithmetic")


def test_c08_gdp_tree_edge_bound_census():
    from dpcolor import check_gdp_edge_bound
    start = time.perf_counter()
    total = 0
    for k in (4, 5):
        trees = gdp_trees(8, max_complete_block=k - 1, max_degree=k - 1)
        assert len(trees) > 50
        for t in trees:
            ok, slack = check_gdp_edge_bound(t, k)
            assert isinstance(slack, Fraction)
            assert ok and slack >= 0
            total += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(8, f"{total} GDP-trees on <= 8 vertices satisfy the edge bound "
               f"for k in {{4, 5}} in {elapsed:.1f}s")


def test_c09_list_reduction_matches_direct_backtracking():
    rng = random.Random(SEED + 1)
    palette = ["a", "b", "c", "d"]
    disagreements = 0
    for _ in range(200):
        n = rng.randint(1, 7)
        mult = {}
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.45:
                    mult[(u, v)] = 1
        g = Multigraph(n, mult)
        lists = {v: rng.sample(palette, rng.randint(1, 3)) for v in g.vertices()}
        via_cover = solve(reduce_list(g, lists)).colorable
        direct = brute_list_coloring(g, lists)
        if via_cover != direct:
            disagreements += 1
    assert disagreements == 0
    _report(9, "200 random list-coloring instances agree with direct "
               "backtracking")


def test_c10_gauge_invariance():
    rng = random.Random(SEED + 2)
    for trial in range(1000):
        g = random_connected_multigraph(rng, 5, 2)
        cover = random_degree_cover(g, rng)
        perms = {v: tuple(rng.sample(range(1, cover.size(v) + 1), cover.size(v)))
                 for v in g.vertices()}
        relabeled = permute_colors(cover, perms)
        assert validate_cover(relabeled) is None
        assert solve(cover).colorable == solve(relabeled).colorable, \
            f"gauge changed status on trial {trial}: {g}"
    _report(10, "1000 random relabelings preserved solve status")


# Regression record: all simple graphs on <= 7 vertices that check_critical
# certifies as DP-4-critical, in canonical form.  K_4 heads the list; the
# 6-vertex entries are the 5-wheel and two relatives of K_{3,3} plus an edge.
DP4_CRITICAL_CANONICAL = [
    (4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))),
    (6, ((1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6), (3, 4), (3, 6), (4, 6), (5, 6))),
    (6, ((1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (5, 6))),
    (6, ((1, 4), (1, 5), (1, 6), (2, 3), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6))),
    (7, ((1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (2, 7), (3, 4), (3, 7), (4, 6), (5, 6), (5, 7))),
    (7, ((1, 5), (1, 6), (1, 7), (2, 4), (2, 6), (2, 7), (3, 4), (3, 5), (3, 7), (4, 6), (5, 6), (6, 7))),
    (7, ((1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (2, 7), (3, 4), (3, 6), (3, 7), (4, 6), (4, 7), (5, 7))),
    (7, ((1, 5), (1, 6), (1, 7), (2, 4), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (6, 7))),
    (7, ((1, 5), (1, 6), (1, 7), (2, 4), (2, 6), (2, 7), (3, 4), (3, 5), (3, 7), (4, 5), (4, 6), (5, 6))),
    (7, ((1, 5), (1, 6), (1, 7), (2, 5), (2, 6), (2, 7), (3, 4), (3, 6), (3, 7), (4, 5), (4, 7), (5, 6), (6, 7))),
    (7, ((1, 5), (1, 6), (1, 7), (2, 4), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (4, 7), (5, 6), (6, 7))),
    (7, ((1, 5), (1, 6), (1, 7), (2, 4), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (4, 5), (4, 7), (5, 6))),
    (7, ((1, 5), (1, 6), (1, 7), (2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (4, 6), (4, 7))),
]


def test_c11_dp4_critical_simple_graphs_satisfy_strong_bound():
    # minimum degree k-1 is forced for DP-k-critical graphs (greedy extension
    # of a smaller cover otherwise), which prunes the 7-vertex census hard
    candidates = connected_simple_graphs(7, min_degree=3)
    found = []
    for g in candidates:
        if find_uncolorable_cover(g, 3) is None:
            continue  # chi_dp below 4
        if any(find_uncolorable_cover(g.delete_single_edge(u, v), 3) is not None
               for u, v, _ in g.pairs()):
            continue  # some deletion keeps chi_dp at 4 or above
        if check_critical(g, 4).is_critical:
            found.append(g)
    record = []
    for g in found:
        n, vec = canonical_key(g)
        record.append((n, tuple(p for p, m in zip(_pairs_of(n), vec) if m)))
    assert sorted(record) == sorted(DP4_CRITICAL_CANONICAL), \
        "the set of certified DP-4-critical graphs changed"
    violations = 0
    for g in found:
        if g.n == 4:
            continue  # the complete graph is excluded from the bound
        ok, slack = check_bound_simple(g, 4)
        if not ok:
            violations += 1
        assert 2 * g.edge_total() >= Fraction(40, 13) * g.n
    assert violations == 0
    _report(11, f"{len(found)} DP-4-critical graphs on <= 7 vertices match the "
                f"pinned record; all except K_4 meet the 40/13 bound")
