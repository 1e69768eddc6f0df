from fractions import Fraction

import pytest

from dpcolor import (GdpPrecondition, Multigraph, check_bound_multigraph,
                     check_bound_simple, check_critical, check_gdp_edge_bound,
                     gdp_trees, simple_critical_coefficient)
from oracles import induced


def test_check_critical_examples():
    assert check_critical(Multigraph.complete(4), 4).is_critical
    assert check_critical(Multigraph.cycle(3, 2), 5).is_critical
    report = check_critical(Multigraph.cycle(3, 2), 5)
    assert report.chi == 5 and report.failing_subgraph is None


def test_cycle_powers_critical():
    for n in (3, 4, 5):
        assert check_critical(Multigraph.cycle(n), 3).is_critical
    assert check_critical(Multigraph.cycle(4, 2), 5).is_critical


def test_complete_powers_critical():
    for n, k in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1)]:
        assert check_critical(Multigraph.complete(n, k), k * (n - 1) + 1).is_critical


def test_pendant_edge_not_critical():
    g = Multigraph.from_edges(5, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 5)])
    report = check_critical(g, 3)
    assert not report.is_critical
    assert report.chi == 3
    assert report.failing_subgraph == ("edge", 1, 5)


def test_wrong_k_not_critical():
    report = check_critical(Multigraph.complete(4), 3)
    assert not report.is_critical and report.chi == 4


def test_isolated_vertex_not_critical():
    # deleting an isolated vertex keeps every edge, so chi_dp stays put
    k4_plus_two = Multigraph.from_edges(6, Multigraph.complete(4).pairs())
    report = check_critical(k4_plus_two, 4)
    assert not report.is_critical
    assert report.chi == 4 and report.failing_subgraph == ("vertex", 5)
    c4_plus_two = Multigraph.from_edges(6, Multigraph.cycle(4).pairs())
    report = check_critical(c4_plus_two, 3)
    assert not report.is_critical
    assert report.chi == 3 and report.failing_subgraph == ("vertex", 5)


def test_k1_and_edgeless():
    assert check_critical(Multigraph(1), 1).is_critical
    report = check_critical(Multigraph(3), 1)
    assert not report.is_critical and report.failing_subgraph == ("vertex", 1)


def test_bound_multigraph_equalities():
    ok, slack = check_bound_multigraph(Multigraph.cycle(3, 2), 5)
    assert ok and slack == 0
    ok, slack = check_bound_multigraph(Multigraph.complete(4), 4)
    assert ok and slack == 0
    ok, slack = check_bound_multigraph(Multigraph.cycle(5), 3)
    assert ok and slack == 0
    ok, slack = check_bound_multigraph(Multigraph.path(3), 4)
    assert not ok and slack == Fraction(-5)


def test_simple_coefficient_values():
    assert simple_critical_coefficient(4) == Fraction(40, 13)
    assert simple_critical_coefficient(5) == 4 + Fraction(2, 22)
    with pytest.raises(ValueError):
        simple_critical_coefficient(3)


def test_bound_simple():
    # slack is zero exactly when 2E equals the coefficient times n
    w5 = Multigraph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5),
                                   (1, 6), (2, 6), (3, 6), (4, 6), (5, 6)])
    ok, slack = check_bound_simple(w5, 4)
    assert ok and slack == 20 - Fraction(40, 13) * 6
    with pytest.raises(ValueError):
        check_bound_simple(Multigraph.complete(4), 4)  # excluded graph
    with pytest.raises(ValueError):
        check_bound_simple(w5, 3)
    with pytest.raises(ValueError):
        check_bound_simple(Multigraph.complete(2, 2), 4)  # not simple


def test_is_gdp_tree():
    # the GDP-tree precondition of check_gdp_edge_bound: every block complete
    # or a cycle, on a connected simple graph
    assert check_gdp_edge_bound(Multigraph.path(5), 6)[0]
    pendant_triangle = Multigraph.from_edges(6, [(1, 2), (1, 3), (1, 4), (2, 3),
                                                 (2, 4), (3, 4), (4, 5), (4, 6),
                                                 (5, 6)])
    assert check_gdp_edge_bound(pendant_triangle, 6)[0]
    diamond = Multigraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    with pytest.raises(GdpPrecondition) as exc:
        check_gdp_edge_bound(diamond, 6)
    assert exc.value.reason == "not-gdp-tree"
    with pytest.raises(ValueError, match="connected"):
        check_gdp_edge_bound(Multigraph(2), 6)
    with pytest.raises(ValueError, match="simple"):
        check_gdp_edge_bound(Multigraph.complete(2, 2), 6)


def test_gdp_edge_bound_examples():
    ok, slack = check_gdp_edge_bound(Multigraph.cycle(3), 4)
    assert ok and slack == 2  # (2 + 2/3) * 3 - 6
    for n in (2, 5, 9):
        ok, slack = check_gdp_edge_bound(Multigraph.path(n), 4)
        assert ok and slack == Fraction(8, 3) * n - 2 * (n - 1)


def test_gdp_edge_bound_preconditions():
    diamond = Multigraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    with pytest.raises(GdpPrecondition) as exc:
        check_gdp_edge_bound(diamond, 4)
    assert exc.value.reason == "not-gdp-tree"
    with pytest.raises(GdpPrecondition) as exc:
        check_gdp_edge_bound(Multigraph.complete(4), 4)
    assert exc.value.reason == "contains-complete"
    star5 = Multigraph.from_edges(6, [(1, v) for v in range(2, 7)])
    with pytest.raises(GdpPrecondition) as exc:
        check_gdp_edge_bound(star5, 4)
    assert exc.value.reason == "max-degree"


def test_leaf_block_removal_keeps_bound():
    # removing a leaf block from a GDP-tree never flips the bound from
    # holding to failing, mirroring the induction that proves it
    from dpcolor import blocks
    for k in (4, 5):
        for t in gdp_trees(7, max_complete_block=k - 1, max_degree=k - 1):
            dec = blocks(t)
            if len(dec.blocks) < 2:
                continue
            ok, _ = check_gdp_edge_bound(t, k)
            assert ok
            cuts = {v for v in t.vertices() if sum(v in vs for vs in dec.blocks) > 1}
            for vs in dec.blocks:
                inside = [v for v in vs if v not in cuts]
                if len(inside) != len(vs) - 1:
                    continue  # not a leaf block
                keep = [v for v in t.vertices() if v not in inside]
                smaller = induced(t, keep)
                if not smaller.is_connected():
                    continue
                ok2, _ = check_gdp_edge_bound(smaller, k)
                assert ok2
