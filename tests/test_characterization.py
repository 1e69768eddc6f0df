import random

from dpcolor import (CompletePower, Cover, CyclePower, Multigraph, Other,
                     build_bad_complete, build_bad_cycle,
                     decide_degree_colorable, degree_colorable_oracle, solve,
                     validate_cover)
from oracles import brute_components, induced, random_connected_multigraph, random_multigraph


def bowtie():
    return Multigraph.from_edges(5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])


def test_cycle_power_witness_is_the_construction():
    g = Multigraph.cycle(6, 2)
    verdict = decide_degree_colorable(g)
    assert not verdict.colorable
    assert verdict.reason == (((1, 2, 3, 4, 5, 6), CyclePower(6, 2)),)
    assert verdict.witness == build_bad_cycle(6, 2)


def test_bowtie_witness_is_the_glued_construction():
    verdict = decide_degree_colorable(bowtie())
    assert not verdict.colorable
    assert [cls for _, cls in verdict.reason] == [CompletePower(3, 1)] * 2
    # two copies of build_bad_complete(3, 1) sharing vertex 1, whose list is
    # the two triangle lists one after the other
    assert verdict.witness == Cover(bowtie(), (4, 2, 2, 2, 2), {
        (1, 2): {(1, 1), (2, 2)}, (1, 3): {(1, 1), (2, 2)},
        (2, 3): {(1, 1), (2, 2)}, (1, 4): {(3, 1), (4, 2)},
        (1, 5): {(3, 1), (4, 2)}, (4, 5): {(1, 1), (2, 2)}})
    assert not solve(verdict.witness).colorable


def test_single_other_block_is_colorable():
    diamond = Multigraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    verdict = decide_degree_colorable(diamond)
    assert verdict.colorable
    assert verdict.witness is None
    assert verdict.reason[0][1] == Other()
    assert degree_colorable_oracle(diamond)[0]


def test_trees_are_not_degree_colorable():
    # every block of a tree is a 2-vertex complete graph, so trees sit on the
    # negative side; pinned to prevent "intuitive" regressions
    for n in (2, 3, 4, 5):
        verdict = decide_degree_colorable(Multigraph.path(n))
        assert not verdict.colorable
        assert not solve(verdict.witness).colorable
    star = Multigraph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    assert not decide_degree_colorable(star).colorable


def test_k1_not_degree_colorable():
    verdict = decide_degree_colorable(Multigraph(1))
    assert not verdict.colorable
    assert verdict.witness.list_sizes == (0,)


def test_two_isolated_vertices_not_degree_colorable():
    verdict = decide_degree_colorable(Multigraph(2))
    assert not verdict.colorable
    assert verdict.components == (((1,), False), ((2,), False))
    assert verdict.witness.list_sizes == (0, 0)


def test_componentwise_verdicts():
    # C_4 plus a path: both components land on the negative side
    g = Multigraph(7, {(1, 2): 1, (2, 3): 1, (3, 4): 1, (1, 4): 1,
                       (5, 6): 1, (6, 7): 1})
    verdict = decide_degree_colorable(g)
    assert verdict.components == (((1, 2, 3, 4), False), ((5, 6, 7), False))
    assert not verdict.colorable
    whole = verdict.witness
    assert validate_cover(whole) is None
    assert whole.list_sizes == g.degrees()
    assert not solve(whole).colorable


def test_componentwise_two_diamonds():
    edges = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    g = Multigraph(8, {p: 1 for p in edges} | {(u + 4, v + 4): 1 for u, v in edges})
    verdict = decide_degree_colorable(g)
    assert verdict.components == (((1, 2, 3, 4), True), ((5, 6, 7, 8), True))
    assert verdict.colorable
    assert verdict.witness is None


def test_mixed_components_witness():
    # one colorable diamond, one uncolorable square
    edges = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    g = Multigraph(8, {p: 1 for p in edges} |
                   {(5, 6): 1, (6, 7): 1, (7, 8): 1, (5, 8): 1})
    verdict = decide_degree_colorable(g)
    assert [ok for _, ok in verdict.components] == [True, False]
    assert not verdict.colorable
    whole = verdict.witness
    # the diamond keeps degree-sized lists and no cross edges
    assert whole.list_sizes == g.degrees()
    assert all(u >= 5 for u, _ in whole.cross)
    assert whole.cross[(5, 6)] == build_bad_cycle(4, 1).cross[(1, 2)]
    assert not solve(whole).colorable


def test_mixed_blocks_with_shuffled_cycle_labels():
    # triangle {1,2,3} and square {3,4,5,6} sharing vertex 3, square wired in
    # non-consecutive label order
    g = Multigraph.from_edges(6, [(1, 2), (1, 3), (2, 3), (3, 5), (5, 4),
                                  (4, 6), (3, 6)])
    dec_classes = [cls for _, cls in decide_degree_colorable(g).reason]
    assert dec_classes == [CompletePower(3, 1), CyclePower(4, 1)]
    verdict = decide_degree_colorable(g)
    assert not verdict.colorable
    assert verdict.witness.list_sizes == g.degrees()
    assert validate_cover(verdict.witness) is None
    assert not solve(verdict.witness).colorable
    doubled = Multigraph.from_edges(6, [(1, 2), (1, 3), (2, 3), (3, 5, 2),
                                        (5, 4, 2), (4, 6, 2), (3, 6, 2)])
    verdict = decide_degree_colorable(doubled)
    assert not verdict.colorable
    assert not solve(verdict.witness).colorable


def test_witnesses_sound_on_random_negatives():
    rng = random.Random(71)
    checked = 0
    while checked < 12:
        g = random_connected_multigraph(rng, 5, 2)
        verdict = decide_degree_colorable(g)
        if verdict.colorable:
            continue
        checked += 1
        assert validate_cover(verdict.witness) is None
        assert verdict.witness.list_sizes == g.degrees()
        assert not solve(verdict.witness).colorable


def test_components_agree_with_induced_subgraphs():
    # a cover restricts independently to components: each component's flag
    # is the verdict on that component alone, and every negative verdict's
    # witness is an uncolorable degree cover of the whole multigraph
    rng = random.Random(83)
    disconnected = isolated = negative = 0
    for _ in range(200):
        g = random_multigraph(rng, 9, 3)
        verdict = decide_degree_colorable(g)
        assert [comp for comp, _ in verdict.components] == brute_components(g)
        for comp, ok in verdict.components:
            assert ok == decide_degree_colorable(induced(g, comp)).colorable
        assert verdict.colorable == all(ok for _, ok in verdict.components)
        disconnected += len(verdict.components) > 1
        isolated += 0 in g.degrees()
        if verdict.colorable:
            assert verdict.witness is None
            continue
        negative += 1
        assert verdict.witness.list_sizes == g.degrees()
        assert validate_cover(verdict.witness) is None
        assert not solve(verdict.witness).colorable
    assert min(disconnected, isolated, negative) >= 40


def test_uniform_power_grids_match_constructions():
    for n in (2, 3, 4, 5):
        for k in (1, 2, 3):
            verdict = decide_degree_colorable(Multigraph.complete(n, k))
            assert not verdict.colorable
            expected = build_bad_complete(n, k) if n >= 2 else None
            assert verdict.witness == expected
    for n in (4, 5):
        for k in (1, 2, 3):
            verdict = decide_degree_colorable(Multigraph.cycle(n, k))
            assert not verdict.colorable
            assert verdict.witness == build_bad_cycle(n, k)
