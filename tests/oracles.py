"""Independent brute-force oracles for pinning expected values.

Everything here deliberately avoids the library's search machinery: plain
product scans and naive backtracking only, so a disagreement means a real
bug rather than a shared one.
"""

import functools
import itertools

from dpcolor import (CompletePower, CyclePower, Multigraph, Other, canonical_key,
                     permute_colors)


def is_transversal(cover, choice):
    """True iff no cross edge of the cover joins two chosen colors."""
    return all((choice[u - 1], choice[v - 1]) not in edges
               for (u, v), edges in cover.cross.items())


def brute_force_transversal(cover):
    """Scan the full choice product; return a surviving tuple or None."""
    sizes = cover.list_sizes
    cross = sorted(cover.cross.items())
    for t in itertools.product(*[range(1, s + 1) for s in sizes]):
        if all((t[u - 1], t[v - 1]) not in edges for (u, v), edges in cross):
            return t
    return None


def degree_bounded_cell_sets(a, b, m):
    """Every set of cells (i, j) in [a] x [b] with row and column degrees <= m."""
    cells = list(itertools.product(range(1, a + 1), range(1, b + 1)))
    out = []
    for r in range(len(cells) + 1):
        for sub in itertools.combinations(cells, r):
            rows = [sum(1 for i, _ in sub if i == x) for x in range(1, a + 1)]
            cols = [sum(1 for _, j in sub if j == y) for y in range(1, b + 1)]
            if max(rows) <= m and max(cols) <= m:
                out.append(frozenset(sub))
    return out


def is_union_of_maximum_matchings(cells, a, b, m):
    """True iff m maximum matchings of [a] x [b] inside cells, repeats
    allowed, have cells as their union."""
    size = min(a, b)
    matchings = [frozenset(mt) for mt in itertools.combinations(sorted(cells), size)
                 if len({i for i, _ in mt}) == len({j for _, j in mt}) == size]
    return any(frozenset().union(*combo) == cells
               for combo in itertools.combinations_with_replacement(matchings, m))


def brute_cover_count(g, sizes):
    """Number of covers of g with these list sizes."""
    count = 1
    for u, v, m in g.pairs():
        count *= len(degree_bounded_cell_sets(sizes[u - 1], sizes[v - 1], m))
    return count


@functools.lru_cache(maxsize=None)
def maximal_cell_sets(a, b, m):
    """The degree-bounded cell sets of [a] x [b] that no cell can be added
    to: every cell left out has a row or a column of degree m already."""
    out = []
    for cells in degree_bounded_cell_sets(a, b, m):
        rows, cols = [0] * (a + 1), [0] * (b + 1)
        for i, j in cells:
            rows[i] += 1
            cols[j] += 1
        if all(rows[i] == m or cols[j] == m
               for i, j in itertools.product(range(1, a + 1), range(1, b + 1))
               if (i, j) not in cells):
            out.append(cells)
    return tuple(out)


def brute_uncolorable_cover_exists(g, sizes):
    """True iff some cover of g with these list sizes has no transversal.

    Scans every cover whose pairs are maximal cell sets: adding a cell only
    blocks more, so if any cover is uncolorable, one of these is.  A cover's
    blocked transversals are the union of what its pairs block, each pair's
    share found by a plain product scan.
    """
    transversals = list(itertools.product(*[range(1, s + 1) for s in sizes]))
    everything = (1 << len(transversals)) - 1
    per_pair = []
    for u, v, m in g.pairs():
        blocked_sets = set()
        for cells in maximal_cell_sets(sizes[u - 1], sizes[v - 1], m):
            blocked = 0
            for b, t in enumerate(transversals):
                if (t[u - 1], t[v - 1]) in cells:
                    blocked |= 1 << b
            blocked_sets.add(blocked)
        per_pair.append(blocked_sets)
    for combo in itertools.product(*per_pair):
        blocked = 0
        for x in combo:
            blocked |= x
        if blocked == everything:
            return True
    return False


def brute_canonical_key(g):
    """(n, smallest multiplicity vector over all n! vertex relabelings)."""
    n = g.n
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    index = {p: i for i, p in enumerate(pairs)}
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        mapped = [0] * len(pairs)
        for u, v in pairs:
            a, b = perm[u - 1], perm[v - 1]
            mapped[index[(a, b) if a < b else (b, a)]] = g.multiplicity(u, v)
        t = tuple(mapped)
        if best is None or t < best:
            best = t
    return (n, best)


def brute_census(max_n, max_mult, min_degree=0):
    """Connected multigraphs on at most max_n vertices, multiplicities at
    most max_mult and every degree at least min_degree, by a product scan
    that builds every vector's Multigraph and keeps the first graph of each
    canonical_key; ordered by (n, total edges, canonical key)."""
    found = {}
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for vec in itertools.product(range(max_mult + 1), repeat=len(pairs)):
            g = Multigraph(n, {p: m for p, m in zip(pairs, vec) if m})
            if g.is_connected() and min(g.degrees()) >= min_degree:
                found.setdefault(canonical_key(g), g)
    return [found[k] for k in sorted(found, key=lambda k: (k[0], sum(k[1]), k))]


def brute_count_transversals(cover):
    """Number of proper transversals, by full product scan."""
    sizes = cover.list_sizes
    cross = sorted(cover.cross.items())
    count = 0
    for t in itertools.product(*[range(1, s + 1) for s in sizes]):
        if all((t[u - 1], t[v - 1]) not in edges for (u, v), edges in cross):
            count += 1
    return count


def brute_fewest(S, masks):
    """(set, count): the bits of S set in the fewest of masks, as an int,
    and that count, by counting each bit of S (S != 0) over every mask."""
    counts = {b: sum(mask >> b & 1 for mask in masks)
              for b in range(S.bit_length()) if S >> b & 1}
    low = min(counts.values())
    return sum(1 << b for b, c in counts.items() if c == low), low


def brute_list_coloring(g, lists):
    """Direct list-coloring backtracker over actual color values."""
    vs = list(g.vertices())
    assign = {}

    def rec(i):
        if i == len(vs):
            return True
        v = vs[i]
        for c in lists[v]:
            if any(assign.get(w) == c for w in g.neighbors(v)):
                continue
            assign[v] = c
            if rec(i + 1):
                return True
            del assign[v]
        return False

    return rec(0)


def brute_chromatic_number(g):
    simple = Multigraph(g.n, {(u, v): 1 for u, v, _ in g.pairs()})
    for k in range(1, g.n + 1):
        if brute_list_coloring(simple, {v: range(k) for v in simple.vertices()}):
            return k
    raise AssertionError("unreachable: n colors always suffice")


def brute_degeneracy(g):
    """Max over nonempty vertex subsets of the induced minimum degree."""
    verts = list(g.vertices())
    best = 0
    for r in range(1, len(verts) + 1):
        for sub in itertools.combinations(verts, r):
            ss = set(sub)
            mind = min(sum(g.multiplicity(v, w) for w in g.neighbors(v) if w in ss)
                       for v in sub)
            best = max(best, mind)
    return best


def brute_components(g):
    """The vertices reached from each vertex not reached before, relaxing
    over all the pairs until nothing changes, as sorted tuples in order of
    their smallest vertex."""
    comps, seen = [], set()
    for start in g.vertices():
        if start in seen:
            continue
        reached = {start}
        grew = True
        while grew:
            grew = False
            for u, v, _ in g.pairs():
                if (u in reached) != (v in reached):
                    reached |= {u, v}
                    grew = True
        seen |= reached
        comps.append(tuple(sorted(reached)))
    return comps


def brute_blocks(g):
    """(vertex tuple, shape) per block of g, sorted, found by definition.

    A block is a maximal vertex set of size >= 2 whose induced simple graph
    is connected with no cut vertex, searched over all subsets, or an
    isolated vertex.  Its shape: one multiplicity k, and every pair joined
    (CompletePower) or r >= 4 vertices each with two neighbors in the block
    (CyclePower); anything else is Other.
    """
    n = g.n
    adj = [0] * n  # bit w - 1 of adj[v - 1] is set when v and w are adjacent
    for u, v, _ in g.pairs():
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)

    def connected(mask):
        seen = mask & -mask
        while True:
            grown = seen
            for i in range(n):
                if seen >> i & 1:
                    grown |= adj[i] & mask
            if grown == seen:
                return seen == mask
            seen = grown

    conn = [mask != 0 and connected(mask) for mask in range(1 << n)]
    isolated = [1 << i for i in range(n) if not adj[i]]
    maximal = []
    for mask in sorted(range(1 << n), key=lambda m: -bin(m).count("1")):
        bits = [1 << i for i in range(n) if mask >> i & 1]
        if (len(bits) >= 2 and conn[mask] and all(conn[mask ^ b] for b in bits)
                and not any(mask & big == mask for big in maximal)):
            maximal.append(mask)
    out = []
    for mask in isolated + maximal:
        vs = tuple(v for v in g.vertices() if mask >> (v - 1) & 1)
        r = len(vs)
        mults = {g.multiplicity(u, v) for u, v in itertools.combinations(vs, 2)} - {0}
        shape = Other()
        if r == 1:
            shape = CompletePower(1, 1)
        elif len(mults) == 1:
            k = mults.pop()
            if all(g.multiplicity(u, v) for u, v in itertools.combinations(vs, 2)):
                shape = CompletePower(r, k)
            elif r >= 4 and all(sum(1 for w in vs if w != v and g.multiplicity(v, w)) == 2
                                for v in vs):
                shape = CyclePower(r, k)
        out.append((vs, shape))
    return sorted(out, key=lambda block: block[0])


def is_gdp_tree(g):
    """True iff every block of g is a complete graph or a cycle, by brute_blocks."""
    return all(not isinstance(shape, Other) for _, shape in brute_blocks(g))


def induced(g, vertices):
    """Sub-multigraph of g on the given vertices, relabeled 1..m in sorted order."""
    vs = sorted(set(vertices))
    if not vs:
        raise ValueError("induced subgraph needs at least one vertex")
    pos = {v: i + 1 for i, v in enumerate(vs)}
    return Multigraph(len(vs), {(pos[u], pos[v]): m for u, v, m in g.pairs()
                                if u in pos and v in pos})


def gauge_equivalent(c1, c2):
    """True if some per-vertex color relabeling maps c1 onto c2 (tiny lists)."""
    if c1.base != c2.base or c1.list_sizes != c2.list_sizes:
        return False
    perm_choices = [list(itertools.permutations(range(1, s + 1)))
                    for s in c1.list_sizes]
    for combo in itertools.product(*perm_choices):
        perms = {v: combo[v - 1] for v in c1.base.vertices()}
        if permute_colors(c1, perms) == c2:
            return True
    return False


def random_connected_multigraph(rng, max_n, max_mult, min_n=1):
    while True:
        n = rng.randint(min_n, max_n)
        mult = {}
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                m = rng.randint(0, max_mult)
                if m:
                    mult[(u, v)] = m
        g = Multigraph(n, mult)
        if g.is_connected():
            return g


def random_multigraph(rng, max_n, max_mult):
    """Random multigraph, often disconnected and with isolated vertices."""
    n = rng.randint(1, max_n)
    p = rng.uniform(0.1, 0.6)
    return Multigraph(n, {(u, v): rng.randint(1, max_mult)
                          for u in range(1, n + 1) for v in range(u + 1, n + 1)
                          if rng.random() < p})


def random_simple_graph(rng, max_n, edge_prob=0.5, min_n=1):
    n = rng.randint(min_n, max_n)
    mult = {}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < edge_prob:
                mult[(u, v)] = 1
    return Multigraph(n, mult)
