"""Canonical censuses of small multigraphs, simple graphs, and GDP-trees.

One canonical form serves every census and the isomorphism test:
``canonical_key`` is the lexicographically smallest multiplicity vector over
all vertex relabelings, found row by row with cell refinement rather than by
scanning the n! relabelings.  No external canonical-labeling dependency.

One scan, ``_census``, generates both connected censuses; the simple-graph
census is the multiplicity-1 census.  It picks the multiplicity vector one
vertex row at a time, in lexicographic order, keeping per-vertex masks in
place as rows are set and undone.  A branch ends when a row closes a degree
below ``min_degree``; connectivity comes from the non-neighbour masks, and
a vector is kept exactly when the canonical form of its masks is the vector
itself, a test that stops at the first candidate row below the vector's,
so one ``Multigraph`` is built per class, for its canonical vector.
The ``max_n`` guards and ``MAX_CENSUS_VECTORS`` refuse a census whose scan
would be too long before it starts.  All three generators order their
graphs by (n, total edges, canonical key).
"""

from __future__ import annotations

import itertools

from .errors import CapExceeded
from .multigraph import Multigraph


def _pairs_of(n):
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


def canonical_key(g: Multigraph) -> tuple:
    """(n, smallest multiplicity vector over all vertex relabelings).

    The vector lists multiplicities of the pairs (1, 2), (1, 3), ..., (n-1, n)
    in that order, so it is the upper triangle read row by row;
    ``_canonical_vector`` builds it from per-vertex multiplicity masks.
    """
    mults = g.multiplicities()
    top = max((k for _, k in mults), default=0)
    # masks[x][k]: the vertices other than x joined to x by k edges
    masks = [[((1 << g.n) - 1) ^ (1 << x)] + [0] * top for x in range(g.n)]
    for (u, v), k in mults:
        for x, y in ((u - 1, v - 1), (v - 1, u - 1)):
            masks[x][0] ^= 1 << y
            masks[x][k] |= 1 << y
    return (g.n, tuple(_canonical_vector(masks)))


def _canonical_vector(masks, target=None) -> list:
    """The smallest multiplicity vector over all relabelings of the graph
    whose vertex x (0-based) is joined by k edges to the vertices of the
    bitmask masks[x][k]; masks[x][0] holds the vertices other than x that x
    is not joined to, and the caller keeps it so.

    The vector is built one row at a time.  The vertices not yet labeled sit
    in an ordered partition whose cells may be permuted freely.  Labeling x
    next makes its row x's multiplicities to the rest, sorted within each
    cell; only the candidates x from the first cell with the smallest row
    survive, and each cell splits by multiplicity to x, in ascending order.
    Later rows depend on the remaining partition alone, so equal partitions
    are kept once.

    Cells are vertex bitmasks, and a row is held as its runs, (value,
    -length) each.  All surviving partitions have the same cell sizes, so
    comparing runs orders rows as comparing the rows themselves.

    Given a target (a list), the build returns the target exactly when it
    is the canonical vector, and otherwise some vector below it: it returns
    at the first candidate whose row is below the target's row at the same
    step, the rows before being equal.  The identity is one of the
    relabelings, so while the rows so far are equal the smallest row is not
    above the target's; a build that never returns early ends at the target.
    """
    n = len(masks)
    full = (1 << n) - 1
    # by_mult[x]: the (k, mask) entries of masks[x] with a vertex in the mask
    by_mult = [[(k, mask) for k, mask in enumerate(row) if mask] for row in masks]
    vec = []
    partitions = [(full,)]
    for _ in range(n - 1):
        best = None
        for cells in partitions:
            first = cells[0]
            while first:
                x = (first & -first).bit_length() - 1
                first &= first - 1
                row = by_mult[x]
                runs = []
                split = []
                for cell in cells:
                    for k, mask in row:
                        part = cell & mask
                        if part:
                            runs += (k, -part.bit_count())
                            split.append(part)
                if best is None or runs < best:
                    # only a new smallest row can be below the target's
                    best_row = []
                    for k, length in zip(runs[::2], runs[1::2]):
                        best_row += [k] * -length
                    if (target is not None
                            and best_row < target[len(vec):len(vec) + len(best_row)]):
                        return vec + best_row
                    best, survivors = runs, {tuple(split)}
                elif runs == best:
                    survivors.add(tuple(split))
        vec += best_row
        partitions = survivors
    return vec


def are_isomorphic(g1: Multigraph, g2: Multigraph) -> bool:
    """Exact isomorphism test respecting multiplicities."""
    return canonical_key(g1) == canonical_key(g2)


# The census scans (max_mult + 1)^(n(n - 1)/2) vectors on n vertices; a
# census over more than this many in all raises CapExceeded before the scan.
# The 7-vertex simple census, the largest in use, scans 2,131,019.
MAX_CENSUS_VECTORS = 1 << 22


def _census(max_n: int, max_mult: int, min_degree: int = 0):
    """Connected multigraphs on at most max_n vertices with multiplicities at
    most max_mult and every degree at least min_degree, one representative
    per isomorphism class: its canonical vector over _pairs_of(n).

    The vector is picked one vertex row at a time, the row of x being its
    multiplicities to x + 1, ..., n, each row's values in lexicographic
    order, so the vectors come in lexicographic order.  Setting a row
    updates the per-vertex multiplicity masks in place, the non-neighbour
    masks masks[x][0] included, and undoing it restores them.  A row closes
    its vertex's degree (the last row closes two), so a branch ends as soon
    as a closed degree is below min_degree.  A complete vector is connected
    when the neighbours, read off the non-neighbour masks, reach every
    vertex from vertex 1, and it is kept exactly when _canonical_vector of
    its masks, given the vector as target, returns it: the test stops at
    the first candidate row below the vector's.  Only a kept vector gets a
    Multigraph, one per class.  Raises ValueError when max_n is below 1,
    and CapExceeded when the scan would cover more than MAX_CENSUS_VECTORS
    vectors.
    """
    if max_n < 1:
        raise ValueError("max_n must be positive")
    total = 0
    for n in range(1, max_n + 1):
        total += (max_mult + 1) ** (n * (n - 1) // 2)
        if total > MAX_CENSUS_VECTORS:
            raise CapExceeded(f"census vector count exceeds cap {MAX_CENSUS_VECTORS}")
    found = {}
    for n in range(1, max_n + 1):
        pairs = _pairs_of(n)
        full = (1 << n) - 1
        # masks[x][k]: the vertices other than x joined to x by k edges so
        # far, all of them in masks[x][0] before any row is set
        masks = [[full ^ (1 << x)] + [0] * max_mult for x in range(n)]
        deg = [0] * n  # deg[x]: x's degree so far
        vec = [0] * len(pairs)

        def toggle(x, values, sign):
            # set (sign 1) or undo (sign -1) the row of x: a pair with k >= 1
            # moves between masks[.][0] and masks[.][k], so XOR does both
            mx = masks[x]
            for y, k in enumerate(values, x + 1):
                if k:
                    my = masks[y]
                    mx[0] ^= 1 << y
                    mx[k] ^= 1 << y
                    my[0] ^= 1 << x
                    my[k] ^= 1 << x
                    deg[x] += sign * k
                    deg[y] += sign * k

        def scan(x, at):
            if x == n - 1:
                if deg[x] < min_degree:
                    return
                seen = todo = 1
                while todo:
                    low = todo & -todo
                    todo ^= low
                    new = full & ~(masks[low.bit_length() - 1][0] | seen)
                    seen |= new
                    todo |= new
                if seen == full and _canonical_vector(masks, vec) == vec:
                    found[(n, tuple(vec))] = Multigraph(
                        n, {p: m for p, m in zip(pairs, vec) if m})
                return
            end = at + n - 1 - x
            for values in itertools.product(range(max_mult + 1), repeat=n - 1 - x):
                vec[at:end] = values
                toggle(x, values, 1)
                if deg[x] >= min_degree:
                    scan(x + 1, end)
                toggle(x, values, -1)

        scan(0, 0)
    return _ordered(found)


def _ordered(found):
    """The graphs of {canonical key: graph} ordered by (n, total edges,
    canonical key); the total is the sum of the key's vector."""
    return [found[k] for k in sorted(found, key=lambda k: (k[0], sum(k[1]), k))]


def connected_multigraphs(max_n: int, max_mult: int):
    """All connected multigraphs with at most max_n vertices and edge
    multiplicities at most max_mult, one canonical representative each.

    Ordered by (n, total edges, canonical key).  max_n is at most 6, and a
    max_mult whose scan exceeds MAX_CENSUS_VECTORS raises CapExceeded.
    """
    if max_n > 6:
        raise ValueError("multigraph census supported up to 6 vertices")
    if max_mult < 0:
        raise ValueError("max_mult must be nonnegative")
    return _census(max_n, max_mult)


def connected_simple_graphs(max_n: int, min_degree: int = 0):
    """Connected simple graphs with at most max_n vertices, up to isomorphism:
    the multiplicity-1 census, in the same order.

    min_degree prunes during generation (useful when hunting critical
    graphs, whose minimum degree is forced): the row scan drops a branch as
    soon as a row closes a vertex's degree below it.  max_n is at most 7:
    the scan runs over 2^(n(n - 1)/2) vectors on n vertices, 2,131,019 in
    all up to n = 7, within MAX_CENSUS_VECTORS, and 2^28 at n = 8.
    """
    if max_n > 7:
        raise ValueError("simple-graph census supported up to 7 vertices")
    return _census(max_n, 1, min_degree)


def gdp_trees(max_n: int, max_complete_block: int, max_degree: int):
    """Connected simple graphs on <= max_n vertices whose blocks are complete
    graphs (on at most max_complete_block vertices) or cycles, with maximum
    degree at most max_degree.  One representative per isomorphism class.

    Generated constructively: start from a single vertex and repeatedly
    attach a new block at an existing vertex; every such graph with b+1
    blocks arises from one with b blocks by removing a leaf block, so the
    expansion is exhaustive.  Raises ValueError when max_n is below 1.
    """
    if max_n < 1:
        raise ValueError("max_n must be positive")
    seed = Multigraph(1, {})
    found = {canonical_key(seed): seed}
    frontier = [seed]
    block_menu = []
    for r in range(2, max_complete_block + 1):
        block_menu.append(("complete", r))
    for t in range(4, max_n + 1):
        block_menu.append(("cycle", t))

    def attach(g, v, kind, size):
        extra = size - 1
        if g.n + extra > max_n:
            return None
        ring = [v, *range(g.n + 1, g.n + extra + 1)]
        new = (itertools.combinations(ring, 2) if kind == "complete"
               else zip(ring, ring[1:] + ring[:1]))
        mult = dict(g.multiplicities())
        mult.update(dict.fromkeys(new, 1))  # Multigraph orders (last, v), a new pair
        g2 = Multigraph(g.n + extra, mult)
        if g2.max_degree() > max_degree:
            return None
        return g2

    while frontier:
        nxt = []
        for g in frontier:
            for v in g.vertices():
                for kind, size in block_menu:
                    g2 = attach(g, v, kind, size)
                    if g2 is None:
                        continue
                    key = canonical_key(g2)
                    if key not in found:
                        found[key] = g2
                        nxt.append(g2)
        frontier = nxt
    return _ordered(found)
