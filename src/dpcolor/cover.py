"""Covers of multigraphs: list sizes plus cross-edge matchings.

A cover assigns each vertex v a list of ``size(v)`` colors, canonically the
pairs (v, 1) .. (v, size(v)), and places cross edges between lists of
adjacent vertices.  Within each list all colors are mutually conflicting;
that clique is implicit and never stored.  Between the lists of u and v the
cross edges must form a union of multiplicity(u, v) matchings, which is
equivalent (by bipartite edge coloring) to the cross-edge bipartite graph
having maximum degree at most multiplicity(u, v).

A transversal picks one color per vertex; it is a proper coloring when no
chosen pair of colors is joined by a cross edge.

A Cover stores the cross edges of each pair (u, v) as a sorted tuple of
shared cells (i, j), one canonical form for equality, hashing and output;
graphs and covers built between two resets of the bounded share table
hold one tuple per distinct cell and pair key.  parse_cover checks a file
line by line and builds that form in one pass.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .errors import CapExceeded, ParseError
from .multigraph import (CompletePower, CyclePower, Multigraph, _share, bad_entry,
                         parse_vertex_count)


class Transversal(NamedTuple):
    """One chosen color index (1-based) per vertex, ordered by vertex."""
    choice: tuple


class Violation(NamedTuple):
    """First reason a purported cover breaks the cover conditions."""
    pair: tuple
    color: tuple | None
    message: str

    def __str__(self):
        where = f"pair {self.pair}"
        if self.color is not None:
            where += f", color {self.color}"
        return f"{where}: {self.message}"


class Cover:
    """Immutable cover of a base multigraph.

    cross maps a vertex pair (u, v) with u < v to the sorted tuple of its
    distinct (i, j) index pairs, or cells: color (u, i) conflicts with color
    (v, j).  Pairs without cross edges are absent.  Pair keys and cells are
    shared with other graphs and covers (see multigraph._share).  The
    constructor checks the keys and takes any iterable of cells per pair.
    """

    __slots__ = ("base", "list_sizes", "cross")

    def __init__(self, base: Multigraph, list_sizes, cross=None):
        sizes = tuple(list_sizes)
        if len(sizes) != base.n:
            raise ValueError("need one list size per vertex")
        if any(s < 0 for s in sizes):
            raise ValueError("list sizes must be nonnegative")
        norm = {}
        for (u, v), edges in (cross or {}).items():
            if u >= v:
                raise ValueError(f"cross-edge key ({u}, {v}) must have u < v")
            if not (1 <= u and v <= base.n):
                raise ValueError(f"cross-edge key ({u}, {v}) out of range 1..{base.n}")
            es = tuple(sorted({_share((int(i), int(j))) for i, j in edges}))
            if es:
                norm[_share((u, v))] = es
        self.base = base
        self.list_sizes = sizes
        self.cross = norm

    @classmethod
    def _of_checked(cls, base: Multigraph, sizes: tuple, cross: dict) -> "Cover":
        """A cover from parts already in the form __init__ builds."""
        cover = object.__new__(cls)
        cover.base, cover.list_sizes, cover.cross = base, sizes, cross
        return cover

    def size(self, v: int) -> int:
        return self.list_sizes[v - 1]

    def _key(self):
        return (self.base, self.list_sizes, tuple(sorted(self.cross.items())))

    def __eq__(self, other):
        return isinstance(other, Cover) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"Cover(n={self.base.n}, sizes={self.list_sizes}, "
                f"edges={sum(len(e) for e in self.cross.values())})")


def _bipartite_degrees(edges):
    """Counts of the cells (i, j) per row i and per column j."""
    left, right = {}, {}
    for i, j in edges:
        left[i] = left.get(i, 0) + 1
        right[j] = right.get(j, 0) + 1
    return left, right


def iter_violations(cover: Cover):
    """Yield cover-condition violations in deterministic order.

    Per pair: cross edges on non-adjacent vertices, then color indices out of
    range, then bipartite degrees above the edge multiplicity.
    """
    g = cover.base
    for (u, v), edges in sorted(cover.cross.items()):
        m = g.multiplicity(u, v)
        if m == 0:
            yield Violation((u, v), None, "cross edges between non-adjacent vertices")
            continue
        su, sv = cover.size(u), cover.size(v)
        in_range = True
        for i, j in edges:
            if not 1 <= i <= su:
                yield Violation((u, v), (u, i), f"color index {i} outside list of size {su}")
                in_range = False
            if not 1 <= j <= sv:
                yield Violation((u, v), (v, j), f"color index {j} outside list of size {sv}")
                in_range = False
        if not in_range:
            continue
        left, right = _bipartite_degrees(edges)
        for i in sorted(left):
            if left[i] > m:
                yield Violation((u, v), (u, i),
                                f"bipartite degree {left[i]} exceeds multiplicity {m}")
        for j in sorted(right):
            if right[j] > m:
                yield Violation((u, v), (v, j),
                                f"bipartite degree {right[j]} exceeds multiplicity {m}")


def validate_cover(cover: Cover) -> Violation | None:
    """None if the cover conditions hold, else the first violation."""
    return next(iter_violations(cover), None)



# -- constructions ------------------------------------------------------------


def reduce_list(g: Multigraph, lists: dict) -> Cover:
    """Encode a list-coloring instance of a simple graph as a cover.

    lists maps each vertex to a sequence of distinct colors.  Cross edges join
    equal colors across an edge of g, so transversals of the result correspond
    exactly to proper list colorings.
    """
    if not g.is_simple():
        raise ValueError("list reduction is defined for simple graphs only")
    index = {}  # index[v][color] = the color's position in v's list, from 1
    for v in g.vertices():
        if v not in lists:
            raise ValueError(f"missing list for vertex {v}")
        seq = list(lists[v])
        index[v] = {c: j for j, c in enumerate(seq, start=1)}
        if len(index[v]) != len(seq):
            raise ValueError(f"list of vertex {v} repeats a color")
    cross = {}
    for u, v, _ in g.pairs():
        pos = index[v]
        edges = {(i, pos[c]) for c, i in index[u].items() if c in pos}
        if edges:
            cross[(u, v)] = edges
    return Cover(g, tuple(len(index[v]) for v in g.vertices()), cross)


def product_reduction(g: Multigraph, k: int) -> Cover:
    """Cover with k-lists and identity matchings; colorable iff g is k-colorable."""
    if k < 1:
        raise ValueError("need at least one color")
    if not g.is_simple():
        raise ValueError("product reduction is defined for simple graphs only")
    ident = frozenset((i, i) for i in range(1, k + 1))
    return Cover(g, (k,) * g.n, {(u, v): ident for u, v, _ in g.pairs()})


def _band_cover(g: Multigraph, parts) -> Cover:
    """The paper's band cover of g, a degree cover that has no transversal
    when parts holds every block of some component.

    parts lists (block vertices, CompletePower | CyclePower).  Each part
    gives each of its vertices bands of width k: r - 1 bands on K_r^k, 2 on
    C_r^k.  Colors of adjacent block vertices conflict exactly when they lie
    in the same band, except on the closing edge of an even cycle, which
    swaps the two bands; a cycle is walked from its smallest vertex toward
    its smaller neighbor.  A vertex's bands follow one another across the
    parts, in the order of parts, so its list is its degree and the
    implicit clique on it ties the parts together.  A vertex in no part
    keeps its degree as its list size and gets no cross edges.
    """
    sizes = dict.fromkeys((v for vs, _ in parts for v in vs), 0)
    cross = {}
    for vs, shape in parts:
        if isinstance(shape, CyclePower):
            bands, ring, prev = 2, [min(vs)], None
            inside = set(vs)
            while len(ring) < len(vs):
                cur = ring[-1]
                ring.append(min(w for w in g.neighbors(cur) if w in inside and w != prev))
                prev = cur
            edges = [(u, v, False) for u, v in zip(ring, ring[1:])]
            edges.append((ring[-1], ring[0], len(ring) % 2 == 0))
        else:
            bands = shape.n - 1
            edges = [(u, v, False) for u, v in combinations(sorted(vs), 2)]
        k = shape.k
        width = range(1, k + 1)
        for u, v, swap in edges:
            if u > v:
                u, v = v, u
            du, dv = sizes[u], sizes[v]
            cross[(u, v)] = [(du + b * k + x, dv + (b ^ swap) * k + y)
                             for b in range(bands) for x in width for y in width]
        for v in vs:
            sizes[v] += bands * k
    return Cover(g, (sizes.get(v, g.degree(v)) for v in g.vertices()), cross)


def build_bad_complete(n: int, k: int) -> Cover:
    """Degree cover of the k-fold complete multigraph on n vertices with no
    transversal: the band cover, whose n - 1 bands cannot hold n colors."""
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if k < 1:
        raise ValueError("multiplicity must be at least 1")
    return _band_cover(Multigraph.complete(n, k), [(range(1, n + 1), CompletePower(n, k))])


def build_bad_cycle(n: int, k: int) -> Cover:
    """Degree cover of the k-fold n-cycle with no transversal: the band
    cover, on which band choices cannot alternate all the way around."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    if k < 1:
        raise ValueError("multiplicity must be at least 1")
    return _band_cover(Multigraph.cycle(n, k), [(range(1, n + 1), CyclePower(n, k))])


def permute_colors(cover: Cover, perms: dict) -> Cover:
    """Apply per-vertex permutations of color indices (a gauge transformation).

    perms maps a vertex v to a sequence p of length size(v) sending the old
    color i to the new color p[i-1].  Vertices missing from perms keep their
    labeling.  Colorability and the number of colorings are preserved.
    """
    full = {}
    for v in cover.base.vertices():
        s = cover.size(v)
        p = tuple(perms.get(v, range(1, s + 1)))
        if sorted(p) != list(range(1, s + 1)):
            raise ValueError(f"perms[{v}] is not a permutation of 1..{s}")
        full[v] = p
    cross = {}
    for (u, v), edges in cover.cross.items():
        pu, pv = full[u], full[v]
        cross[(u, v)] = {(pu[i - 1], pv[j - 1]) for i, j in edges}
    return Cover(cover.base, cover.list_sizes, cross)


def random_degree_cover(g: Multigraph, rng) -> Cover:
    """Random degree cover whose pairs are unions of m random maximum matchings."""
    sizes = g.degrees()
    cross = {}
    for u, v, m in g.pairs():
        a, b = sizes[u - 1], sizes[v - 1]
        edges = set()
        for _ in range(m):
            if a <= b:
                cols = rng.sample(range(1, b + 1), a)
                edges.update(zip(range(1, a + 1), cols))
            else:
                rows = rng.sample(range(1, a + 1), b)
                edges.update(zip(rows, range(1, b + 1)))
        cross[(u, v)] = edges
    return Cover(g, sizes, cross)


# -- text format ----------------------------------------------------------------
#
# Line 1: n.  Line 2: the n list sizes.  Then one line "u i v j" per cross
# edge with u < v.  The base multigraph is not part of the format; parsing
# accepts an explicit base or infers the minimal one (each pair's
# multiplicity = the maximum bipartite degree of its cross edges).  A vertex
# count above multigraph.MAX_VERTICES or a list size above MAX_LIST_SIZE
# raises CapExceeded before anything is allocated for them.  The cap on list
# sizes bounds what solve allocates per list: an s-bit domain per vertex and
# s-entry conflict masks per cross pair.  Errors name the first faulty line in
# file order.

MAX_LIST_SIZE = 1_000


def parse_cover(text: str, base: Multigraph | None = None) -> Cover:
    n = sizes = None
    cells = {}  # (u, v) -> set of its cells, checked for repeats in file order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if sizes is None:
            if n is None:
                n = parse_vertex_count(parts, lineno)
                continue
            if len(parts) != n:
                raise ParseError(f"expected {n} list sizes", lineno)
            try:
                sizes = tuple(map(int, parts))
            except ValueError:
                raise ParseError("non-integer list size", lineno) from None
            if min(sizes) < 0:
                raise ParseError("list sizes must be nonnegative", lineno)
            if max(sizes) > MAX_LIST_SIZE:
                raise CapExceeded(f"list size {max(sizes)} exceeds cap {MAX_LIST_SIZE}")
            continue
        try:
            u, i, v, j = map(int, parts)
        except ValueError:  # a non-integer field, or not four fields
            raise bad_entry(lineno, raw, parts, "u i v j") from None
        if not 0 < u < v <= n:
            if not (0 < u <= n and 0 < v <= n):
                raise ParseError(f"vertex out of range in ({u}, {v})", lineno)
            raise ParseError("cross edges must be written with u < v", lineno)
        if not 0 < i <= sizes[u - 1]:
            raise ParseError(f"color index {i} outside list of vertex {u}", lineno)
        if not 0 < j <= sizes[v - 1]:
            raise ParseError(f"color index {j} outside list of vertex {v}", lineno)
        key = (u, v)
        seen = cells.get(key)
        if seen is None:
            cells[_share(key)] = seen = set()
        cell = (i, j)
        if cell in seen:
            raise ParseError(f"duplicate cross edge {u} {i} {v} {j}", lineno)
        seen.add(_share(cell))
    if n is None:
        raise ParseError("empty input: missing vertex count")
    if sizes is None:
        raise ParseError("missing list sizes line")
    cross = {key: tuple(sorted(s)) for key, s in cells.items()}
    if base is None:
        mult = {}
        for key, edges in cross.items():
            left, right = _bipartite_degrees(edges)
            mult[key] = max(max(left.values()), max(right.values()))
        base = Multigraph(n, mult)
    elif base.n != n:
        raise ParseError(f"cover has {n} vertices but base graph has {base.n}")
    return Cover._of_checked(base, sizes, cross)


def format_cover(cover: Cover) -> str:
    lines = [str(cover.base.n), " ".join(str(s) for s in cover.list_sizes)]
    for (u, v), edges in sorted(cover.cross.items()):
        lines.extend(f"{u} {i} {v} {j}" for i, j in edges)
    return "\n".join(lines) + "\n"
