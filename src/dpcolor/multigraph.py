"""Loopless multigraphs on vertices 1..n, with block structure queries.

Multiplicities are stored sparsely: a pair (u, v) with u < v maps to the
number of parallel edges between u and v (at least 1; absent means 0).
Instances are immutable and safe to share across workers; only the adjacency
is built later, on first use, so a graph used only as a cover base has none.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .errors import CapExceeded, ParseError


# Graphs and covers share equal small tuples: the pair keys (u, v) of both,
# the (u, v, k) triples of pairs() and the cells (i, j) of covers.  The
# tuples are immutable, so callers cannot tell, and a caller that keeps many
# graphs or covers (a census, a critical-graph hunt, a batch of parsed files)
# stores each distinct tuple once.  The table holds at most _SHARED_MAX
# tuples; when it is full it is cleared and starts over, so one large graph
# does not keep later ones from sharing.
_SHARED_MAX = 4096
_shared = {}


def _share(t: tuple) -> tuple:
    s = _shared.get(t)
    if s is None:
        if len(_shared) >= _SHARED_MAX:
            _shared.clear()
        _shared[t] = s = t
    return s


class Multigraph:
    """An undirected multigraph without loops."""

    __slots__ = ("n", "_mult", "_adj", "_deg")

    def __init__(self, n: int, mult=None):
        if n < 1:
            raise ValueError("vertex count must be at least 1")
        self.n = n
        norm = {}
        deg = [0] * (n + 1)
        for (u, v), k in (mult or {}).items():
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"vertex pair ({u}, {v}) out of range 1..{n}")
            if k < 0:
                raise ValueError(f"negative multiplicity for ({u}, {v})")
            if k == 0:
                continue
            key = (u, v) if u < v else (v, u)
            if key in norm:  # (u, v) and (v, u) both given
                if norm[key] != k:
                    raise ValueError(f"conflicting multiplicities for pair {key}")
                continue
            norm[_share(key)] = k
            deg[u] += k
            deg[v] += k
        self._mult = norm
        self._adj = None
        self._deg = deg

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Multigraph":
        """Build from (u, v) or (u, v, k) entries; repeated pairs accumulate."""
        mult = {}
        for e in edges:
            u, v = e[0], e[1]
            k = e[2] if len(e) > 2 else 1
            key = (u, v) if u < v else (v, u)
            mult[key] = mult.get(key, 0) + k
        return cls(n, mult)

    @classmethod
    def complete(cls, n: int, k: int = 1) -> "Multigraph":
        return cls(n, {(u, v): k for u in range(1, n + 1) for v in range(u + 1, n + 1)})

    @classmethod
    def cycle(cls, n: int, k: int = 1) -> "Multigraph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        mult = {(v, v + 1): k for v in range(1, n)}
        mult[(1, n)] = k
        return cls(n, mult)

    @classmethod
    def path(cls, n: int) -> "Multigraph":
        return cls(n, {(v, v + 1): 1 for v in range(1, n)})

    # -- basic queries --------------------------------------------------------

    def vertices(self):
        return range(1, self.n + 1)

    def multiplicity(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("no loops: multiplicity(v, v) is undefined")
        key = (u, v) if u < v else (v, u)
        return self._mult.get(key, 0)

    def pairs(self):
        """Sorted (u, v, k) triples with u < v and k >= 1."""
        return [_share((u, v, k)) for (u, v), k in sorted(self._mult.items())]

    def multiplicities(self):
        """Read-only view of the ((u, v), k) entries, u < v and k >= 1, in
        no fixed order; cheaper than pairs() where order does not matter."""
        return self._mult.items()

    def neighbors(self, v: int) -> tuple:
        self._check_vertex(v)
        return self._adjacency()[v]

    def _adjacency(self) -> dict:
        """{v: sorted tuple of v's neighbors}, built on first use and cached."""
        if self._adj is None:
            adj = {v: [] for v in range(1, self.n + 1)}
            for (u, v) in self._mult:
                adj[u].append(v)
                adj[v].append(u)
            self._adj = {v: tuple(sorted(ws)) for v, ws in adj.items()}
        return self._adj

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._deg[v]

    def degrees(self) -> tuple:
        return tuple(self._deg[1:])

    def max_degree(self) -> int:
        return max(self._deg[1:])

    def edge_total(self) -> int:
        """Number of edges counted with multiplicity."""
        return sum(self._mult.values())

    def is_simple(self) -> bool:
        return all(k == 1 for k in self._mult.values())

    def _check_vertex(self, v):
        if not (1 <= v <= self.n):
            raise ValueError(f"vertex {v} out of range 1..{self.n}")

    # -- derived graphs -------------------------------------------------------

    def delete_single_edge(self, u: int, v: int) -> "Multigraph":
        """Remove one parallel edge between u and v."""
        key = (u, v) if u < v else (v, u)
        if self._mult.get(key, 0) < 1:
            raise ValueError(f"no edge between {u} and {v}")
        mult = dict(self._mult)
        mult[key] -= 1
        return Multigraph(self.n, mult)

    # -- connectivity ---------------------------------------------------------

    def is_connected(self) -> bool:
        """One union-find sweep over the pairs, with path halving: the graph
        is connected iff n - 1 of the pairs join two components."""
        parent = list(range(self.n + 1))
        joins = 0
        for u, v in self._mult:
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                joins += 1
        return joins == self.n - 1

    def degeneracy(self) -> int:
        """Smallest d such that every sub-multigraph has a vertex of degree <= d.

        Computed by repeatedly deleting a minimum-degree vertex (smallest-last
        order; Matula and Beck, J. ACM 1983); degrees count multiplicity.  The
        vertex comes from a heap of (degree, vertex) entries: a deletion pushes
        each neighbor's lowered degree, and entries of deleted vertices or of
        outdated degrees are skipped, so the run takes O((n + p) log n) for p
        adjacent pairs.
        """
        adj, mult = self._adjacency(), self._mult
        deg = list(self._deg)
        heap = [(d, v) for v, d in enumerate(deg) if v]
        heapq.heapify(heap)
        deleted = [False] * (self.n + 1)
        best = 0
        while heap:
            d, v = heapq.heappop(heap)
            if deleted[v] or d != deg[v]:
                continue
            deleted[v] = True
            best = max(best, d)
            for w in adj[v]:
                if not deleted[w]:
                    deg[w] -= mult[(v, w) if v < w else (w, v)]
                    heapq.heappush(heap, (deg[w], w))
        return best

    # -- value semantics ------------------------------------------------------

    def _key(self):
        return (self.n, tuple(sorted(self._mult.items())))

    def __eq__(self, other):
        return isinstance(other, Multigraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Multigraph(n={self.n}, edges={self.pairs()})"


# -- block decomposition ------------------------------------------------------


class _Shape:
    """Shape of a block, equal only to a shape of the same kind and size (as
    NamedTuples, CompletePower(3, 2) would equal CyclePower(3, 2))."""

    __slots__ = ()

    def _key(self):
        return (type(self),) + tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return isinstance(other, _Shape) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class CompletePower(_Shape):
    """Block isomorphic to the complete graph on n vertices, every pair k-fold."""

    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k


class CyclePower(_Shape):
    """Block isomorphic to the n-cycle (n >= 4) with every edge k-fold."""

    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k


class Other(_Shape):
    """Block that is neither a complete power nor a cycle power."""

    __slots__ = ()


class BlockDecomposition(NamedTuple):
    blocks: tuple            # sorted vertex tuples, ordered by smallest vertex
    classifications: tuple   # parallel to blocks
    components: tuple        # sorted vertex tuples, ordered by smallest vertex


def _block(g: Multigraph, edges):
    """(sorted vertex tuple, shape) of the block whose edges the DFS found."""
    vs = tuple(sorted({x for e in edges for x in e}))
    r = len(vs)
    mults = {g.multiplicity(u, v) for u, v in edges}
    shape = Other()
    if len(mults) == 1:
        k = mults.pop()
        if len(edges) == r * (r - 1) // 2:
            shape = CompletePower(r, k)
        elif r >= 4 and len(edges) == r:
            shape = CyclePower(r, k)
    return vs, shape


def blocks(g: Multigraph) -> BlockDecomposition:
    """Biconnected blocks with a classification of each, and the connected
    components, from one iterative lowpoint DFS (Hopcroft and Tarjan, CACM
    1973).

    The DFS runs on the underlying simple graph, so two vertices joined by
    parallel edges form a complete (K_2-power) block rather than a 2-cycle.
    Each block is classified from the edges the DFS found for it: r
    vertices with one multiplicity k make CompletePower(r, k) when all
    r(r - 1)/2 pairs are joined, and CyclePower(r, k) when r >= 4 and r
    pairs are (a 2-connected graph with as many edges as vertices is a
    cycle), so a uniform triangle is CompletePower(3, k).  Any other block
    is Other.  Each root's component is the vertices its DFS discovers; an
    isolated vertex is its own component and its own CompletePower(1, 1)
    block.
    """
    adj = g._adjacency()
    disc = {}
    low = {}
    found = []
    components = []
    for start in g.vertices():
        if start in disc:
            continue
        disc[start] = low[start] = len(disc)
        comp = [start]
        if not adj[start]:
            found.append(((start,), CompletePower(1, 1)))
        # estack holds the edges not yet in a block; a stack entry keeps the
        # estack index of the tree edge that discovered its vertex, so the
        # block that edge closes is the tail of estack from there
        estack = []
        stack = [(start, None, iter(adj[start]), 0)]
        while stack:
            v, parent, it, _ = stack[-1]
            for w in it:
                if w == parent:
                    continue
                if w not in disc:
                    stack.append((w, v, iter(adj[w]), len(estack)))
                    estack.append((v, w))
                    disc[w] = low[w] = len(disc)
                    comp.append(w)
                    break
                if disc[w] < disc[v]:
                    estack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                at = stack.pop()[3]
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        found.append(_block(g, estack[at:]))
                        del estack[at:]
        components.append(tuple(sorted(comp)))
    found.sort(key=lambda block: block[0])
    vertex_sets, shapes = zip(*found)
    return BlockDecomposition(vertex_sets, shapes, tuple(components))


# -- text format ----------------------------------------------------------------
#
# First line: n.  Then one line "u v k" per vertex pair with k = multiplicity >= 1.
# Whitespace-separated, 1-indexed, pairs unordered and unique.  A vertex count
# above MAX_VERTICES raises CapExceeded before anything is allocated.  Graph
# and cover files share the vertex-count line and the errors of a data line.

MAX_VERTICES = 100_000


def parse_vertex_count(parts, lineno: int) -> int:
    """The vertex count from the split first line of a graph or cover file."""
    if len(parts) != 1:
        raise ParseError("expected a single vertex count", lineno)
    try:
        n = int(parts[0])
    except ValueError:
        raise ParseError(f"bad vertex count {parts[0]!r}", lineno) from None
    if n < 1:
        raise ParseError("vertex count must be at least 1", lineno)
    if n > MAX_VERTICES:
        raise CapExceeded(f"vertex count {n} exceeds cap {MAX_VERTICES}")
    return n


def bad_entry(lineno: int, raw: str, parts, shape: str) -> ParseError:
    """The error for a data line whose fields did not unpack into the
    integers of shape, such as 'u v k': a wrong field count wins."""
    if len(parts) != len(shape.split()):
        return ParseError(f"expected {shape!r}", lineno)
    return ParseError(f"non-integer entry in {raw.strip()!r}", lineno)


def parse_multigraph(text: str) -> Multigraph:
    n = None
    mult = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if n is None:
            n = parse_vertex_count(parts, lineno)
            continue
        try:
            u, v, k = map(int, parts)
        except ValueError:  # a non-integer field, or not three fields
            raise bad_entry(lineno, raw, parts, "u v k") from None
        if u == v:
            raise ParseError(f"loop at vertex {u}", lineno)
        if not (0 < u <= n and 0 < v <= n):
            raise ParseError(f"vertex out of range in ({u}, {v})", lineno)
        if k < 1:
            raise ParseError("multiplicity must be at least 1", lineno)
        key = (u, v) if u < v else (v, u)
        if key in mult:
            raise ParseError(f"duplicate pair {key}", lineno)
        mult[key] = k
    if n is None:
        raise ParseError("empty input: missing vertex count")
    return Multigraph(n, mult)


def format_multigraph(g: Multigraph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v} {k}" for u, v, k in g.pairs())
    return "\n".join(lines) + "\n"
