"""Independent checks of the answers the benchmark gets from dpcolor.

Nothing here imports dpcolor or the test suite.  Graphs and covers arrive
as plain data (or as the text formats, parsed here), and every decision is
recomputed by the simplest method that is still fast enough: product scans
for small covers, 2-SAT for covers whose lists have at most two colors, a
block decomposition for degree-colorability, and a canonical form taken over
degree-respecting relabelings for isomorphism.

Plain data used throughout:
  graph  (n, {(u, v): k})            with u < v and k >= 1
  cover  (sizes, {(u, v): {(i, j)}})  cross edges, u < v, 1-based colors
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# Connected simple graphs on n = 1..6 vertices (OEIS A001349).
CONNECTED_SIMPLE = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
# Connected simple graphs of minimum degree >= 3 on n = 4..7 vertices.
MIN_DEGREE_3 = {4: 1, 5: 3, 6: 19, 7: 150}


def known_chi_dp(family, size):
    """Paper facts: chi_DP(C_n) = 3, chi_DP(K_n) = n, chi_DP(K_2^k) = k + 1."""
    return {"cycle": 3, "complete": size, "edge_power": size + 1}[family]


def family_graph(family, size, mult=1):
    """C_size^mult or K_size^mult as plain data."""
    pairs = [(u, v) for u in range(1, size + 1) for v in range(u + 1, size + 1)
             if family == "complete" or v == u + 1 or (u, v) == (1, size)]
    return size, {p: mult for p in pairs}


# -- text formats ------------------------------------------------------------------


def parse_graph(text):
    rows = [line.split() for line in text.splitlines() if line.split()]
    n = int(rows[0][0])
    mult = {}
    for u, v, k in ((int(a), int(b), int(c)) for a, b, c in rows[1:]):
        mult[(min(u, v), max(u, v))] = k
    return n, mult


def parse_cover(text):
    rows = [line.split() for line in text.splitlines() if line.split()]
    sizes = tuple(int(s) for s in rows[1])
    if len(sizes) != int(rows[0][0]):
        raise ValueError("size line does not match the vertex count")
    cross = {}
    for u, i, v, j in ((int(x) for x in row) for row in rows[2:]):
        cross.setdefault((u, v), set()).add((i, j))
    return sizes, cross


# -- covers ------------------------------------------------------------------------


def cover_problems(n, mult, sizes, cross):
    """Reasons the cover conditions fail, in no particular order."""
    out = []
    if len(sizes) != n:
        out.append("wrong number of lists")
    for (u, v), edges in cross.items():
        m = mult.get((u, v), 0)
        if not edges:
            continue
        if m == 0:
            out.append(f"cross edges on non-adjacent pair {(u, v)}")
            continue
        rows, cols = {}, {}
        for i, j in edges:
            if not (1 <= i <= sizes[u - 1] and 1 <= j <= sizes[v - 1]):
                out.append(f"color index out of range on pair {(u, v)}")
            rows[i] = rows.get(i, 0) + 1
            cols[j] = cols.get(j, 0) + 1
        if max(rows.values()) > m or max(cols.values()) > m:
            out.append(f"bipartite degree above multiplicity {m} on pair {(u, v)}")
    return out


def is_coloring(sizes, cross, choice):
    """True iff choice picks an in-range color per vertex and hits no cross edge."""
    if len(choice) != len(sizes):
        return False
    if any(not 1 <= c <= s for c, s in zip(choice, sizes)):
        return False
    return all((choice[u - 1], choice[v - 1]) not in edges
               for (u, v), edges in cross.items())


def brute_force_transversal(sizes, cross):
    """Scan the whole product of lists; return a coloring or None."""
    pairs = [(u - 1, v - 1, frozenset(e)) for (u, v), e in cross.items() if e]
    for t in itertools.product(*[range(1, s + 1) for s in sizes]):
        if all((t[a], t[b]) not in e for a, b, e in pairs):
            return t
    return None


def two_sat_colorable(sizes, cross):
    """Decide a cover whose lists all have at most two colors, as 2-SAT.

    Node 2(v-1) + (c-1) stands for "v takes color c"; its negation is the
    other node of the vertex.  A cross edge (u, i)-(v, j) forbids both
    choices at once, so u = i implies v != j and vice versa.
    """
    if any(s == 0 for s in sizes):
        return False
    if any(s > 2 for s in sizes):
        raise ValueError("2-SAT needs lists of at most two colors")
    nodes = 2 * len(sizes)
    succ = [[] for _ in range(nodes)]
    for v, s in enumerate(sizes):
        if s == 1:
            succ[2 * v + 1].append(2 * v)  # color 2 does not exist
    for (u, v), edges in cross.items():
        for i, j in edges:
            a, b = 2 * (u - 1) + i - 1, 2 * (v - 1) + j - 1
            succ[a].append(b ^ 1)
            succ[b].append(a ^ 1)
    comp = _strong_components(succ)
    return all(comp[2 * v] != comp[2 * v + 1] for v in range(len(sizes)))


def _strong_components(succ):
    """Kosaraju, iteratively; returns a component id per node."""
    n = len(succ)
    pred = [[] for _ in range(n)]
    for a, outs in enumerate(succ):
        for b in outs:
            pred[b].append(a)
    seen, order = [False] * n, []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, 0)]
        while stack:
            node, k = stack.pop()
            if k < len(succ[node]):
                stack.append((node, k + 1))
                nxt = succ[node][k]
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, 0))
            else:
                order.append(node)
    comp = [-1] * n
    label = 0
    for root in reversed(order):
        if comp[root] != -1:
            continue
        comp[root] = label
        stack = [root]
        while stack:
            node = stack.pop()
            for nxt in pred[node]:
                if comp[nxt] == -1:
                    comp[nxt] = label
                    stack.append(nxt)
        label += 1
    return comp


def colorable(sizes, cross):
    """Exact decision by 2-SAT or, failing that, by a product scan."""
    if all(s <= 2 for s in sizes):
        return two_sat_colorable(sizes, cross)
    space = 1
    for s in sizes:
        space *= s
    if space > 200_000:
        raise ValueError(f"product of list sizes {space} too large to scan")
    return brute_force_transversal(sizes, cross) is not None


# -- graphs ------------------------------------------------------------------------


def _neighbors(n, mult):
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in mult:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_connected(n, mult):
    adj = _neighbors(n, mult)
    seen, stack = {1}, [1]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n


def degrees(n, mult):
    deg = [0] * n
    for (u, v), k in mult.items():
        deg[u - 1] += k
        deg[v - 1] += k
    return tuple(deg)


def blocks(n, mult):
    """Vertex sets of the blocks (maximal 2-connected pieces or bridges)."""
    adj = _neighbors(n, mult)
    disc, low, out, stack = {}, {}, [], []

    def visit(v, parent):
        disc[v] = low[v] = len(disc)
        for w in sorted(adj[v]):
            if w == parent:
                continue
            if w not in disc:
                stack.append((v, w))
                visit(w, v)
                low[v] = min(low[v], low[w])
                if low[w] >= disc[v]:
                    piece = set()
                    while True:
                        a, b = stack.pop()
                        piece.update((a, b))
                        if (a, b) == (v, w):
                            break
                    out.append(frozenset(piece))
            elif disc[w] < disc[v]:
                stack.append((v, w))
                low[v] = min(low[v], disc[w])

    for root in range(1, n + 1):
        if root not in disc:
            visit(root, None)
    return out


def degree_colorable(n, mult):
    """The paper's characterization for a connected multigraph: some degree
    cover is uncolorable exactly when every block is K_m^k or C_m^k (one
    multiplicity k throughout the block).  A lone vertex has an empty list."""
    if n == 1:
        return False
    for piece in blocks(n, mult):
        inside = [k for (u, v), k in mult.items() if u in piece and v in piece]
        m = len(piece)
        complete = len(inside) == m * (m - 1) // 2
        cycle = m >= 4 and len(inside) == m
        if len(set(inside)) != 1 or not (complete or cycle):
            return True
    return False


def canonical_form(n, mult):
    """Least relabeled edge list over labelings that sort vertices by an
    isomorphism invariant (degree, then the multiset of (multiplicity,
    neighbor degree)); equal forms mean isomorphic graphs."""
    deg = degrees(n, mult)
    adj = {v: [] for v in range(1, n + 1)}
    for (u, v), k in mult.items():
        adj[u].append((k, deg[v - 1]))
        adj[v].append((k, deg[u - 1]))
    key = {v: (deg[v - 1], tuple(sorted(adj[v]))) for v in adj}
    classes = [[v for v in adj if key[v] == c] for c in sorted(set(key.values()))]
    best = None
    for perms in itertools.product(*[itertools.permutations(c) for c in classes]):
        label = {v: i for i, v in enumerate(itertools.chain(*perms), start=1)}
        form = tuple(sorted((min(label[u], label[v]), max(label[u], label[v]), k)
                            for (u, v), k in mult.items()))
        if best is None or form < best:
            best = form
    return n, best


def connected_orbit_counts(max_n, max_mult):
    """Isomorphism classes of connected multigraphs per vertex count, by
    marking whole orbits of multiplicity vectors under all relabelings."""
    counts = {}
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        seen, count = set(), 0
        perms = list(itertools.permutations(range(1, n + 1)))
        for vec in itertools.product(range(max_mult + 1), repeat=len(pairs)):
            if vec in seen:
                continue
            mult = {p: k for p, k in zip(pairs, vec) if k}
            for perm in perms:
                image = {}
                for (u, v), k in mult.items():
                    a, b = perm[u - 1], perm[v - 1]
                    image[(min(a, b), max(a, b))] = k
                seen.add(tuple(image.get(p, 0) for p in pairs))
            if is_connected(n, mult):
                count += 1
        counts[n] = count
    return counts


# -- per-workload verdicts ------------------------------------------------------------
#
# Each returns a list of problems; an empty list means the answer checks out.


def uncolorable_witness_problems(n, mult, sizes, cross, want_sizes):
    out = cover_problems(n, mult, sizes, cross)
    if tuple(sizes) != tuple(want_sizes):
        out.append(f"list sizes {tuple(sizes)} differ from {tuple(want_sizes)}")
    if not out and brute_force_transversal(sizes, cross) is not None:
        out.append("witness has a transversal")
    return out


def oracle_problems(graph, answer):
    """answer: (oracle_ok, oracle_witness, structural_ok, structural_witness)."""
    n, mult = graph
    truth = degree_colorable(n, mult)
    out = []
    for label, ok, witness in (("oracle", answer[0], answer[1]),
                               ("structural", answer[2], answer[3])):
        if ok != truth:
            out.append(f"{label} says degree-colorable={ok}, blocks say {truth}")
        elif ok and witness is not None:
            out.append(f"{label} gives a witness for a colorable graph")
        elif not ok:
            if witness is None:
                out.append(f"{label} gives no witness")
            else:
                out.extend(f"{label} witness: {p}" for p in uncolorable_witness_problems(
                    n, mult, witness[0], witness[1], degrees(n, mult)))
    return out


def critical_bound_problems(graph, k):
    """Edge counts that a DP-k-critical graph must meet."""
    n, mult = graph
    edges = sum(mult.values())
    out = []
    if 2 * edges < (k - 1) * n:
        out.append(f"2|E| = {2 * edges} below (k-1)n = {(k - 1) * n}")
    simple = all(m == 1 for m in mult.values())
    k4 = n == 4 and len(mult) == 6
    if k == 4 and simple and not k4 and 2 * edges < Fraction(40, 13) * n:
        out.append(f"2|E| = {2 * edges} below (40/13)n")
    return out


def census_problems(graphs, want_counts, max_mult):
    """graphs: list of (n, {(u, v): k}) as emitted by one census call."""
    out = []
    counts = {}
    forms = set()
    for n, mult in graphs:
        counts[n] = counts.get(n, 0) + 1
        if not is_connected(n, mult):
            out.append(f"disconnected graph on {n} vertices")
        if any(k > max_mult for k in mult.values()):
            out.append(f"multiplicity above {max_mult}")
        form = canonical_form(n, mult)
        if form in forms:
            out.append(f"duplicate isomorphism class on {n} vertices")
        forms.add(form)
    if counts != want_counts:
        out.append(f"counts per vertex number {counts} differ from {want_counts}")
    return out
