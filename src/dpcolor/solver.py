"""Exact colorability decisions over covers.

Two engines live here:

* ``solve`` decides whether one given cover admits a transversal, by
  backtracking over vertices with minimum-remaining-domain ordering and
  forward pruning.  One walk over the cross edges both builds the per-color
  conflict masks and decides the cover conditions; only a cover that fails
  it goes on to ``validate_cover``, which words the violation.  The
  backtracking runs on an explicit stack, so its depth is not limited by
  Python's recursion limit, and the next vertex comes from a heap keyed by
  (domain size, vertex), rebuilt whenever outdated entries make it longer
  than 4n.  Answers are exact: "uncolorable" always means the search space
  was exhausted, never that a budget ran out (budget aborts raise).

* ``find_uncolorable_cover`` searches for a cover with prescribed list sizes
  that admits no transversal at all.  Rather than enumerating covers and
  solving each, it works over "cells": a cell (u, i, v, j) is a cross edge
  between color i of u and color j of v, and it blocks exactly the
  transversals choosing both colors.  The search grows a set of cells subject
  to the per-pair bipartite degree caps until every transversal is blocked
  (an uncolorable cover) or all branches are exhausted (none exists).
  Branching always targets one still-unblocked transversal that the fewest
  pairs can still block, so each level commits to how that transversal
  dies; sibling branches ban the cells already tried, which keeps the
  explored solution sets disjoint.  Two cuts end hopeless branches: a
  surviving transversal whose cells are all unaddable can never be blocked,
  and a reach bound shows when the cells each pair can still add within
  its row and column caps, taken with their kill counts and with overlaps
  ignored, cannot block every surviving transversal.  Spanning-forest
  gauge fixing shrinks the space.
  An uncolorable cover may be taken maximal, each pair of multiplicity m a
  union of m maximum matchings (adding cross edges never makes a
  transversal), and a maximum matching saturates the shorter list.  In a
  forest grown from the shortest lists, every pair runs from a parent u
  to a child w with |L(u)| <= |L(w)|: relabeling w's list maps one of its
  matchings onto the diagonal, and relabeling top-down along the forest
  does this for every tree pair at once, whatever the number of roots in
  a component.  One rule follows: a tree pair of multiplicity 1, or with
  |L(u)| < |L(w)|, holds the diagonal cells (i, i), i <= |L(u)|, from the
  start, and every pair searches the rest of its full grid.  Equal lists
  at m >= 2 are left ungauged: pre-taking their diagonal made searches that
  find a cover several times longer.  This search too runs on an explicit
  stack, one frame per node on the path.

chi_dp and the degree-colorability oracle are thin wrappers over the cell
search.  All functions are pure and reentrant; independent instances can be
handed to parallel workers.
"""

from __future__ import annotations

import heapq
from itertools import chain, compress, product
from typing import NamedTuple

from .cover import Cover, Transversal, validate_cover
from .errors import CapExceeded, CoverInvalid, InternalInvariantError
from .multigraph import Multigraph


# default cap on the backtracking nodes of one solve or cell search call
NODE_BUDGET = 5_000_000


class SolveResult(NamedTuple):
    colorable: bool
    transversal: Transversal | None
    nodes_explored: int


def _conflict_masks(cover: Cover):
    """nbr[v] = [(u, masks)], vertices 0-based: masks[i - 1] is the bitmask of
    u's colors conflicting with color i of v.  None if the cover breaks a
    cover condition; edges are distinct, so popcounts are bipartite degrees.
    """
    sizes = cover.list_sizes
    multiplicity = cover.base.multiplicity
    nbr = [[] for _ in sizes]
    for (u, v), edges in cover.cross.items():
        m = multiplicity(u, v)  # 0 off the base's edges: any degree exceeds it
        su, sv = sizes[u - 1], sizes[v - 1]
        mu, mv = [0] * su, [0] * sv
        for i, j in edges:
            if not (0 < i <= su and 0 < j <= sv):
                return None
            mu[i - 1] |= 1 << (j - 1)
            mv[j - 1] |= 1 << (i - 1)
        if len(edges) > m and (max(map(int.bit_count, mu)) > m
                               or max(map(int.bit_count, mv)) > m):
            return None
        nbr[u - 1].append((v - 1, mu))
        nbr[v - 1].append((u - 1, mv))
    return nbr


def solve(cover: Cover, node_budget: int = NODE_BUDGET) -> SolveResult:
    """Exact transversal search; deterministic given the cover.

    Vertices are chosen by smallest remaining domain (ties to the lowest
    vertex) and colors tried in index order.  Raises CoverInvalid for covers
    that fail validation and CapExceeded when the node budget runs out.
    """
    nbr = _conflict_masks(cover)
    if nbr is None:
        raise CoverInvalid(str(validate_cover(cover)))
    heappush, heappop = heapq.heappush, heapq.heappop
    n = len(nbr)
    limit = 4 * n
    domains = [(1 << s) - 1 for s in cover.list_sizes]
    chosen = [0] * n
    assigned = [False] * n
    # one entry (domain size, vertex) per unassigned vertex is always current;
    # entries of assigned vertices or of outdated sizes are skipped when met,
    # and once they pile up past 4n the heap is rebuilt from the current ones
    heap = [(s, v) for v, s in enumerate(cover.list_sizes)]
    heapq.heapify(heap)

    def rebuild():
        heap[:] = [(domains[u].bit_count(), u) for u in range(n) if not assigned[u]]
        heapq.heapify(heap)

    frames = []  # per assigned vertex: [vertex, untried colors, saved domains]
    nodes = 0
    ok = False
    while True:
        while heap:  # pick: drop outdated entries off the top
            size, v = heap[0]
            if not assigned[v] and size == domains[v].bit_count():
                break
            heappop(heap)
        else:
            ok = True
            break
        dom = domains[v]
        if dom:
            heappop(heap)
            assigned[v] = True
            frames.append([v, dom, ()])
        # try the next color of the innermost vertex, backtracking when none
        # is left
        while frames:
            frame = frames[-1]
            v, dom, saved = frame
            for u, old in saved:
                domains[u] = old
                heappush(heap, (old.bit_count(), u))
                if len(heap) > limit:
                    rebuild()
            if not dom:
                frames.pop()
                chosen[v] = 0
                assigned[v] = False
                heappush(heap, (domains[v].bit_count(), v))
                if len(heap) > limit:
                    rebuild()
                continue
            i = (dom & -dom).bit_length()
            frame[1] = dom & (dom - 1)
            nodes += 1
            if nodes > node_budget:
                raise CapExceeded(f"solve exceeded node budget {node_budget}")
            chosen[v] = i
            saved = []
            alive = True
            for u, umasks in nbr[v]:
                if not assigned[u]:
                    old = domains[u]
                    new = old & ~umasks[i - 1]
                    if new != old:
                        saved.append((u, old))
                        domains[u] = new
                        heappush(heap, (new.bit_count(), u))
                        if len(heap) > limit:
                            rebuild()
                        alive = alive and new != 0
            frame[2] = saved
            if alive:
                break
        else:
            break
    t = Transversal(tuple(chosen)) if ok else None
    return SolveResult(ok, t, nodes)


# -- search for an uncolorable cover -------------------------------------------

# cap on the total bits of the cell masks, `space` bits a cell, built up front
MAX_MASK_BITS = 1 << 31
# cap on the product of the list sizes, the transversals a cell search tracks
MAX_TRANSVERSAL_SPACE = 500_000
# cap on the sum of the degrees a degree-colorability oracle call accepts
MAX_ORACLE_TOTAL_DEGREE = 24


def _normalize_sizes(g: Multigraph, list_sizes):
    sizes = (list_sizes,) * g.n if isinstance(list_sizes, int) else tuple(list_sizes)
    if len(sizes) != g.n:
        raise ValueError("need one list size per vertex")
    if any(s < 0 for s in sizes):
        raise ValueError("list sizes must be nonnegative")
    return sizes


def find_uncolorable_cover(g: Multigraph, list_sizes,
                           node_budget: int = NODE_BUDGET) -> Cover | None:
    """Find a cover of g with the given list sizes and no transversal.

    list_sizes is a single int (uniform lists) or one size per vertex.
    Returns None when every such cover is colorable; the search is complete.
    An emitted cover is deterministic for a given input; each pair's cross
    edges are completed until no cell can be added, which keeps it
    uncolorable and makes it a union of multiplicity(u, v) maximum
    matchings.  CapExceeded is raised before the search when the
    transversal space or the cell masks (MAX_MASK_BITS) are over their caps.
    """
    sizes = _normalize_sizes(g, list_sizes)
    if any(s == 0 for s in sizes):
        return Cover(g, sizes, {})  # an empty list already blocks every transversal
    space = 1
    for s in sizes:
        space *= s
        if space > MAX_TRANSVERSAL_SPACE:
            raise CapExceeded(f"transversal space exceeds cap {MAX_TRANSVERSAL_SPACE}")
    bits = space * sum(sizes[u - 1] * sizes[v - 1] for u, v, _ in g.pairs())
    if bits > MAX_MASK_BITS:
        raise CapExceeded(f"cell masks of {bits} bits exceed cap {MAX_MASK_BITS}")
    chosen = _search_blocking_cells(g, sizes, node_budget)
    if chosen is None:
        return None
    return Cover(g, sizes, _complete_to_maximal(g, sizes, chosen))


def _class_masks(sizes):
    """(masks, strides): masks[v][c] = bitmask of the transversals that give
    vertex v color c + 1; strides[v] = the product of the later list sizes,
    and strides[0] = the number of transversals.

    Bit b stands for the transversal with mixed-radix index b, vertex n the
    least significant digit, giving v the color b // strides[v] % s + 1 with
    s = sizes[v - 1].  So the class of (v, c) is a run of strides[v] ones at
    offset c * strides[v], repeated every strides[v - 1] bits; the repetition
    is built by shift-doubling.
    """
    space = 1
    for s in sizes:
        space *= s
    full = (1 << space) - 1
    masks = [None]
    strides = [space]
    for s in sizes:
        stride = strides[-1] // s
        row, filled = (1 << stride) - 1, strides[-1]
        while filled < space:
            row |= row << filled
            filled *= 2
        row &= full
        masks.append([row << (c * stride) for c in range(s)])
        strides.append(stride)
    return masks, strides


def _spanning_forest(g: Multigraph, sizes):
    """Forest grown from the shortest lists; returns its pairs (u, v), u < v.

    Roots are taken in (list size, vertex) order, and each BFS follows a
    pair v -> w only when |L(w)| >= |L(v)|, so no parent's list is longer
    than its child's.  Each connected set of equal-size vertices with no
    neighbor of a shorter list gets one root, and every forest with that
    property needs at least as many.  Uniform lists give the BFS tree from
    each component's lowest vertex.
    """
    tree = set()
    seen = set()
    for root in sorted(g.vertices(), key=lambda v: (sizes[v - 1], v)):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for v in queue:  # grows as it is walked: FIFO order
            for w in g.neighbors(v):
                if w in seen or sizes[w - 1] < sizes[v - 1]:
                    continue
                seen.add(w)
                tree.add((v, w) if v < w else (w, v))
                queue.append(w)
    return tree


def _fewest(S, cover):
    """(set, count): the bits of S that the fewest masks in cover hold, and
    how many hold them.  The counts are summed bit-sliced, digit d of every
    count in planes[d], and the smallest read off digit by digit from the top.
    """
    planes = []
    for carry in cover:
        for d, plane in enumerate(planes):
            planes[d] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            planes.append(carry)
    fewest, count = S, 0
    for d in range(len(planes) - 1, -1, -1):
        rest = fewest & ~planes[d]
        if rest:
            fewest = rest
        else:
            count |= 1 << d
    return fewest, count


def _reach(mus, b, m, rowdeg, coldeg):
    """Most transversals a pair of multiplicity m can still block, counted
    without overlaps.

    mus[k] is the kill count of the pair's cell k if it is live (addable,
    and blocking some survivor), else 0; cells run row by row, b to a row,
    and rowdeg[i], coldeg[j] are the degrees held in row i and column j.
    The pair blocks at most the largest kill counts that fit each row's
    remaining degree, and apart from that each column's.
    These caps also keep the total within the pair's room: with
    |L(u)| <= |L(w)| the rows admit sum(m - rowdeg[i]) = m * |L(u)| - held
    cells, and otherwise the columns do.
    """
    rows = sum(sum(sorted(mus[k:k + b], reverse=True)[:m - rowdeg[k // b + 1]])
               for k in range(0, len(mus), b))
    cols = sum(sum(sorted(mus[j::b], reverse=True)[:m - coldeg[j + 1]])
               for j in range(b))
    return min(rows, cols)


def _search_blocking_cells(g: Multigraph, sizes, node_budget: int):
    """Core complete search; returns {pair: cells taken} or None.

    The surviving-transversal set lives in one big integer, bit b standing
    for the transversal with mixed-radix index b; each cell owns a fixed
    cylinder mask, so blocking is a single AND-NOT and all counting runs on
    popcounts.
    """
    n = g.n
    plist = g.pairs()
    P = len(plist)
    pu = [p[0] for p in plist]
    pv = [p[1] for p in plist]
    pm = [p[2] for p in plist]
    tree = _spanning_forest(g, sizes)
    classmask, strides = _class_masks(sizes)
    # cells[p][k] = (k, i, j, mask) for every cell (i, j) of pair p, row by
    # row: k = (i - 1) * width[p] + j - 1, with width[p] = |L(v)|
    width = [sizes[v - 1] for v in pv]
    cells = []
    fixed = []      # (p, k): diagonal cells the gauge takes before the search
    for p, (u, v, m) in enumerate(plist):
        a, b = sizes[u - 1], sizes[v - 1]
        cells.append([(k, i + 1, j + 1, classmask[u][i] & classmask[v][j])
                      for k, (i, j) in enumerate(product(range(a), range(b)))])
        if (u, v) in tree and (m == 1 or a != b):
            fixed.extend((p, (i - 1) * b + i - 1) for i in range(1, min(a, b) + 1))

    rowdeg = [[0] * (sizes[u - 1] + 1) for u in pu]
    coldeg = [[0] * (sizes[v - 1] + 1) for v in pv]
    closed = [bytearray(len(cs)) for cs in cells]  # taken or banned: not addable
    S = (1 << strides[0]) - 1
    for p, k in fixed:
        _, i, j, mask = cells[p][k]
        rowdeg[p][i] += 1
        coldeg[p][j] += 1
        closed[p][k] = 1
        S &= ~mask
    nodes = 0

    def decode(idx):
        return tuple(idx // strides[v] % sizes[v - 1] + 1 for v in range(1, n + 1))

    def branches(S):
        """Cells to add at a node with survivors S, most killing first, or
        none when the node is cut.

        Two cuts: a transversal of S that no pair can block any more, and
        the reach bound, under which the pairs' _reach() summed, each
        within its row and column caps and overlaps ignored, so never too
        low, falls short of |S|.  The per-pair masks built here are freed
        before the search goes deeper.
        """
        # kill counts of live cells, and coverage masks: t & cover[p] != 0
        # iff pair p can still block t
        lives, cover = [], []
        for p in range(P):
            m, rd, cd, off = pm[p], rowdeg[p], coldeg[p], closed[p]
            mus = [(S & mask).bit_count()
                   if rd[i] < m and cd[j] < m and not off[k] else 0
                   for k, i, j, mask in cells[p]]
            acc = 0
            for _, _, _, mask in compress(cells[p], mus):
                acc |= mask
            lives.append(mus)
            cover.append(acc)
        fewest, count = _fewest(S, cover)  # fail-first: fewest pairs can block
        if not count:
            return []  # some transversal of S can never be blocked
        # each pair reaches at least its largest kill count; the exact reach
        # is summed in pair by pair only while the total falls short
        need = S.bit_count()
        low = [max(mus) for mus in lives]
        total = sum(low)
        for p in range(P):
            if total >= need:
                break
            total += _reach(lives[p], width[p], pm[p], rowdeg[p], coldeg[p]) - low[p]
        if total < need:
            return []
        t = decode((fewest & -fewest).bit_length() - 1)
        opts = []
        for p in range(P):
            k = (t[pu[p] - 1] - 1) * width[p] + t[pv[p] - 1] - 1
            if lives[p][k]:
                opts.append((-lives[p][k], p, k))
        opts.sort()
        return opts

    # one frame [survivors, branches, next branch] per node on the path, so
    # the frames hold the path's cells; a branch tried stays closed to its
    # later siblings until its node is done
    frames = []
    while True:
        nodes += 1
        if nodes > node_budget:
            raise CapExceeded(f"cover search exceeded node budget {node_budget}")
        if S == 0:  # the gauge's cells, then each frame's current branch
            chosen = {}
            for p, k in chain(fixed, (opts[idx - 1][1:] for _, opts, idx in frames)):
                chosen.setdefault((pu[p], pv[p]), []).append(cells[p][k][1:3])
            return chosen
        frames.append([S, branches(S), 0])
        while frames:
            frame = frames[-1]
            S, opts, idx = frame
            if idx:  # take back the cell of the branch just explored
                _, p, k = opts[idx - 1]
                _, i, j, _ = cells[p][k]
                rowdeg[p][i] -= 1
                coldeg[p][j] -= 1
            if idx == len(opts):
                for _, p, k in opts:
                    closed[p][k] = 0
                frames.pop()
                continue
            _, p, k = opts[idx]
            frame[2] = idx + 1
            _, i, j, mask = cells[p][k]
            rowdeg[p][i] += 1
            coldeg[p][j] += 1
            closed[p][k] = 1
            S &= ~mask
            break
        else:
            return None


def _complete_to_maximal(g: Multigraph, sizes, chosen):
    """Extend each pair's chosen cells until no cell can be added.

    Takes the chosen cells, then walks every cell (i, j) row by row, adding
    it while row i and column j both have degree below m; degrees only rise,
    so a skipped cell stays unaddable.  Such a maximal set is a union of m
    maximum matchings by Hall's and König's theorems, since a line below
    degree m misses only full lines.
    """
    cross = {}
    for u, v, m in g.pairs():
        a, b = sizes[u - 1], sizes[v - 1]
        cells = set()
        rowdeg, coldeg = [0] * (a + 1), [0] * (b + 1)
        for i, j in chain(chosen.get((u, v), ()),
                          product(range(1, a + 1), range(1, b + 1))):
            if rowdeg[i] < m and coldeg[j] < m and (i, j) not in cells:
                cells.add((i, j))
                rowdeg[i] += 1
                coldeg[j] += 1
        cross[(u, v)] = cells
    return cross


# -- high-level decisions ------------------------------------------------------


def chi_dp(g: Multigraph, node_budget: int = NODE_BUDGET) -> int:
    """Smallest k such that every cover of g with k-lists has a transversal.

    Two bounds frame the search.  From below, chi_dp > m for the largest
    multiplicity m: m-lists with all m * m cells on that pair block every
    transversal.  From above, greedy coloring shows that degeneracy + 1
    always works, so that bound is returned without a search.  Returns the
    first k in between with no uncolorable cover.
    """
    low = max((m for _, _, m in g.pairs()), default=0) + 1
    cap = g.degeneracy() + 1
    for k in range(low, cap):
        if find_uncolorable_cover(g, k, node_budget) is None:
            return k
    return cap


def degree_colorable_oracle(g: Multigraph,
                            node_budget: int = NODE_BUDGET) -> tuple[bool, Cover | None]:
    """Exhaustive ground truth for degree-colorability of a connected multigraph.

    Returns (True, None) when every cover with list sizes equal to the
    degrees admits a transversal, else (False, witness) with a deterministic
    uncolorable degree cover whose pairs are unions of maximum matchings.
    Covers with larger lists never matter: dropping the surplus colors of an
    uncolorable cover leaves even fewer transversal candidates, so it stays
    uncolorable, and the result has exactly the degree sizes.  The witness is
    re-verified with the solver, which also validates it.
    """
    if not g.is_connected():
        raise ValueError("oracle needs a connected multigraph")
    total = sum(g.degrees())
    if total > MAX_ORACLE_TOTAL_DEGREE:
        raise CapExceeded(f"total degree {total} exceeds cap {MAX_ORACLE_TOTAL_DEGREE}")
    witness = find_uncolorable_cover(g, g.degrees(), node_budget)
    if witness is None:
        return True, None
    try:
        colorable = solve(witness, node_budget).colorable
    except CoverInvalid as exc:
        raise InternalInvariantError(f"witness fails validation: {exc}") from None
    if colorable:
        raise InternalInvariantError("witness unexpectedly colorable")
    return False, witness
