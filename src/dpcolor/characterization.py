"""Degree-colorability decided from block structure, with witness covers.

A connected multigraph admits an uncolorable degree cover exactly when every
block is a uniform power of a complete graph or of a cycle.  A cover
restricts independently to components, so any multigraph is decided by one
block decomposition of the whole graph, with a verdict per component.  The
decision is purely structural (block decomposition plus classification);
when the answer is negative, an explicit uncolorable degree cover is
assembled from the per-block constructions by concatenating lists at the cut
vertices, and colorable components get degree-sized lists with no cross
edges, which leaves the whole cover uncolorable.
"""

from __future__ import annotations

from typing import NamedTuple

from .cover import Cover, build_bad_complete, build_bad_cycle, validate_cover
from .errors import InternalInvariantError
from .multigraph import CompletePower, CyclePower, Multigraph, Other, blocks


class DegreeColorabilityVerdict(NamedTuple):
    colorable: bool
    reason: tuple        # (block vertex tuple, classification) per block
    witness: Cover | None  # None when colorable
    components: tuple    # (component vertex tuple, colorable) per component


def _cycle_order(g: Multigraph, vs):
    """Vertices of a cycle block in traversal order, starting at the smallest
    vertex and moving toward its smaller neighbor."""
    vset = set(vs)
    start = min(vs)
    nbrs = [w for w in g.neighbors(start) if w in vset]
    order = [start, min(nbrs)]
    while len(order) < len(vs):
        cur, prev = order[-1], order[-2]
        nxt = [w for w in g.neighbors(cur) if w in vset and w != prev]
        order.append(nxt[0])
    return order


def _block_cover(g: Multigraph, vs, cls):
    """Uncolorable degree cover of one block, keyed by original vertex labels.

    Returns (sizes: {vertex: list size}, cross: {(u, v): set of index pairs}).
    """
    if isinstance(cls, CompletePower):
        if cls.n == 1:
            return {vs[0]: 0}, {}
        local = build_bad_complete(cls.n, cls.k)
        labels = sorted(vs)
    elif isinstance(cls, CyclePower):
        local = build_bad_cycle(cls.n, cls.k)
        labels = _cycle_order(g, vs)
    else:
        raise ValueError("no witness construction for an unstructured block")
    sizes = {labels[v - 1]: local.size(v) for v in range(1, len(labels) + 1)}
    cross = {}
    for (u, v), edges in local.cross.items():
        a, b = labels[u - 1], labels[v - 1]
        if a < b:
            cross[(a, b)] = set(edges)
        else:
            cross[(b, a)] = {(j, i) for i, j in edges}
    return sizes, cross


def _merge_block_covers(g: Multigraph, per_block):
    """Combine per-block degree covers, as (sizes, cross) parts, into one
    cover of g.

    A cut vertex's list is the concatenation of its lists across blocks (in
    block order), so its size becomes the full degree; the implicit clique on
    the merged list is what makes the combination uncolorable whenever every
    part is.
    """
    offsets = {}
    sizes = [0] * g.n
    for bi, (bsizes, _) in enumerate(per_block):
        for v, s in bsizes.items():
            offsets[(v, bi)] = sizes[v - 1]
            sizes[v - 1] += s
    cross = {}
    for bi, (_, bcross) in enumerate(per_block):
        for (u, v), edges in bcross.items():
            du, dv = offsets[(u, bi)], offsets[(v, bi)]
            cross.setdefault((u, v), set()).update(
                (i + du, j + dv) for i, j in edges)
    return Cover(g, tuple(sizes), cross)


def decide_degree_colorable(g: Multigraph,
                            build_witness: bool = True) -> DegreeColorabilityVerdict:
    """Decide whether a multigraph is colorable under every degree cover, in
    polynomial time, from its block classification.

    A component is not colorable exactly when all its blocks classify as
    CompletePower or CyclePower, and g is colorable exactly when every
    component is.  When g is not, the verdict carries an uncolorable degree
    cover unless build_witness is off: the per-block constructions on the
    uncolorable components, degree-sized lists with no cross edges on the
    rest.  Note that trees land on the negative side: every block of a tree
    is a 2-vertex complete graph.
    """
    dec = blocks(g)
    reason = tuple(zip(dec.blocks, dec.classifications))
    other = {v for vs, cls in reason if isinstance(cls, Other) for v in vs}
    components = tuple((comp, not other.isdisjoint(comp)) for comp in g.components())
    colorable = all(ok for _, ok in components)
    if colorable or not build_witness:
        return DegreeColorabilityVerdict(colorable, reason, None, components)
    fine = {v for comp, ok in components if ok for v in comp}  # colorable parts
    per_block = [_block_cover(g, vs, cls) for vs, cls in reason if vs[0] not in fine]
    per_block.append(({v: g.degree(v) for v in fine}, {}))
    witness = _merge_block_covers(g, per_block)
    if witness.list_sizes != g.degrees():
        raise InternalInvariantError("witness is not a degree cover")
    viol = validate_cover(witness)
    if viol is not None:
        raise InternalInvariantError(f"witness fails validation: {viol}")
    return DegreeColorabilityVerdict(False, reason, witness, components)
