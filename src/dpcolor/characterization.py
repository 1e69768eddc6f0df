"""Degree-colorability decided from block structure, with witness covers.

A connected multigraph admits an uncolorable degree cover exactly when every
block is a uniform power of a complete graph or of a cycle.  A cover
restricts independently to components, so any multigraph is decided by one
block decomposition of the whole graph, with a verdict per component.  The
decision is purely structural: blocks() classifies each block as it finds
it.  When the answer is negative, the witness is the paper's band cover
(cover._band_cover) of the blocks of the uncolorable components, with the
bands of a cut vertex one after another; colorable components get
degree-sized lists with no cross edges, which leaves the whole cover
uncolorable.
"""

from __future__ import annotations

from typing import NamedTuple

from .cover import Cover, _band_cover, validate_cover
from .errors import InternalInvariantError
from .multigraph import Multigraph, Other, blocks


class DegreeColorabilityVerdict(NamedTuple):
    colorable: bool
    reason: tuple        # (block vertex tuple, classification) per block
    witness: Cover | None  # None when colorable
    components: tuple    # (component vertex tuple, colorable) per component


def decide_degree_colorable(g: Multigraph,
                            build_witness: bool = True) -> DegreeColorabilityVerdict:
    """Decide whether a multigraph is colorable under every degree cover, in
    polynomial time, from its block classification.

    A component is not colorable exactly when all its blocks classify as
    CompletePower or CyclePower, and g is colorable exactly when every
    component is.  When g is not, the verdict carries an uncolorable degree
    cover unless build_witness is off: the band cover of the blocks of the
    uncolorable components, degree-sized lists with no cross edges on the
    rest.  Note that trees land on the negative side: every block of a tree
    is a 2-vertex complete graph.
    """
    dec = blocks(g)
    reason = tuple(zip(dec.blocks, dec.classifications))
    other = {v for vs, cls in reason if isinstance(cls, Other) for v in vs}
    components = tuple((comp, not other.isdisjoint(comp)) for comp in dec.components)
    colorable = all(ok for _, ok in components)
    if colorable or not build_witness:
        return DegreeColorabilityVerdict(colorable, reason, None, components)
    fine = {v for comp, ok in components if ok for v in comp}  # colorable parts
    witness = _band_cover(g, [(vs, cls) for vs, cls in reason if vs[0] not in fine])
    if witness.list_sizes != g.degrees():
        raise InternalInvariantError("witness is not a degree cover")
    viol = validate_cover(witness)
    if viol is not None:
        raise InternalInvariantError(f"witness fails validation: {viol}")
    return DegreeColorabilityVerdict(False, reason, witness, components)
