"""Criticality checks and exact-arithmetic edge-count bounds.

All bound arithmetic uses fractions.Fraction; nothing here ever passes or
fails by floating-point rounding.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .multigraph import CompletePower, Multigraph, Other, blocks
from .solver import NODE_BUDGET, chi_dp, find_uncolorable_cover


class CriticalityReport(NamedTuple):
    is_critical: bool
    chi: int
    failing_subgraph: tuple | None  # ("edge", u, v) or ("vertex", v)


class GdpPrecondition(ValueError):
    """A GDP-tree bound precondition failed; .reason says which one."""

    def __init__(self, reason, message):
        super().__init__(message)
        self.reason = reason  # "not-gdp-tree" | "max-degree" | "contains-complete"


def check_critical(g: Multigraph, k: int,
                   node_budget: int = NODE_BUDGET) -> CriticalityReport:
    """Is g exactly at DP-chromatic number k with every deletion dropping it?

    Single-edge deletions suffice: every proper sub-multigraph sits inside
    some single-edge-deleted one and the DP-chromatic number is monotone
    under sub-multigraphs.  The exceptions are subgraphs that delete an
    isolated vertex: such a subgraph keeps every edge, and so the
    DP-chromatic number, whenever g has an edge.  An edgeless g and a g with
    an isolated vertex are therefore decided directly.
    """
    if k < 1:
        raise ValueError("k must be positive")
    chi = chi_dp(g, node_budget)
    if chi != k:
        return CriticalityReport(False, chi, None)
    if g.edge_total() == 0:
        # no edges to delete; vertex deletion keeps the chromatic number at 1
        return CriticalityReport(g.n == 1, chi, None if g.n == 1 else ("vertex", 1))
    for u, v, _ in g.pairs():
        smaller = g.delete_single_edge(u, v)
        if find_uncolorable_cover(smaller, k - 1, node_budget) is not None:
            return CriticalityReport(False, chi, ("edge", u, v))
    for v in g.vertices():
        if g.degree(v) == 0:
            return CriticalityReport(False, chi, ("vertex", v))
    return CriticalityReport(True, chi, None)


def check_bound_multigraph(g: Multigraph, k: int) -> tuple[bool, Fraction]:
    """Slack of the multigraph edge bound: 2|E| - (k-1) n, as an exact rational.

    Nonnegative slack is what DP-k-criticality forces; slack 0 is equality.
    The bound itself is checked syntactically; criticality is the caller's
    claim.
    """
    slack = Fraction(2 * g.edge_total() - (k - 1) * g.n)
    return slack >= 0, slack


def simple_critical_coefficient(k: int) -> Fraction:
    """Edge-density coefficient (k - 1) + (k - 3)/(k^2 - 3) for simple graphs."""
    if k < 4:
        raise ValueError("coefficient defined for k >= 4")
    return (k - 1) + Fraction(k - 3, k * k - 3)


def check_bound_simple(g: Multigraph, k: int) -> tuple[bool, Fraction]:
    """Slack of the strengthened simple-graph bound at k >= 4.

    slack = 2|E| - ((k-1) + (k-3)/(k^2-3)) n, exact.  Rejects non-simple
    input and the complete graph on k vertices, which the bound excludes.
    """
    if k < 4:
        raise ValueError("bound defined for k >= 4")
    if not g.is_simple():
        raise ValueError("bound applies to simple graphs")
    if g.n == k and len(g.pairs()) == k * (k - 1) // 2:
        raise ValueError("bound excludes the complete graph on k vertices")
    slack = 2 * g.edge_total() - simple_critical_coefficient(k) * g.n
    return slack >= 0, slack


def check_gdp_edge_bound(t: Multigraph, k: int) -> tuple[bool, Fraction]:
    """Slack of the GDP-tree edge bound: ((k-2) + 2/(k-1)) n - 2|E|, exact.

    Preconditions (each reported distinctly via GdpPrecondition): t is a
    GDP-tree, max degree at most k-1, and no complete subgraph on k vertices.
    Under them the slack is nonnegative.
    """
    if k < 4:
        raise ValueError("bound defined for k >= 4")
    if not t.is_simple():
        raise ValueError("expected a simple graph")
    dec = blocks(t)
    if len(dec.components) > 1:
        raise ValueError("expected a connected graph")
    if any(isinstance(c, Other) for c in dec.classifications):
        raise GdpPrecondition("not-gdp-tree", "a block is neither complete nor a cycle")
    if t.max_degree() > k - 1:
        raise GdpPrecondition("max-degree",
                              f"maximum degree {t.max_degree()} exceeds {k - 1}")
    # complete subgraphs live inside blocks, so a K_k means a complete block
    # on >= k vertices
    largest = max((c.n for c in dec.classifications if isinstance(c, CompletePower)),
                  default=0)
    if largest >= k:
        raise GdpPrecondition("contains-complete",
                              f"contains a complete subgraph on {largest} >= {k} vertices")
    slack = (k - 2 + Fraction(2, k - 1)) * t.n - 2 * t.edge_total()
    return slack >= 0, slack
