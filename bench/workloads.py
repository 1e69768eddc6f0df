"""The benchmark's four workloads.

Each workload turns its committed input files into a list of operations.
An operation has a label, a ``run`` that calls into dpcolor (the timed
part), an ``answer`` that turns the raw result into plain hashable data, and
a ``check`` that judges that answer with ``check.py`` alone.

dpcolor is imported afresh before every pass (``import_dpcolor``), so a
cache the program keeps may speed up the work inside one pass but can never
carry an answer over from an earlier pass.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import check

BENCH = Path(__file__).resolve().parent
DATA = BENCH / "data"
SRC = BENCH.parent / "src"
MODULES = ("census", "characterization", "cli", "cover", "critical",
           "multigraph", "solver")


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    answer: Callable[[object], object]
    check: Callable[[object], list]


def import_dpcolor():
    """Import dpcolor from the checkout's src/ with no module left over from
    an earlier import; returns a namespace of its modules."""
    for name in [k for k in sys.modules if k == "dpcolor" or k.startswith("dpcolor.")]:
        del sys.modules[name]
    pkg = importlib.import_module("dpcolor")
    if Path(pkg.__file__).resolve().parent != SRC / "dpcolor":
        raise ImportError(f"dpcolor imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(package=pkg, **{
        name: importlib.import_module("dpcolor." + name) for name in MODULES})


def _load_json(name):
    return json.loads((DATA / name).read_text())


def plain_cover(cover):
    if cover is None:
        return None
    return (tuple(cover.list_sizes),
            tuple(sorted((pair, tuple(sorted(edges))) for pair, edges in cover.cross.items())))


def cover_data(plain):
    """Plain cover back to check.py's (sizes, {pair: set of (i, j)})."""
    sizes, cross = plain
    return sizes, {pair: set(edges) for pair, edges in cross}


# -- oracle ----------------------------------------------------------------------------


def load_oracle(m):
    ops = []
    for idx, text in enumerate(_load_json("oracle.json")["graphs"]):
        g = m.multigraph.parse_multigraph(text)

        def run(g=g):
            ok, witness = m.solver.degree_colorable_oracle(g)
            verdict = m.characterization.decide_degree_colorable(g)
            return ok, witness, verdict.colorable, verdict.witness

        def answer(raw):
            return raw[0], plain_cover(raw[1]), raw[2], plain_cover(raw[3])

        def judge(ans, text=text):
            unplain = [None if w is None else cover_data(w) for w in (ans[1], ans[3])]
            return check.oracle_problems(check.parse_graph(text),
                                         (ans[0], unplain[0], ans[2], unplain[1]))

        ops.append(Op(f"oracle/g{idx}", run, answer, judge))
    return ops


# -- critical --------------------------------------------------------------------------

# A pass takes every candidate on <= 6 vertices and the 7-vertex candidates
# with the fewest possible edges (11); the 150 denser 7-vertex candidates
# would stretch a pass from about 2.5 s to about 36 s.
MAX_EDGES_AT_7 = 11
CHI_DP_FAMILIES = ([("cycle", n) for n in range(3, 8)]
                   + [("complete", n) for n in range(2, 6)]
                   + [("edge_power", k) for k in range(1, 5)])
# (family, size, multiplicity, k): C_4 at 3, K_4 at 4 and C_3^2 at 5 are
# DP-k-critical.
CRITICAL_FAMILIES = [("cycle", 4, 1, 3), ("complete", 4, 1, 4), ("cycle", 3, 2, 5)]


def critical_outcome(m, g):
    """The c11 hunt for one candidate: k=3 screen, edge-deletion screen,
    then check_critical.  Returns (status, k=3 witness, deletion witness)."""
    w3 = m.solver.find_uncolorable_cover(g, 3)
    if w3 is None:
        return "chi<=3", None, None
    for u, v, _ in g.pairs():
        w = m.solver.find_uncolorable_cover(g.delete_single_edge(u, v), 3)
        if w is not None:
            return "edge-deletion", w3, (u, v, w)
    report = m.critical.check_critical(g, 4)
    return ("critical" if report.is_critical else "not-critical"), w3, None


def _family_graph(m, family, size, mult=1):
    if family == "cycle":
        return m.multigraph.Multigraph.cycle(size, mult)
    if family == "complete":
        return m.multigraph.Multigraph.complete(size, mult)
    return m.multigraph.Multigraph.complete(2, size)


def critical_problems(graph, ans, record):
    status, w3, deletion = ans
    n, mult = graph
    out = []
    if (status == "critical") != (check.canonical_form(n, mult) in record):
        out.append(f"status {status} disagrees with the critical record")
    if w3 is not None:
        sizes, cross = cover_data(w3)
        out.extend(f"k=3 witness: {p}" for p in
                   check.uncolorable_witness_problems(n, mult, sizes, cross, (3,) * n))
    if deletion is not None:
        u, v, w = deletion
        smaller = dict(mult)
        smaller[(u, v)] -= 1
        smaller = {p: k for p, k in smaller.items() if k}
        sizes, cross = cover_data(w)
        out.extend(f"deletion witness: {p}" for p in
                   check.uncolorable_witness_problems(n, smaller, sizes, cross, (3,) * n))
    if status == "critical":
        out.extend(check.critical_bound_problems(graph, 4))
    return out


def load_critical(m):
    data = _load_json("critical.json")
    record = {(n, tuple(map(tuple, form))) for n, form in data["critical"]}
    ops = []
    for idx, text in enumerate(data["candidates"]):
        g = m.multigraph.parse_multigraph(text)
        if g.n == 7 and g.edge_total() > MAX_EDGES_AT_7:
            continue
        ops.append(Op(
            f"critical/c{idx}",
            lambda g=g: critical_outcome(m, g),
            lambda raw: (raw[0], plain_cover(raw[1]),
                         None if raw[2] is None else raw[2][:2] + (plain_cover(raw[2][2]),)),
            lambda ans, text=text: critical_problems(check.parse_graph(text), ans, record)))
    for family, size in CHI_DP_FAMILIES:
        g = _family_graph(m, family, size)
        want = check.known_chi_dp(family, size)
        ops.append(Op(
            f"critical/chi_dp-{family}-{size}",
            lambda g=g: m.solver.chi_dp(g),
            lambda raw: raw,
            lambda ans, want=want: [] if ans == want else [f"chi_dp {ans}, expected {want}"]))
    for family, size, mult, k in CRITICAL_FAMILIES:
        g = _family_graph(m, family, size, mult)
        graph = check.family_graph(family, size, mult)
        ops.append(Op(
            f"critical/check_critical-{family}-{size}^{mult}-at-{k}",
            lambda g=g, k=k: m.critical.check_critical(g, k),
            lambda raw: (raw.is_critical, raw.chi),
            lambda ans, graph=graph, k=k: (
                ([] if ans == (True, k) else [f"(critical, chi) = {ans}, expected (True, {k})"])
                + check.critical_bound_problems(graph, k))))
    return ops


def critical_input_problems():
    counts = {}
    for text in _load_json("critical.json")["candidates"]:
        n, mult = check.parse_graph(text)
        counts[n] = counts.get(n, 0) + 1
        if min(check.degrees(n, mult)) < 3 or not check.is_connected(n, mult):
            return [f"candidate is disconnected or has a vertex of degree < 3: {text!r}"]
    if counts != check.MIN_DEGREE_3:
        return [f"candidate counts {counts} differ from {check.MIN_DEGREE_3}"]
    return []


# -- census ----------------------------------------------------------------------------

# connected_simple_graphs dedups pairwise with are_isomorphic; the multigraph
# census dedups by canonical_key over all n! relabelings.  (4, 3) spends
# its time on many small keys, (5, 1) on fewer keys with 120 relabelings each.
CENSUS_CALLS = [("simple", 6, 1), ("multi", 4, 3), ("multi", 5, 1)]


def load_census(m):
    ops = []
    for kind, max_n, max_mult in CENSUS_CALLS:
        if kind == "simple":
            run = lambda max_n=max_n: m.census.connected_simple_graphs(max_n)
        else:
            run = lambda max_n=max_n, max_mult=max_mult: m.census.connected_multigraphs(
                max_n, max_mult)

        def judge(ans, kind=kind, max_n=max_n, max_mult=max_mult):
            want = (check.CONNECTED_SIMPLE if kind == "simple"
                    else check.connected_orbit_counts(max_n, max_mult))
            want = {n: c for n, c in want.items() if n <= max_n}
            graphs = [(n, {(u, v): k for u, v, k in pairs}) for n, pairs in ans]
            return check.census_problems(graphs, want, max_mult)

        ops.append(Op(f"census/{kind}-{max_n}-{max_mult}", run,
                      lambda raw: tuple((g.n, tuple(g.pairs())) for g in raw), judge))
    return ops


# -- solve -----------------------------------------------------------------------------


def solve_problems(colorable, choice, gtext, ctext, expect):
    n, mult = check.parse_graph(gtext)
    sizes, cross = check.parse_cover(ctext)
    out = check.cover_problems(n, mult, sizes, cross)
    if colorable and (choice is None or not check.is_coloring(sizes, cross, choice)):
        out.append("reported transversal is not a coloring")
    if not colorable and check.colorable(sizes, cross):
        out.append("reported uncolorable, but a transversal exists")
    if colorable != (expect == "colorable"):
        out.append(f"answer colorable={colorable}, built {expect}")
    return out


def _cli_problems(ans, name, expect):
    code, choice = ans
    if code not in (0, 1) or (code == 0) != (choice is not None):
        return [f"exit code {code} with output {choice}"]
    path = DATA / "solve" / name
    return solve_problems(code == 0, choice, path.with_suffix(".graph").read_text(),
                          path.with_suffix(".cover").read_text(), expect)


def _cli_answer(raw):
    code, out = raw
    words = out.split()
    if words[:1] == ["colorable"]:
        return code, tuple(int(w) for w in words[1:])
    return code, None


def load_solve(m):
    ops = []
    for name, expect in _load_json("solve_large.json")["covers"]:
        argv = ["--format", "lines", "solve", str(DATA / "solve" / f"{name}.graph"),
                str(DATA / "solve" / f"{name}.cover")]

        def run(argv=argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = m.cli.main(argv)
            return code, out.getvalue()

        ops.append(Op(f"solve/cli-{name}", run, _cli_answer,
                      lambda ans, name=name, expect=expect: _cli_problems(ans, name, expect)))
    for idx, (gtext, ctext, expect) in enumerate(_load_json("solve_small.json")["covers"]):
        cover = m.cover.parse_cover(ctext, base=m.multigraph.parse_multigraph(gtext))

        def run(cover=cover):
            res = m.solver.solve(cover)
            return res.colorable, res.transversal.choice if res.colorable else None

        ops.append(Op(f"solve/small{idx}", run, lambda raw: raw,
                      lambda ans, g=gtext, c=ctext, e=expect: solve_problems(*ans, g, c, e)))
    return ops


WORKLOADS = {"oracle": load_oracle, "critical": load_critical,
             "census": load_census, "solve": load_solve}
# Checks of the committed inputs themselves, made once per run.
INPUT_CHECKS = {"critical": critical_input_problems}
