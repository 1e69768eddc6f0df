"""Spans and counts recorded around calls into dpcolor's public functions.

A Tracer replaces each traced function by a wrapper at every module
attribute that holds it, because callers look functions up there: critical
and cli import solver functions by name, solver imports validate_cover by
name, and so on.  Every call records a span (name, start, end, parent span,
tag) in memory; hooks add counts.  A layer's self time is its spans'
duration minus the part covered by its child spans.
"""

from __future__ import annotations

from time import perf_counter

SMALL_COVER_MAX_N = 16


def _census_graphs(tracer, args, result):
    tracer.count("census.graphs", len(result))


def _iso_hits(tracer, args, result):
    tracer.count("census.are_isomorphic.hits", int(result))


def _cover_search(tracer, args, result):
    g, sizes = args[0], args[1]
    sizes = (sizes,) * g.n if isinstance(sizes, int) else tuple(sizes)
    space = 1
    for s in sizes:
        space *= s
    tracer.count("solver.find_uncolorable_cover.space", space)
    tracer.count("solver.find_uncolorable_cover.found", int(result is not None))
    key = (g, sizes)
    tracer.count("solver.find_uncolorable_cover.repeats", int(key in tracer.seen))
    tracer.seen.add(key)
    return None if result is not None else "exhausted"


def _solve_nodes(tracer, args, result):
    tracer.count("solver.solve.nodes", result.nodes_explored)


def _solve_name(args):
    return "solver.solve.small" if args[0].base.n <= SMALL_COVER_MAX_N else "solver.solve.large"


# (module, function, span name or function of the arguments, hook).  A hook
# sees each returned result; what it returns tags the span.
TRACED = [
    ("census", "connected_simple_graphs", "census.generate", _census_graphs),
    ("census", "connected_multigraphs", "census.generate", _census_graphs),
    ("census", "canonical_key", "census.canonical_key", None),
    ("census", "are_isomorphic", "census.are_isomorphic", _iso_hits),
    ("solver", "find_uncolorable_cover", "solver.find_uncolorable_cover", _cover_search),
    ("solver", "chi_dp", "solver.chi_dp", None),
    ("solver", "degree_colorable_oracle", "solver.degree_colorable_oracle", None),
    ("solver", "solve", _solve_name, _solve_nodes),
    ("critical", "check_critical", "critical.check_critical", None),
    ("characterization", "decide_degree_colorable",
     "characterization.decide_degree_colorable", None),
    ("cover", "parse_cover", "cover.parse_cover", None),
    ("cover", "validate_cover", "cover.validate_cover", None),
    ("multigraph", "parse_multigraph", "multigraph.parse_multigraph", None),
    ("cli", "main", "cli.main", None),
]

# Per-layer metrics, each the total over one pass.  ".s" is self time and
# ".calls" a span count; the rest are hook counts.  "trace.overhead_s" is
# added by the runner.
METRICS = [
    "census.generate.s", "census.graphs",
    "census.canonical_key.calls", "census.canonical_key.s",
    "census.are_isomorphic.calls", "census.are_isomorphic.s", "census.are_isomorphic.hits",
    "solver.find_uncolorable_cover.calls", "solver.find_uncolorable_cover.s",
    "solver.find_uncolorable_cover.found", "solver.find_uncolorable_cover.exhausted.s",
    "solver.find_uncolorable_cover.space", "solver.find_uncolorable_cover.repeats",
    "solver.chi_dp.calls", "solver.chi_dp.s",
    "critical.check_critical.calls", "critical.check_critical.s",
    "solver.degree_colorable_oracle.calls", "solver.degree_colorable_oracle.s",
    "characterization.decide_degree_colorable.calls",
    "characterization.decide_degree_colorable.s",
    "solver.solve.small.s", "solver.solve.large.s", "solver.solve.nodes",
    "cover.parse_cover.s", "multigraph.parse_multigraph.s",
    "cover.validate_cover.calls", "cover.validate_cover.s",
    "cli.main.calls", "cli.main.s",
]


class Tracer:
    """Installs wrappers into one freshly imported copy of dpcolor."""

    def __init__(self, m):
        self.spans = []   # [name, start, end, parent index or -1, tag]
        self.stack = []
        self.counts = {}
        self.seen = set()
        modules = list(vars(m).values())
        for module_name, attr, name, hook in TRACED:
            original = getattr(getattr(m, module_name), attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)

    def count(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                span[4] = hook(self, args, result)
            return result

        return wrapper

    def metrics(self):
        """Per-layer totals for the calls made since this tracer was installed."""
        inner = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        values = dict.fromkeys(METRICS, 0)
        values.update(self.counts)
        for idx, (name, start, end, _, tag) in enumerate(self.spans):
            own = end - start - inner[idx]
            for key in (name, f"{name}.{tag}") if tag else (name,):
                if key + ".s" in values:
                    values[key + ".s"] += own
                if key + ".calls" in values:
                    values[key + ".calls"] += 1
        return {key: values[key] for key in METRICS}
