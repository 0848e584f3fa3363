"""Spans around ptakkit's layer functions, installed from outside the library.

:func:`installed` replaces each layer function listed in :data:`LAYERS`, at
every ptakkit module attribute that refers to it (``game.solve_max_slack``,
``search.delta_exact``, ``accel.fp_bracket`` ...), by a wrapper that records a
:class:`Span`.  The library itself is not edited.  A span's self time is its
duration minus the durations of its direct child spans; a layer's self time is
the sum over its spans.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# layer -> (ptakkit module that defines the functions, function names)
LAYERS = {
    "families": ("families", ("random_family", "cardinality_bound_family",
                              "maximal_independent_sets", "maximal_cliques",
                              "hereditary_closure")),
    "intervals": ("intervals", ("trace_family",)),
    "lp": ("lp", ("solve_max_slack", "solve_min_general")),
    "game": ("game", ("delta_exact", "verify_certificate", "fictitious_play",
                      "incidence_matrix")),
    "accel": ("accel", ("fp_bracket",)),
    "search": ("search", ("max_member",)),
    "norms": ("norms", ("f_norm", "min_ratio_nonneg")),
}


@dataclass
class Span:
    name: str
    layer: str
    item: object
    parent: int  # index of the parent span in Tracer.spans, -1 at top level
    start: float
    end: float = 0.0
    child_s: float = 0.0  # summed duration of direct children
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_json_dict(self) -> dict:
        return {"name": self.name, "item": self.item, "parent": self.parent,
                "start": self.start, "end": self.end, **self.info}


class Tracer:
    """Spans of one run, kept in memory in start order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._item: object = None

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, self._item, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration

    @contextmanager
    def item(self, item_id):
        """Root span of one benchmark item; library spans inside carry its id."""
        self._item = item_id
        span = self.open("item", "item")
        try:
            yield span
        finally:
            self.close(span)
            self._item = None


def _den_bits(res) -> int:
    values = [res.objective, *res.x, *res.duals]
    return max(v.denominator.bit_length() for v in values)


# function name -> counts read off (args, result) after a call returns
_INFO = {
    "solve_max_slack": lambda a, r: {"rows": len(a[1]), "pivots": r.pivots,
                                     "den_bits": _den_bits(r)},
    "solve_min_general": lambda a, r: {"rows": len(a[1]), "pivots": r.pivots,
                                       "den_bits": _den_bits(r)},
    "delta_exact": lambda a, r: {"dual_rows": len(r.dual.weights), "pivots": r.pivots},
    "verify_certificate": lambda a, r: {"ok": bool(r)},
    "fictitious_play": lambda a, r: {"converged": r.converged},
    "fp_bracket": lambda a, r: {"iterations": int(r[4])},
    "max_member": lambda a, r: {"nodes": r.nodes_explored},
    **{name: lambda a, r: {"sets": len(r.maximal)} for name in LAYERS["families"][1]},
}


def _wrap(tracer: Tracer, fn, name: str, layer: str):
    info = _INFO.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if info is not None:
            span.info = info(args, result)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function for the duration of the block."""
    import ptakkit

    wrappers = {}
    for layer, (module, names) in LAYERS.items():
        mod = sys.modules[f"ptakkit.{module}"]
        for name in names:
            fn = getattr(mod, name)
            wrappers[id(fn)] = (fn, _wrap(tracer, fn, name, layer))
    modules = [ptakkit] + [m for key, m in sorted(sys.modules.items())
                           if key.startswith("ptakkit.")]
    patched = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers and wrappers[id(value)][0] is value:
                patched.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)][1])
    try:
        yield
    finally:
        for mod, attr, value in patched:
            setattr(mod, attr, value)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and self times over the given spans (name -> value)."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def of(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def self_s(*names):
        return sum(s.self_s for s in of(*names))

    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    # one list of LP child spans (rounds) per delta_exact call
    rounds = [[c for c in children.get(i, []) if c.layer == "lp"]
              for i, s in enumerate(spans) if s.name == "delta_exact"]
    final_rows = sum(max((c.info.get("rows", 0) for c in r), default=0)
                     for r in rounds)

    fam_spans = [s for s in spans if s.layer == "families"]
    lp = [s for s in spans if s.layer == "lp"]
    solves = of("delta_exact")
    verifies = of("verify_certificate")
    fp_calls = of("fictitious_play")
    accel = of("fp_bracket")
    iterations = sum(s.info.get("iterations", 0) for s in accel)
    accel_s = self_s("fp_bracket")
    return {
        "families.build_s": sum(s.self_s for s in fam_spans),
        "families.sets": sum(s.info.get("sets", 0) for s in fam_spans
                             if s.parent < 0 or spans[s.parent].layer != "families"),
        "intervals.calls": len(of("trace_family")),
        "intervals.sweep_s": self_s("trace_family"),
        "lp.solves": len(lp),
        "lp.pivots": sum(s.info.get("pivots", 0) for s in lp),
        "lp.busy_s": sum(s.self_s for s in lp),
        "lp.max_rows": max((s.info.get("rows", 0) for s in lp), default=0),
        "lp.max_den_bits": max((s.info.get("den_bits", 0) for s in lp), default=0),
        "game.solves": len(solves),
        "game.rounds": sum(len(r) for r in rounds),
        "game.self_s": self_s("delta_exact"),
        "game.useful_row_frac": (sum(s.info.get("dual_rows", 0) for s in solves) / final_rows
                                 if final_rows else 0.0),
        "game.verify_s": self_s("verify_certificate"),
        "game.verify_fail": sum(1 for s in verifies if not s.info.get("ok", 0)),
        "game.incidence_s": self_s("incidence_matrix"),
        "accel.calls": len(accel),
        "accel.iterations": iterations,
        "accel.busy_s": accel_s,
        "accel.us_per_iter": accel_s / iterations * 1e6 if iterations else 0.0,
        "accel.converged_frac": (sum(1 for s in fp_calls if s.info.get("converged", 0))
                                 / len(fp_calls) if fp_calls else 0.0),
        "search.calls": len(of("max_member")),
        "search.nodes": sum(s.info.get("nodes", 0) for s in of("max_member")),
        "search.busy_s": self_s("max_member"),
        "norms.fnorm_calls": len(of("f_norm")),
        "norms.busy_s": self_s("f_norm", "min_ratio_nonneg"),
    }


def first_solve_counts(spans: list[Span]) -> tuple[int, int]:
    """LP solves and pivots of the first ``delta_exact`` call in each item."""
    seen = set()
    first = set()
    for i, s in enumerate(spans):
        if s.name == "delta_exact" and s.item not in seen:
            seen.add(s.item)
            first.add(i)
    rounds = [s for s in spans if s.layer == "lp" and s.parent in first]
    return len(rounds), sum(s.info.get("pivots", 0) for s in rounds)


def item_coverage(spans: list[Span]) -> tuple[float, float]:
    """Share of item wall time covered by its top-level library spans:
    over all items, and the smallest share of any one item."""
    items = [s for s in spans if s.name == "item" and s.item != "setup"]
    total = sum(s.duration for s in items)
    covered = sum(s.child_s for s in items)
    worst = min((s.child_s / s.duration for s in items), default=0.0)
    return (covered / total if total else 0.0), worst


def per_item_accel(spans: list[Span]) -> list[tuple[object, float, int]]:
    """(item id, accel self time, iterations) for each item that called accel."""
    out: dict[object, list] = {}
    for s in spans:
        if s.name == "fp_bracket":
            rec = out.setdefault(s.item, [0.0, 0])
            rec[0] += s.self_s
            rec[1] += s.info.get("iterations", 0)
    return [(item, t, n) for item, (t, n) in out.items()]
