"""Spans around the benchmark's calls into monoidlab's public functions.

``Tracer.install`` wraps each function in ``LAYERS`` and rebinds the
wrapper wherever a monoidlab module holds the original: the modules import
each other with ``from .x import y``, so wrapping only the defining module
would miss the calls between modules.  Spans are kept in memory and written
out once, at the end of the run.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
from time import perf_counter


def _length(args, result):
    return len(result)


#: Traced function -> the count recorded on its span (or None).
LAYERS = {
    "words.match_pattern": _length,  # embeddings enumerated
    "words.match_exact": _length,
    "deduction.directly_deducible": lambda args, r: int(r is not None),  # step found
    "deduction.check_derivation": None,
    "deduction.successors": _length,  # words out
    "deduction.derive_bounded": lambda args, r: (r.explored, int(r.status == "found")),
    "equations.satisfies": lambda args, r: r.checked,  # substitutions
    "equations.isoterm": None,
    "equations.minimal_generating_set": lambda args, r: hash(args[0]),  # which monoid
    "equations.rel_free": lambda args, r: (r.size, int(r.complete)),
    "equations.member": None,
    "lattice.semantic_check_edge": None,
    "manifest.run_entries": None,
    "monoids.catalog": None,
    "monoids.direct_product": None,
}

# Span fields: name, start, end, parent span id (-1 at top level), query index
# (-1 during set-up), count.
NAME, START, END, PARENT, QUERY, COUNT = range(6)


def span_cost(samples: int = 20_000) -> float:
    """Seconds a traced call adds to a plain one, measured on a no-op."""

    def noop():
        return None

    traced = Tracer()._wrap("noop", noop, None)
    t0 = perf_counter()
    for _ in range(samples):
        noop()
    plain = perf_counter() - t0
    t0 = perf_counter()
    for _ in range(samples):
        traced()
    return max(0.0, (perf_counter() - t0 - plain) / samples)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.query = -1
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []
        #: (generation, seconds) of each garbage collection during a query.
        self.collections: list[tuple[int, float]] = []
        self._gc_start = 0.0

    def _wrap(self, name: str, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        elif self.query >= 0:
            self.collections.append((info["generation"], perf_counter() - self._gc_start))

    def install(self) -> None:
        """Wrap every function of LAYERS in all loaded monoidlab modules,
        and time the garbage collections."""
        gc.callbacks.append(self._on_gc)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "monoidlab" or key.startswith("monoidlab.")]
        for name, count in LAYERS.items():
            module, attr = name.split(".")
            original = getattr(sys.modules[f"monoidlab.{module}"], attr)
            traced = self._wrap(name, original, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)
                        self._rebound.append((m, key, original))

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)
        for m, key, original in self._rebound:
            setattr(m, key, original)
        self._rebound.clear()

    def write(self, path: str, labels: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query", "count"],
                       "queries": labels, "spans": self.spans}, fh)

    # -- aggregation -------------------------------------------------------

    def _span_times(self) -> tuple[list[float], list[float]]:
        """Per span: inclusive time, or 0 when nested in a span of the same
        name (so that sums do not count it twice); and self time."""
        spans = self.spans
        busy = [s[END] - s[START] for s in spans]
        self_times = busy[:]
        for i, s in enumerate(spans):
            p = s[PARENT]
            if p >= 0:
                self_times[p] -= busy[i]
            while p >= 0 and spans[p][NAME] != s[NAME]:
                p = spans[p][PARENT]
            if p >= 0:
                busy[i] = 0.0
        return busy, self_times

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, named ``<module>.<function>.<stat>``.

        ``busy_s`` is inclusive time, summed over spans not nested in a span
        of the same name; ``self_s`` subtracts the time of child spans.
        """
        spans = self.spans
        busy_times, self_times = self._span_times()
        calls = dict.fromkeys(LAYERS, 0)
        busy = dict.fromkeys(LAYERS, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        counts: dict[str, list] = {name: [] for name in LAYERS}
        for i, s in enumerate(spans):
            name = s[NAME]
            calls[name] += 1
            busy[name] += busy_times[i]
            self_s[name] += self_times[i]
            if s[COUNT] is not None:
                counts[name].append(s[COUNT])

        # Embeddings enumerated under directly_deducible, per step it found.
        dd_embeddings = 0
        for s in spans:
            if s[NAME] == "words.match_pattern":
                p = s[PARENT]
                while p >= 0 and spans[p][NAME] != "deduction.directly_deducible":
                    p = spans[p][PARENT]
                if p >= 0:
                    dd_embeddings += s[COUNT]
        steps = sum(counts["deduction.directly_deducible"])
        derive = counts["deduction.derive_bounded"]
        relfree = counts["equations.rel_free"]
        substitutions = sum(counts["equations.satisfies"])
        states = sum(c[0] for c in relfree)

        def ratio(a, b):
            return a / b if b else 0.0

        m: dict[str, float] = {}
        for name in LAYERS:
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.busy_s"] = busy[name]
            m[f"{name}.self_s"] = self_s[name]
        m["words.match_pattern.embeddings"] = sum(counts["words.match_pattern"])
        m["deduction.directly_deducible.embeddings_per_step"] = ratio(dd_embeddings, steps)
        m["deduction.successors.words_out"] = sum(counts["deduction.successors"])
        m["deduction.derive_bounded.explored"] = sum(c[0] for c in derive)
        m["deduction.derive_bounded.found_frac"] = ratio(sum(c[1] for c in derive), len(derive))
        m["equations.satisfies.substitutions"] = substitutions
        m["equations.satisfies.subst_per_s"] = ratio(substitutions, busy["equations.satisfies"])
        m["equations.minimal_generating_set.distinct_monoids"] = len(
            set(counts["equations.minimal_generating_set"]))
        m["equations.rel_free.states"] = states
        m["equations.rel_free.states_per_s"] = ratio(states, busy["equations.rel_free"])
        m["equations.rel_free.complete_frac"] = ratio(sum(c[1] for c in relfree), len(relfree))
        # Python's cycle collector, which runs inside whichever layer
        # allocates; a full (generation 2) collection walks every object.
        m["gc.collect.calls"] = len(self.collections)
        m["gc.collect.full_calls"] = sum(1 for g, _ in self.collections if g == 2)
        m["gc.collect.busy_s"] = sum(t for _, t in self.collections)
        return m

    def attribution(self, groups: list[str], durations: list[float], top: int = 3) -> list[str]:
        """One line per query group: its time, and the layers with the most
        inclusive and the most self time inside it."""
        busy_times, self_times = self._span_times()
        wall: dict[str, float] = {}
        for g, d in zip(groups, durations):
            wall[g] = wall.get(g, 0.0) + d
        inclusive: dict[str, dict[str, float]] = {g: {} for g in wall}
        exclusive: dict[str, dict[str, float]] = {g: {} for g in wall}
        for s, b, t in zip(self.spans, busy_times, self_times):
            if s[QUERY] >= 0:
                g = groups[s[QUERY]]
                inclusive[g][s[NAME]] = inclusive[g].get(s[NAME], 0.0) + b
                exclusive[g][s[NAME]] = exclusive[g].get(s[NAME], 0.0) + t

        def best(times: dict[str, float], w: float) -> str:
            ranked = sorted(times.items(), key=lambda kv: -kv[1])[:top]
            return ", ".join(f"{name} {t:.3f} s ({100 * t / w:.0f}%)" for name, t in ranked)

        return [f"attribution {g}: {w:.3f} s; inclusive: {best(inclusive[g], w)}; "
                f"self: {best(exclusive[g], w)}"
                for g, w in sorted(wall.items(), key=lambda kv: -kv[1])]
