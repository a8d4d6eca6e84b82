"""Traced replay of one CLI verb, and the per-layer metrics read off its spans.

Child side: `python3 perfbench/traced.py SPANS TRACE_ID ARGS...` installs
wrappers around digrow's public calls, as bound in the modules that call
them, runs `digrow.cli.main(ARGS)` and writes the spans to SPANS at exit.
Nothing under src/ changes; stdout is digrow's own.

A span is [name, start, end, parent, counts, extra]: `parent` indexes the
enclosing span, `counts` holds counts read from the call's return value,
and `extra` is the time spent reading them after `end`, which the parent's
self time leaves out.

Parent side: `layer_metrics` turns the span files of one pass into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
from time import perf_counter

# (module, attribute, span name) of every wrapped call
WRAPPED = (
    ("digrow.cli", "load_presentation", "cli.load_presentation"),
    ("digrow.cli", "parse_element", "element.parse_element"),
    ("digrow.cli", "axiom_residuals", "element.axiom_residuals"),
    ("digrow.cli", "basis_upto", "presentation.basis_upto"),
    ("digrow.cli", "normal_form", "presentation.normal_form"),
    ("digrow.cli", "prefix_suffix_check", "presentation.prefix_suffix"),
    ("digrow.cli", "growth_series", "growth.growth_series"),
    ("digrow.cli", "gk_estimate", "growth.gk_estimate"),
    ("digrow.cli", "theorem_a_check", "growth.theorem_a"),
    ("digrow.cli", "special_basis_check", "growth.special_basis"),
    ("digrow.cli", "gap_check", "growth.gap"),
    ("digrow.cli", "identity_class_check", "growth.identity_class"),
    ("digrow.growth", "basis_upto", "presentation.basis_upto"),
    ("digrow.growth", "normal_form", "presentation.normal_form"),
    ("digrow.presentation", "monomials", "monomial.monomials"),
)


class Recorder:
    """Spans and GC pauses of one process, kept in memory until `dump`."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.gc_s = 0.0
        self.gc_gen2 = 0
        self._gc_start = 0.0

    def wrap(self, name, fn, counts=None, materialize=False):
        """`fn` inside a span; `counts(args, result)` fills the span's counts.

        With `materialize` the returned iterator is drained inside the span,
        so the span covers the enumeration itself.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counts is not None:
                span[4] = counts(args, result)
                span[5] = perf_counter() - span[2]
            return iter(result) if materialize else result

        return wrapper

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_gen2 += info["generation"] == 2

    def install(self):
        import importlib

        from digrow import cli
        from digrow.monomial import universe_count
        from digrow.presentation import ASSOCIATIVE, BasisTable

        def table_counts(args, table):
            assoc = table.mode == ASSOCIATIVE
            universe = sum(universe_count(table.alphabet.size, t, assoc)
                           for t in range(1, table.degree_bound + 1))
            return {"universe": universe,
                    "pivots": universe - sum(table.counts_by_degree()),
                    "field": table.field.name}

        special = {
            "presentation.basis_upto": dict(counts=table_counts),
            "growth.identity_class": dict(counts=lambda a, r: {"pairs": r.pairs_checked}),
            "monomial.monomials": dict(counts=lambda a, r: {"yielded": len(r)},
                                       materialize=True),
        }
        for module, attr, name in WRAPPED:
            mod = importlib.import_module(module)
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), **special.get(name, {})))
        for verb, fn in cli._VERBS.items():
            cli._VERBS[verb] = self.wrap("cli.verb", fn)

        # BasisTable.basis caches its list; only the first read per table enumerates
        seen: set[int] = set()

        def materialized(args, basis):
            first = id(args[0]) not in seen
            seen.add(id(args[0]))
            return {"monomials": len(basis) if first else 0}

        BasisTable.basis = property(
            self.wrap("presentation.materialize", BasisTable.basis.fget, counts=materialized))
        gc.callbacks.append(self._on_gc)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"trace_id": self.trace_id, "spans": self.spans,
                       "gc_s": self.gc_s, "gc_gen2": self.gc_gen2}, fh)


# ===== parent side ===========================================================

# name, unit, better; the order is the order printed
LAYER_METRICS = (
    ("presentation.basis_upto_s", "s", "lower"),
    ("presentation.basis_upto_s.q", "s", "lower"),
    ("presentation.basis_upto_s.gfp", "s", "lower"),
    ("presentation.basis_upto_calls", "count", "lower"),
    ("presentation.pivots", "count", "lower"),
    ("presentation.universe", "count", "lower"),
    ("presentation.pivots_per_s", "1/s", "higher"),
    ("presentation.normal_form_s", "s", "lower"),
    ("presentation.normal_form_calls", "count", "lower"),
    ("presentation.materialize_s", "s", "lower"),
    ("presentation.materialized_monomials", "count", "lower"),
    ("presentation.prefix_suffix_s", "s", "lower"),
    ("monomial.monomials_s", "s", "lower"),
    ("monomial.monomials_yielded", "count", "lower"),
    ("growth.growth_series_self_s", "s", "lower"),
    ("growth.gk_estimate_s", "s", "lower"),
    ("growth.checks_s", "s", "lower"),
    ("growth.identity_class_self_s", "s", "lower"),
    ("growth.identity_pairs", "count", "lower"),
    ("element.axiom_residuals_s", "s", "lower"),
    ("element.axiom_residuals_calls", "count", "lower"),
    ("element.parse_element_s", "s", "lower"),
    ("cli.load_presentation_s", "s", "lower"),
    ("cli.verb_self_s", "s", "lower"),
    ("runtime.gc_s", "s", "lower"),
    ("runtime.gc_gen2", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
COUNT_METRICS = tuple(name for name, unit, _ in LAYER_METRICS if unit == "count")


def layer_metrics(span_files) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its verbs.

    `*_self_s`, `prefix_suffix_s` and `checks_s` are self times (span minus
    child spans); the other `*_s` are whole spans.  `trace.overhead_s` needs
    the untraced pass and is filled in by the caller.
    """
    m = {name: 0.0 if unit != "count" else 0 for name, unit, _ in LAYER_METRICS}

    def add(key, value):
        m[key] += value

    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        spans = data["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, counts, extra in spans:
            if parent is not None:
                covered[parent] += end - start + extra
        for (name, start, end, parent, counts, extra), child in zip(spans, covered):
            dur = end - start
            own = dur - child
            if name == "presentation.basis_upto":
                add("presentation.basis_upto_s", dur)
                add("presentation.basis_upto_s.q" if counts["field"] == "Q"
                    else "presentation.basis_upto_s.gfp", dur)
                add("presentation.basis_upto_calls", 1)
                add("presentation.pivots", counts["pivots"])
                add("presentation.universe", counts["universe"])
            elif name == "presentation.normal_form":
                add("presentation.normal_form_s", dur)
                add("presentation.normal_form_calls", 1)
            elif name == "presentation.materialize":
                add("presentation.materialize_s", dur)
                add("presentation.materialized_monomials", counts["monomials"])
            elif name == "presentation.prefix_suffix":
                add("presentation.prefix_suffix_s", own)
            elif name == "monomial.monomials":
                add("monomial.monomials_s", dur)
                add("monomial.monomials_yielded", counts["yielded"])
            elif name == "growth.growth_series":
                add("growth.growth_series_self_s", own)
            elif name == "growth.gk_estimate":
                add("growth.gk_estimate_s", dur)
            elif name in ("growth.theorem_a", "growth.special_basis", "growth.gap"):
                add("growth.checks_s", own)
            elif name == "growth.identity_class":
                add("growth.identity_class_self_s", own)
                add("growth.identity_pairs", counts["pairs"])
            elif name == "element.axiom_residuals":
                add("element.axiom_residuals_s", dur)
                add("element.axiom_residuals_calls", 1)
            elif name == "element.parse_element":
                add("element.parse_element_s", dur)
            elif name == "cli.load_presentation":
                add("cli.load_presentation_s", dur)
            elif name == "cli.verb":
                add("cli.verb_self_s", own)
        add("runtime.gc_s", data["gc_s"])
        add("runtime.gc_gen2", data["gc_gen2"])
    if m["presentation.basis_upto_s"] > 0:
        m["presentation.pivots_per_s"] = m["presentation.pivots"] / m["presentation.basis_upto_s"]
    return m


def main() -> int:
    spans_path, trace_id, *argv = sys.argv[1:]
    rec = Recorder(trace_id)
    rec.install()
    from digrow import cli

    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        gc.callbacks.remove(rec._on_gc)
        rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
