"""Per-layer tracing for the benchmark, applied from outside the program.

``Tracer.install()`` replaces public callables of the pascent modules with
wrappers, at every place that holds a reference to them: the defining
module, each module that imported the name, and the package namespace (for
example ``verify.oracle_table``, ``cli.enumerate_sequences`` and
``pascent.is_p_ascent``).  Methods are replaced on the class, ``__mul__`` and
its alias ``__rmul__`` separately.  Nothing under ``src/`` changes.

Three kinds of wrapper:

* span: counts calls and adds the call's self time (its duration minus the
  time spent in wrapped calls nested inside it) to ``<key>.self_s``;
* generator: a span per ``next()``, plus ``<key>.yielded``;
* counter: counts calls only.  Hot leaves (``red``, ``is_p_ascent``, ...)
  get counters, because a span per call would dwarf the work it measures.

Tallies (term and node counts) run after a span closes and their time is
kept out of the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

SPAN, GENERATOR, COUNTER = "span", "generator", "counter"


def _nterms(series) -> int:
    # MultiPoly's sparse map is read directly: the public terms() builds a
    # fresh dict per coefficient, which would make tracing far costlier.
    return sum(len(poly._t) for poly in series.coeffs)


def _terms_out(values, key, args, result, elapsed):
    if result is not NotImplemented:
        values[key + ".terms_out"] += _nterms(result)


def _kept(values, key, args, result, elapsed):
    values[key + ".terms_in"] += _nterms(args[0])
    values[key + ".terms_kept"] += _nterms(result)


def _table_nodes(values, key, args, result, elapsed):
    # sequences the oracle covers: the sum of every coefficient of the table
    values[key + ".nodes"] += sum(sum(poly._t.values()) for poly in result.coeffs)


def _count_nodes(values, key, args, result, elapsed):
    values[key + ".nodes"] += sum(result)


def _suite_time(prefix: str):
    def tally(values, key, args, result, elapsed):
        values[f"verify.{prefix}{args[0]}.s"] += elapsed

    return tally


GF_SPANS = (
    "eval_G", "eval_G1_full", "eval_G1_u", "eval_H", "eval_A", "eval_R",
    "eval_maxk", "eval_P", "psi", "eval_A1_product_form",
)

# (module, attribute, kind, metric key, tally)
PLAN = (
    ("series", "TSeries.__mul__", SPAN, "series.mul", _terms_out),
    ("series", "TSeries.__rmul__", SPAN, "series.mul", _terms_out),
    ("series", "TSeries.invert", SPAN, "series.invert", None),
    ("series", "TSeries.subst_u", SPAN, "series.subst_u", None),
    ("series", "TSeries.compose_t", SPAN, "series.compose_t", None),
    ("series", "TSeries.specialize", SPAN, "series.specialize", None),
    ("series", "TSeries.u_truncate", SPAN, "series.u_truncate", _kept),
    ("series", "TSeries.to_json", SPAN, "series.to_json", None),
    ("core", "oracle_table", SPAN, "core.oracle_table", _table_nodes),
    ("core", "count_by_length", SPAN, "core.count_by_length", _count_nodes),
    ("core", "enumerate_sequences", GENERATOR, "core.enumerate_sequences", None),
    ("core", "is_p_ascent", COUNTER, "core.is_p_ascent", None),
    ("core", "stats", COUNTER, "core.stats", None),
    *(("gf", name, SPAN, f"gf.{name}", None) for name in GF_SPANS),
    ("gf", "gamma", COUNTER, "gf.gamma", None),
    ("gf", "delta", COUNTER, "gf.delta", None),
    ("patterns", "avoider_counts", SPAN, "patterns.avoider_counts", _count_nodes),
    ("patterns", "iter_avoiders", GENERATOR, "patterns.iter_avoiders", None),
    ("patterns", "red", COUNTER, "patterns.red", None),
    ("patterns", "bijection_10_to_012", SPAN, "patterns.bijection", None),
    ("patterns", "bijection_012_to_10", SPAN, "patterns.bijection", None),
    ("patterns", "embed", COUNTER, "patterns.embed_project", None),
    ("patterns", "project", COUNTER, "patterns.embed_project", None),
    ("patterns", "count_vincular_212_ternary", SPAN,
     "patterns.count_vincular_212_ternary", None),
    ("verify", "run_all", SPAN, "verify", None),
    ("verify", "check_oracle_vs", SPAN, "verify", _suite_time("oracle_")),
    ("verify", "check_identity", SPAN, "verify", _suite_time("")),
    ("verify", "check_pattern", SPAN, "verify", _suite_time("")),
    ("cli", "main", SPAN, "cli", None),
)

TARGETS = tuple(f"{module}.{attr}" for module, attr, *_ in PLAN)


class Tracer:
    """Span stack, metric values and per-target call counts of one traced pass."""

    def __init__(self):
        self.values: defaultdict[str, float] = defaultdict(int)
        self.fired: Counter[str] = Counter()
        # child-time accumulator of each open span; the bottom entry is the root
        self._stack = [0.0]

    def install(self) -> None:
        """Wrap every PLAN entry at every pascent module that references it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "pascent" or name.startswith("pascent.")]
        for (module_name, attr, kind, key, tally), target in zip(PLAN, TARGETS):
            module = sys.modules[f"pascent.{module_name}"]
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, name, self._wrap(kind, target, key, tally, owner.__dict__[name]))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(kind, target, key, tally, original)
            for site in modules:
                for site_name, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, site_name, wrapper)

    def metrics(self) -> dict[str, float]:
        """Every value gathered, plus ``<key>.calls`` and the u_truncate kept ratio."""
        out = dict(self.values)
        for (_module, _attr, _kind, key, _tally), target in zip(PLAN, TARGETS):
            out[key + ".calls"] = out.get(key + ".calls", 0) + self.fired[target]
        terms_in = out.get("series.u_truncate.terms_in", 0)
        out["series.u_truncate.kept_ratio"] = (
            out.get("series.u_truncate.terms_kept", 0) / terms_in if terms_in else 0.0
        )
        return out

    def _wrap(self, kind, target, key, tally, fn):
        if kind == COUNTER:
            return self._counter(target, fn)
        if kind == GENERATOR:
            return self._generator(target, key, fn)
        return self._span(target, key, tally, fn)

    def _counter(self, target, fn):
        fired = self.fired

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fired[target] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, target, key, tally, fn):
        values, fired, stack, clock = self.values, self.fired, self._stack, time.perf_counter
        self_key = key + ".self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fired[target] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                values[self_key] += elapsed - stack.pop()
                stack[-1] += elapsed
            if tally is not None:
                begin = clock()
                tally(values, key, args, result, elapsed)
                stack[-1] += clock() - begin
            return result

        return wrapper

    def _generator(self, target, key, fn):
        values, fired, stack, clock = self.values, self.fired, self._stack, time.perf_counter
        self_key, yield_key = key + ".self_s", key + ".yielded"

        def timed(gen):
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    values[self_key] += elapsed - stack.pop()
                    stack[-1] += elapsed
                values[yield_key] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fired[target] += 1
            return timed(fn(*args, **kwargs))

        return wrapper
