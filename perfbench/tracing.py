"""Spans around the package's public entry points, and per-layer metrics.

``install(tracer)`` rebinds the names ``hypermap_census.cli`` calls through
(``RootedCensus``, ``SequencedCensus``, ``sensed_table``, ``hg_*``,
``parse_table``, ``render_*`` and ``cache.load_cached`` / ``save_table``) to
wrappers that record a span per call; ``uninstall()`` restores them.  The
package itself is not modified.  Spans are kept in memory.  Output sizes
are read through public accessors once per distinct call, inside
``trace.count`` spans that count toward no layer and are taken off the
traced wall time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from hypermap_census import cache, cli, orbifold, series
from hypermap_census.rooted import RootedCensus
from hypermap_census.sequenced import SequencedCensus

# span name -> per-layer time metric it feeds
SPAN_METRIC = {
    "cli.main": "cli.self_s",
    "rooted.fill": "rooted.fill_s",
    "rooted.export": "rooted.export_s",
    "orbifold.sensed": "orbifold.sensed_s",
    "series.univariate": "series.univariate_s",
    "series.via_t": "series.univariate_s",
    "series.trivariate": "series.trivariate_s",
    "sequenced.rooted": "sequenced.rooted_s",
    "sequenced.multirooted": "sequenced.multiroot_s",
    "sequenced.multirooted_direct": "sequenced.multiroot_s",
    "cache.load": "cache.load_s",
    "cache.save": "cache.save_s",
    "fixtures.parse": "fixtures.parse_s",
    "fixtures.render": "fixtures.render_s",
}


class Tracer:
    """Spans as [name, start, end, parent index, request id], plus, per
    entry point, the key of each call and one size record per distinct key."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = None
        self._stack: list[int] = []
        self.calls: dict[str, list] = defaultdict(list)
        self.sizes: dict = {}

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, key, size) -> None:
        """Note a call; ``size()`` is read once per distinct key, inside a
        ``trace.count`` span that is left out of every layer and of the wall."""
        self.calls[name].append(key)
        if (name, key) not in self.sizes:
            with self.span("trace.count"):
                self.sizes[name, key] = size()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the duration of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def wrap(self, name: str, fn, size=None):
        """``fn`` inside a span; ``size(args, result)`` gives (key, size)."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if size is not None:
                key, value = size(args, out)
                self.record(name, key, lambda: value)
            return out
        return traced


def census_size(census) -> tuple[int, int, int]:
    """(nonzero cells, terms, largest coefficient bits) of a rooted census."""
    cells = terms = bits = 0
    for g in range(census.max_genus + 1):
        for d in range(1, census.max_darts + 1):
            poly = census.poly(g, d)
            if not poly.is_zero():
                cells += 1
                terms += len(poly)
                bits = max(bits, max(c.bit_length() for _, c in poly.terms()))
    return cells, terms, bits


def library(tracer: Tracer) -> dict:
    """The library entry points the census workloads sweep, traced."""
    return {
        "sensed_table": tracer.wrap("orbifold.sensed", orbifold.sensed_table,
                                    lambda a, out: (a[:2], len(out))),
        "hg_univariate": tracer.wrap("series.univariate", series.hg_univariate),
        "hg_via_t": tracer.wrap("series.via_t", series.hg_via_t),
        "hg_trivariate": tracer.wrap("series.trivariate", series.hg_trivariate,
                                     lambda a, out: (a, len(out.d))),
    }


_SAVED: dict = {}


def install(tracer: Tracer) -> None:
    """Rebind the names cli calls through to span-recording wrappers."""

    class TracedRooted(RootedCensus):
        def __init__(self, max_genus, max_darts):
            with tracer.span("rooted.fill"):
                super().__init__(max_genus, max_darts)
            tracer.record("rooted.fill", (max_genus, max_darts),
                          lambda: census_size(self))

        def table(self, genus, max_darts=None):
            with tracer.span("rooted.export"):
                return super().table(genus, max_darts)

    class TracedSequenced(SequencedCensus):
        rooted = tracer.wrap("sequenced.rooted", SequencedCensus.rooted)
        multirooted = tracer.wrap("sequenced.multirooted", SequencedCensus.multirooted)
        multirooted_direct = tracer.wrap("sequenced.multirooted_direct",
                                         SequencedCensus.multirooted_direct)

    def save(table, genus, path=None):
        with tracer.span("cache.save"):
            out = cache_save(table, genus, path)
        tracer.record("cache.save", out.name, lambda: out.stat().st_size)
        return out

    def load(engine, genus, max_darts):
        with tracer.span("cache.load"):
            out = cache_load(engine, genus, max_darts)
        path = cache.table_path(engine, genus, max_darts)
        tracer.record("cache.load", (path.name, out is not None),
                      lambda: path.stat().st_size if out is not None else 0)
        return out

    cache_save, cache_load = cache.save_table, cache.load_cached
    patches = {
        (cli, "RootedCensus"): TracedRooted,
        (cli, "SequencedCensus"): TracedSequenced,
        **{(cli, name): fn for name, fn in library(tracer).items()},
        (cli, "parse_table"): tracer.wrap("fixtures.parse", cli.parse_table),
        (cli, "render_table"): tracer.wrap("fixtures.render", cli.render_table, _text_size),
        (cli, "render_json"): tracer.wrap("fixtures.render", cli.render_json, _text_size),
        (cache, "save_table"): save,
        (cache, "load_cached"): load,
    }
    for (mod, name), fn in patches.items():
        _SAVED[mod, name] = getattr(mod, name)
        setattr(mod, name, fn)


def uninstall() -> None:
    for (mod, name), fn in _SAVED.items():
        setattr(mod, name, fn)
    _SAVED.clear()


def span_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round layer self times, plus cli.main_s (inclusive)."""
    out = dict.fromkeys(SPAN_METRIC.values(), 0.0)
    out["cli.main_s"] = 0.0
    for (name, start, end, _, _), own in zip(tracer.spans, tracer.self_times()):
        if name == "trace.count":
            continue
        out[SPAN_METRIC[name]] += own / rounds
        if name == "cli.main":
            out["cli.main_s"] += (end - start) / rounds
    return out


def _text_size(args, text):
    return len(text), len(text)


def count_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Output-size counts per round, read through public accessors."""
    calls, sizes = tracer.calls, tracer.sizes

    def total(name, pick=lambda v: v):
        return sum(pick(sizes[name, key]) for key in calls[name])

    loads = calls["cache.load"]
    hits = sum(hit for _, hit in loads)
    per_round = {
        "rooted.fills": len(calls["rooted.fill"]),
        "rooted.cells": total("rooted.fill", lambda v: v[0]),
        "rooted.terms": total("rooted.fill", lambda v: v[1]),
        "orbifold.calls": len(calls["orbifold.sensed"]),
        "orbifold.signatures": sum(
            len(orbifold.admissible_signatures(G, L))
            for G, max_darts in calls["orbifold.sensed"] for L in range(1, max_darts + 1)),
        "orbifold.rows": total("orbifold.sensed"),
        "series.trivariate_terms": total("series.trivariate"),
        "sequenced.evals": sum(1 for s in tracer.spans if s[0].startswith("sequenced.")),
        "cache.loads": len(loads),
        "cache.hits": hits,
        "cache.bytes_read": total("cache.load"),
        "cache.bytes_written": total("cache.save"),
        "fixtures.bytes_out": total("fixtures.render"),
        "cli.requests": sum(1 for s in tracer.spans if s[0] == "cli.main"),
    }
    out = {k: v / rounds for k, v in per_round.items()}
    out["rooted.max_coeff_bits"] = max((v[2] for (name, _), v in sizes.items()
                                        if name == "rooted.fill"), default=0)
    out["cache.hit_ratio"] = hits / len(loads) if loads else 0.0
    return out
