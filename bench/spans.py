"""Spans around the calls between semilab's layers, for the traced run.

The wrappers are installed in the module namespaces that callers look a
function up in (``semilab.embedding.derive_equal`` is what ``probe`` calls),
so no program code changes.  Each call becomes a span with a parent link; a
span's self time is its duration minus the durations of its child spans.
Spans stay in memory until the worker summarises them after a pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric prefix -> (bindings to wrap, counters, kind).  A binding is
# "module:name" in the namespace the caller resolves it in.  Kind "span"
# times each call and ``counters`` reads counts off its result; "gen" times
# a generator to exhaustion and counts its items under the key ``counters``;
# "count" only counts calls, for functions too hot to time one by one.
PROBES = {
    "rewriting.derive_equal": (
        ("semilab.embedding:derive_equal",),
        lambda r: {"visited": r.spent.get("visited", 0),
                   "equal": int(r.value == "equal")}, "span"),
    "rewriting.reduce": (("semilab.embedding:reduce",), None, "span"),
    "rewriting.reduce_with_trace": (
        ("semilab.embedding:reduce_with_trace",),
        lambda r: {"steps": len(r[1])}, "span"),
    "rewriting.enumerate_elements": (
        ("semilab.embedding:enumerate_elements",),
        lambda r: {"words": len(r)}, "span"),
    "rewriting.kb_complete": (
        ("semilab.cli:kb_complete", "semilab.embedding:kb_complete"),
        lambda r: {"rules": len(r.rules)}, "span"),
    "embedding.probe_embedding": (
        ("semilab.cli:probe_embedding",),
        lambda r: {"elements": r.element_count,
                   "witnesses": len(r.witnesses)}, "span"),
    "embedding.check_malcev_condition": (
        ("semilab.cli:check_malcev_condition",),
        lambda r: {"systems_checked": r.systems_checked,
                   "violations": len(r.violations)}, "span"),
    "finite.associativity_failure": (
        ("semilab.cli:associativity_failure",
         "semilab.finite:associativity_failure"), None, "span"),
    "finite.check_laws": (("semilab.cli:check_laws",), None, "span"),
    "finite.enumerate_semigroups": (
        ("semilab.cli:enumerate_semigroups",), "tables", "gen"),
    "rank1.rank1_universe": (("semilab.cli:rank1_universe",), None, "span"),
    "rank1.gab_group": (("semilab.rank1:gab_group",), None, "span"),
    "rank1.multiply": (("semilab.rank1:multiply",), None, "count"),
    "presentations.parse_presentation_file": (
        ("semilab.cli:parse_presentation_file",), None, "span"),
}


class Tracer:
    """In-memory span recorder.  A span is [name, parent, start, end, counts]
    and its index in ``spans`` is its identifier."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.calls = {}      # call counts of "count" probes
        self._stack = []
        self._installed = []  # (module, attribute, original function)

    def reset(self):
        self.spans = []
        self._stack = []
        for name in self.calls:
            self.calls[name] = 0

    def open(self, name) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, parent, self.clock(), None, {}])
        self._stack.append(sid)
        return sid

    def close(self, sid, counts=None):
        if self._stack.pop() != sid:
            raise RuntimeError(f"span {self.spans[sid][0]} closed out of order")
        span = self.spans[sid]
        span[3] = self.clock()
        if counts:
            span[4].update(counts)

    def wrap(self, name, fn, counters=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if counters is not None:
                self.spans[sid][4].update(counters(result))
            return result
        return traced

    def wrap_generator(self, name, fn, count_key):
        # the span stays open while the caller consumes the generator; the
        # CLI drains it with list(), so nothing else runs inside it
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self.close(sid, {count_key: n})
        return traced

    def wrap_counter(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, probes=PROBES):
        """Replace every binding named in ``probes`` by a wrapper, until
        ``uninstall``.  A binding the program no longer has is skipped: no
        call goes through it."""
        for prefix, (bindings, counters, kind) in probes.items():
            for binding in bindings:
                modname, attr = binding.split(":")
                module = importlib.import_module(modname)
                fn = getattr(module, attr, None)
                if fn is None:
                    print(f"trace: {binding} not found, not traced",
                          file=sys.stderr)
                    continue
                if kind == "count":
                    wrapped = self.wrap_counter(prefix, fn)
                elif kind == "gen":
                    wrapped = self.wrap_generator(prefix, fn, counters)
                else:
                    wrapped = self.wrap(prefix, fn, counters)
                self._installed.append((module, attr, fn))
                setattr(module, attr, wrapped)

    def uninstall(self):
        """Put back the functions ``install`` replaced."""
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed = []

    def summary(self) -> dict:
        """Per span name: calls, self seconds and summed counters; plus the
        call counts of counter-only probes."""
        self_s = self_times(self.spans)
        out = {}
        for span in self.spans:
            name, counts = span[0], span[4]
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            for key, value in counts.items():
                entry[key] = entry.get(key, 0) + value
        for name, total in self_s.items():
            out[name]["self_s"] = total
        for name, calls in self.calls.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0})["calls"] = calls
        return out


def self_times(spans) -> dict:
    """Sum of self time per span name.  Spans nest properly (one thread), so
    the part of a span covered by its children is the sum of their
    durations."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    for sid, (name, _, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[sid]
    return out
