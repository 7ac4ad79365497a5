"""Spans and counters recorded from outside the ringlab package.

The tracer never edits ringlab's source.  It replaces, for the length of
one traced run, the names each consuming module imported (for example
``ringlab.theorems.classify`` or ``ringlab.classify.decomposition_counts``)
and the public properties of ``InvariantCache`` and ``LazyRing`` with
wrappers that record a span per call: name, start, end, parent span and
thread.  ``uninstall`` puts every original back.

A layer's self time is its spans' duration minus the time their direct
child spans cover.  Spans nest per thread, so a span started in a
worker thread has no parent in the thread that submitted it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

#: (module, attribute, span name): functions wrapped in the namespace of
#: the module that imported them.  A pair missing from the installed
#: package is skipped, so the tracer survives refactors.
FUNCTION_SPANS = (
    ("ringlab.catalog", "default_catalog", "catalog.build"),
    ("ringlab.construct", "build", "construct.build"),
    ("ringlab.catalog", "build", "construct.build"),
    ("ringlab.theorems", "build", "construct.build"),
    ("ringlab.theorems", "quotient_ring", "construct.derived"),
    ("ringlab.theorems", "corner_ring", "construct.derived"),
    ("ringlab.theorems", "subring_generated", "construct.derived"),
    ("ringlab.classify", "quotient_ring", "construct.derived"),
    ("ringlab.core", "validate_axioms", "core.validate_axioms"),
    ("ringlab.construct", "validate_axioms", "core.validate_axioms"),
    ("ringlab.theorems", "validate_axioms", "core.validate_axioms"),
    ("ringlab.invariants", "one_sided_ideals", "invariants.lattice"),
    ("ringlab.invariants", "maximal_one_sided_ideals", "invariants.lattice"),
    ("ringlab.classify", "maximal_one_sided_ideals", "invariants.lattice"),
    ("ringlab.theorems", "one_sided_ideals", "invariants.lattice"),
    ("ringlab.classify", "idempotents_lift_mod", "invariants.lift"),
    ("ringlab.theorems", "idempotents_lift_mod", "invariants.lift"),
    ("ringlab.classify", "decomposition_counts", "elements.decomposition_counts"),
    ("ringlab.classify", "element_profile", "elements.element_profile"),
    ("ringlab.elements", "element_profile", "elements.element_profile"),
    ("ringlab.classify", "classify", "classify.classify"),
    ("ringlab.theorems", "classify", "classify.classify"),
    ("ringlab.theorems", "check_isomorphic", "classify.check_isomorphic"),
)

#: InvariantCache property -> memo key, which also names its span.
INVARIANT_PROPERTIES = {
    "idempotent_mask": "idempotent",
    "unit_mask": "unit",
    "inverse": "unit",
    "nilpotent_mask": "nilpotent",
    "jacobson_mask": "jacobson",
    "center_mask": "center",
    "two_good_mask": "two_good",
    "ucn0_mask": "ucn0",
}
INVARIANT_KINDS = tuple(dict.fromkeys(INVARIANT_PROPERTIES.values()))

#: Exceptions with which the lattice reports a size refusal.
LATTICE_SKIPS = ("SizeOverflowError", "LatticeLimitError")


class Tracer:
    """In-memory spans and counters, written out once when the run ends."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [id, name, start, end, parent, thread, error]
        self.counters: Counter = Counter()
        self.classified: set = set()
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.check_ids: list[str] = []
        self._ids = itertools.count()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        span = [next(self._ids), name, time.perf_counter(), None, parent,
                threading.get_ident(), None]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list, error: str | None = None):
        span[3] = time.perf_counter()
        span[6] = error
        self._stack().pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            self.close(span, type(exc).__name__)
            raise
        self.close(span)
        return result

    def bookkeeping(self, fn, *args):
        """Run tracer-only work in its own span, so no layer is charged."""
        self._local.quiet = True
        try:
            return self.call("trace.bookkeeping", fn, *args)
        finally:
            self._local.quiet = False

    def quiet(self) -> bool:
        return getattr(self._local, "quiet", False)

    def count(self, name: str, value: int = 1):
        with self._count_lock:
            self.counters[name] += value

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        for module_name, attr, name in FUNCTION_SPANS:
            module = importlib.import_module(module_name)
            if attr in vars(module):
                after = _AFTER.get(attr) or _AFTER.get(name)
                self._patch(module, attr, self._wrap(name, getattr(module, attr), after))
        theorems = importlib.import_module("ringlab.theorems")
        suite = getattr(theorems, "SuiteContext", None)
        if suite is not None and "precompute" in vars(suite):
            self._patch(suite, "precompute", self._wrap("theorems.precompute", suite.precompute))
        checks = getattr(theorems, "CHECKS", {})
        self.check_ids = list(checks)
        for cid, entry in list(checks.items()):
            title, fn = entry
            wrapped = (title, self._wrap(f"theorems.check.{cid}", fn))
            self._patches.append((checks, cid, entry))
            checks[cid] = wrapped
        cache_cls = getattr(importlib.import_module("ringlab.invariants"), "InvariantCache", None)
        for prop, key in INVARIANT_PROPERTIES.items():
            if cache_cls is not None and isinstance(vars(cache_cls).get(prop), property):
                self._patch(cache_cls, prop, self._wrap_invariant(vars(cache_cls)[prop], key))
        lazy_cls = getattr(importlib.import_module("ringlab.core"), "LazyRing", None)
        for prop in ("add_table", "mul_table"):
            if lazy_cls is not None and isinstance(vars(lazy_cls).get(prop), property):
                fget = vars(lazy_cls)[prop].fget
                self._patch(lazy_cls, prop, property(self._wrap("core.lazy.materialize", fget)))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.quiet():
                return fn(*args, **kwargs)
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                tracer.bookkeeping(after, tracer, args, kwargs, result)
            return result

        return wrapper

    def _wrap_invariant(self, prop: property, key: str) -> property:
        tracer = self
        fget = prop.fget
        name = f"invariants.{key}"

        @functools.wraps(fget)
        def getter(cache):
            if tracer.quiet():
                return fget(cache)
            tracer.count("invariants.calls")
            memo = getattr(cache, "_memo", None)
            if isinstance(memo, dict) and key in memo:
                return fget(cache)
            tracer.count("invariants.computed")
            return tracer.call(name, fget, cache)

        return property(getter, doc=prop.__doc__)

    # -- reporting -------------------------------------------------------

    def layer_metrics(self, run_start: float) -> dict:
        """Per-layer numbers from the spans and counters, by metric name.

        A call counts once however its span nests: a lattice call made
        inside another lattice call, or a build inside a build, is part
        of the outer call.  ``theorems.derived_rings`` counts the rings
        the suite builds after set-up, not the radical quotient that
        ``classify`` builds for itself.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time: dict = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child_time[s[4]] += s[3] - s[2]

        def inside(span, names) -> bool:
            parent = span[4]
            while parent is not None:
                if by_id[parent][1] in names:
                    return True
                parent = by_id[parent][4]
            return False

        self_s: dict = defaultdict(float)
        total_s: dict = defaultdict(float)
        calls: Counter = Counter()
        skipped = derived = 0
        construct = ("construct.build", "construct.derived")
        for s in self.spans:
            name = s[1]
            self_s[name] += (s[3] - s[2]) - child_time[s[0]]
            total_s[name] += s[3] - s[2]
            if inside(s, (name,)):
                continue
            calls[name] += 1
            if name == "invariants.lattice" and s[6] in LATTICE_SKIPS:
                skipped += 1
            if (name in construct and s[2] >= run_start
                    and not inside(s, construct + ("classify.classify",))):
                derived += 1

        out = {
            "invariants.lattice.calls": calls["invariants.lattice"],
            "invariants.lattice.self_s": self_s["invariants.lattice"],
            "invariants.lattice.skipped": skipped,
            "invariants.lattice.ideals": self.counters["invariants.lattice.ideals"],
            "classify.calls": calls["classify.classify"],
            "classify.distinct": len(self.classified),
            "classify.useful_ratio": (
                len(self.classified) / calls["classify.classify"]
                if calls["classify.classify"] else 0.0
            ),
            "classify.self_s": self_s["classify.classify"],
            "theorems.precompute_s": total_s["theorems.precompute"],
            "theorems.derived_rings": derived,
            "catalog.build_s": total_s["catalog.build"],
            "construct.table_bytes": self.counters["construct.table_bytes"],
            "core.lazy.materialize_s": total_s["core.lazy.materialize"],
            "invariants.calls": self.counters["invariants.calls"],
            "invariants.computed": self.counters["invariants.computed"],
            "invariants.lift.self_s": self_s["invariants.lift"],
            "elements.decomposition_counts.bytes":
                self.counters["elements.decomposition_counts.bytes"],
            "classify.check_isomorphic.self_s": self_s["classify.check_isomorphic"],
        }
        for name in ("construct.build", "construct.derived", "core.validate_axioms",
                     "elements.decomposition_counts", "elements.element_profile"):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for kind in INVARIANT_KINDS:
            out[f"invariants.{kind}.self_s"] = self_s[f"invariants.{kind}"]
        for cid in self.check_ids:
            out[f"theorems.check_s.{cid}"] = total_s[f"theorems.check.{cid}"]
        return out

    def write(self, path, extra: dict):
        doc = dict(extra)
        doc["counters"] = dict(self.counters)
        doc["spans"] = [
            {"id": s[0], "name": s[1], "start": s[2] - self.origin,
             "end": None if s[3] is None else s[3] - self.origin,
             "parent": s[4], "thread": s[5], "error": s[6]}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def table_digest(ring) -> str:
    h = hashlib.blake2b(digest_size=16)
    for table in (ring.add_table, ring.mul_table):
        h.update(table.data if table.flags.c_contiguous else table.tobytes())
    h.update(f"{ring.zero},{ring.one}".encode())
    return h.hexdigest()


def _table_bytes(ring) -> int:
    core = importlib.import_module("ringlab.core")
    if isinstance(ring, core.TableRing):
        return 2 * ring.order * ring.order * ring.add_table.dtype.itemsize
    return 0


def _after_construct(tracer, args, kwargs, ring):
    tracer.count("construct.table_bytes", _table_bytes(ring))


def _after_classify(tracer, args, kwargs, result):
    ring = args[0]
    reading = kwargs.get("usc_reading", "exact-one")
    tracer.classified.add((table_digest(ring), reading))


def _after_lattice(tracer, args, kwargs, result):
    tracer.count("invariants.lattice.ideals", len(result))


def _after_decomposition_counts(tracer, args, kwargs, result):
    # u, eu, ue hold table-dtype entries; is_unit, commutes and their
    # conjunction are bool: n * k * (3 * itemsize + 3) bytes per call.
    ring = args[0]
    k = int(importlib.import_module("ringlab.invariants").get_cache(ring).idempotent_mask.sum())
    itemsize = ring.add_table.dtype.itemsize
    tracer.count("elements.decomposition_counts.bytes", ring.order * k * (3 * itemsize + 3))


_AFTER = {
    "construct.build": _after_construct,
    "construct.derived": _after_construct,
    "classify.classify": _after_classify,
    "one_sided_ideals": _after_lattice,
    "elements.decomposition_counts": _after_decomposition_counts,
}
