"""Spans and work counters recorded from outside the program.

For the traced run only, :func:`traced` wraps the public functions at
each layer boundary, at the bindings their callers look up, and restores
them afterwards. Every call records a span (name, start, end, parent,
request id) and the work it did as counts; spans stay in memory until the
run writes them out. No code under ``src/`` knows about this.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Span:
    id: int
    parent: int | None
    rid: object
    name: str
    start: float
    end: float
    counts: dict = field(default_factory=dict)


def _size(x) -> int:
    return int(np.size(x))


def _compare_counts(args, result) -> dict:
    return {"calls": 1, "pairs": _size(result), "bases_agreed": int(np.sum(result))}


# (owner, attribute, span name, counts(args, result) -> dict | None).
# ``owner`` is a module path or "module:Class"; each entry is the binding a
# caller looks up at call time, so patching it intercepts exactly that call
# site. ``kmer_codes`` is bound twice: the query prep in the pipeline and
# the per-row reference encoding inside ``build_kmer_index``.
BOUNDARIES = [
    ("repro.core.session:MemSession", "warm", "session.warm", None),
    ("repro.core.session:MemSession", "find_mems", "session.find_mems", None),
    ("repro.core.pipeline", "kmer_codes", "sequence.kmer_codes",
     lambda a, r: {"bases": _size(a[0])}),
    ("repro.index.kmer_index", "kmer_codes", "sequence.kmer_codes",
     lambda a, r: {"bases": _size(a[0])}),
    ("repro.core.pipeline", "build_kmer_index", "kmer_index.build",
     lambda a, r: {"rows_built": 1, "locs": r.n_locs}),
    ("repro.index.kmer_index:KmerSeedIndex", "lookup", "kmer_index.lookup",
     lambda a, r: {"lookups": _size(a[1])}),
    ("repro.core.pipeline", "stage_tile", "vectorized.stage_tile",
     lambda a, r: {"tiles": 1}),
    ("repro.core.vectorized", "tile_candidates", "vectorized.candidates",
     lambda a, r: {"candidates": _size(r[0])}),
    ("repro.core.vectorized", "extend_and_classify", "vectorized.extend", None),
    ("repro.core.vectorized", "common_prefix_len", "compare", _compare_counts),
    ("repro.core.vectorized", "common_suffix_len", "compare", _compare_counts),
    ("repro.core.pipeline", "host_merge", "host_merge",
     lambda a, r: {"fragments": _size(a[2]), "crossing_mems": _size(r)}),
    ("repro.core.host_merge", "common_prefix_len", "compare", _compare_counts),
    ("repro.core.host_merge", "common_suffix_len", "compare", _compare_counts),
    ("repro.types", "unique_mems", "types.dedup",
     lambda a, r: {"rows": _size(a[0])}),
]


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Recorder:
    """In-memory span store; safe to use from the server's worker threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: ``id(query array) -> request id`` for calls made by the server.
        self.request_of: dict[int, object] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def request(self, rid):
        """Attribute spans opened by this thread to request ``rid``."""
        previous = getattr(self._local, "rid", None)
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = previous

    def wrap(self, name: str, fn, counts=None):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            if parent is not None:
                rid = parent.rid
            else:
                rid = getattr(recorder._local, "rid", None)
                if name == "session.find_mems" and len(args) > 1:
                    rid = recorder.request_of.get(id(args[1]), rid)
            span = Span(next(recorder._ids), parent and parent.id, rid, name, 0.0, 0.0)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if counts is not None:
                span.counts = counts(args, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), default=str) + "\n")


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Patch every boundary in :data:`BOUNDARIES` for the ``with`` body."""
    saved = []
    try:
        for owner, attr, name, counts in BOUNDARIES:
            target = _resolve(owner)
            original = target.__dict__[attr]
            saved.append((target, attr, original))
            setattr(target, attr, recorder.wrap(name, original, counts))
        yield recorder
    finally:
        for target, attr, original in reversed(saved):
            setattr(target, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        end = -np.inf
        for child in sorted(children.get(span.id, ()), key=lambda s: s.start):
            lo = max(child.start, end)
            if child.end > lo:
                covered += child.end - lo
            end = max(end, child.end)
        out[span.id] = (span.end - span.start) - covered
    return out


def totals_by_request(spans: list[Span]) -> dict[object, dict[str, float]]:
    """Per request id, summed over every span of each name: seconds
    (``<name>.total_s``), self seconds (``<name>.self_s``) and counts
    (``<name>.<count>``)."""
    own = self_times(spans)
    out: dict[object, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.rid, {})
        values = {"total_s": span.end - span.start, "self_s": own[span.id]}
        values.update(span.counts)
        for counter, value in values.items():
            key = f"{span.name}.{counter}"
            row[key] = row.get(key, 0) + value
    return out
