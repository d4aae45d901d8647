"""Span tracing: who ran, when, nested inside what.

A :class:`Tracer` records *spans* — named, attributed intervals — through a
context-manager or decorator API::

    tracer = Tracer()
    with tracer.span("stage:tile_match", cat="pipeline", row=3) as sp:
        ...
        sp.set(n_candidates=n)

    @tracer.wrap("mapper.map_read", cat="mapping")
    def map_read(read): ...

Nesting is tracked per thread (a worker thread's spans form their own
lane), so thread pools can fan queries out without corrupting the tree.
Finished spans accumulate on the tracer and export to Chrome-trace JSON /
a text tree via :mod:`repro.obs.export`.

Every tracer also carries a :class:`~repro.obs.metrics.MetricsRegistry` as
``tracer.metrics`` — threading one ``tracer=`` argument through a layer
buys both spans and counters.

The disabled path is :data:`NULL_TRACER` (what :func:`get_tracer` returns
for ``None``): ``span()`` hands back one shared no-op object and
``metrics`` is the null registry, so instrumented code costs a method call
and an empty ``with`` block when observability is off.
"""

from __future__ import annotations

import functools
import threading
import time

from repro.obs.metrics import NULL_METRICS, MetricsRegistry


class Span:
    """One named interval. Context manager; re-entrant use is an error."""

    __slots__ = (
        "tracer", "name", "cat", "attrs", "span_id", "parent_id",
        "tid", "start", "end",
    )

    def __init__(self, tracer: "Tracer", name: str, cat: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.span_id = -1
        self.parent_id: int | None = None
        self.tid = 0
        self.start = 0.0
        self.end: float | None = None

    @property
    def duration(self) -> float:
        """Span seconds (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._open(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._close(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"{self.duration * 1e3:.3f}ms" if self.end is not None else "open"
        return f"Span({self.name!r}, cat={self.cat!r}, {state})"


class Tracer:
    """Thread-safe span recorder + the run's metrics registry."""

    enabled = True

    def __init__(self, *, metrics: MetricsRegistry | None = None,
                 clock=time.perf_counter):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self._epoch = clock()
        #: Wall-clock instant of the tracer epoch: span starts are relative
        #: to the epoch, so this anchors them on an axis every process
        #: shares (how worker spans line up with parent spans in one trace).
        self.wall_epoch = time.time()
        self._lock = threading.Lock()  # guards: _next_id, _tids, spans, foreign_events
        self._local = threading.local()
        self._next_id = 0
        self._tids: dict[int, int] = {}
        #: Finished spans in close order (exported by :mod:`repro.obs.export`).
        self.spans: list[Span] = []
        #: Chrome-trace-ready events merged from *other processes* (worker
        #: span shipping, :mod:`repro.obs.shipping`); each carries its own
        #: ``pid`` so the exporter renders one lane group per worker.
        self.foreign_events: list[dict] = []

    # -- span lifecycle --------------------------------------------------------
    def span(self, name: str, cat: str = "pipeline", **attrs) -> Span:
        """A new (not yet started) span; use as a context manager."""
        return Span(self, name, cat, attrs)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread_lane(self) -> int:
        ident = threading.get_ident()
        # Benign racy fast path: a miss just falls through to the locked
        # setdefault, which is authoritative; dict reads don't tear.
        lane = self._tids.get(ident)  # conc: ignore[CL101]
        if lane is None:
            with self._lock:
                lane = self._tids.setdefault(ident, len(self._tids))
        return lane

    def _open(self, span: Span) -> None:
        stack = self._stack()
        span.parent_id = stack[-1].span_id if stack else None
        span.tid = self._thread_lane()
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
        span.start = self._clock() - self._epoch
        stack.append(span)

    def _close(self, span: Span) -> None:
        span.end = self._clock() - self._epoch
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # exited out of order (generator misuse); recover
            stack.remove(span)
        with self._lock:
            self.spans.append(span)

    # -- decorator -------------------------------------------------------------
    def wrap(self, name: str | None = None, cat: str = "func"):
        """Decorator form: run the function body inside a span."""

        def deco(fn):
            span_name = name or getattr(fn, "__qualname__", fn.__name__)

            @functools.wraps(fn)
            def inner(*args, **kwargs):
                with self.span(span_name, cat=cat):
                    return fn(*args, **kwargs)

            return inner

        return deco

    # -- cross-process shipping ------------------------------------------------
    def drain_spans(self, cap: int | None = None) -> tuple[list[Span], int]:
        """Remove and return finished spans, oldest first, up to ``cap``.

        The worker side of span shipping: each task drains what it recorded
        into an :class:`~repro.obs.shipping.ObsPayload`, so a long-lived
        worker never accumulates unbounded span history. Returns
        ``(spans, n_dropped)`` — spans beyond the cap are *discarded* (and
        counted), not left behind, keeping worker memory bounded even when
        one task records a pathological number of spans.
        """
        with self._lock:
            spans = self.spans
            self.spans = []
        if cap is None or len(spans) <= cap:
            return spans, 0
        return spans[:cap], len(spans) - cap

    def add_foreign_events(self, events: list[dict]) -> None:
        """Adopt ready-made trace events shipped from another process."""
        with self._lock:
            self.foreign_events.extend(events)

    # -- introspection / export ------------------------------------------------
    def clear(self) -> None:
        """Drop all finished spans (metrics are kept; use metrics.clear())."""
        with self._lock:
            self.spans.clear()
            self.foreign_events.clear()

    def find(self, name: str) -> list[Span]:
        """All finished spans with exactly this name."""
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def to_chrome_trace(self, **metadata) -> dict:
        """Chrome-trace dict (see :func:`repro.obs.export.to_chrome_trace`)."""
        from repro.obs.export import to_chrome_trace

        return to_chrome_trace(self, **metadata)

    def write_chrome_trace(self, path, **metadata) -> None:
        """Write the Chrome-trace JSON file for ``chrome://tracing``/Perfetto."""
        from repro.obs.export import write_chrome_trace

        write_chrome_trace(self, path, **metadata)

    def format_tree(self) -> str:
        """Human-readable nested text rendering of the recorded spans."""
        from repro.obs.export import format_span_tree

        with self._lock:
            spans = list(self.spans)
        return format_span_tree(spans)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        # Debug aid only; len() of a list is a single atomic read.
        return f"Tracer(spans={len(self.spans)})"  # conc: ignore[CL101]


class _NullSpan:
    """Shared do-nothing span for the disabled tracer."""

    __slots__ = ()
    name = ""
    cat = ""
    attrs: dict = {}
    duration = 0.0

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Disabled tracer: no spans, null metrics, near-zero overhead."""

    enabled = False

    def __init__(self):
        # Deliberately *not* calling super().__init__: no lock/state needed.
        self.metrics = NULL_METRICS
        self.spans = []
        self.foreign_events = []
        self.wall_epoch = 0.0

    def span(self, name: str, cat: str = "pipeline", **attrs) -> _NullSpan:
        return _NULL_SPAN

    def drain_spans(self, cap: int | None = None) -> tuple[list, int]:
        return [], 0

    def add_foreign_events(self, events: list[dict]) -> None:
        pass

    def wrap(self, name: str | None = None, cat: str = "func"):
        def deco(fn):
            return fn

        return deco

    def clear(self) -> None:
        pass

    def find(self, name: str) -> list:
        return []

    def format_tree(self) -> str:
        from repro.obs.export import format_span_tree

        return format_span_tree([])


#: Process-wide disabled tracer; what uninstrumented call sites get.
NULL_TRACER = NullTracer()


def get_tracer(tracer: Tracer | None) -> Tracer:
    """Normalize an optional ``tracer=`` argument (None → the null tracer)."""
    return tracer if tracer is not None else NULL_TRACER
