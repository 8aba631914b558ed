"""Orchestration spans: parent-linked phase timings for one run.

Where :mod:`repro.runtime.timeline` traces what the *simulated* ranks
did, spans trace what the *orchestrator* did: sweep → pool pass →
config → gate/score/cache phases, each with a wall-clock start and
duration relative to the run's start.  Spans nest through an explicit
stack in the recorder (the sweep pipeline is single-threaded on the
parent side), and every record carries its parent's id, so the tree is
reconstructible from the flat list.  Each closed span's record goes to
the run's sink, which queues it as a ``span`` record of the run log
(:mod:`repro.telemetry.runlog`), like the run's metrics.

:func:`spans_to_chrome_trace` exports the tree as a Chrome
``chrome://tracing`` / Perfetto object — the orchestration complement
to the per-rank traces ``repro profile --trace`` writes.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.telemetry.runlog import LOG_FORMAT


@dataclass
class Span:
    """One open (or finished) orchestration phase."""

    span_id: str
    parent_id: str | None
    name: str
    start_s: float
    attrs: dict[str, Any] = field(default_factory=dict)
    end_s: float | None = None

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span after it opened."""
        self.attrs.update(attrs)


class SpanRecorder:
    """Span recorder for one run; hands one record per closed span,
    tagged as a ``span`` record of run ``run_id``, to ``sink`` (the run
    log's ``add``; ``None`` keeps it memory-only).

    A resumed run appends more spans under the same run id; ``session``
    (a per-recorder token baked into every span id) keeps ids from two
    process lifetimes distinct without re-reading the log.
    """

    __slots__ = ("session", "_origin", "_next", "_stack", "_sink",
                 "_run_id")

    def __init__(self,
                 sink: Callable[[dict[str, Any]], None] | None = None,
                 run_id: str = "") -> None:
        self._sink = sink
        self._run_id = run_id
        self.session = f"{os.getpid():x}-{time.time_ns() & 0xFFFFFF:06x}"
        self._origin = time.perf_counter()
        self._next = 0
        self._stack: list[Span] = []

    # ------------------------------------------------------------------
    def _new(self, name: str, parent: Span | None, start_s: float,
             attrs: dict[str, Any]) -> Span:
        self._next += 1
        return Span(f"{self.session}:{self._next}",
                    parent.span_id if parent is not None else None,
                    name, start_s, dict(attrs))

    def open(self, name: str, **attrs: Any) -> Span:
        """Open a span as the child of the innermost open span."""
        span = self._new(name, self._stack[-1] if self._stack else None,
                         self.now(), attrs)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """Close ``span`` (and anything left open beneath it) and
        queue its record."""
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        span.end_s = self.now()
        self._write(span)

    def _write(self, span: Span) -> None:
        if self._sink is None:
            return
        rec: dict[str, Any] = {
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "start_s": span.start_s,
            "dur_s": span.duration_s,
            "format": LOG_FORMAT,
            "span": self._run_id,
        }
        if span.attrs:
            rec["attrs"] = _json_safe(span.attrs)
        self._sink(rec)

    def emit(self, name: str, start_s: float, end_s: float,
             parent: Span | None = None, **attrs: Any) -> Span:
        """Record an already-timed span without stack participation.

        Concurrent orchestrators (the sweep service runs many jobs on
        one event loop) cannot use the ``with``-stack discipline — their
        phases interleave.  ``emit`` lets them report a completed phase
        with explicit wall-clock bounds (seconds on this recorder's
        clock, i.e. :func:`time.perf_counter` minus the recorder origin)
        and an explicit parent.
        """
        span = self._new(name, parent, start_s, attrs)
        span.end_s = end_s
        self._write(span)
        return span

    def now(self) -> float:
        """The current time on this recorder's span clock (for
        :meth:`emit` bounds)."""
        return time.perf_counter() - self._origin

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """``with recorder.span("gate.lint", config=...):`` — the usual
        spelling; closes (and records) on exit, exception or not."""
        sp = self.open(name, **attrs)
        try:
            yield sp
        except BaseException as exc:
            sp.set(error=type(exc).__name__)
            raise
        finally:
            self.close(sp)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<SpanRecorder open={len(self._stack)}>"


def _json_safe(attrs: dict[str, Any]) -> dict[str, Any]:
    """Coerce attribute values to JSON-safe primitives (repr fallback)."""
    out: dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


def spans_to_chrome_trace(spans: list[dict[str, Any]],
                          run_id: str = "") -> dict[str, Any]:
    """Export span records as a Chrome trace-event JSON object.

    All spans share one pid/tid (the orchestrator); Chrome nests the
    ``ph: "X"`` slices by time containment, which matches the recorder's
    stack discipline exactly.
    """
    events: list[dict[str, Any]] = [{
        "name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": "orchestrator"},
    }]
    for rec in spans:
        event: dict[str, Any] = {
            "name": str(rec["name"]),
            "cat": "orchestration",
            "ph": "X",
            "pid": 0,
            "tid": 0,
            "ts": float(rec["start_s"]) * 1e6,
            "dur": float(rec["dur_s"]) * 1e6,
        }
        args = dict(rec.get("attrs") or {})
        args["span"] = rec.get("id")
        if rec.get("parent"):
            args["parent"] = rec["parent"]
        event["args"] = args
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"run": run_id, "source": "repro.telemetry"},
    }
