"""Per-layer host-time tracing from the benchmark's own files.

A :class:`Tracer` wraps the public functions each layer exposes, at the
name their caller looks up (``repro.runtime.executor.region_time``, not
``repro.runtime.openmp.region_time``), and restores every attribute on
exit.  Nothing inside ``src/`` changes.

Each wrapped call costs two clock reads.  Its *self* time is its
duration minus the part covered by wrapped calls made inside it, so the
self times of all layers plus the time outside any wrapped call add up
to the wall time of a single-threaded run.

Two kinds of layer:

* **span** layers (request-level and store calls) keep one span record
  each: id, parent id, layer, function, start, end, request id, and the
  hot calls folded into it;
* **hot** layers (the timing model and the MPI posts, hundreds of
  thousands of calls per run) keep no record; their call counts and
  self times are folded into the enclosing span, which keeps memory
  bounded.

State is per thread, so the service's server thread, client threads and
executor threads each keep their own call stack.  Spawned pool workers
re-import the package and are not traced.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: (counters, function name, call args, result) -> None
Counter = Callable[[dict, str, tuple, Any], None]


@dataclass(frozen=True)
class Layer:
    """One layer: the call sites it wraps and how its calls count.

    ``targets`` are ``"module:function"`` or ``"module:Class.method"``.
    """

    name: str
    targets: tuple[str, ...]
    hot: bool = False
    count: Counter | None = None


def _count_run(counters: dict, _fn: str, _args: tuple, result: Any) -> None:
    counters["runtime.mpi.messages"] += result.messages_sent
    counters["runtime.mpi.bytes"] += result.bytes_sent


def _count_scored(counters: dict, _fn: str, args: tuple, _result: Any) -> None:
    counters["analytic.configs"] += len(args[0])


def _count_cache(counters: dict, fn: str, _args: tuple, result: Any) -> None:
    if fn == "get":
        counters["core.cache.hits" if result is not None
                 else "core.cache.misses"] += 1


def _count_frame(counters: dict, fn: str, args: tuple, result: Any) -> None:
    counters["service.protocol.bytes"] += len(
        result if fn == "encode_frame" else args[0])


#: Every layer the benchmark attributes host time to, innermost first.
LAYERS: tuple[Layer, ...] = (
    Layer("kernels.timing", ("repro.runtime.openmp:phase_time",), hot=True),
    Layer("runtime.openmp", ("repro.runtime.executor:region_time",),
          hot=True),
    Layer("runtime.mpi", ("repro.runtime.mpi:SimMPI.post_send",
                          "repro.runtime.mpi:SimMPI.post_recv",
                          "repro.runtime.mpi:SimMPI.post_collective"),
          hot=True),
    Layer("runtime.executor", ("repro.core.runner:run_job",),
          count=_count_run),
    Layer("analysis", ("repro.analysis.analyzer:preflight",)),
    Layer("analytic", ("repro.analytic.engine:score_configs",),
          count=_count_scored),
    Layer("core.runner", ("repro.core.runner:run_sweep",)),
    Layer("core.cache", ("repro.core.cache:ResultCache.get",
                         "repro.core.cache:ResultCache.put"),
          count=_count_cache),
    Layer("core.journal", ("repro.core.journal:SweepJournal.record",)),
    Layer("telemetry", ("repro.telemetry.run:RunContext.open",
                        "repro.telemetry.run:RunContext.finalize")),
    Layer("service.protocol", ("repro.service.protocol:encode_frame",
                               "repro.service.protocol:decode_frame"),
          count=_count_frame),
    Layer("service.jobs", ("repro.service.jobs:JobLedger.record_submit",
                           "repro.service.jobs:JobLedger.record_state")),
)

#: Counters the layers above fill, reported even when zero.
COUNTERS = ("runtime.mpi.messages", "runtime.mpi.bytes", "analytic.configs",
            "core.cache.hits", "core.cache.misses", "service.protocol.bytes")

#: Field order of one span record in the trace file.
SPAN_FIELDS = ("id", "parent", "layer", "function", "start_s", "end_s",
               "request", "folded")


def resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class _ThreadState:
    """One thread's call stack, totals and finished spans.

    A frame is ``[child seconds, span id or None, fold dict]``; the root
    frame's child seconds is the time this thread spent inside wrapped
    calls.  ``totals`` counts the span layers; hot layers are counted in
    the fold dicts of the spans (or the root frame) they ran under.
    """

    __slots__ = ("stack", "root", "totals", "counters", "spans", "request")

    def __init__(self, layers: tuple[Layer, ...]) -> None:
        self.root: list = [0.0, None, {}]
        self.stack: list[list] = []
        self.totals = {layer.name: [0, 0.0] for layer in layers}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.spans: list[tuple] = []
        self.request: str | None = None


class Tracer:
    """Wraps the layers' call sites while installed (a context manager).

    ``clock`` lets a test drive the arithmetic with scripted times.
    """

    def __init__(self, layers: tuple[Layer, ...] = LAYERS,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.layers = layers
        self.clock = clock
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._saved: list[tuple[Any, str, Any]] = []
        self.main: _ThreadState = self._state()

    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(self.layers)
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    @contextmanager
    def request(self, request_id: str) -> Iterator[None]:
        """Tag spans opened on this thread with ``request_id``."""
        state = self._state()
        state.request = request_id
        try:
            yield
        finally:
            state.request = None

    # ------------------------------------------------------------------
    def _wrap_hot(self, fn: Callable, layer: Layer) -> Callable:
        """Count and time into the enclosing span's fold dict only (the
        layer totals are summed from those dicts at the end)."""
        clock, local, get_state, name = \
            self.clock, self._local, self._state, layer.name

        def hot(*args: Any, **kwargs: Any) -> Any:
            try:
                state = local.state
            except AttributeError:
                state = get_state()
            stack = state.stack
            parent = stack[-1] if stack else state.root
            fold = parent[2]
            frame = [0.0, None, fold]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent[0] += duration
                acc = fold.get(name)
                if acc is None:
                    fold[name] = [1, duration - frame[0]]
                else:
                    acc[0] += 1
                    acc[1] += duration - frame[0]

        return hot

    def _wrap_span(self, fn: Callable, layer: Layer, fn_name: str) -> Callable:
        clock, ids, get_state = self.clock, self._ids, self._state
        name, count = layer.name, layer.count

        def span(*args: Any, **kwargs: Any) -> Any:
            state = get_state()
            stack = state.stack
            parent = stack[-1] if stack else state.root
            frame = [0.0, next(ids), {}]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                total = state.totals[name]
                total[0] += 1
                total[1] += duration - frame[0]
                state.spans.append((
                    frame[1], parent[1], name, fn_name, start, end,
                    state.request, frame[2] or None))
            if count is not None:
                count(state.counters, fn_name, args, result)
            return result

        return span

    def _wrap(self, fn: Callable, layer: Layer, fn_name: str) -> Callable:
        return self._wrap_hot(fn, layer) if layer.hot \
            else self._wrap_span(fn, layer, fn_name)

    def install(self) -> None:
        for layer in self.layers:
            for target in layer.targets:
                owner, attr = resolve(target)
                raw = vars(owner)[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    patched: Any = classmethod(
                        self._wrap(raw.__func__, layer, attr))
                else:
                    patched = self._wrap(raw, layer, attr)
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, patched)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.uninstall()

    # ------------------------------------------------------------------
    def layer_table(self, wall_s: float) -> dict[str, float]:
        """Per-layer ``calls``/``self_s`` plus counters, all threads merged.

        ``unwrapped_s`` is the main thread's wall time outside any
        wrapped call; in a single-threaded run it and the ``self_s``
        values sum to ``wall_s``.
        """
        table: dict[str, float] = {}
        for layer in self.layers:
            table[f"{layer.name}.calls"] = 0
            table[f"{layer.name}.self_s"] = 0.0
        for key in COUNTERS:
            table[key] = 0
        for state in list(self._states):
            folds = [state.root[2]] + [span[7] for span in state.spans
                                       if span[7]]
            totals = [*state.totals.items(),
                      *(item for fold in folds for item in fold.items())]
            for layer_name, (calls, self_s) in totals:
                table[f"{layer_name}.calls"] += calls
                table[f"{layer_name}.self_s"] += self_s
            for key, value in state.counters.items():
                table[key] += value
        table["traced_wall_s"] = wall_s
        table["unwrapped_s"] = wall_s - self.main.root[0]
        return table

    def spans(self) -> list[tuple]:
        """Every finished span record, all threads (see SPAN_FIELDS)."""
        return [span for state in list(self._states) for span in state.spans]
