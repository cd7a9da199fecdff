"""Benchmark-side instrumentation: nothing under ``src/`` knows about it.

Two hooks, each wrapped around one ``run_session`` call inside a forked
segment:

* :class:`OpCounter` — ``sys.settrace`` with ``f_trace_opcodes``: every
  executed Python bytecode is counted against the layer that owns the
  frame's file.  The count repeats exactly from process to process,
  which no wall-clock reading on a shared host does.
* :class:`SpanTracer` — ``sys.setprofile``: a span opens whenever a call
  crosses from one layer into a function of another layer and closes on
  its return.  A layer's self time is its spans' duration minus the part
  their child spans cover, so the layers sum to the traced wall time.
"""

from __future__ import annotations

import sys
from time import perf_counter

from layers import LAYERS, LayerMap

__all__ = ["OpCounter", "SpanTracer"]


class OpCounter:
    """Counts bytecodes and frame entries per layer while active."""

    def __init__(self, layer_map: LayerMap) -> None:
        self._layer_map = layer_map
        self._locals = []
        self._readers = []
        for _ in LAYERS:
            local, read = self._make_local()
            self._locals.append(local)
            self._readers.append(read)
        self.calls = [0] * len(LAYERS)

    @staticmethod
    def _make_local():
        # One closure per layer: the per-opcode path is a single cell
        # increment, with no lookup of which layer the frame belongs to.
        count = 0

        def local(frame, event, arg):
            nonlocal count
            if event == "opcode":
                count += 1
            return local

        return local, lambda: count

    def _on_call(self, frame, event, arg):
        # Fires on every frame entry, generator resumptions included.
        index = self._layer_map.of_file(frame.f_code.co_filename)
        self.calls[index] += 1
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return self._locals[index]

    def __enter__(self) -> "OpCounter":
        sys.settrace(self._on_call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)

    @property
    def ops(self) -> list[int]:
        return [read() for read in self._readers]


class SpanTracer:
    """Layer-crossing spans, self time per layer, and a few call counts.

    ``watch`` maps public function names to count (``make_plan``,
    ``service_order``): every call of a ``repro`` function with that name
    is counted, crossing or not.  For ``make_plan`` calls that come from
    another layer, the ``engine`` argument's public ``backlog`` is
    sampled, giving the mean backlog the decision path was offered.
    """

    #: Full spans kept per segment; later crossings only feed aggregates.
    MAX_SPANS = 2000

    def __init__(self, layer_map: LayerMap, segment: int, watch: tuple[str, ...]) -> None:
        self._layer_map = layer_map
        self._segment = segment
        self._watch = {name: i for i, name in enumerate(watch)}
        self.watch_calls = [0] * len(watch)
        self.backlog_sum = 0
        self.backlog_samples = 0
        self.self_time = [0.0] * len(LAYERS)
        self.crossings = [0] * len(LAYERS)
        #: name -> [count, total seconds, self seconds]
        self.by_name: dict[str, list] = {}
        self.spans: list[dict] = []
        self.started = 0.0
        self.wall = 0.0
        self._info: dict = {}  # code -> (layer index, watch index, span name)
        self._python = LAYERS.index("python")

    def _describe(self, code):
        layer = self._layer_map.of_file(code.co_filename)
        watch = -1 if layer == self._python else self._watch.get(code.co_name, -1)
        info = self._info[code] = (layer, watch, f"{LAYERS[layer]}:{code.co_qualname}")
        return info

    def __enter__(self) -> "SpanTracer":
        info_of = self._info
        describe = self._describe
        watch_calls = self.watch_calls
        make_plan = self._watch.get("make_plan", -2)
        self_time = self.self_time
        crossings = self.crossings
        by_name = self.by_name
        spans = self.spans
        max_spans = self.MAX_SPANS
        segment = self._segment
        # Open spans: [layer, name, start, child seconds, span id]; the
        # root is the harness's own call into run_session.
        open_spans = [[-1, "bench:run_session", 0.0, 0.0, -1]]
        # One flag per live Python frame: did entering it open a span?
        opened = []
        next_id = 0

        def hook(frame, event, arg):
            nonlocal next_id
            if event == "call":
                code = frame.f_code
                info = info_of.get(code)
                if info is None:
                    info = describe(code)
                layer, watch, name = info
                top = open_spans[-1]
                if watch >= 0:
                    watch_calls[watch] += 1
                    if watch == make_plan and layer != top[0]:
                        engine = frame.f_locals.get("engine")
                        if engine is not None:
                            self.backlog_sum += engine.backlog
                            self.backlog_samples += 1
                if layer == top[0]:
                    opened.append(False)
                else:
                    opened.append(True)
                    open_spans.append([layer, name, perf_counter(), 0.0, next_id])
                    next_id += 1
            elif event == "return":
                if opened and opened.pop():
                    now = perf_counter()
                    layer, name, start, child, span_id = open_spans.pop()
                    duration = now - start
                    parent = open_spans[-1]
                    parent[3] += duration
                    self_time[layer] += duration - child
                    crossings[layer] += 1
                    agg = by_name.get(name)
                    if agg is None:
                        agg = by_name[name] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - child
                    if span_id < max_spans:
                        spans.append({
                            "id": span_id, "parent": parent[4], "segment": segment,
                            "name": name, "start": start, "end": now,
                        })
            # c_call / c_return: native time stays with the calling layer.

        self.started = perf_counter()
        open_spans[0][2] = self.started
        sys.setprofile(hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        self.wall = perf_counter() - self.started
