"""In-memory span recorder that wraps a program's functions from outside.

The benchmark attributes time to layers without touching ``src/``: it
replaces selected methods and module functions with thin wrappers that
record one span per call (layer, operation, start, end, parent) and
puts the originals back afterwards.  Spans stay in memory and are
written out only when the run ends.

Self time of a span is its duration minus the durations of its direct
children.  Children on one thread are nested and sequential, so that
difference is exactly the time the span's own code ran.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["SpanRecorder", "LayerTimes"]

# span record layout (a list, so the wrapper can fill in the end time)
_LAYER, _OP, _START, _END, _PARENT = range(5)

#: ``on_return(counts, args, kwargs, result)`` updates counters after a call.
OnReturn = Callable[[Counter, tuple, dict, Any], None]


class LayerTimes:
    """Self time and call counts per (layer, op), from a span list.

    A span nested directly inside a span of the same layer is charged
    to its outermost same-layer ancestor's operation: a ``Configuration``
    built while sampling is sampling time, while one built by a tuner
    is decode time.  Call counts count only those outermost spans, i.e.
    calls made into the layer from outside it, and ``total_s`` sums
    their whole durations, children included.
    """

    def __init__(self, spans: List[list], wall_s: float):
        n = len(spans)
        child_s = [0.0] * n
        for rec in spans:
            parent = rec[_PARENT]
            if parent >= 0:
                child_s[parent] += rec[_END] - rec[_START]
        owner: List[Tuple[str, str]] = [("", "")] * n
        self.self_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.total_s: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        top_s = 0.0
        for i, rec in enumerate(spans):
            parent = rec[_PARENT]
            duration = rec[_END] - rec[_START]
            if parent >= 0 and spans[parent][_LAYER] == rec[_LAYER]:
                owner[i] = owner[parent]
            else:
                owner[i] = (rec[_LAYER], rec[_OP])
                self.calls[owner[i]] += 1
                self.total_s[owner[i]] += duration
            if parent < 0:
                top_s += duration
            self.self_s[owner[i]] += duration - child_s[i]
        self.wall_s = wall_s
        self.coverage = top_s / wall_s if wall_s > 0 else 0.0

    def layer_s(self, layer: str) -> float:
        return sum(s for (lay, _), s in self.self_s.items() if lay == layer)

    def op_s(self, layer: str, *ops: str) -> float:
        return sum(self.self_s.get((layer, op), 0.0) for op in ops)

    def op_calls(self, layer: str, *ops: str) -> int:
        return sum(self.calls.get((layer, op), 0) for op in ops)

    def by_layer(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for (layer, _), seconds in self.self_s.items():
            totals[layer] += seconds
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


class SpanRecorder:
    """Wraps functions so that each call records a span.

    Wrappers are installed by the ``wrap_*`` and ``count_*`` calls and
    removed by :meth:`restore`, which callers run in a ``finally``.  ``counts`` holds plain call counters and whatever ``on_return``
    callbacks add (e.g. configurations per batch, cache hits).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self._wrapped_ids: set = set()

    # -- wrapper factories ---------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, fn: Callable, layer: str, op: str,
                      on_return: Optional[OnReturn]) -> Callable:
        spans, stack_of, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            index = len(spans)
            rec = [layer, op, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()
            if on_return is not None:
                on_return(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", op)
        return wrapper

    def _count_wrapper(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------------
    def _patch_attr(self, owner: Any, name: str, make: Callable) -> None:
        raw = owner.__dict__[name]
        if isinstance(raw, staticmethod):
            new: Any = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, name, raw))
        setattr(owner, name, new)

    def wrap_method(self, cls: type, name: str, layer: str, op: str,
                    on_return: Optional[OnReturn] = None) -> None:
        """Span every call of ``cls.name`` (only if ``cls`` defines it)."""
        if name in cls.__dict__ and (cls, name) not in self._wrapped_ids:
            self._wrapped_ids.add((cls, name))
            self._patch_attr(
                cls, name, lambda fn: self._span_wrapper(fn, layer, op, on_return)
            )

    def count_method(self, cls: type, name: str, key: str) -> None:
        """Count calls of ``cls.name`` without timing them (hot paths)."""
        if name in cls.__dict__ and (cls, name) not in self._wrapped_ids:
            self._wrapped_ids.add((cls, name))
            self._patch_attr(cls, name, lambda fn: self._count_wrapper(fn, key))

    def wrap_function(self, fn: Callable, layer: str, op: str) -> None:
        """Span a module-level function at every ``repro`` module that
        bound it, including ``from module import fn`` sites."""
        if id(fn) in self._wrapped_ids:
            return
        self._wrapped_ids.add(id(fn))
        wrapper = self._span_wrapper(fn, layer, op, None)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)
        self._wrapped_ids.clear()

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- output -------------------------------------------------------------------
    def times(self, wall_s: float) -> LayerTimes:
        return LayerTimes(self.spans, wall_s)

    def dump(self, path: str) -> int:
        """Write spans as JSON lines (layer, op, start, end, parent)."""
        with open(path, "w") as handle:
            for index, rec in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "layer": rec[_LAYER], "op": rec[_OP],
                    "start": rec[_START], "end": rec[_END],
                    "parent": rec[_PARENT],
                }) + "\n")
        return len(self.spans)
