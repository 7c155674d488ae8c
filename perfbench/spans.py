"""Outside-in span tracing for the benchmark's traced runs.

Spans are recorded around calls into each layer's public functions by
replacing the callable on the instance (or module) before the program
runs.  Each span is ``(name, start, end, parent, request)`` where the
parent is the span open on the same thread when it began and the request
is one program or one job.  Spans stay in flat arrays while the run
lasts and are written out once, at the end.
"""

from __future__ import annotations

import array
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.request = array.array("i")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: List[int] = []
        #: request id of spans the main thread opens without one
        self.main_request = 0

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> List[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: int) -> None:
        self.main_request = request

    def _open(self, nid: int, request=None) -> int:
        stack = self._stack()
        if request is None:
            request = (self.main_request if stack is self._main_stack else -1)
        with self._lock:
            index = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(request)
            self.start.append(0.0)
            self.end.append(0.0)
        stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self.start[index] = start
        self.end[index] = end
        self._stack().pop()

    def span(self, name: str, request=None):
        return _Span(self, self._id(name), request)

    def wrap(self, owner: Any, attr: str, name: str,
             request_of: Callable = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (any thread)."""
        fn = getattr(owner, attr)
        nid = self._id(name)
        open_, close, clock = self._open, self._close, time.perf_counter

        def traced(*args, **kwargs):
            index = open_(nid, request_of(*args) if request_of else None)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(index, start, clock())

        setattr(owner, attr, traced)

    def wrap_main(self, owner: Any, attr: str, name: str) -> None:
        """:meth:`wrap` for calls made on the main thread while no other
        thread records: no lock and no thread lookup, so the hot per-cycle
        calls of a simulation are distorted as little as possible."""
        fn = getattr(owner, attr)
        nid = self._id(name)
        add_name, add_parent, add_request = (self.name_of.append,
                                             self.parent.append,
                                             self.request.append)
        starts, ends, stack = self.start, self.end, self._main_stack
        clock, tracer = time.perf_counter, self

        def traced(*args, **kwargs):
            index = len(starts)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_request(tracer.main_request)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()

        setattr(owner, attr, traced)

    def wrap_generator(self, owner: Any, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a generator function: the span covers
        the generator from its first step to its exhaustion."""
        fn = getattr(owner, attr)
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            with _Span(tracer, nid, None):
                yield from fn(*args, **kwargs)

        setattr(owner, attr, traced)

    # -- analysis -------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` (duration
        minus the time its child spans cover)."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child_time[p] += duration[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            row["calls"] += 1
            row["total_s"] += duration[i]
            row["self_s"] += duration[i] - child_time[i]
        return out

    def durations(self, name: str) -> List[float]:
        nid = self._name_ids.get(name)
        return [self.end[i] - self.start[i] for i in range(len(self.start))
                if self.name_of[i] == nid]

    def children(self, name: str) -> int:
        """Number of spans whose parent is a *name* span."""
        nid = self._name_ids.get(name)
        return sum(1 for p in self.parent if p >= 0 and self.name_of[p] == nid)

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the spans: a JSON header line, then one
        ``name start end parent request`` line per span."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        names = self.names
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({**meta, "spans": len(self.start),
                                  "columns": ["name", "start", "end",
                                              "parent", "request"]}) + "\n")
            for i in range(len(self.start)):
                out.write(f"{names[self.name_of[i]]} {self.start[i]:.9f} "
                          f"{self.end[i]:.9f} {self.parent[i]} "
                          f"{self.request[i]}\n")


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds a traced call costs its caller beyond the callee's
    measured interval (a wrapped no-op against a direct one, best of
    *repeats*).  That cost lands in the parent span's self time."""

    class Target:
        def noop(self):
            return None

    best = None
    for _ in range(repeats):
        tracer, target = Tracer(), Target()
        direct = Target().noop
        tracer.wrap_main(target, "noop", "noop")
        wrapped = target.noop
        start = time.perf_counter()
        for _ in range(calls):
            direct()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        inside = sum(tracer.end[i] - tracer.start[i] for i in range(calls))
        cost = max(0.0, (traced - bare - inside) / calls)
        best = cost if best is None else min(best, cost)
    return best


class _Span:
    __slots__ = ("tracer", "nid", "request_id", "index", "t0")

    def __init__(self, tracer: Tracer, nid: int, request):
        self.tracer = tracer
        self.nid = nid
        self.request_id = request

    def __enter__(self):
        self.index = self.tracer._open(self.nid, self.request_id)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *_exc):
        self.tracer._close(self.index, self.t0, time.perf_counter())
        return False
