"""Spans recorded around calls into the program's public functions.

The benchmark times every layer from outside: :class:`Tracer` replaces a
public function or method with a wrapper that records one :class:`Span`
(name, start, end, parent span, trace id, run phase) per call, or only
counts calls where a span per call would cost too much.  Nothing inside
``src/`` is changed; :meth:`Tracer.uninstall` puts every original back.

Parenting follows the calling thread: a span opened while another is
open on the same thread is its child, and a root span starts a new
trace (one per tick, request or batch stage).  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from benchlib.stats import union_length


class Span:
    """One timed call: [start, end) on one thread, under ``parent``."""

    __slots__ = ("name", "start", "end", "parent", "trace", "phase")

    def __init__(self, name, start, parent, trace, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace = trace
        self.phase = phase

    @property
    def duration(self) -> float:
        return self.end - self.start

    def has_ancestor(self, name: str) -> bool:
        parent = self.parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False


class Tracer:
    """Records spans and call counts for the calls it wraps."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: Return values handed to result hooks are reduced to numbers here.
        self.values: Counter = Counter()
        #: Tag stamped on every span; the workload switches it between
        #: "setup" and "measure" so layer metrics can pick their phase.
        self.phase = "setup"
        self._local = threading.local()
        self._trace_ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        trace = parent.trace if parent is not None else f"{name}#{next(self._trace_ids)}"
        span = Span(name, time.perf_counter(), parent, trace, self.phase)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        self.spans.append(span)

    def timed(self, name: str, fn: Callable, on_result=None) -> Callable:
        """``fn`` wrapped to record one span per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def observed(self, fn: Callable, on_result) -> Callable:
        """``fn`` wrapped to hand each result to ``on_result`` (no span)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(self, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped to count outermost calls (no span per call)."""
        local = self._local
        counts = self.counts
        flag = "in_" + name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(local, flag, False):
                return fn(*args, **kwargs)
            setattr(local, flag, True)
            try:
                if self.phase == "measure":
                    counts[name] += 1
                return fn(*args, **kwargs)
            finally:
                setattr(local, flag, False)

        return wrapper

    def add_value(self, name: str, amount: float) -> None:
        """Accumulate a measured-phase quantity (e.g. a result size)."""
        if self.phase == "measure":
            self.values[name] += amount

    # -- installation ------------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_function(self, fn: Callable, wrapper: Callable) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it.

        Modules that did ``from x import fn`` hold their own reference,
        so each binding is patched, not only the defining module's.
        """
        patched = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                    patched += 1
        if not patched:
            raise RuntimeError(f"{fn.__module__}.{fn.__qualname__} is bound nowhere")

    def wrap_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.attr`` (defined on ``cls`` itself) by ``make(original)``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def named(self, name: str, phase: Optional[str] = "measure") -> List[Span]:
        return [
            span for span in self.spans
            if span.name == name and (phase is None or span.phase == phase)
        ]

    def busy(self, name: str, phase: Optional[str] = "measure", within: Optional[str] = None) -> float:
        """Seconds spent in outermost ``name`` spans (optionally only those
        running under a ``within`` span); re-entrant calls count once."""
        total = 0.0
        for span in self.named(name, phase):
            if span.has_ancestor(name):
                continue
            if within is not None and not span.has_ancestor(within):
                continue
            total += span.duration
        return total

    def self_time(self, name: str, phase: Optional[str] = "measure") -> float:
        """Total self time of ``name`` spans: duration minus the part of
        it that direct child spans cover."""
        children: Dict[int, List[tuple]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(id(span.parent), []).append((span.start, span.end))
        total = 0.0
        for span in self.named(name, phase):
            covered = [
                (max(start, span.start), min(end, span.end))
                for start, end in children.get(id(span), ())
                if end > span.start and start < span.end
            ]
            total += span.duration - union_length(covered)
        return total


def public_functions(module) -> Iterable[Callable]:
    """Top-level public functions defined in ``module`` itself."""
    for attr, value in sorted(vars(module).items()):
        if (
            not attr.startswith("_")
            and callable(value)
            and getattr(value, "__module__", None) == module.__name__
            and type(value).__name__ == "function"
        ):
            yield value
