"""In-memory span tracing, installed around a program from outside it.

A :class:`Tracer` replaces selected functions and methods with wrappers
that record one :class:`Span` per call: name, start, end, the span that
was open when it began (its parent, per thread) and the request id
current in its context.  Nothing is written while the program runs;
:func:`self_times` and friends fold the spans afterwards.

A layer's **self time** is its span's duration minus the durations of
its direct children, so self times over every span of a thread add up
to the time covered by that thread's root spans — whatever is left of
the traced wall time is unattributed.

The untraced path installs nothing: no tracer, no wrapper, no check.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable

#: Request id stamped on every span begun in this context.
REQUEST_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "mgxbench_request_id", default=None)


class Span:
    """One traced call (or one resumption of a traced generator)."""

    __slots__ = ("sid", "parent", "name", "rid", "thread", "start", "end",
                 "resumed")

    def __init__(self, sid: int, parent: int | None, name: str,
                 rid: str | None, thread: int, start: float,
                 end: float = 0.0, resumed: bool = False) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.rid = rid
        self.thread = thread
        self.start = start
        self.end = end
        #: True for the second and later steps of a traced generator:
        #: they add time to the span's name but are not new calls.
        self.resumed = resumed

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Self time per span name: duration minus direct children's."""
    spans = list(spans)
    child = Counter()
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    out: Counter = Counter()
    for span in spans:
        out[span.name] += span.duration - child[span.sid]
    return dict(out)


def call_counts(spans: Iterable[Span]) -> dict[str, int]:
    """Calls per span name (generator resumptions are not calls)."""
    return dict(Counter(s.name for s in spans if not s.resumed))


def inclusive_times(spans: Iterable[Span]) -> dict[str, float]:
    """Inclusive time per span name, counting each outermost span once
    (a recursive or re-entrant call is not counted twice)."""
    spans = list(spans)
    by_id = {s.sid: s for s in spans}
    out: Counter = Counter()
    for span in spans:
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != span.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out[span.name] += span.duration
    return dict(out)


def root_time(spans: Iterable[Span], thread: int | None = None) -> float:
    """Time covered by root spans (those without a parent)."""
    return sum(s.duration for s in spans
               if s.parent is None and (thread is None or s.thread == thread))


class Tracer:
    """Records spans and counters; patches and restores wrap targets."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, resumed: bool = False) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), stack[-1].sid if stack else None, name,
                    REQUEST_ID.get(), threading.get_ident(), self.clock(),
                    resumed=resumed)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # unbalanced exit (an exception skipped inner ends)
            while stack and stack.pop() is not span:
                pass
        self.spans.append(span)

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def sample(self, key: str, value: float) -> None:
        self.samples[key].append(value)

    # -- wrapping ----------------------------------------------------------
    def wrap(self, fn: Callable, name: str | Callable[..., str],
             measure: Callable | None = None) -> Callable:
        """A traced stand-in for ``fn``.

        ``name`` is a span name, or a callable given the call's
        arguments that returns one.  ``measure(tracer, args, result)``
        runs after a successful call (byte counters and the like).
        Generator functions get one span per resumption.  Coroutine
        functions are only traced correctly when they finish without
        suspending: a span must not stay open while other tasks run.
        """
        namer = name if callable(name) else (lambda *a, **k: name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                label = namer(*args, **kwargs)
                gen = fn(*args, **kwargs)
                first = True
                while True:
                    span = tracer.begin(label, resumed=not first)
                    first = False
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(span)
                    yield item
            return traced_gen

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_coro(*args, **kwargs):
                span = tracer.begin(namer(*args, **kwargs))
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer.end(span)
            return traced_coro

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(namer(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if measure is not None:
                measure(tracer, args, result)
            return result
        return traced

    def patch_function(self, module, attr: str, name, measure=None,
                       prefix: str = "repro") -> None:
        """Trace a module-level function wherever it is bound.

        ``from m import f`` copies the function into the importer's
        namespace, so every loaded module under ``prefix`` holding the
        same object is patched too.
        """
        original = getattr(module, attr)
        traced = self.wrap(original, name, measure)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "") or ""
            if mod is not module and not modname.startswith(prefix):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append(
                        functools.partial(setattr, mod, key, original))

    def patch_method(self, cls: type, attr: str, name, measure=None) -> None:
        """Trace a method on ``cls`` and on every subclass overriding it."""
        classes = [cls]
        pending = list(cls.__subclasses__())
        while pending:
            sub = pending.pop()
            classes.append(sub)
            pending.extend(sub.__subclasses__())
        for klass in classes:
            raw = klass.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                traced = type(raw)(self.wrap(raw.__func__, name, measure))
            elif callable(raw):
                traced = self.wrap(raw, name, measure)
            else:
                continue
            setattr(klass, attr, traced)
            self._undo.append(functools.partial(setattr, klass, attr, raw))

    def patch_item(self, mapping: dict, key, name, measure=None) -> None:
        """Trace a callable stored in a registry dict."""
        original = mapping[key]
        mapping[key] = self.wrap(original, name, measure)
        self._undo.append(functools.partial(mapping.__setitem__, key,
                                            original))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to a hand-written hook, restored on
        :meth:`uninstall`."""
        self._undo.append(functools.partial(setattr, owner, attr,
                                            owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched target (newest first)."""
        while self._undo:
            self._undo.pop()()
