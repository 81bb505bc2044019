"""In-memory spans around the public functions of the program's modules.

The tracer replaces each public function of a traced module by a wrapper at
every name through which the package calls it (``gramoverlap.linalg.gram``,
``gramoverlap.cli.build_overlap``, ...), records one span per call, and puts
the original functions back when it is uninstalled.  Nothing in the program
changes; an untraced call runs exactly the original code.

A span's parent is the innermost open span of the calling thread.  A call made
on a pool thread that has no open span of its own takes the innermost open
span of the thread that installed the tracer, which is the span that started
the pool (``parallel.parallel_match``).
"""

import functools
import importlib
import inspect
import pkgutil
import threading
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str  # "<module>.<function>"
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the parent span in Tracer.spans
    op: int = 0  # operation the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_time(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children running concurrently on pool threads overlap; the union of their
    intervals is subtracted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered_time(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Collects spans in memory; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, package: str, modules, observers=None):
        self.package = package
        self.modules = tuple(modules)
        self.observers = dict(observers or {})
        self.spans: list[Span] = []
        self.op = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._root_thread = None
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                root = self._root_stack
                parent = root[-1] if root else None
            span = Span(name, 0.0, parent=parent, op=self.op)
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules, at every binding."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._root_thread = threading.get_ident()
        pkg = importlib.import_module(self.package)
        namespaces = [pkg] + [
            importlib.import_module(f"{self.package}.{m.name}")
            for m in pkgutil.iter_modules(pkg.__path__)
        ]
        wrappers = {}
        for short in self.modules:
            mod = importlib.import_module(f"{self.package}.{short}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()
