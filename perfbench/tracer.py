"""Spans and counts recorded around the module-level entry points of
each tbntools layer, without changing the package.

A hook replaces a module attribute with a wrapper that opens a span,
calls the original and closes the span; the package looks the attribute
up at call time, so its own calls go through the wrapper too.  A hook
whose attribute is gone is recorded as missing instead of raising, and
every metric that needs it is left out of the report with a note, so a
renamed entry point never reads as zero.

Spans are kept in memory in flat arrays (name, parent, start, end) and
written out once, when the run ends.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Extract = Callable[[Counter, tuple, object], None]


@dataclass(frozen=True)
class Hook:
    """One module attribute to wrap.

    ``on_return(counts, args, result)`` adds the hook's counts.  If the
    result's shape has changed it raises AttributeError, TypeError,
    ValueError, IndexError or KeyError, which marks the hook broken.
    ``generator`` hooks return iterators; their span covers each
    resumption, and every yielded item is counted as ``<span>.yields``.
    """

    module: str
    attr: str
    span: str
    on_return: Optional[Extract] = None
    generator: bool = False

    @property
    def path(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.missing: List[Hook] = []
        self.broken: List[Hook] = []
        self._patches: List[Tuple[object, str, object]] = []

    # spans ---------------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self._name)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self._end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    # hooks ---------------------------------------------------------------
    def install(self, hooks: List[Hook]) -> None:
        for hook in hooks:
            try:
                module = importlib.import_module(hook.module)
                original = getattr(module, hook.attr)
            except (ImportError, AttributeError):
                self.missing.append(hook)
                continue
            setattr(module, hook.attr, self._wrap(hook, original))
            self._patches.append((module, hook.attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _count(self, hook: Hook, args: tuple, result: object) -> None:
        self.counts[hook.span + ".calls"] += 1
        if hook.on_return is None or hook in self.broken:
            return
        try:
            hook.on_return(self.counts, args, result)
        except (AttributeError, TypeError, ValueError, IndexError,
                KeyError):
            self.broken.append(hook)

    def _wrap(self, hook: Hook, original):
        nid = self._id(hook.span)
        tracer = self

        if hook.generator:
            yields = hook.span + ".yields"

            def resumptions(inner):
                while True:
                    i = tracer._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(i)
                    tracer.counts[yields] += 1
                    yield item

            @functools.wraps(original)
            def wrapped_gen(*args, **kwargs):
                tracer._count(hook, args, None)
                return resumptions(original(*args, **kwargs))

            return wrapped_gen

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            i = tracer._open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(i)
            tracer._count(hook, args, result)
            return result

        return wrapped

    # results -------------------------------------------------------------
    def times_ms(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Inclusive and self milliseconds per span name."""
        n = len(self._name)
        covered = [0.0] * n
        for i in range(n):
            p = self._parent[i]
            if p >= 0:
                covered[p] += self._end[i] - self._start[i]
        incl: Dict[str, float] = {}
        own: Dict[str, float] = {}
        for i in range(n):
            name = self.names[self._name[i]]
            d = self._end[i] - self._start[i]
            incl[name] = incl.get(name, 0.0) + d * 1e3
            own[name] = own.get(name, 0.0) + (d - covered[i]) * 1e3
        return incl, own

    def write(self, path) -> int:
        """Write every span as one JSON line (gzip); returns the count."""
        n = len(self._name)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(n):
                fh.write(
                    f"[{self._name[i]},{self._parent[i]},"
                    f"{self._start[i]:.7f},{self._end[i]:.7f}]\n"
                )
        return n
