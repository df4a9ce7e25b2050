"""Span and counter recording for the traced benchmark run.

The library is not instrumented; instead the traced run wraps the names that
callers inside the library actually resolve at call time (a module attribute
such as ``repro.core.cegis.verify_program``, or a method on a class) and
restores the originals afterwards.  Spans nest: each span remembers the span
that was open when it started, so a layer's self time is its duration minus
the time covered by its child spans.

Spans are kept in memory and summarised when the run ends; forked workers
run the wrapped code too, but their spans die with the fork, so only
in-process work is attributed (the pool leg reports its program-reported
``shard_seconds`` instead).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._open: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ recording
    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def timed(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``on_result(tracer, result, args, kwargs)``
        adds counters from the call's arguments and result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index].end = time.perf_counter()
            self.counters[f"{name}.calls"] += 1
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result

        return wrapper

    # -------------------------------------------------------------- patching
    def wrap(self, owner: Any, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` (a module function, a class's method or an
        instance's method) by a timed wrapper until :meth:`restore`."""
        self.patch(owner, attr, self.timed(name, getattr(owner, attr), on_result))

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    # --------------------------------------------------------------- summary
    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.spans if span.name == name)

    def attributed(self, root: str) -> float:
        """Time inside ``root`` spans that some descendant span accounts for."""
        children = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span.parent is not None:
                children[span.parent].append(index)
        return sum(
            sum(self.spans[c].seconds for c in children[index])
            for index, span in enumerate(self.spans)
            if span.name == root
        )
