"""Outside-in span recorder.

The library has no tracing of its own, so the recorder wraps public
functions where their callers bind them: every ``chorprism`` module whose
namespace holds the original function object gets the wrapper instead. The
real ``verify_projection`` then runs unchanged and its calls into the other
modules show up as child spans. Wrappers exist only between ``install`` and
``uninstall``; untraced runs never see them.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    program: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    count_time: float = 0.0  # spent computing counts, after the span closed
    child_time: float = 0.0

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child_time


# computes a span's counts from the wrapped call's (result, args)
CountFn = Callable[[object, tuple], dict] | None


class Recorder:
    """Keeps spans in memory; ``write`` dumps them as JSON lines."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.program = ""
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, self.program, parent, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_time += s.end - s.start

    def _wrap(self, name: str, fn, count: CountFn):
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if count is not None:
                t = time.perf_counter()
                s.counts = count(result, args)
                s.count_time = time.perf_counter() - t
                if self._stack:  # counting is tracing cost, not the caller's
                    self._stack[-1].child_time += s.count_time
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets: dict[tuple[str, str], CountFn]) -> None:
        """Replace each target function in every chorprism namespace that
        binds it, so calls from inside the library are traced too."""
        for (mod_name, fn_name), count in targets.items():
            original = getattr(importlib.import_module(mod_name), fn_name)
            wrapper = self._wrap(f"{mod_name.rsplit('.', 1)[-1]}.{fn_name}", original, count)
            for name, mod in list(sys.modules.items()):
                if (name == "chorprism" or name.startswith("chorprism.")) and \
                        vars(mod).get(fn_name) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patched.append((mod, fn_name, original))

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patched):
            setattr(mod, fn_name, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                row = asdict(s)
                row["self_time"] = s.self_time
                f.write(json.dumps(row) + "\n")

