"""Span recording around the public functions of the quadgait modules.

A `Tracer` wraps functions and methods from the outside: the program is
not edited.  Each call becomes a span; spans nest on a stack, so a
span's self time is its duration minus the time its child spans cover.
Spans are aggregated in memory per (root span, span name), where the
root is the outermost span open when the call began (a CLI stage, the
policy replay, ...), and read out when the run ends.

A function that other modules bind with `from .x import f` is replaced
in every `quadgait.*` module that holds it, so `quadgait.dataset.step`
and `quadgait.evaluation.step` are traced as well as
`quadgait.simulation.step`.  Spawned worker processes start from a
fresh import and are not traced.
"""

from __future__ import annotations

import statistics
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


class _Stat:
    __slots__ = ("durations", "self_total")

    def __init__(self):
        self.durations = array("d")
        self.self_total = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str], _Stat] = {}
        self._stack: list[list] = []   # [name, child time] per open span
        self._restore: list[tuple[object, str, object]] = []

    # recording -----------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        """Record one span around code the benchmark runs itself."""
        frame = self._open(name)
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(frame, perf_counter() - t0)

    def _open(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, duration: float):
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += duration
            root = self._stack[0][0]
        else:
            root = frame[0]
        stat = self.stats.get((root, frame[0]))
        if stat is None:
            stat = self.stats[(root, frame[0])] = _Stat()
        stat.durations.append(duration)
        stat.self_total += duration - frame[1]

    def _wrap(self, name, fn):
        """`name` is a span name, or a callable giving one from the call's
        positional arguments."""
        namer = name if callable(name) else None
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer._open(namer(args) if namer else name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame, perf_counter() - t0)

        traced.__wrapped__ = fn
        return traced

    # installing wrappers ---------------------------------------------------
    def install(self, targets):
        """Wrap each (module, attribute, span name) target.

        `attribute` is a function name, or `Class.method`; a function is
        replaced in every loaded quadgait module that binds it."""
        for module_name, attr, name in targets:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._set(owner, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "quadgait" or mod_name.startswith("quadgait.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return self

    def patch(self, owner, attr: str, value):
        """Replace one attribute until `uninstall`."""
        self._set(owner, attr, value)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # reading out -----------------------------------------------------------
    def _select(self, name: str, root: str | None):
        return [s for (r, n), s in self.stats.items() if n == name and (root is None or r == root)]

    def durations(self, name: str, root: str | None = None) -> list[float]:
        out: list[float] = []
        for stat in self._select(name, root):
            out.extend(stat.durations)
        return out

    def calls(self, name: str, root: str | None = None) -> int:
        return sum(len(s.durations) for s in self._select(name, root))

    def total(self, name: str, root: str | None = None) -> float:
        return sum(sum(s.durations) for s in self._select(name, root))

    def self_total(self, name: str, root: str | None = None) -> float:
        return sum(s.self_total for s in self._select(name, root))

    def median(self, name: str, root: str | None = None) -> float:
        d = self.durations(name, root)
        return statistics.median(d) if d else 0.0

    def quantile(self, name: str, q: float, root: str | None = None) -> float:
        d = sorted(self.durations(name, root))
        if not d:
            return 0.0
        return d[min(len(d) - 1, int(q * len(d)))]

