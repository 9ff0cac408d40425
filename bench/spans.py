"""In-memory span tracing of the fpemu modules, installed from outside.

The tracer replaces public functions and methods of the ``fpemu``
modules with thin wrappers, at every name they are bound under (a
function imported by name into another module is a second binding), and
leaves ``src/`` untouched.  Each wrapper records a span: name, start,
end and the span that was open when it started.  A name's self time is
its span durations minus the time its child spans cover.

Spans stay in memory; :meth:`Tracer.dump` writes them out once, when the
run ends.  Aggregates (calls, inclusive and self time, element counts)
are kept for every call; raw spans only up to ``max_spans``, so a long
traced run keeps bounded memory.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array

_ns = time.perf_counter_ns


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "elems")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.elems = 0


class Tracer:
    """Collects spans while ``active``; wrappers pass straight through otherwise.

    Wrappers made with ``always=True`` record even while inactive; the
    benchmark uses that for the exact oracles, whose time is check time
    and is reported for reference.
    """

    def __init__(self, max_spans: int = 200_000) -> None:
        self.active = False
        self.stats: dict[str, Stat] = {}
        self.context: dict[str, str] = {}
        self._stack: list[list[int]] = []   # [span index, child ns] per open span
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("q")
        self._span_parent = array("q")
        self._span_start = array("q")
        self._span_end = array("q")
        self.max_spans = max_spans
        self.dropped = 0
        self._restore: list[tuple[object, str, object]] = []

    # ── recording ──────────────────────────────────────────────────────

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _open(self, name: str, start: int) -> list[int]:
        idx = -1
        if len(self._span_start) < self.max_spans:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self._names)
                self._names.append(name)
            idx = len(self._span_start)
            self._span_name.append(nid)
            self._span_parent.append(self._stack[-1][0] if self._stack else -1)
            self._span_start.append(start)
            self._span_end.append(start)
        else:
            self.dropped += 1
        frame = [idx, 0]
        self._stack.append(frame)
        return frame

    def _close(self, names: tuple[str, ...], frame: list[int], start: int, elems: int) -> None:
        end = _ns()
        dt = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dt
        if frame[0] >= 0:
            self._span_end[frame[0]] = end
        # The first name owns the self time; further names are aliases
        # (a per-shape or per-binding view) that count calls and time.
        first = True
        for name in names:
            st = self.stat(name)
            st.calls += 1
            st.total_ns += dt
            st.elems += elems
            if first:
                st.self_ns += dt - frame[1]
                first = False

    @contextlib.contextmanager
    def paused(self, name: str):
        """Record the block as one span ``name`` and nothing inside it, so
        its time is not counted as its parent's self time."""
        start = _ns()
        frame = self._open(name, start)
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was
            self._close((name,), frame, start, 0)

    def span(self, name_of, fn, *, elems_of=None, always: bool = False):
        """Wrap ``fn``; ``name_of(args)`` gives the span names of one call."""

        def wrapper(*args, **kwargs):
            if not (self.active or always):
                return fn(*args, **kwargs)
            names = name_of(args)
            start = _ns()
            frame = self._open(names[0], start)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(names, frame, start, elems_of(args) if elems_of else 0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    # ── installing wrappers ────────────────────────────────────────────

    def patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, module, attr: str, name: str | None = None, *,
                      per_binding: bool = False, elems_of=None, always: bool = False) -> None:
        """Wrap ``module.attr`` wherever an ``fpemu`` module binds that object.

        With ``per_binding`` each binding also counts under
        ``<name>@<binding module>``, so callers can be told apart.
        """
        orig = getattr(module, attr)
        base = name or f"{module.__name__.split('.')[-1]}.{attr}"
        for mod in _fpemu_modules():
            if mod.__dict__.get(attr) is orig:
                site = mod.__name__.split(".")[-1]
                names = (base, f"{base}@{site}") if per_binding else (base,)
                self.patch(mod, attr, self.span(lambda _a, n=names: n, orig,
                                                elems_of=elems_of, always=always))

    def wrap_method(self, cls, attr: str, name_of, *, elems_of=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = self.span(lambda a: name_of(a[1:]), raw.__func__, elems_of=elems_of)
            self.patch(cls, attr, classmethod(wrapped))
        else:
            self.patch(cls, attr, self.span(name_of, raw, elems_of=elems_of))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # ── output ─────────────────────────────────────────────────────────

    def self_s(self, *names: str) -> float:
        return sum(self.stats[n].self_ns for n in names if n in self.stats) / 1e9

    def calls(self, *names: str) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def dump(self, path) -> None:
        payload = {
            "names": self._names,
            "columns": ["name", "parent", "start_ns", "end_ns"],
            "spans": [list(t) for t in zip(self._span_name, self._span_parent,
                                           self._span_start, self._span_end)],
            "dropped_spans": self.dropped,
            "stats": {n: {"calls": s.calls, "total_s": s.total_ns / 1e9,
                          "self_s": s.self_ns / 1e9, "elems": s.elems}
                      for n, s in sorted(self.stats.items())},
        }
        with open(path, "w") as f:
            json.dump(payload, f, separators=(",", ":"))


def _fpemu_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "fpemu" or n.startswith("fpemu.")) and m is not None]
