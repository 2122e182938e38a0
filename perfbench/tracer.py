"""Spans around calls into the public functions of the steiner_ekr modules.

The tracer works from outside the package.  It wraps every public function
that a layer module defines and rebinds the wrapper wherever a package module
refers to the original: module attributes (which covers ``from .x import f``)
and module-level dict values (such as the CLI's table of design builders).
A call that crosses into a layer therefore opens a span, whoever makes it,
and spans nest the way the calls do.  Classes and methods are not wrapped;
the benchmark opens its own spans around the class constructors it calls.

Spans are kept in memory as parallel arrays and read after the pass.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

from common import LAYERS


class Tracer:
    """Span recorder: name, parent span, start and end of every traced call.

    ``notes`` maps a span name to ``fn(args, kwargs, outcome) -> value``; the
    value is stored for each span of that name after the span has closed, so
    computing it is never part of the span's own duration.
    """

    def __init__(self, notes=None):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self._note_fns = dict(notes or {})
        self._stack = [-1]
        self._patched: list[tuple[object, object, object]] = []

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one op."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        note = self._note_fns.get(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                self._close(idx)
                if note is not None:
                    self.notes[idx] = note(args, kwargs, outcome)

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap the public functions of every layer module of steiner_ekr."""
        originals: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"steiner_ekr.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                originals[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))

        def swap(obj):
            hit = originals.get(id(obj))
            return hit[1] if hit is not None and hit[0] is obj else None

        package = [m for n, m in sys.modules.items() if n == "steiner_ekr" or n.startswith("steiner_ekr.")]
        for mod in package:
            for attr, obj in list(vars(mod).items()):
                new = swap(obj)
                if new is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, new)
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, val in list(obj.items()):
                        new = swap(val)
                        if new is not None:
                            self._patched.append((obj, key, val))
                            obj[key] = new

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patched.clear()

    # -- reading spans -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def outermost(self, names) -> list[int]:
        """Spans with a name in ``names`` that have no ancestor in ``names``."""
        wanted = {self._ids[n] for n in names if n in self._ids}
        out = []
        for idx in range(len(self)):
            if self.name_id[idx] not in wanted:
                continue
            up = self.parent[idx]
            while up >= 0 and self.name_id[up] not in wanted:
                up = self.parent[up]
            if up < 0:
                out.append(idx)
        return out

    def within(self, idx: int, names) -> bool:
        """True when some ancestor of span ``idx`` has a name in ``names``."""
        wanted = {self._ids[n] for n in names if n in self._ids}
        up = self.parent[idx]
        while up >= 0:
            if self.name_id[up] in wanted:
                return True
            up = self.parent[up]
        return False

    def self_times(self) -> list[float]:
        """Per span, its duration minus the durations of its direct children."""
        own = [self.end[i] - self.start[i] for i in range(len(self))]
        for idx in range(len(self)):
            up = self.parent[idx]
            if up >= 0:
                own[up] -= self.end[idx] - self.start[idx]
        return own
