"""Outside-in tracer: spans recorded by wrapping a program's callables.

A :class:`Tracer` replaces attributes of modules and classes with wrappers
that record one span per call (name, parent span, start, end) and
restores every replaced attribute when tracing ends.  Spans are kept in
flat arrays in memory and written to a file only at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import defaultdict

import numpy as np

__all__ = ["Tracer", "self_times"]


def self_times(parent, name, start, end, n_names: int):
    """Per-name self time and call count of a span tree.

    A span's self time is its duration minus the durations of its direct
    children.  Children run inside their parent on one thread, so their
    durations never overlap and their sum is the part of the parent's
    interval they cover.

    Args:
        parent: Parent span index per span, -1 for a root.
        name: Name index per span, in ``range(n_names)``.
        start, end: Span start and end times in seconds.
        n_names: Number of distinct names.

    Returns:
        (self seconds per name, calls per name), two arrays of n_names.
    """
    parent = np.asarray(parent, dtype=np.int64)
    name = np.asarray(name, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=dur.size)
    own = dur - covered
    return (np.bincount(name, weights=own, minlength=n_names),
            np.bincount(name, minlength=n_names))


class Tracer:
    """Span recorder plus the table of attributes it has patched.

    ``after`` hooks passed to :meth:`patch` see each call's arguments and
    result; they may add to :attr:`counts` and must return the result,
    possibly wrapped (for example a closure the caller will invoke later).
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.end.append(float("nan"))
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block of the caller's own code."""
        sid = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, fn, name: str, after=None):
        """A function that calls ``fn`` inside a span named ``name``."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until :meth:`restore`.

        ``owner`` is a module or a class.  The raw attribute is taken from
        ``owner.__dict__`` so a ``staticmethod`` stays one: a plain function
        in its place would receive the instance as its first argument.
        """
        raw = owner.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(raw.__func__, name, after))
        else:
            replacement = self.wrap(raw, name, after)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every patched attribute, most recent first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def arrays(self):
        """(parent, name, start, end) of every span, copied into numpy arrays.

        Copies, because a view would stop the arrays from growing."""
        return (np.array(self.parent, dtype=np.int64),
                np.array(self.name, dtype=np.int64),
                np.array(self.start, dtype=float),
                np.array(self.end, dtype=float))

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and calls by span name over every recorded span."""
        own, calls = self_times(*self.arrays(), len(self.names))
        return ({n: float(own[i]) for i, n in enumerate(self.names)},
                {n: int(calls[i]) for i, n in enumerate(self.names)})

    def within(self, ancestor: str) -> np.ndarray:
        """Per span: True if a span named ``ancestor`` encloses it."""
        parent, name, _, _ = self.arrays()
        aid = self._ids.get(ancestor, -1)
        inside = np.zeros(parent.size, dtype=bool)
        # Parents are opened before their children, so one forward pass
        # sees each parent's flag before the child needs it.
        for i, p in enumerate(parent.tolist()):
            if p >= 0:
                inside[i] = inside[p] or name[p] == aid
        return inside

    def save(self, path) -> None:
        """Write every span and the name table as a compressed ``.npz``."""
        parent, name, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), parent=parent,
                            name=name, start=start, end=end)
