"""Outside-in tracing of tessella's layers.

``Tracer.install`` wraps named public functions of the package at run time
and rebinds every module attribute that holds the original function object,
so ``from .pathalg import normalize`` in ``equivariant`` and ``presentation``
is traced as well.  Nothing in the package changes on disk.

Each call records one span: its id, its parent span (per thread), its name,
start and end in nanoseconds, and an integer value computed at the same
boundary (work done, such as points swept or matchings found; -1 when the
call raised).  Spans stay in one flat in-memory array until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.tags: dict[int, str] = {}
        # one record of six int64 per span: id, parent, name, start, end, value
        self._records = array("q")
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self, specs) -> None:
        """Wrap each ``(module, function, value_fn, tag_fn)`` of ``specs``.

        ``value_fn(args, kwargs, result)`` gives the span's work count and
        ``tag_fn(args, kwargs)`` an optional label; either may be None.
        Every original is captured before any binding is replaced.
        """
        originals = [(sys.modules[mod], fn, getattr(sys.modules[mod], fn),
                      value_fn, tag_fn) for mod, fn, value_fn, tag_fn in specs]
        package = [m for name, m in list(sys.modules.items())
                   if name == "tessella" or name.startswith("tessella.")]
        for module, fn, orig, value_fn, tag_fn in originals:
            wrapper = self._wrap(f"{module.__name__.split('.')[-1]}.{fn}",
                                 orig, value_fn, tag_fn)
            for m in package:
                for attr, obj in list(vars(m).items()):
                    if obj is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def _wrap(self, name, fn, value_fn, tag_fn):
        nid = len(self.names)
        self.names.append(name)
        ids, local, clock = self._ids, self._local, time.perf_counter_ns
        record, tags = self._records.extend, self.tags

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            if tag_fn is not None:
                tags[sid] = tag_fn(args, kwargs)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record((sid, parent, nid, t0, clock(), -1))
                stack.pop()
                raise
            t1 = clock()
            stack.pop()
            value = value_fn(args, kwargs, result) if value_fn else 1
            record((sid, parent, nid, t0, t1, value))
            return result

        return wrapper

    # -- results ----------------------------------------------------------------

    def spans(self) -> dict:
        """Column arrays ordered by span id, with ``self_ns`` added: each
        span's duration minus the durations of its direct children."""
        table = np.frombuffer(self._records, dtype=np.int64).reshape(-1, 6)
        table = table[np.argsort(table[:, 0], kind="stable")]
        cols = dict(zip(("sid", "parent", "name", "start", "end", "value"),
                        table.T))
        dur = cols["end"] - cols["start"]
        row = np.full(int(cols["sid"].max()) + 1 if len(dur) else 0, -1,
                      dtype=np.int64)
        row[cols["sid"]] = np.arange(len(dur))
        has_parent = cols["parent"] >= 0
        child_ns = np.bincount(row[cols["parent"][has_parent]],
                               weights=dur[has_parent], minlength=len(dur))
        cols["dur_ns"] = dur
        cols["self_ns"] = dur - child_ns.astype(np.int64)
        return cols

    def save(self, path, cols: dict) -> None:
        """Write the spans once, as one ``.npz`` of columns plus names."""
        np.savez(path, names=np.array(self.names), **cols)
