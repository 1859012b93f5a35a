"""Attribute patching and in-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's side: a library name is replaced,
where the library looks it up, by a wrapper that opens a span around the
call. Module attributes are patched on the module; methods are patched on
the single instance the benchmark built. Every patch is undone by
`Patcher.restore`, which also reports any attribute it could not restore.
"""

from __future__ import annotations

import json
import time
from functools import wraps

_MISSING = object()


class Patcher:
    """Replaces attributes and puts every original back, newest first."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr: str, make):
        """Set owner.attr to make(current value), remembering what to restore."""
        saved = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, make(getattr(owner, attr)))
        self._undo.append((owner, attr, saved))

    def depth(self) -> int:
        return len(self._undo)

    def restore(self, depth: int = 0) -> list:
        """Undo the patches made since `depth`, newest first; return the
        names that did not come back."""
        originals = {}
        while len(self._undo) > depth:
            owner, attr, saved = self._undo.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
            # the first patch of an attribute is undone last and saved the original
            originals[id(owner), attr] = (owner, attr, saved)
        return [
            f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}"
            for owner, attr, saved in originals.values()
            if vars(owner).get(attr, _MISSING) is not saved
        ]


class Tracer:
    """Spans (name, start, end, parent index) kept in memory until the end."""

    def __init__(self):
        self.spans = []
        self.paused = False
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    def summary(self) -> dict:
        """Per span name: call count and self time in ms (duration minus the
        time covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            calls, self_ms = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_ms + 1000 * (end - start - child_time[idx]))
        return out

    def count_nested(self, name: str, ancestor: str) -> int:
        """Spans called `name` that run inside some span called `ancestor`."""
        count = 0
        for span_name, _, _, parent in self.spans:
            if span_name != name:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count

    def write(self, path):
        """Write every span as one JSON line; times are ms from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                row = {
                    "id": idx,
                    "parent": parent,
                    "name": name,
                    "start_ms": round(1000 * (start - t0), 4),
                    "end_ms": round(1000 * (end - t0), 4),
                }
                fh.write(json.dumps(row) + "\n")
