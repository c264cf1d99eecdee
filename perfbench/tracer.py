"""In-memory span recorder that wraps a program's functions from outside.

A :class:`Tracer` records one span per call of every function it wraps:
name, start, end, parent span and run id.  Spans are kept in flat arrays
while the benchmark runs and written out once, when it ends.  Nothing in
the traced program is edited; :meth:`Tracer.patch` swaps an attribute for
a timing wrapper and :meth:`Tracer.restore` puts every original back.

Self time is a span's duration minus the part of it that its child spans
cover (see :func:`self_times`).
"""

from __future__ import annotations

import functools
import gzip
import json
from array import array
from collections.abc import Callable, Sequence
from time import perf_counter
from typing import Any

#: Attribute set on every wrapper, holding its span name.
SPAN_ATTR = "__perfbench_span__"


class Tracer:
    """Records nested spans of wrapped calls into flat in-memory arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.runs: list[str] = []
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.run_id = array("l")
        self._stack: list[int] = []
        self._run = -1
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------ #

    def begin_run(self, label: str) -> int:
        """Start a new run id that later spans carry; returns the next span index."""
        self.runs.append(label)
        self._run = len(self.runs) - 1
        return len(self.start)

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run_id.append(self._run)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self._stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        """Close span ``idx``, which must be the innermost open span."""
        self.end[idx] = perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is innermost")

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        setattr(traced, SPAN_ATTR, name)
        return traced

    # -- patching ------------------------------------------------------- #

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_span(self, owner: Any, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so each call records a span called ``name``."""
        self.patch(owner, attr, self.wrap(getattr(owner, attr), name))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------- #

    def __len__(self) -> int:
        return len(self.start)

    def span_range(self, lo: int, hi: int) -> list[tuple[str, int, float, float]]:
        """``(name, parent, start, end)`` of spans ``lo .. hi-1``."""
        names = self.names
        return [
            (names[self.name_id[i]], self.parent[i], self.start[i], self.end[i])
            for i in range(lo, hi)
        ]

    def write_jsonl_gz(self, path: str) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for i in range(len(self.start)):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": self.parent[i],
                            "name": self.names[self.name_id[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "run": self.runs[self.run_id[i]],
                        }
                    )
                )
                out.write("\n")


def self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float], offset: int = 0
) -> list[float]:
    """Per-span duration minus the time its children cover.

    Span ``i`` has parent ``parents[i]`` (an absolute index, ``-1`` for a
    root); ``offset`` is the absolute index of span 0, so a contiguous
    slice of a larger trace can be processed alone.  Children are clipped
    to their parent's interval and overlapping children count once.
    """
    n = len(starts)
    out = [ends[i] - starts[i] for i in range(n)]
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        local = p - offset
        if 0 <= local < n:
            children.setdefault(local, []).append(i)
    for p, kids in children.items():
        kids.sort(key=starts.__getitem__)
        p_start, p_end = starts[p], ends[p]
        covered = 0.0
        cur_start = cur_end = None
        for k in kids:
            s = max(starts[k], p_start)
            e = min(ends[k], p_end)
            if e <= s:
                continue
            if cur_end is None or s > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = s, e
            elif e > cur_end:
                cur_end = e
        if cur_end is not None:
            covered += cur_end - cur_start
        out[p] -= covered
    return out
