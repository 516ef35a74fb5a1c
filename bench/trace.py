"""In-memory span tracer for the benchmark's traced runs.

The tracer never edits ``src/``: it replaces bound methods on *instances the
benchmark built* (an engine, its batcher, the encoder's layers, the
dispatcher's backends, KV handles) with thin wrappers that record one span
per call.  A span is ``(name, start, end, parent, tag, a, b)``:

* ``parent`` is the index of the span that was open when this one started,
  so self time (span minus the part its children cover) falls out of one
  pass over the list;
* ``tag`` is whatever the driver put in :attr:`Tracer.tag` before the call —
  the step index or window index — so the spans of one step share an id;
* ``a`` / ``b`` are two free numeric slots a wrapper may fill (columns and
  dense-equivalent FLOPs of a kernel call, for instance).

Spans stay in parallel Python lists while the run is timed and are written
as JSONL only after it ends.  One driver thread, so the open-span stack is a
plain list.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np


class Tracer:
    """Span recorder plus the instance-method wrapping that feeds it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self.code: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.tags: List[int] = []
        self.a: List[float] = []
        self.b: List[float] = []
        self._open: List[int] = []
        #: Set by the driver before each engine call; copied into every span.
        self.tag = -1
        #: (object, attribute) pairs currently wrapped, for :meth:`detach`.
        self._wrapped: List[Tuple[object, str]] = []
        self._wrapped_keys: set = set()
        #: Input-shape histograms the wrappers fill for the replay metrics.
        self.shapes: Dict[str, Dict[tuple, int]] = {}
        self._arrays: Optional[Dict[str, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def code_of(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def known_code(self, name: str) -> Optional[int]:
        """The code of a name that has been recorded, else ``None``."""
        return self._codes.get(name)

    def begin(self, code: int, a: float = 0.0, b: float = 0.0) -> int:
        index = len(self.code)
        self.code.append(code)
        self.parent.append(self._open[-1] if self._open else -1)
        self.tags.append(self.tag)
        self.a.append(a)
        self.b.append(b)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one span around a block (the driver's roots); yields its index."""
        index = self.begin(self.code_of(name))
        try:
            yield index
        finally:
            self.finish(index)

    def count_shape(self, kind: str, shape: tuple) -> None:
        hist = self.shapes.setdefault(kind, {})
        hist[shape] = hist.get(shape, 0) + 1

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        obj: object,
        attr: str,
        name: str,
        before: Optional[Callable[..., Optional[Tuple[float, float]]]] = None,
        after: Optional[Callable[[object], Optional[float]]] = None,
        name_fn: Optional[Callable[..., str]] = None,
    ) -> None:
        """Replace ``obj.attr`` with a span-recording wrapper.

        ``before(*args, **kwargs)`` may return ``(a, b)`` for the span's
        numeric slots (or ``None``); ``after(result)`` sees the return value
        (used to wrap the KV handle ``create`` hands back) and may return a
        number to store in slot ``b``; ``name_fn`` picks the span name per
        call (prefill vs decode forward steps).
        """
        if (id(obj), attr) in self._wrapped_keys:
            return
        inner = getattr(obj, attr)
        code = self.code_of(name)
        begin, finish, code_of, slot_b = self.begin, self.finish, self.code_of, self.b

        if before is None and after is None and name_fn is None:
            # The common case, kept as short as a wrapper can be: the
            # tracer's own cost is what bench.trace_overhead_frac reports.
            def traced(*args, **kwargs):
                index = begin(code)
                try:
                    return inner(*args, **kwargs)
                finally:
                    finish(index)
        else:
            def traced(*args, **kwargs):
                ab = before(*args, **kwargs) if before is not None else None
                this = code if name_fn is None else code_of(name_fn(*args, **kwargs))
                index = begin(this, *ab) if ab else begin(this)
                try:
                    result = inner(*args, **kwargs)
                finally:
                    finish(index)
                if after is not None:
                    noted = after(result)
                    if noted is not None:
                        slot_b[index] = noted
                return result

        setattr(obj, attr, traced)
        self._wrapped.append((obj, attr))
        self._wrapped_keys.add((id(obj), attr))

    def detach(self) -> None:
        """Drop every wrapper, restoring the class's own methods."""
        for obj, attr in self._wrapped:
            delattr(obj, attr)
        self._wrapped.clear()
        self._wrapped_keys.clear()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        """The span table as arrays, plus per-span self time (seconds).

        Kept until another span is recorded: the reductions build several
        tables over the same half-million spans.
        """
        if self._arrays is not None and self._arrays["code"].size == len(self.code):
            return self._arrays
        start = np.asarray(self.start, dtype=np.float64)
        end = np.asarray(self.end, dtype=np.float64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self._arrays = {
            "code": np.asarray(self.code, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "tag": np.asarray(self.tags, dtype=np.int64),
            "a": np.asarray(self.a, dtype=np.float64),
            "b": np.asarray(self.b, dtype=np.float64),
            "dur": dur,
            "self": dur - child,
        }
        return self._arrays

    def under(self, root_index: int, arrays: Dict[str, np.ndarray]) -> np.ndarray:
        """Boolean mask of the spans inside ``root_index`` (itself included).

        Spans are appended in start order and a root closes after all its
        descendants, so "inside" is an index range test on start time.
        """
        inside = (arrays["start"] >= arrays["start"][root_index]) & (
            arrays["end"] <= arrays["end"][root_index]
        )
        inside[:root_index] = False
        return inside

    def write_jsonl(self, path: str) -> None:
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.code)):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": names[self.code[i]],
                            "start": self.start[i],
                            "end": self.end[i],
                            "parent": self.parent[i],
                            "tag": self.tags[i],
                            "a": self.a[i],
                            "b": self.b[i],
                        }
                    )
                )
                handle.write("\n")


class Table:
    """Per-name aggregates over the spans under one root."""

    def __init__(self, tracer: Tracer, root_index: int) -> None:
        self.tracer = tracer
        self.arrays = tracer.arrays()
        self.mask = tracer.under(root_index, self.arrays)
        self.root_s = float(self.arrays["dur"][root_index])

    def select(self, name: str) -> np.ndarray:
        """Indices of the spans called ``name`` under the root."""
        code = self.tracer.known_code(name)
        if code is None:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.mask & (self.arrays["code"] == code))

    def calls(self, name: str) -> int:
        return int(self.select(name).size)

    def total_s(self, name: str) -> float:
        return float(self.arrays["dur"][self.select(name)].sum())

    def self_s(self, name: str) -> float:
        return float(self.arrays["self"][self.select(name)].sum())

    def durations(self, name: str) -> np.ndarray:
        return self.arrays["dur"][self.select(name)]

    def selfs(self, name: str) -> np.ndarray:
        return self.arrays["self"][self.select(name)]

    def self_by_name(self) -> Dict[str, Tuple[int, float]]:
        """``{name: (calls, self seconds)}`` for every name under the root."""
        codes = self.arrays["code"][self.mask]
        selfs = self.arrays["self"][self.mask]
        out: Dict[str, Tuple[int, float]] = {}
        for code in np.unique(codes):
            pick = codes == code
            out[self.tracer.names[int(code)]] = (int(pick.sum()), float(selfs[pick].sum()))
        return out
