"""In-memory spans recorded from the benchmark's side of each layer.

The program is not edited: a :class:`Tracer` wraps module attributes
(functions, methods, a class constructor) for the duration of a
``with tracer.patched(...)`` block and records one span per call. A
span carries its name, start, end, parent span and the operation (or
request) id it belongs to; spans stay in memory until :meth:`dump`
writes them at the end of the run. Self time — a span's duration minus
the part its child spans cover — is derived from them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None, **attrs: Any) -> Iterator[dict]:
        """Record the enclosed block as one span; yields its attribute dict."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = getattr(self._local, "op", None)
        record: dict[str, Any] = {"name": name, "parent": parent, "op": op, **attrs}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        previous_op = getattr(self._local, "op", None)
        self._local.op = op
        record["start"] = time.perf_counter() - self._epoch
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._epoch
            stack.pop()
            self._local.op = previous_op

    def wrap(
        self,
        function: Callable,
        name: str,
        observe: Callable[[dict, tuple, Any], None] | None = None,
    ) -> Callable:
        """*function* with every call recorded as a span named *name*.

        *observe*, when given, sees ``(span, args, result)`` after each
        call, so counts are taken where the work happens.
        """

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if observe is not None:
                    observe(record, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets: list[tuple[Any, str, str, Callable | None]]) -> Iterator[None]:
        """Wrap ``owner.attribute`` for each ``(owner, attribute, span, observe)``."""
        saved = []
        try:
            for owner, attribute, name, observe in targets:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, self.wrap(original, name, observe))
            yield
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------------

    def finished(self) -> list[dict[str, Any]]:
        return [span for span in self.spans if "end" in span]

    def self_seconds(self, name: str) -> float:
        """Total self time of every span called *name*."""
        spans = self.finished()
        child_time: dict[int, float] = {}
        for span in spans:
            if span["parent"] is not None:
                duration = span["end"] - span["start"]
                child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + duration
        return sum(
            span["end"] - span["start"] - child_time.get(span["id"], 0.0)
            for span in spans
            if span["name"] == name
        )

    def total_seconds(self, name: str) -> float:
        """Total wall time of every span called *name* (children included)."""
        return sum(s["end"] - s["start"] for s in self.finished() if s["name"] == name)

    def absorb(self, other: "Tracer") -> None:
        """Append *other*'s finished spans, renumbered to follow ours."""
        offset = len(self.spans)
        for span in other.finished():
            copy = dict(span, id=span["id"] + offset)
            if copy["parent"] is not None:
                copy["parent"] += offset
            self.spans.append(copy)

    def dump(self, path: Path) -> None:
        names = sorted({span["name"] for span in self.finished()})
        payload = {
            "spans": self.finished(),
            "self_seconds": {name: self.self_seconds(name) for name in names},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, default=repr), encoding="ascii")
