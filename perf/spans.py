"""Spans recorded from outside the program.

The benchmark measures ``src/repro`` without editing it: a
:class:`SpanRecorder` replaces chosen attributes (methods on a class,
or a function bound in a module namespace) with timing wrappers for the
length of one traced repeat, then puts the originals back.  The
recorder keeps a stack of open spans, so every span knows the span
that caused it, and a span's *self* time is its duration minus the
part its child spans cover.  Nested and re-entrant calls
(``verify_quorum`` -> ``verify``, a recursive ``handle_payload``) are
therefore counted once in self time, which is the only figure the
per-layer metrics add up.

Two kinds of span:

* *fine* spans fire millions of times, so they are aggregated in
  memory by (layer, function, parent layer) -> (count, total, self);
* *coarse* spans (deployment assembly, execution, oracle, record
  building, each sweep cell) are few and kept one by one with start,
  end and the index of the coarse span that caused them.

Everything stays in memory until the traced repeat ends and the child
writes it out.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

FineKey = Tuple[str, str, Optional[str]]


class SpanRecorder:
    """A span stack plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        # Open spans, innermost last: [layer, child seconds, coarse index].
        self._stack: List[List[Any]] = []
        self.fine: Dict[FineKey, List[float]] = {}
        self.coarse: List[Dict[str, Any]] = []
        self._installed: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, layer: str, name: str, coarse: bool) -> List[Any]:
        index = None
        if coarse:
            parent = next(
                (frame[2] for frame in reversed(self._stack) if frame[2] is not None),
                None,
            )
            index = len(self.coarse)
            self.coarse.append(
                {"layer": layer, "name": name, "parent": parent, "start": 0.0, "end": 0.0}
            )
        frame = [layer, 0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, frame: List[Any], name: str, start: float, end: float) -> None:
        stack = self._stack
        stack.pop()
        elapsed = end - start
        parent_layer = None
        if stack:
            stack[-1][1] += elapsed
            parent_layer = stack[-1][0]
        if frame[2] is not None:
            entry = self.coarse[frame[2]]
            entry["start"], entry["end"] = start, end
            entry["self"] = elapsed - frame[1]
            return
        key = (frame[0], name, parent_layer)
        cell = self.fine.get(key)
        if cell is None:
            cell = self.fine[key] = [0, 0.0, 0.0]
        cell[0] += 1
        cell[1] += elapsed
        cell[2] += elapsed - frame[1]

    def wrap(
        self,
        func: Callable[..., Any],
        layer: str,
        name: str,
        coarse: bool = False,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        """A callable that runs ``func`` inside a span.

        ``after`` (coarse spans only) is handed the return value once
        the span is closed, so reading counters off a finished run is
        not billed to the span itself.
        """
        clock, open_span, close_span = self._clock, self._open, self._close

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = open_span(layer, name, coarse)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                close_span(frame, name, start, clock())
            if after is not None:
                after(result)
            return result

        return functools.update_wrapper(wrapper, func)

    # ------------------------------------------------------------------
    # Installing and removing wrappers
    # ------------------------------------------------------------------
    def install(
        self,
        owner: Any,
        attr: str,
        layer: str,
        coarse: bool = False,
        after: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class's method, classmethod, or a
        function bound in a module) with a span wrapper.

        Only attributes ``owner`` defines itself are wrapped, so a
        subclass inheriting a wrapped method is not wrapped twice.
        """
        namespace = vars(owner)
        if attr not in namespace:
            raise AttributeError(f"{owner!r} does not define {attr!r}")
        original = namespace[attr]
        label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        if isinstance(original, classmethod):
            replacement: Any = classmethod(
                self.wrap(original.__func__, layer, label, coarse, after)
            )
        elif isinstance(original, (staticmethod, property)):
            raise TypeError(f"cannot wrap {label}: not a plain function")
        else:
            replacement = self.wrap(original, layer, label, coarse, after)
        setattr(owner, attr, replacement)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Reading the aggregates
    # ------------------------------------------------------------------
    def self_seconds(self, layer: str, *names: str) -> float:
        """Self time of ``layer`` (of the named functions, if given)."""
        return sum(
            cell[2]
            for (span_layer, name, _), cell in self.fine.items()
            if span_layer == layer and (not names or name in names)
        ) + sum(
            entry["self"]
            for entry in self.coarse
            if entry["layer"] == layer and (not names or entry["name"] in names)
        )

    def calls(self, layer: str, *names: str) -> int:
        """How many fine spans of ``layer`` (and ``names``) closed."""
        return int(sum(
            cell[0]
            for (span_layer, name, _), cell in self.fine.items()
            if span_layer == layer and (not names or name in names)
        ))

    def total_seconds(self, layer: str, *names: str) -> float:
        """Inclusive time of the outermost spans of ``layer``: spans
        whose parent is in the same layer are already inside another
        span being summed and are skipped."""
        return sum(
            cell[1]
            for (span_layer, name, parent), cell in self.fine.items()
            if span_layer == layer and parent != layer and (not names or name in names)
        ) + sum(
            entry["end"] - entry["start"]
            for entry in self.coarse
            if entry["layer"] == layer and (not names or entry["name"] in names)
        )

    def export(self) -> Dict[str, Any]:
        """The JSON form written to ``--out``."""
        fine = [
            {"layer": layer, "function": name, "parent_layer": parent,
             "count": int(cell[0]), "total_s": cell[1], "self_s": cell[2]}
            for (layer, name, parent), cell in sorted(
                self.fine.items(), key=lambda item: -item[1][2]
            )
        ]
        return {"fine": fine, "coarse": list(self.coarse)}
