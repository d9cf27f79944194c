"""Per-layer tracing from outside the program.

A :class:`LayerTracer` replaces a layer's public functions (module
attributes, at every import site that binds them by name) and methods
(class attributes) with wrappers that record one interval per call.
It also replaces the ``span`` name a module imported from
:mod:`repro.obs`, so the program's existing spans land in the same
interval list.  Nothing in ``src/`` changes: :meth:`LayerTracer.close`
puts every original back.

All intervals come from one thread and one clock, so they nest
properly.  :func:`self_times` rebuilds the nesting and charges each
interval its *self* time — its duration minus the time covered by the
intervals directly inside it — so layer times add up instead of
counting nested calls twice.  The self time of a measured window
(:meth:`LayerTracer.window`) is the time no traced layer accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable

_clock = time.perf_counter

#: Interval name of a measured region (see :meth:`LayerTracer.window`).
WINDOW = "window"


class LayerTracer:
    """Records ``(start, end, name)`` for every wrapped call or span."""

    def __init__(self) -> None:
        self.intervals: list[tuple[float, float, str]] = []
        #: Off while the benchmark checks outputs: calls go straight
        #: through and record nothing.
        self.enabled = True
        self._restore: list[tuple[object, str, object]] = []

    # -- installing --------------------------------------------------
    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_call: Callable[..., None] | None = None,
    ) -> None:
        """Record every call of ``owner.attr`` as an interval ``name``.

        ``owner`` is a module or a class.  ``on_call(result, *args,
        **kwargs)`` runs after each call that returned, outside the
        timed interval, for counts that need the arguments or result.
        """
        original = owner.__dict__[attr]
        intervals = self.intervals

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            start = _clock()
            try:
                result = original(*args, **kwargs)
            finally:
                intervals.append((start, _clock(), name))
            if on_call is not None:
                on_call(result, *args, **kwargs)
            return result

        self._patch(owner, attr, traced)

    def wrap_spans(self, module: object) -> None:
        """Record the program's own ``span(...)`` regions in ``module``."""
        original = module.__dict__["span"]
        intervals = self.intervals

        @contextlib.contextmanager
        def traced_span(name: str, **attrs: object):
            if not self.enabled:
                with original(name, **attrs):
                    yield
                return
            start = _clock()
            try:
                with original(name, **attrs):
                    yield
            finally:
                intervals.append((start, _clock(), name))

        self._patch(module, "span", traced_span)

    @contextlib.contextmanager
    def window(self):
        """Mark a measured region; its self time is the unattributed rest."""
        start = _clock()
        try:
            yield
        finally:
            self.intervals.append((start, _clock(), WINDOW))

    @contextlib.contextmanager
    def paused(self):
        """Let wrapped calls through unrecorded (output checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def close(self) -> None:
        """Put every wrapped attribute back (last patched first)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def self_times(
    intervals: list[tuple[float, float, str]],
    rename: Callable[[str, list[str]], str] | None = None,
) -> tuple[dict[str, float], dict[str, int]]:
    """Self time and count per interval name.

    Returns ``(self_s, counts)``: ``self_s[name]`` sums the self time of
    every interval called ``name``.  ``rename(name, child_names)`` may
    file an interval under another name once its direct children are
    known.
    """
    ordered = sorted(intervals, key=lambda iv: (iv[0], -iv[1]))
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    # Stack entries: [end, name, child time, child names, start].
    stack: list[list] = []

    def finish(entry: list) -> None:
        end, name, child_s, kids, start = entry
        if rename is not None:
            name = rename(name, kids)
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s
        counts[name] = counts.get(name, 0) + 1

    for start, end, name in ordered:
        while stack and start >= stack[-1][0]:
            finish(stack.pop())
        if stack:
            stack[-1][2] += end - start
            stack[-1][3].append(name)
        stack.append([end, name, 0.0, [], start])
    while stack:
        finish(stack.pop())
    return self_s, counts
