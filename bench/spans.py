"""In-memory span recorder and the patching that points it at the library.

A traced run wraps named functions and methods of `framedynamo` with span
recorders. Each call opens a span (id, parent id, name, start, end); the
tracer keeps per-name totals as it goes:

* ``calls``   -- number of spans with that name;
* ``total_s`` -- sum of their durations;
* ``self_s``  -- sum of their durations minus the time covered by their
  direct child spans (children nest strictly inside a parent on one thread,
  so the covered time is the sum of the children's durations).

Counters that are not spans (flop, bytes, steps, ...) are added under the
same names by annotation callbacks. Spans are kept in memory and written
out by the caller when the run ends.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Iterable


class Tracer:
    """Records nested spans and per-name call counts, times and counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.stats: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self._stack: list[list] = []  # [span id, child time] per open span
        self._next_id = 0

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             annotate: Callable | None = None):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            st = self.stats[name]
            st["calls"] += 1
            st["total_s"] += duration
            st["self_s"] += duration - frame[1]
            self.spans.append((frame[0], parent, name, start, end))
        if annotate is not None:
            self.count(name, annotate(args, kwargs, result))
        return result

    def count(self, name: str, counters: dict[str, float]) -> None:
        for key, value in counters.items():
            self.stats[name][key] += value

    def write(self, path, meta: dict) -> None:
        """Write every span, gzip-compressed JSON, with a metadata header."""
        with gzip.open(path, "wt") as fh:
            json.dump({**meta, "fields": ["id", "parent", "name", "start_s",
                                          "end_s"],
                       "spans": self.spans}, fh)


@dataclass(frozen=True)
class Target:
    """One library function or method to wrap.

    `where` is "module:attr" or "module:Class.method". With `span` set the
    call becomes a span of that name; with `span` None only `counters` is
    applied (no span, so the time stays with the caller's self time).
    `counters(args, kwargs, result)` returns counters to add under
    `counter_name` (defaults to the span name).
    """

    where: str
    span: str | None
    counters: Callable | None = None
    counter_name: str | None = None


def _resolve(where: str):
    module_name, _, attr = where.partition(":")
    owner = import_module(module_name)
    *outer, name = attr.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def _wrapper(tracer: Tracer, target: Target, original: Callable) -> Callable:
    if target.span is not None:
        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            return tracer.call(target.span, original, args, kwargs,
                               target.counters)
    else:
        name = target.counter_name

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            result = original(*args, **kwargs)
            tracer.count(name, target.counters(args, kwargs, result))
            return result
    return wrapped


@contextmanager
def traced(tracer: Tracer, targets: Iterable[Target]):
    """Wrap every target for the duration of the block, then restore.

    A module-level function is replaced in every loaded `framedynamo`
    module that binds the same object
    (e.g. `spectral_derivative` in both `differentiation` and
    `frame_calculus`). A method is replaced on its class. Targets that do
    not exist are returned in the yielded list instead of raising, so a
    refactor that renames one shows up as a missing target, not a crash.
    """
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for target in targets:
            try:
                owner, name = _resolve(target.where)
                original = vars(owner)[name]
            except (ImportError, AttributeError, KeyError):
                missing.append(target.where)
                continue
            wrapped = _wrapper(tracer, target, original)
            if isinstance(owner, type):
                undo.append((owner, name, original))
                setattr(owner, name, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("framedynamo"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        yield missing
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
