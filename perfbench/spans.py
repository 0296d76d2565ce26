"""Per-layer timing by wrapping module attributes from outside the package.

The solvers import their helpers by name (``from .kronops import
spd_inverse``), so a helper is wrapped at each module attribute a caller
looks up, not only where it is defined. Every wrapped call is a span; a
span's self time is its duration minus the durations of the wrapped calls
made inside it. Spans are summed per (algorithm, layer) in memory.

A site that no longer exists (a module, class or function removed by a
refactor) is recorded as absent and skipped, so the traced run survives.
"""

from __future__ import annotations

import functools
import importlib
import time


class Tracer:
    def __init__(self):
        self.algorithm = None
        self.totals: dict[tuple[str, str], list] = {}
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _resolve(self, owner: str):
        module, _, cls = owner.partition(".")
        try:
            obj = importlib.import_module(f"rsvm.{module}")
        except ImportError:
            return None
        return getattr(obj, cls, None) if cls else obj

    def wrap(self, owner: str, attr: str, layer: str, observe=None) -> None:
        """Time calls through ``rsvm.<owner>.<attr>`` under ``layer``.

        ``observe(args, result)``, when given, runs after each call.
        """
        target = self._resolve(owner)
        fn = getattr(target, attr, None) if target is not None else None
        if not callable(fn):
            self.absent.append(f"rsvm.{owner}.{attr}")
            return
        stack, totals = self._stack, self.totals

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                rec = totals.setdefault((self.algorithm, layer), [0.0, 0.0, 0])
                rec[0] += duration
                rec[1] += duration - frame[0]
                rec[2] += 1
            if observe is not None:
                observe(args, result)
            return result

        setattr(target, attr, traced)
        self._undo.append((target, attr, fn))

    def restore(self) -> None:
        for target, attr, fn in reversed(self._undo):
            setattr(target, attr, fn)
        self._undo.clear()

    def get(self, algorithm: str, layer: str) -> tuple[float, float, int]:
        """(total seconds, self seconds, calls) of one layer under one algorithm."""
        s, self_s, calls = self.totals.get((algorithm, layer), (0.0, 0.0, 0))
        return s, self_s, calls
