"""In-memory spans recorded around wrapped calls.

A span has a name, a start, an end and the index of the span that was open
when it began (its parent). Spans stay in memory until the caller writes them
out. The program is single-threaded, so child spans never overlap and a span's
self time is its duration minus the summed durations of its children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        #: per-name work totals reported by ``tally`` callbacks (steps, ...)
        self.tallies: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def reset(self) -> None:
        for seq in (self.names, self.starts, self.ends, self.parents, self._stack):
            seq.clear()
        self.tallies.clear()

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn, tally=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``tally(result)``, when given, adds the work the call did to
        ``tallies[name]``.
        """
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = self.clock
        tallies = self.tallies

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if tally is not None:
                tallies[name] += tally(result)
            return result

        return wrapper

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += dur[i]
        return [d - c for d, c in zip(dur, covered)]

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total duration, total self time)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, dur, own in zip(self.names, self.durations(), self.self_times()):
            row = out[name]
            row[0] += 1
            row[1] += dur
            row[2] += own
        return {name: (row[0], row[1], row[2]) for name, row in out.items()}

    def write_csv(self, path: str) -> None:
        """Write every span, times relative to the first span's start."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s\n")
            for i, own in enumerate(self.self_times()):
                fh.write(
                    f"{i},{self.parents[i]},{self.names[i]},"
                    f"{self.starts[i] - origin:.9f},{self.ends[i] - origin:.9f},{own:.9f}\n"
                )
