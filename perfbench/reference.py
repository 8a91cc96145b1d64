"""A fixed reference task that measures how fast the machine runs right now.

The CPU speed this benchmark gets from a shared host drifts by 10-20% over
tens of seconds, for every kind of Python code alike.  In the untimed gap
after each op the worker runs :func:`chunk` once and times it.  The chunk
does the same kind of work as ``mnseries`` (exact fractions, tuples, dicts,
sorting, text formatting and parsing) but uses only the standard library,
so no change to ``mnseries`` can alter its cost.

:func:`scaled` turns op latencies into latencies at the reference speed: an
op's time times ``CHUNK_S`` over the mean chunk time of the ops around it.
``CHUNK_S`` is the median chunk time on the 2-vCPU machine the benchmark was
tuned on, so there a scaled time reads close to the raw one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from time import perf_counter
from typing import List, Sequence

# median seconds of one chunk on the machine the benchmark was tuned on
CHUNK_S = 0.0080
# a latency is scaled by the chunks of the WINDOW ops before and after it
WINDOW = 8
POINTS = 320
_TERM = re.compile(r"(-?\d+)/(\d+)@(\d+)")


def _points() -> List[tuple]:
    """POINTS fixed points (i, q_i) with exact rational heights."""
    return [(i, Fraction((i * 7919) % 1009 + 1, (i * 104729) % 97 + 1)) for i in range(1, POINTS + 1)]


def chunk() -> int:
    """One unit of fixed work; returns a checksum so nothing is optimised away."""
    pts = _points()
    hull: List[tuple] = []
    for p in sorted(pts):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    minima = [min(q + Fraction(1, 2**k) * i for i, q in hull) for k in range(4, 11)]
    text = " + ".join(f"{q.numerator}/{q.denominator}@{i}" for i, q in pts)
    back = {int(i): Fraction(int(n), int(d)) for n, d, i in _TERM.findall(text)}
    by_den: dict = {}
    for q in back.values():
        by_den[q.denominator] = by_den.get(q.denominator, 0) + q.numerator
    return len(hull) + sum(m.denominator for m in minima) % 1000 + len(by_den)


def timed_chunk() -> float:
    t0 = perf_counter()
    chunk()
    return perf_counter() - t0


def scaled(latencies: Sequence[float], chunks: Sequence[float]) -> List[float]:
    """Each latency at the reference speed, by the mean chunk time near it."""
    if len(chunks) != len(latencies):
        raise ValueError("one chunk time per op is needed")
    # prefix sums give each window's mean in O(1)
    prefix = [0.0]
    for c in chunks:
        prefix.append(prefix[-1] + c)
    out = []
    n = len(chunks)
    for i, dt in enumerate(latencies):
        lo, hi = max(0, i - WINDOW), min(n, i + WINDOW + 1)
        out.append(dt * CHUNK_S * (hi - lo) / (prefix[hi] - prefix[lo]))
    return out
