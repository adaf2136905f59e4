"""Order statistics and span arithmetic used by the report."""

from __future__ import annotations

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float] | None:
    """Value at the highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile), or None with too few samples.  With n
    samples in ascending order the value is the (n - TAIL_BEYOND)-th, and
    its percentile is the share of samples at or below it.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
        reach = max(reach, end)
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    spans holds [name, start, end, parent index or None].
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [
        (end - start) - covered(kids, start, end)
        for (_, start, end, _), kids in zip(spans, children)
    ]
