"""The tail rule the benchmark reports latencies by."""

from __future__ import annotations

#: The tail percentile is the highest one with at least this many
#: samples beyond it.
TAIL_BEYOND = 10


def tail(samples: "list[float]") -> tuple[float, float, int]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples beyond.

    Returns ``(value, level, beyond)``: the sample itself, the share of
    samples at or below its position, and how many samples lie beyond
    it.  With :data:`TAIL_BEYOND` samples or fewer no percentile
    qualifies; the maximum is returned with ``beyond == 0``.
    """
    if not samples:
        raise ValueError("tail of no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 1.0, 0
    index = n - TAIL_BEYOND - 1
    return ordered[index], (index + 1) / n, n - index - 1
