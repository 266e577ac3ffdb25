"""Pure helpers for turning raw timestamps and spans into benchmark numbers."""

from __future__ import annotations

from typing import Optional, Sequence

# Span tuple layout shared with tracing.Tracer: [name, start, end, parent, step, phase].
NAME, START, END, PARENT, STEP, PHASE = range(6)


def step_times(
    start: float, writes: Sequence[float], evals: Sequence[tuple[float, float]]
) -> list[float]:
    """Per-step seconds from a step sink's write times.

    ``train_loop`` writes one line per finished step, so step ``i`` spans the
    gap from the previous write (or the loop's start) to write ``i``. Dev
    evaluations run inside those gaps; their (start, end) intervals are
    subtracted from the gap that contains them.
    """
    out: list[float] = []
    prev = start
    for w in writes:
        gap = w - prev
        for e0, e1 in evals:
            gap -= max(0.0, min(e1, w) - max(e0, prev))
        out.append(gap)
        prev = w
    return out


def tail_percentile(samples: Sequence[float], beyond: int = 10) -> Optional[tuple[int, float]]:
    """Highest whole percentile that still has ``beyond`` samples above it.

    Uses the nearest-rank percentile. Returns (percentile, value), or None
    when there are too few samples for any percentile from 50 up.
    """
    xs = sorted(samples)
    n = len(xs)
    for q in range(99, 49, -1):
        value = xs[max(0, -(-q * n // 100) - 1)]   # nearest rank: ceil(q * n / 100)
        if sum(1 for x in xs if x > value) >= beyond:
            return q, value
    return None


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are single-threaded and properly nested, so children of one span
    never overlap and their durations add up to the part they cover.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
