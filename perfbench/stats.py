"""Order statistics shared by the benchmark and its tests."""

import statistics

# The tail is the highest percentile that still has this many samples above it.
TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(values, beyond: int = TAIL_BEYOND):
    """Highest percentile of ``values`` with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n_beyond)`` where ``value`` is the sample at
    that rank, ``percentile`` is the share of samples at or below that rank in
    percent, and ``n_beyond`` is the number of samples ranked above it.  With
    ``beyond`` or fewer samples no rank qualifies; the smallest sample, the
    rank with the most samples above it, stands in, as it does at exactly
    ``beyond + 1`` samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, n - beyond)  # 1-based
    return float(ordered[rank - 1]), 100.0 * rank / n, n - rank

