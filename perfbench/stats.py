"""Summary statistics the benchmark reports.

A timing is reported as a median plus the highest tail percentile that has
at least ten samples beyond it; a percentile without that support is not
reported at all (None), so a reader never sees a p90 read off nine samples.
"""

MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 1] (numpy's default rule)."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no samples")
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_beyond(n, q):
    """How many of n samples lie strictly above the q-th percentile's rank."""
    return n - 1 - int((n - 1) * q)


def tail(values, q):
    """The q-th percentile if at least MIN_BEYOND samples lie beyond it."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return percentile(values, q)

