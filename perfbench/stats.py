"""Statistics of the benchmark: medians, quartile spreads and the check
that two sets of runs agree.

A metric's spread is the distance between its first and third quartile
(as ``statistics.quantiles(values, n=4)`` gives them) as a share of its
median.  Two sets of runs of one metric agree when neither set spreads
wider than the metric's bound and the second median is not worse than
the first by more than the bound.
"""

import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def worsening(base, new, better):
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if better == "lower":
        return (new - base) / base
    return (base - new) / base


def agree(base_values, new_values, bound, better):
    """Compares two sets of runs of one metric.

    Returns (ok, reason).  Not ok when a set spreads wider than ``bound``
    (the difference cannot be resolved) or when the medians differ by
    more than ``bound`` in either direction: two sets of runs of the same
    code must agree, and a change that moves a metric further than its
    bound must show.
    """
    for name, values in (("base", base_values), ("new", new_values)):
        s = spread(values)
        if s > bound:
            return False, f"{name} spread {s:.3f} exceeds bound {bound}"
    w = worsening(median(base_values), median(new_values), better)
    direction = "worse" if w > 0 else "better"
    if abs(w) > bound:
        return False, f"median {direction} by {abs(w):.3f} (bound {bound})"
    return True, f"median {direction} by {abs(w):.3f} (bound {bound})"
