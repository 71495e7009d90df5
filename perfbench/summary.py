"""Summary statistics of the drcell benchmark (stdlib only).

* median: the middle sample (mean of the two middle ones for even counts);
* tail: the highest percentile of TAIL_CANDIDATES that leaves at least ten
  samples beyond it, by the nearest-rank rule; with fewer than forty samples
  no percentile qualifies as a tail and the median is reported instead;
* round_tail: the tail of each round's samples by that rule, and the median
  of those tails over the rounds. Every round repeats the same operations,
  so a round's tail is a fixed set of its heaviest steps; the median over
  rounds keeps a burst of host load in one round out of the figure. A tail
  taken over the pooled samples of a run instead lands wherever a class of
  heavy steps, as many as there are rounds, meets the next class, and moves
  with the round count and with every stalled step;
* spread: the distance between the first and third quartile of a set of
  runs (statistics.quantiles, n=4), as a share of their median;
* compare: the acceptance rule for two sets of runs of the same metric --
  each set's spread within the bound, and the second median no worse than
  the first by more than the bound.
"""

import math
import statistics

TAIL_CANDIDATES = (99.0, 90.0, 75.0)
MIN_BEYOND = 10
MIN_TAIL_SAMPLES = 40


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def _rank(n, q):
    # Rounded first so that, e.g., 99.9% of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n, q):
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def tail_percentile(n):
    """The percentile reported as the tail of n samples (50 = the median)."""
    if n < MIN_TAIL_SAMPLES:
        return 50.0
    for q in TAIL_CANDIDATES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return 50.0


def tail(values):
    """(percentile, value) of the tail of `values`."""
    q = tail_percentile(len(values))
    return q, (median(values) if q == 50.0 else percentile(values, q))


def round_tail(values, round_sizes):
    """(percentiles, value): `values` holds the samples of consecutive rounds,
    round_sizes[i] of them for round i. Returns the sorted distinct tail
    percentiles of the rounds and the median of the rounds' tails."""
    if sum(round_sizes) != len(values):
        raise ValueError("round sizes add up to %d, not %d samples"
                         % (sum(round_sizes), len(values)))
    tails, start = [], 0
    for n in round_sizes:
        tails.append(tail(values[start:start + n]))
        start += n
    return sorted({q for q, _ in tails}), median([v for _, v in tails])


def spread(values):
    """Interquartile distance of a set of runs as a share of its median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def worsening(base, new, better):
    """Share by which `new` is worse than `base` (negative: better)."""
    if better == "lower":
        return (new - base) / base
    if better == "higher":
        return (base - new) / base
    raise ValueError("better must be 'lower' or 'higher', not %r" % better)


def compare(first, second, bound, better):
    """Applies the acceptance rule to two sets of runs of one metric.

    Returns a dict with both spreads, the worsening of the second median
    against the first, and `ok`."""
    result = {
        "first_median": median(first),
        "second_median": median(second),
        "first_spread": spread(first),
        "second_spread": spread(second),
    }
    result["worsening"] = worsening(result["first_median"],
                                    result["second_median"], better)
    result["ok"] = (result["worsening"] <= bound
                    and result["first_spread"] <= bound
                    and result["second_spread"] <= bound)
    return result
