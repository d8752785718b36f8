"""Statistics shared by run.py and compare.py.

Medians and quartiles follow Python's statistics module, so a spread
computed here is the spread the benchmark's acceptance rule computes.
"""

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)
# A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def tail_percentile(samples):
    """The highest percentile with at least MIN_BEYOND samples beyond it.

    Returns (percentile, value, beyond) or None when no candidate has that
    many samples beyond it (fewer than 40 samples). Samples beyond p are
    the n * (1 - p/100) largest ones; the value is the nearest-rank
    percentile.
    """
    n = len(samples)
    ordered = sorted(samples)
    for p in TAIL_PERCENTILES:
        # Exact in hundredths of a percent: n * (10000 - 100p) / 10000.
        beyond_x10000 = n * (10000 - round(p * 100))
        if beyond_x10000 >= MIN_BEYOND * 10000:
            rank = math.ceil(p * n / 100.0)
            return p, ordered[max(rank, 1) - 1], beyond_x10000 // 10000
    return None


def worse_share(parent, change, better):
    """How much worse `change` is than `parent`, as a share of `parent`
    (negative when better)."""
    delta = (change - parent) / parent
    return delta if better == "lower" else -delta


def pair_verdict(parent_runs, change_runs, better, bound):
    """Verdict on one metric from paired runs (parent_runs[i] and
    change_runs[i] ran as pair i).

    "better": the change wins at least nine tenths of the pairs (ties
      count for neither) and the medians differ by more than the parent's
      own quartile distance.
    "unresolved": either side's quartile spread exceeds `bound`, unless
      every change run beats every parent run.
    "worse": the change's median is worse than the parent's by more than
      `bound`.
    "same": none of these.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent_runs, change_runs)
               if sign * (p - c) > 0)
    win_fraction = wins / len(parent_runs)
    p_q1, p_med, p_q3 = quartiles(parent_runs)
    c_med = median(change_runs)
    if better == "lower":
        all_better = max(change_runs) < min(parent_runs)
    else:
        all_better = min(change_runs) > max(parent_runs)
    spread = max(iqr_share(parent_runs), iqr_share(change_runs))
    resolved = spread <= bound or all_better
    if (resolved and win_fraction >= 0.9
            and abs(c_med - p_med) > (p_q3 - p_q1)):
        verdict = "better"
    elif not resolved:
        verdict = "unresolved"
    elif worse_share(p_med, c_med, better) > bound:
        verdict = "worse"
    else:
        verdict = "same"
    return {"verdict": verdict, "win_fraction": win_fraction,
            "spread": spread}
