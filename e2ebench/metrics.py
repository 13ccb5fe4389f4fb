"""Estimators that turn e2e_driver's raw per-op records into metrics.

Kept free of I/O so test_e2ebench.py can pin each rule on synthetic
data.
"""

import math
import statistics

# A tail percentile is only reported when this many samples lie beyond it.
MIN_BEYOND = 10


def tail_percentile(values, q=0.99):
    """Nearest-rank percentile and the number of samples beyond it.

    The value is the smallest sample with at least a fraction q of the
    samples at or below it; `beyond` counts the samples strictly after
    that rank, so a p99 over n samples has n - ceil(0.99 n) beyond.
    """
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def slowest_slot_median(op_ms, period):
    """Largest per-slot median latency, slots being op i % period.

    The tail estimate of a run too short for a p99 with MIN_BEYOND
    samples beyond it: there the nearest-rank p99 is the single slowest
    op, a host hiccup more than a property of the workload. Ops of one
    slot repeat one input, so this is the slowest input's typical time.
    """
    return max(statistics.median(op_ms[k::period])
               for k in range(min(period, len(op_ms))))


def window_rates(op_ms, points, window):
    """Points per second of each whole window of `window` ops.

    Ops are grouped in order into non-overlapping windows; a trailing
    partial window is dropped so every window has the same op mix.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    rates = []
    for start in range(0, len(op_ms) - window + 1, window):
        ms = sum(op_ms[start:start + window])
        pts = sum(points[start:start + window])
        rates.append(pts / (ms / 1000.0))
    return rates


def window_median_rate(op_ms, points, window):
    rates = window_rates(op_ms, points, window)
    if not rates:
        raise ValueError("fewer ops than one window")
    return statistics.median(rates)


def end_to_end(raw):
    """The end-to-end metrics of one untraced run.

    Returns (metrics, notes): metrics maps name -> value; notes holds
    the sample counts printed beside the tail percentile.
    """
    phase = raw["phases"][0]
    op_ms, points = phase["op_ms"], phase["points"]
    if raw["tail_rule"]:
        p99, beyond = tail_percentile(op_ms)
        if beyond < MIN_BEYOND:
            raise ValueError("op_p99_ms: only %d samples beyond p99 "
                             "(need %d)" % (beyond, MIN_BEYOND))
        note = "n=%d, %d beyond" % (len(op_ms), beyond)
    else:
        period = int(raw["period"])
        p99 = slowest_slot_median(op_ms, period)
        note = "n=%d, slowest of %d slot medians" % (len(op_ms), period)
    metrics = {
        "points_per_s": window_median_rate(op_ms, points,
                                           int(raw["window_ops"])),
        "op_p50_ms": statistics.median(op_ms),
        "op_p99_ms": p99,
        "peak_rss_mb": statistics.median(phase["window_rss_mb"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "model_err_pct": raw["model_err_pct"],
    }
    notes = {"op_p99_ms": note}
    return metrics, notes


def counts(raw):
    """(attempted, failed) over every phase of a run."""
    attempted = sum(len(p["op_ms"]) for p in raw["phases"])
    failed = sum(int(p["failed"]) for p in raw["phases"])
    return attempted, failed


def spread(values):
    """Inter-quartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")
