"""The benchmark's own arithmetic: percentiles, open-loop accounting,
backlog detection, the SLO rate and the error rate.

Kept free of I/O so test_benchmath.py can check it on tiny inputs.
Latencies of refused or failed requests are passed as None or inf: they
count as missing every latency limit.
"""

import bisect
import math

# Fewest samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def as_latency(x):
    """A latency sample; None (refused, failed) becomes +inf."""
    return math.inf if x is None else float(x)


def tail_quantile(n, want=0.99):
    """The highest quantile <= want with at least TAIL_SAMPLES of n
    samples beyond it, or None when n is too small for any tail."""
    if n < 2 * TAIL_SAMPLES:
        return None
    return min(want, 1.0 - TAIL_SAMPLES / n)


def percentile(samples, q):
    """Nearest-rank percentile (q in [0, 1]) of the samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(as_latency(x) for x in samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(samples, want=0.99):
    """(quantile, value) at the highest percentile <= want that has at
    least TAIL_SAMPLES samples beyond it; (None, None) if too few."""
    q = tail_quantile(len(samples), want)
    if q is None:
        return None, None
    return q, percentile(samples, q)


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def error_rate(attempted, failed, refused=0):
    """Failed or refused requests over those attempted."""
    if attempted <= 0:
        raise ValueError("error rate of zero attempts")
    return (failed + refused) / attempted


def lateness(due, sent):
    """How late the generator sent each request (never negative)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def outstanding_at(t, due, done):
    """Requests due by t and not complete by t (both lists sorted)."""
    return bisect.bisect_right(due, t) - bisect.bisect_right(done, t)


def backlog_growth(due, done, points=16):
    """Least-squares growth of the outstanding-request count across the
    span of due times, in requests. Requests that never completed (inf)
    stay outstanding, so refusals read as growth."""
    if len(due) < 2:
        return 0.0
    due, done = sorted(due), sorted(done)
    t0, t1 = due[0], due[-1]
    if t1 <= t0:
        return 0.0
    ts = [t0 + (t1 - t0) * (k + 1) / points for k in range(points)]
    ys = [outstanding_at(t, due, done) for t in ts]
    mt = sum(ts) / points
    my = sum(ys) / points
    var = sum((t - mt) ** 2 for t in ts)
    slope = sum((t - mt) * (y - my) for t, y in zip(ts, ys)) / var
    return slope * (t1 - t0)


def phase_summary(due, latency, late, limit_s, backlog_allowance):
    """One fixed-rate open-loop phase.

    due: due times (s); latency: completion - due per request (None or
    inf when refused); late: generator lateness (s). A phase meets the
    limit when its p99 latency is within limit_s and the backlog grew by
    no more than backlog_allowance requests across the phase."""
    lat = [as_latency(x) for x in latency]
    done = [d + x for d, x in zip(due, lat)]
    q, tail = tail_percentile(lat, 0.99)
    finished = [c for c in done if math.isfinite(c)]
    span = (max(finished) - min(due)) if finished else 0.0
    growth = backlog_growth(due, done)
    refused = sum(1 for x in lat if not math.isfinite(x))
    late_q, late_tail = tail_percentile(late, 0.99)
    return {
        "requests": len(lat),
        "refused": refused,
        "p50_s": percentile(lat, 0.5),
        "tail_q": q,
        "tail_s": tail,
        "late_tail_q": late_q,
        "late_tail_s": late_tail,
        "completed_per_s": len(finished) / span if span > 0 else 0.0,
        "backlog_growth": growth,
        "meets_limit": (tail is not None and tail <= limit_s
                        and growth <= backlog_allowance),
    }


def max_rate_under_limit(phases):
    """Measured completion rate of the highest-rate phase that met the
    limit, or 0.0 when none did. phases: (offered_rate, summary)."""
    best = None
    for rate, summary in phases:
        if summary["meets_limit"] and (best is None or rate > best[0]):
            best = (rate, summary)
    return best[1]["completed_per_s"] if best else 0.0
