"""Statistics and result-line helpers of the perfbench benchmark.

Everything here is pure Python over plain lists, so the rules are unit-tested
without building the benchmark binary (perfbench/tests/test_metrics.py):

* the timing rule: many short rounds, reported as the work of the fastest
  1/32 of rounds divided by their duration;
* percentiles, which need at least ten samples beyond them;
* metric names and units, and the one-line JSON result.
"""

import json
import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples."""


# The share of rounds the timing rule keeps (see README.md, "Timing rule").
FASTEST_SHARE = 32


def fastest(work, seconds):
    """(work, seconds) of the fastest 1/FASTEST_SHARE of rounds, at least one.

    Rounds are ranked by seconds per unit of work, so rounds of unequal size
    compare fairly; rounds with no work are ignored.
    """
    rounds = sorted((s / w, w, s) for w, s in zip(work, seconds) if w > 0)
    if not rounds:
        raise ValueError("no rounds with work")
    kept = rounds[: max(1, len(rounds) // FASTEST_SHARE)]
    return sum(r[1] for r in kept), sum(r[2] for r in kept)


def fastest_rate(work, seconds):
    """Work per second by the timing rule."""
    w, s = fastest(work, seconds)
    return w / s


def fastest_seconds(seconds):
    """Mean duration of the fastest rounds of equal work (e.g. set-ups)."""
    w, s = fastest([1.0] * len(seconds), seconds)
    return s / w


def _check_beyond(n, q):
    beyond = math.floor(n * (1.0 - q) + 1e-9)
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"needs at least {MIN_BEYOND}"
        )


def percentile(samples, q):
    """The q-quantile (0 < q < 1) of `samples`, linearly interpolated between
    order statistics. Raises InsufficientSamples unless at least MIN_BEYOND
    samples lie beyond it."""
    xs = sorted(samples)
    _check_beyond(len(xs), q)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def grouped_percentile(hist, q):
    """The q-quantile of integer samples given as hist[value] = count.

    Each integer v is taken to cover [v - 0.5, v + 0.5), and the quantile is
    interpolated inside the interval that holds it (the grouped-data median),
    so it moves with the distribution instead of sticking to an integer.
    """
    n = sum(hist)
    _check_beyond(n, q)
    rank = q * n
    below = 0
    for value, count in enumerate(hist):
        if count and below + count >= rank:
            return value - 0.5 + (rank - below) / count
        below += count
    raise AssertionError("unreachable: rank beyond the histogram")


def check_metric(name, value, unit):
    if not NAME_RE.match(name):
        raise ValueError(f"bad metric name {name!r}")
    if not UNIT_RE.match(unit):
        raise ValueError(f"bad unit {unit!r} for {name}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name}: value {value!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{name}: value {value!r} is not finite")


def result_line(correct, attempted, failed, metrics):
    """The benchmark's last output line. `metrics` maps name -> (value, unit)."""
    if not isinstance(attempted, int) or not isinstance(failed, int) or attempted < 1:
        raise ValueError("attempted must be a whole number >= 1, failed a whole number")
    out = {}
    for name, (value, unit) in metrics.items():
        check_metric(name, value, unit)
        out[name] = {"value": value, "unit": unit}
    return json.dumps(
        {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": out}
    )


def parse_result_line(line):
    """Parses and validates a result line; returns the decoded object."""
    obj = json.loads(line)
    if tuple(sorted(obj)) != tuple(sorted(RESULT_KEYS)):
        raise ValueError(f"result keys {sorted(obj)} != {sorted(RESULT_KEYS)}")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if isinstance(obj[key], bool) or not isinstance(obj[key], int):
            raise ValueError(f"{key} must be a whole number")
    for name, m in obj["metrics"].items():
        if sorted(m) != ["unit", "value"]:
            raise ValueError(f"{name}: keys {sorted(m)}")
        check_metric(name, m["value"], m["unit"])
    return obj
