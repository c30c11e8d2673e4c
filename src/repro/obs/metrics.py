"""Lightweight metric primitives for the co-verification stack.

The paper's quantitative claims — deadlock-free conservative coupling
(§3.1), the ~1:400 time-granularity ratio, the E2 sync-exchange counts
— all rest on numbers that previously lived in ad-hoc counters.  This
module provides the shared vocabulary for measuring them:

* :class:`Counter` — a monotonically increasing integer;
* :class:`Histogram` — a fixed-bucket distribution (count/total/min/
  max plus per-bucket tallies) for lag, queue-wait and latency samples;
* :class:`SpanTimer` — a context manager recording wall-clock spans
  into a histogram;
* :class:`MetricsRegistry` — the named instrument store with a
  machine-readable :meth:`~MetricsRegistry.snapshot`.

Overhead discipline: a *disabled* registry hands out shared null
instruments whose mutators are no-ops, so instrumented call sites pay
one attribute lookup and one no-op call at most; hot kernel loops are
never instrumented per event at all — the kernels keep their own plain
integer counters and observability snapshots them (see
``Simulator.stats_snapshot`` and ``Kernel.stats_snapshot``).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from pathlib import Path
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple, Union

__all__ = ["Counter", "Histogram", "SpanTimer", "MetricsRegistry",
           "NULL_REGISTRY", "DEFAULT_SECONDS_BOUNDS"]


def _decade_125_bounds(lo_exp: int, hi_exp: int) -> Tuple[float, ...]:
    """1-2-5 series bucket bounds covering 10^lo_exp .. 10^hi_exp."""
    bounds = []
    for exp in range(lo_exp, hi_exp + 1):
        for mantissa in (1.0, 2.0, 5.0):
            bounds.append(mantissa * 10.0 ** exp)
    return tuple(bounds)


#: default bucket bounds for seconds-valued samples: 1 ns .. 5 s in a
#: 1-2-5 series (lag, queue-wait and latency samples all fall here)
DEFAULT_SECONDS_BOUNDS = _decade_125_bounds(-9, 0)


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add *amount* (default 1)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A fixed-bound bucket histogram over float samples.

    Args:
        name: instrument name.
        bounds: ascending upper bucket bounds; a sample lands in the
            first bucket whose bound is >= the sample, or in the
            overflow bucket past the last bound.  Defaults to
            :data:`DEFAULT_SECONDS_BOUNDS`.
    """

    __slots__ = ("name", "bounds", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(self, name: str,
                 bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        chosen = tuple(bounds) if bounds is not None \
            else DEFAULT_SECONDS_BOUNDS
        if list(chosen) != sorted(chosen):
            raise ValueError(f"histogram {name}: bounds not ascending")
        self.bounds: Tuple[float, ...] = chosen
        self.bucket_counts = [0] * (len(chosen) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, sample: float) -> None:
        """Add one sample."""
        self.count += 1
        self.total += sample
        if self.min is None or sample < self.min:
            self.min = sample
        if self.max is None or sample > self.max:
            self.max = sample
        self.bucket_counts[bisect_left(self.bounds, sample)] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Approximate *q*-quantile (the upper bound of the bucket the
        rank falls into); ``None`` when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return None
        rank = q * self.count
        seen = 0
        for index, bucket in enumerate(self.bucket_counts):
            seen += bucket
            if seen >= rank and bucket:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max
        return self.max

    def as_dict(self) -> Dict[str, object]:
        """Snapshot view: summary statistics plus non-empty buckets."""
        buckets = []
        for index, bucket in enumerate(self.bucket_counts):
            if bucket == 0:
                continue
            le: Union[float, str] = (self.bounds[index]
                                     if index < len(self.bounds)
                                     else "inf")
            buckets.append({"le": le, "count": bucket})
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.5),
            "p99": self.quantile(0.99),
            "buckets": buckets,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Histogram({self.name}: n={self.count}, "
                f"mean={self.mean:g})")


class SpanTimer:
    """Context manager recording a wall-clock span into a histogram.

    Example:
        >>> registry = MetricsRegistry()
        >>> with registry.timer("phase.run_wall_s"):
        ...     pass
        >>> registry.histogram("phase.run_wall_s").count
        1
    """

    __slots__ = ("histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self.histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "SpanTimer":
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.histogram.record(perf_counter() - self._start)


class _NullCounter:
    """Shared no-op counter handed out by disabled registries."""

    __slots__ = ()
    name = "<null>"
    value = 0

    def inc(self, amount: int = 1) -> None:
        """Discard the increment."""


class _NullHistogram:
    """Shared no-op histogram handed out by disabled registries."""

    __slots__ = ()
    name = "<null>"
    count = 0
    total = 0.0
    min = None
    max = None
    mean = 0.0

    def record(self, sample: float) -> None:
        """Discard the sample."""

    def quantile(self, q: float) -> Optional[float]:
        """Return ``None`` — a null histogram has no samples."""
        return None

    def as_dict(self) -> Dict[str, object]:
        """Return the empty-histogram export shape."""
        return {"count": 0, "total": 0.0, "mean": 0.0, "min": None,
                "max": None, "p50": None, "p99": None, "buckets": []}


class _NullTimer:
    """Shared no-op span timer."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_HISTOGRAM = _NullHistogram()
_NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """Named store of counters and histograms.

    Args:
        enabled: when ``False`` every accessor returns a shared no-op
            instrument and :meth:`snapshot` stays empty — the near-zero
            "observability off" mode.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access -------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called *name*, created on first use."""
        if not self.enabled:
            return _NULL_COUNTER  # type: ignore[return-value]
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str,
                  bounds: Optional[Sequence[float]] = None) -> Histogram:
        """The histogram called *name*, created on first use."""
        if not self.enabled:
            return _NULL_HISTOGRAM  # type: ignore[return-value]
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def timer(self, name: str) -> SpanTimer:
        """A span timer recording into ``histogram(name)``."""
        if not self.enabled:
            return _NULL_TIMER  # type: ignore[return-value]
        return SpanTimer(self.histogram(name))

    # -- export ------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Machine-readable view of every instrument."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "histograms": {name: h.as_dict()
                           for name, h in
                           sorted(self._histograms.items())},
        }

    def to_json(self, path: Union[str, Path]) -> Path:
        """Write :meth:`snapshot` as indented JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.snapshot(), indent=2,
                                   sort_keys=True) + "\n")
        return path


#: the shared disabled registry — hand this to components when
#: observability is off; every instrument it returns is a no-op
NULL_REGISTRY = MetricsRegistry(enabled=False)
