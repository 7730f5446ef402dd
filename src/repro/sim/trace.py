"""Measurement utilities: counters and latency recorders.

All paper-facing metrics flow through these classes so experiments report
numbers one way: latency recorders collect simulated-µs samples and expose
mean/percentiles/jitter; counters track monotone totals (ops, bytes,
retransmits).
"""

from __future__ import annotations


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


class LatencyRecorder:
    """Collects latency samples (µs) and summarizes them.

    Jitter is reported as the coefficient of variation (std/mean), the
    statistic we use to demonstrate the paper's "SDP on QDR is noisy"
    observation.  The summaries import numpy when called, so a run that
    records but never summarises does not load it.
    """

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self._samples: list[float] = []

    def record(self, latency_us: float) -> None:
        if latency_us < 0:
            raise ValueError(f"negative latency sample: {latency_us}")
        self._samples.append(latency_us)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[float]:
        return list(self._samples)

    def mean(self) -> float:
        """Arithmetic mean of the samples."""
        import numpy as np

        self._require_samples()
        return float(np.mean(self._samples))

    def median(self) -> float:
        """Median of the samples."""
        import numpy as np

        self._require_samples()
        return float(np.median(self._samples))

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0-100) of the samples, numpy's linear rule."""
        import numpy as np

        self._require_samples()
        return float(np.percentile(self._samples, q))

    def std(self) -> float:
        """Population standard deviation of the samples."""
        import numpy as np

        self._require_samples()
        return float(np.std(self._samples))

    def jitter(self) -> float:
        """Coefficient of variation: std/mean (0 for perfectly smooth)."""
        m = self.mean()
        return self.std() / m if m > 0 else 0.0

    def _require_samples(self) -> None:
        if not self._samples:
            raise ValueError(f"latency recorder {self.name!r} has no samples")
