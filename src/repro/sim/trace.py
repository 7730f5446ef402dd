"""Measurement utilities: counters and latency recorders.

All paper-facing metrics flow through these classes so experiments report
numbers one way: latency recorders collect simulated-µs samples and expose
mean/percentiles/jitter; counters track monotone totals (ops, bytes,
retransmits) with rate helpers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


class Counter:
    """A monotonically increasing tally with a creation timestamp."""

    __slots__ = ("sim", "name", "value", "_t0")

    def __init__(self, sim: "Simulator", name: str = "counter") -> None:
        self.sim = sim
        self.name = name
        self.value = 0
        self._t0 = sim.now

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters are monotone; use a separate counter")
        self.value += amount

    def rate_per_second(self) -> float:
        """value / elapsed simulated seconds (time unit is µs)."""
        elapsed_us = self.sim.now - self._t0
        if elapsed_us <= 0:
            return 0.0
        return self.value / (elapsed_us / 1e6)

    def reset(self) -> None:
        self.value = 0
        self._t0 = self.sim.now


class LatencyRecorder:
    """Collects latency samples (µs) and summarizes them.

    Jitter is reported as the coefficient of variation (std/mean), the
    statistic we use to demonstrate the paper's "SDP on QDR is noisy"
    observation.
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
        self._require_samples()
        return float(np.mean(self._samples))

    def median(self) -> float:
        self._require_samples()
        return float(np.median(self._samples))

    def percentile(self, q: float) -> float:
        self._require_samples()
        return float(np.percentile(self._samples, q))

    def minimum(self) -> float:
        self._require_samples()
        return float(np.min(self._samples))

    def maximum(self) -> float:
        self._require_samples()
        return float(np.max(self._samples))

    def std(self) -> float:
        self._require_samples()
        return float(np.std(self._samples))

    def jitter(self) -> float:
        """Coefficient of variation: std/mean (0 for perfectly smooth)."""
        m = self.mean()
        return self.std() / m if m > 0 else 0.0

    def summary(self) -> dict[str, float]:
        """One-shot dictionary of the headline statistics."""
        return {
            "count": float(len(self._samples)),
            "mean": self.mean(),
            "median": self.median(),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "min": self.minimum(),
            "max": self.maximum(),
            "std": self.std(),
            "jitter": self.jitter(),
        }

    def histogram(self, significant_bits: int = 5):
        """The samples as an exportable fixed-bucket histogram
        (:class:`repro.telemetry.histogram.FixedBucketHistogram`)."""
        from repro.telemetry.histogram import FixedBucketHistogram

        self._require_samples()
        return FixedBucketHistogram.from_samples(self._samples, significant_bits)

    def _require_samples(self) -> None:
        if not self._samples:
            raise ValueError(f"latency recorder {self.name!r} has no samples")
