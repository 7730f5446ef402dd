"""Deterministic random-number streams.

Every stochastic element of the model (kernel-scheduling noise, SDP jitter
on QDR, workload key selection) draws from its own named stream, split off
a single experiment seed.  This keeps runs reproducible while letting two
components draw independently: adding a draw in one component never
perturbs another component's sequence.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _derive_seed(root_seed: int, name: str) -> int:
    """Map (root seed, stream name) to a stable 64-bit child seed."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """A named, seeded random stream backed by numpy's PCG64."""

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        self.root_seed = root_seed
        self._rng = np.random.Generator(np.random.PCG64(_derive_seed(root_seed, name)))
        self._zipf_cdf_cache: dict[tuple[int, float], np.ndarray] = {}

    def child(self, name: str) -> "RngStream":
        """Split off an independent sub-stream."""
        return RngStream(self.root_seed, f"{self.name}/{name}")

    # -- draws ---------------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return float(self._rng.uniform(low, high))

    def lognormal(self, mean: float, sigma: float) -> float:
        return float(self._rng.lognormal(mean, sigma))

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        return int(self._rng.integers(low, high))

    def choice(self, seq):
        """Uniformly choose one element of a non-empty sequence."""
        if len(seq) == 0:
            raise ValueError("choice() on empty sequence")
        return seq[int(self._rng.integers(0, len(seq)))]

    def random_bytes(self, n: int) -> bytes:
        return self._rng.bytes(n)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = int(self._rng.integers(0, i + 1))
            items[i], items[j] = items[j], items[i]

    def zipf_index(self, n: int, skew: float) -> int:
        """Draw an index in [0, n) with Zipf(skew) popularity (skew=0: uniform)."""
        if skew <= 0.0:
            return self.randint(0, n)
        # Rejection-free inverse-CDF over a truncated Zipf; the CDF is cached
        # per (n, skew) since workloads draw from a fixed key universe.
        key = (n, skew)
        cdf = self._zipf_cdf_cache.get(key)
        if cdf is None:
            ranks = np.arange(1, n + 1, dtype=np.float64)
            weights = ranks**-skew
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            self._zipf_cdf_cache[key] = cdf
        return int(np.searchsorted(cdf, self._rng.uniform()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStream {self.name!r} root={self.root_seed}>"
