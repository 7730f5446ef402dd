"""Deterministic random-number streams.

Every stochastic element of the model (kernel-scheduling noise, SDP jitter
on QDR, workload key selection) draws from its own named stream, split off
a single experiment seed.  This keeps runs reproducible while letting two
components draw independently: adding a draw in one component never
perturbs another component's sequence.

Algorithm.  A stream is numpy's default generator,
``Generator(PCG64(seed))``, reproduced in pure Python so that a run which
only draws integers, uniforms and bytes never imports numpy (13.6 MB of
resident memory).  The seed of stream *name* under root seed *r* is the
first eight bytes of ``sha256(f"{r}:{name}")``.  Seeding ports
``SeedSequence``: the seed's 32-bit words are hash-mixed into a pool of
four, and ``generate_state(4, uint64)`` hashes the pool into the 128-bit
initial state and increment, which PCG64's ``srandom`` folds in (step,
add the state, step).  Each 64-bit output is XSL-RR of the *stepped*
128-bit LCG state.  The draws follow ``Generator``:

* ``uniform``: ``low + (high - low) * ((next64 >> 11) * 2**-53)``.
* ``randint`` over a width up to 2**32: Lemire's bounded draw on 32-bit
  words, which come in halves of one 64-bit output (the low half first,
  the high half kept for the next 32-bit draw, as numpy's ``has_uint32``
  / ``uinteger`` buffer does; ``uniform`` does not touch it).  Wider
  ranges use the 64-bit Lemire arm.  A width of one returns *low* and
  draws nothing.
* ``random_bytes``: little-endian 32-bit words, truncated (zero bytes
  still draw one word).
* ``choice`` and ``shuffle`` are built on ``randint``; ``zipf_index``
  bisects a cached cumulative distribution.

The contract is bit-exactness with numpy: every draw above returns what
``Generator(PCG64(seed))`` returns from the same stream state
(``tests/sim/test_rng_trace.py`` drives both side by side, and pins a few
literal values so a numpy release cannot move a stream silently).  One
caveat: the Zipf CDF raises ranks to ``-skew`` with libm ``pow``, where
numpy's float64 power is CPU-dispatched and can differ from it in the
last ulp for some ranks.  The CDF is therefore the same on every host,
and a drawn index could differ from numpy's only when a uniform draw
lands in such a one-ulp gap; the golden digests and the checker's
history digests are the arbiter.

``lognormal`` is the one draw left to numpy: it needs the ziggurat normal
sampler, and its only caller is SDP-on-QDR jitter.  It imports numpy on
its first call, hands the stream's state to a numpy ``PCG64``, draws, and
reads the state back, so the stream goes on exactly as numpy's would.
"""

from __future__ import annotations

import hashlib
import struct
from bisect import bisect_left
from itertools import accumulate

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 2.0**-53

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715


def _derive_seed(root_seed: int, name: str) -> int:
    """Map (root seed, stream name) to a stable 64-bit child seed."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _seed_sequence_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for a 64-bit seed."""
    entropy = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = _INIT_A

    def _hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def _mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    # A 64-bit seed is at most two words, so all of it enters the pool
    # here and numpy's loop over entropy beyond the pool never runs.
    pool = [_hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src]))

    hash_const = _INIT_B
    words = []
    for i in range(2 * 4):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return [words[2 * i] | (words[2 * i + 1] << 32) for i in range(4)]


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """PCG64's ``(state, inc)`` after ``PCG64(seed)``: SeedSequence, then srandom."""
    s0, s1, i0, i1 = _seed_sequence_state(seed)
    inc = ((((i0 << 64) | i1) << 1) | 1) & _MASK128
    state = (inc + ((s0 << 64) | s1)) & _MASK128
    return (state * _PCG_MULT + inc) & _MASK128, inc


class RngStream:
    """A named, seeded random stream: numpy's PCG64 ``Generator``, in Python."""

    def __init__(self, root_seed: int, name: str) -> None:
        self.name = name
        self.root_seed = root_seed
        self._state, self._inc = _pcg64_seed(_derive_seed(root_seed, name))
        # The high half of the last 64-bit output, owed to the next 32-bit draw.
        self._has_uint32 = 0
        self._uinteger = 0
        self._zipf_cdf_cache: dict[tuple[int, float], list[float]] = {}
        self._numpy_generator = None

    def child(self, name: str) -> "RngStream":
        """Split off an independent sub-stream."""
        return RngStream(self.root_seed, f"{self.name}/{name}")

    # -- the bit generator ----------------------------------------------------

    def _next64(self) -> int:
        state = (self._state * _PCG_MULT + self._inc) & _MASK128
        self._state = state
        word = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = 0
            return self._uinteger
        word = self._next64()
        self._has_uint32 = 1
        self._uinteger = word >> 32
        return word & _MASK32

    # -- draws ---------------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return low + (high - low) * ((self._next64() >> 11) * _DOUBLE_UNIT)

    def lognormal(self, mean: float, sigma: float) -> float:
        """exp(N(mean, sigma)): numpy's ziggurat, run on this stream's state."""
        import numpy as np

        generator = self._numpy_generator
        if generator is None:
            generator = self._numpy_generator = np.random.Generator(np.random.PCG64(0))
        bits = generator.bit_generator
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": self._state, "inc": self._inc},
            "has_uint32": self._has_uint32,
            "uinteger": self._uinteger,
        }
        draw = float(generator.lognormal(mean, sigma))
        after = bits.state
        self._state = after["state"]["state"]
        self._has_uint32 = after["has_uint32"]
        self._uinteger = after["uinteger"]
        return draw

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        width = high - low
        if width <= 1:
            if width == 1:
                return low
            raise ValueError(f"randint: low >= high ({low} >= {high})")
        # Lemire: scale a uniform word by the width, keep the high part,
        # and redraw the rare words whose low part would bias it.
        if width <= 1 << 32:
            scaled = self._next32() * width
            if scaled & _MASK32 < width:
                threshold = ((1 << 32) - width) % width
                while scaled & _MASK32 < threshold:
                    scaled = self._next32() * width
            return low + (scaled >> 32)
        scaled = self._next64() * width
        if scaled & _MASK64 < width:
            threshold = ((1 << 64) - width) % width
            while scaled & _MASK64 < threshold:
                scaled = self._next64() * width
        return low + (scaled >> 64)

    def choice(self, seq):
        """Uniformly choose one element of a non-empty sequence."""
        if len(seq) == 0:
            raise ValueError("choice() on empty sequence")
        return seq[self.randint(0, len(seq))]

    def random_bytes(self, n: int) -> bytes:
        words = (n + 3) // 4 or 1  # numpy draws a word even for zero bytes
        return struct.pack(f"<{words}I", *[self._next32() for _ in range(words)])[:n]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i + 1)
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
            sums = list(accumulate(rank**-skew for rank in range(1, n + 1)))
            total = sums[-1]
            cdf = self._zipf_cdf_cache[key] = [s / total for s in sums]
        return bisect_left(cdf, self.uniform())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RngStream {self.name!r} root={self.root_seed}>"
