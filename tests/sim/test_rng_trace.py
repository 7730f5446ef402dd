"""Unit tests for RNG streams and measurement utilities."""

import math
import random

import numpy as np
import pytest

from repro.sim import LatencyRecorder, RngStream
from repro.sim.rng import _derive_seed


# ------------------------------------------------------------------ RNG


def test_same_seed_same_stream():
    a = RngStream(42, "link")
    b = RngStream(42, "link")
    assert [a.uniform() for _ in range(10)] == [b.uniform() for _ in range(10)]


def test_different_names_independent():
    a = RngStream(42, "link")
    b = RngStream(42, "cpu")
    assert [a.uniform() for _ in range(10)] != [b.uniform() for _ in range(10)]


def test_child_streams_are_stable():
    a = RngStream(7, "root").child("x")
    b = RngStream(7, "root").child("x")
    assert a.uniform() == b.uniform()


def test_randint_bounds():
    rng = RngStream(1, "r")
    draws = [rng.randint(3, 8) for _ in range(200)]
    assert all(3 <= d < 8 for d in draws)
    assert set(draws) == {3, 4, 5, 6, 7}


def test_choice_and_empty_choice():
    rng = RngStream(1, "r")
    assert rng.choice([5]) == 5
    with pytest.raises(ValueError):
        rng.choice([])


def test_zipf_skews_toward_low_indices():
    rng = RngStream(9, "zipf")
    n = 1000
    draws = [rng.zipf_index(n, skew=1.2) for _ in range(2000)]
    low = sum(1 for d in draws if d < n // 10)
    assert low > len(draws) * 0.5  # heavy head


def test_zipf_zero_skew_is_uniformish():
    rng = RngStream(9, "zipf0")
    n = 10
    draws = [rng.zipf_index(n, skew=0.0) for _ in range(5000)]
    assert set(draws) == set(range(n))


def test_shuffle_is_permutation():
    rng = RngStream(3, "s")
    items = list(range(20))
    shuffled = list(items)
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items


def test_random_bytes_length():
    rng = RngStream(3, "b")
    assert len(rng.random_bytes(17)) == 17


#: ``randint`` widths: both Lemire arms, their edges, and width 1 (no draw).
WIDTHS = (1, 2, 7, 2000, 2**31, 2**32, 2**40)
#: ``zipf_index`` shapes in use: ``check.generate`` (8 and 32 keys),
#: the benchmark's per-client key slices, the web-session example, and
#: this file's skew test.
ZIPF_SHAPES = ((8, 0.99), (32, 0.99), (250, 0.99), (500, 0.99), (750, 0.99),
               (500, 1.1), (1000, 1.2))


def _numpy_zipf_cdf(n: int, skew: float) -> np.ndarray:
    cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** -skew)
    return cdf / cdf[-1]


def _numpy_shuffle(gen: np.random.Generator, items: list) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = int(gen.integers(0, i + 1))
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", range(100))
def test_stream_matches_numpy_pcg64_draw_for_draw(seed):
    """``RngStream`` is numpy's ``Generator(PCG64(seed))``: over a random
    interleaving of every draw kind, both sides return the same values,
    so the 32-bit half-word buffer, the Lemire rejection arms and the
    lognormal hand-off keep the two states in step."""
    name = f"eq/{seed}"
    ours = RngStream(seed, name)
    ref = np.random.Generator(np.random.PCG64(_derive_seed(seed, name)))
    plan = random.Random(seed)
    for _ in range(120):
        kind = plan.randrange(7)
        if kind == 0:
            width, low = plan.choice(WIDTHS), plan.randrange(-9, 9)
            assert ours.randint(low, low + width) == int(ref.integers(low, low + width))
        elif kind == 1:
            n = plan.randrange(0, 20)
            assert ours.random_bytes(n) == ref.bytes(n)
        elif kind == 2:
            assert ours.uniform(-2.5, 7.0) == float(ref.uniform(-2.5, 7.0))
        elif kind == 3:
            assert ours.lognormal(1.4, 1.1) == float(ref.lognormal(1.4, 1.1))
        elif kind == 4:
            items = list(range(plan.randrange(1, 30)))
            expected = list(items)
            ours.shuffle(items)
            _numpy_shuffle(ref, expected)
            assert items == expected
        elif kind == 5:
            seq = "abcdefghijk"[: plan.randrange(1, 12)]
            assert ours.choice(seq) == seq[int(ref.integers(0, len(seq)))]
        else:
            n, skew = plan.choice(ZIPF_SHAPES)
            expected = int(np.searchsorted(_numpy_zipf_cdf(n, skew), ref.uniform()))
            assert ours.zipf_index(n, skew) == expected


@pytest.mark.parametrize("n, skew", ZIPF_SHAPES)
def test_zipf_cdf_is_numpys_to_the_last_ulp(n, skew):
    """The CDF uses libm ``pow`` where numpy's power is CPU-dispatched:
    the two may differ in the last ulp of a rank, never by more."""
    rng = RngStream(1, "zipf-cdf")
    rng.zipf_index(n, skew)
    ours = rng._zipf_cdf_cache[(n, skew)]
    for mine, theirs in zip(ours, _numpy_zipf_cdf(n, skew)):
        assert abs(mine - theirs) <= 4 * math.ulp(theirs)


def test_stream_values_are_pinned():
    """Literal draws recorded when ``RngStream`` still drew through numpy:
    neither a numpy release nor a port may move a stream silently."""
    rng = RngStream(1, "bench/c0")
    assert [rng.randint(0, 500) for _ in range(5)] == [27, 125, 12, 435, 461]
    assert rng.uniform() == 0.9012932829854859
    assert rng.random_bytes(7) == b"\xd8b\x1b\xc7\xcbL["
    assert rng.lognormal(1.0, 1.1) == 4.839152902165329
    assert [rng.zipf_index(500, 0.99) for _ in range(5)] == [14, 126, 0, 38, 5]
    assert rng.randint(0, 2**40) == 873973348967
    child = rng.child("x")
    assert child.name == "bench/c0/x"
    assert [child.randint(0, 7) for _ in range(4)] == [2, 3, 5, 5]
    assert child.uniform(2.0, 3.0) == 2.386585726066727


# ------------------------------------------------------- LatencyRecorder


def test_latency_jitter_zero_for_constant():
    rec = LatencyRecorder()
    for _ in range(10):
        rec.record(4.2)
    assert rec.jitter() == pytest.approx(0.0)


def test_latency_negative_rejected():
    rec = LatencyRecorder()
    with pytest.raises(ValueError):
        rec.record(-1.0)


def test_latency_empty_raises():
    rec = LatencyRecorder()
    with pytest.raises(ValueError):
        rec.mean()
