"""Unit tests for RNG streams and measurement utilities."""

import pytest

from repro.sim import Counter, LatencyRecorder, RngStream


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


# --------------------------------------------------------------- Counter


def test_counter_monotone():
    c = Counter()
    with pytest.raises(ValueError):
        c.add(-1)


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
