"""Workload generation: patterns, keys, values."""

import pytest

from repro.sim.rng import RngStream
from repro.workloads import (
    GET_ONLY,
    INTERLEAVED_50_50,
    NON_INTERLEAVED_10_90,
    SET_ONLY,
    KeyChooser,
    OpPattern,
)
from repro.workloads.keys import make_value


def test_pure_patterns():
    assert list(SET_ONLY.ops(3)) == ["set"] * 3
    assert list(GET_ONLY.ops(2)) == ["get"] * 2


def test_non_interleaved_pattern_matches_paper():
    """'1 Sets followed by 9 Gets', 10% set fraction."""
    ops = list(NON_INTERLEAVED_10_90.ops(20))
    assert ops[0] == "set"
    assert ops[1:10] == ["get"] * 9
    assert ops[10] == "set"


def test_interleaved_pattern_matches_paper():
    """'1 Set is followed by 1 Get', 50% mix."""
    assert list(INTERLEAVED_50_50.ops(4)) == ["set", "get", "set", "get"]


def test_pattern_validation():
    with pytest.raises(ValueError):
        OpPattern("empty", ())
    with pytest.raises(ValueError):
        OpPattern("bad", ("set", "frob"))


def test_single_key_mode():
    kc = KeyChooser(mode="single", prefix="p")
    assert kc.next_key() == "p-0"
    assert kc.next_key() == "p-0"
    assert kc.all_keys() == ["p-0"]


def test_uniform_key_mode_covers_space():
    kc = KeyChooser(mode="uniform", key_space=10, rng=RngStream(1, "k"))
    seen = {kc.next_key() for _ in range(500)}
    assert seen == set(kc.all_keys())


def test_zipf_key_mode_skews():
    kc = KeyChooser(mode="zipf", key_space=100, zipf_skew=1.2, rng=RngStream(1, "z"))
    from collections import Counter

    counts = Counter(kc.next_key() for _ in range(2000))
    top = counts.most_common(1)[0][1]
    assert top > 2000 / 100 * 5  # head much hotter than uniform


def test_key_chooser_validation():
    with pytest.raises(ValueError):
        KeyChooser(mode="nope")
    with pytest.raises(ValueError):
        KeyChooser(key_space=0)


def test_make_value_deterministic_and_sized():
    assert len(make_value(0)) == 0
    assert len(make_value(17)) == 17
    assert len(make_value(100_000)) == 100_000
    assert make_value(64, tag=3) == make_value(64, tag=3)
    assert make_value(64, tag=3) != make_value(64, tag=4)
    with pytest.raises(ValueError):
        make_value(-1)
