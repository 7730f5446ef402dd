"""The memory-region contract across its backing.

Regions are slices of their protection domain's lazily zeroed arena
(``repro.verbs.mr``).  These pin what a region promises regardless of
how its bytes are held: zeros until written, no aliasing between
neighbours, large regions, bounds and permission checks.
"""

import pytest

from repro.memcached.slabs import PAGE_BYTES, Page
from repro.verbs import Access
from repro.verbs.mr import ARENA_BYTES


def test_untouched_bytes_read_as_zeros(pair):
    mr = pair.mr("a", 8448)
    assert mr.read(0, 8448) == bytes(8448)
    mr.write(100, b"xy")
    assert mr.read(0, 100) == bytes(100)
    assert mr.read(102, 8448 - 102) == bytes(8448 - 102)


def test_neighbouring_regions_do_not_alias(pair):
    a = pair.mr("a", 8448)
    b = pair.mr("a", 8448)
    a.write(a.size - 1, b"\xff")
    assert b.read(0, 1) == b"\x00"
    b.write(0, b"\x01")
    assert a.read(a.size - 1, 1) == b"\xff"
    assert a.read(0, 1) == b"\x00"


def test_regions_spanning_arena_refills_do_not_alias(pair):
    size = ARENA_BYTES // 3 + 1  # three of these never fit one arena
    regions = [pair.mr("a", size) for _ in range(4)]
    for i, mr in enumerate(regions):
        mr.write(0, bytes([i + 1]) * size)
    for i, mr in enumerate(regions):
        assert mr.read(0, size) == bytes([i + 1]) * size


def test_region_at_least_one_arena_large(pair):
    small = pair.mr("a", 64)
    big = pair.mr("a", ARENA_BYTES + 1)
    assert big.read(ARENA_BYTES - 4, 5) == bytes(5)
    big.write(ARENA_BYTES, b"\x07")
    big.write(0, b"\x09")
    assert big.read(ARENA_BYTES, 1) == b"\x07"
    assert big.read(0, 1) == b"\x09"
    assert small.read(0, 64) == bytes(64)


def test_out_of_range_access_raises_index_error(pair):
    mr = pair.mr("a", 16)
    with pytest.raises(IndexError):
        mr.write(15, b"ab")
    with pytest.raises(IndexError):
        mr.read(-1, 2)
    with pytest.raises(IndexError):
        mr.remote_read(0, 17)
    with pytest.raises(IndexError):
        mr.remote_write(16, b"a")


def test_deregistered_region_refuses_remote_access(pair):
    mr = pair.mr("b", 64)
    pair.pd_b.dereg_mr(mr)
    with pytest.raises(PermissionError):
        mr.remote_write(0, b"a")
    with pytest.raises(PermissionError):
        mr.remote_read(0, 1)
    with pytest.raises(PermissionError):
        pair.pd_b.lookup_rkey(mr.rkey)


def test_under_permitted_region_refuses_remote_access(pair):
    mr = pair.mr("b", 64, Access.LOCAL_WRITE)
    with pytest.raises(PermissionError):
        mr.remote_write(0, b"a")
    with pytest.raises(PermissionError):
        mr.remote_read(0, 1)
    mr.remote_write(0, b"a", require_remote=False)  # posted-receive placement
    assert mr.read(0, 1) == b"a"


def test_unregistered_slab_page_is_zeroed_and_writable():
    page = Page(1, PAGE_BYTES, None)
    assert page.read(PAGE_BYTES - 8, 8) == bytes(8)
    page.write(PAGE_BYTES - 3, b"end")
    assert page.read(PAGE_BYTES - 4, 4) == b"\x00end"
