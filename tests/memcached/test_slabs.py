"""Slab allocator unit tests."""

import pytest

from repro.memcached.slabs import (
    CHUNK_MIN,
    GROWTH_FACTOR,
    PAGE_BYTES,
    SlabAllocator,
    build_chunk_sizes,
)


def test_chunk_sizes_ascending_and_aligned():
    sizes = build_chunk_sizes()
    assert sizes == sorted(sizes)
    assert all(s % 8 == 0 for s in sizes[:-1])
    assert sizes[0] >= CHUNK_MIN - 7
    assert sizes[-1] == PAGE_BYTES


def test_chunk_sizes_growth_factor():
    sizes = build_chunk_sizes()
    for a, b in zip(sizes[:-2], sizes[1:-1]):
        assert b / a <= GROWTH_FACTOR * 1.15  # alignment slack


def test_chunk_sizes_validation():
    with pytest.raises(ValueError):
        build_chunk_sizes(chunk_min=10)
    with pytest.raises(ValueError):
        build_chunk_sizes(factor=1.0)


def test_class_for_picks_smallest_fitting():
    alloc = SlabAllocator()
    cls = alloc.class_for(100)
    assert cls is not None
    assert cls.chunk_size >= 100
    idx = alloc.classes.index(cls)
    if idx > 0:
        assert alloc.classes[idx - 1].chunk_size < 100


def test_alloc_grows_page_on_demand():
    alloc = SlabAllocator(max_bytes=2 * PAGE_BYTES)
    chunk = alloc.alloc(500)
    assert chunk is not None
    assert alloc.allocated_bytes == PAGE_BYTES
    cls = chunk.slab_class
    assert cls.total_pages == 1
    assert len(cls.free_chunks) == cls.chunks_per_page - 1


def test_alloc_exhausts_then_returns_none():
    alloc = SlabAllocator(max_bytes=PAGE_BYTES)
    cls = alloc.class_for(500)
    got = []
    while True:
        c = alloc.alloc(500)
        if c is None:
            break
        got.append(c)
    assert len(got) == cls.chunks_per_page
    assert alloc.alloc(500) is None


def test_free_recycles_chunk():
    alloc = SlabAllocator(max_bytes=PAGE_BYTES)
    chunks = [alloc.alloc(500) for _ in range(3)]
    alloc.free(chunks[1])
    again = alloc.alloc(500)
    assert again is chunks[1]


def test_double_free_rejected():
    alloc = SlabAllocator()
    chunk = alloc.alloc(500)
    alloc.free(chunk)
    with pytest.raises(ValueError):
        alloc.free(chunk)


def test_a_pinned_chunk_frees_on_its_last_release():
    """A reader pin defers the owner's free: the chunk is reused only
    after every reader has released it."""
    alloc = SlabAllocator(max_bytes=PAGE_BYTES)
    chunk = alloc.alloc(500)
    first, second = alloc.pin(chunk), alloc.pin(chunk)
    alloc.free(chunk)
    assert chunk.used and alloc.alloc(500) is not chunk
    with pytest.raises(ValueError, match="double free"):
        alloc.free(chunk)
    first.release()
    assert chunk.used
    second.release()
    assert not chunk.used and alloc.pins == {} and alloc.deferred_frees == set()
    assert alloc.alloc(500) is chunk
    with pytest.raises(ValueError, match="released twice"):
        second.release()


def test_releasing_a_pin_of_a_live_chunk_frees_nothing():
    alloc = SlabAllocator(max_bytes=PAGE_BYTES)
    chunk = alloc.alloc(500)
    alloc.pin(chunk).release()
    assert chunk.used and alloc.pins == {}


def test_too_large_object_rejected():
    alloc = SlabAllocator()
    with pytest.raises(ValueError):
        alloc.alloc(PAGE_BYTES + 1)


def test_chunk_data_roundtrip():
    alloc = SlabAllocator()
    chunk = alloc.alloc(200)
    chunk.write(b"hello slab")
    assert chunk.read(10) == b"hello slab"


def test_chunks_do_not_overlap():
    alloc = SlabAllocator()
    a = alloc.alloc(200)
    b = alloc.alloc(200)
    a.write(b"A" * 50)
    b.write(b"B" * 50)
    assert a.read(50) == b"A" * 50
    assert b.read(50) == b"B" * 50


def test_rdma_location_requires_registration():
    alloc = SlabAllocator()
    chunk = alloc.alloc(100)
    with pytest.raises(RuntimeError):
        chunk.rdma_location()


def test_registered_pages_expose_mr():
    from repro.sim import Simulator
    from repro.fabric import HOST_CLOVERTOWN, IB_DDR, Network, Node
    from repro.verbs import Hca
    from repro.verbs.params import HCA_CONNECTX_DDR

    sim = Simulator()
    net = Network(sim, IB_DDR)
    node = Node(sim, "s", HOST_CLOVERTOWN)
    hca = Hca(sim, net.attach(node), HCA_CONNECTX_DDR)
    pd = hca.alloc_pd()
    alloc = SlabAllocator(pd=pd)
    chunk = alloc.alloc(100)
    mr, offset = chunk.rdma_location()
    chunk.write(b"registered!")
    assert mr.read(offset, 11) == b"registered!"


def test_min_memory_validation():
    with pytest.raises(ValueError):
        SlabAllocator(max_bytes=PAGE_BYTES - 1)


def test_stats_shape():
    alloc = SlabAllocator()
    alloc.alloc(100)
    s = alloc.stats()
    assert s["pages"] == 1
    assert s["total_chunks"] > 0
    assert s["free_chunks"] == s["total_chunks"] - 1
