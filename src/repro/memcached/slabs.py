"""The slab allocator.

Memory is carved into 1 MB *pages*, each assigned to a *slab class* and
split into equal-size *chunks*; an item lives in the smallest chunk that
fits its key + value + header.  Chunk sizes start at 96 bytes and grow by
a factor of 1.25, exactly like memcached 1.4's defaults.

Two properties matter to the paper:

- consolidation: the server may move data between slabs "to avoid
  fragmentation (without informing clients)" -- the reason client-side
  address caching (the Blue Gene design, §III) is unsafe.  Values live in
  server-private chunks that can be reassigned at any time.
- registration: when built for UCR, pages are backed by verbs memory
  regions so values can be served by RDMA straight out of the slab.

A value served that way is read by the NIC after the command that found
it returns, so its chunk carries a reader pin (:meth:`SlabAllocator.pin`)
until the bytes have left: a chunk freed while pinned goes back to its
free list only on the last release, never under a read (memcached's item
refcount plays this part).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.verbs.mr import zeroed

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verbs.mr import MemoryRegion, ProtectionDomain

#: Size of one slab page (memcached's default).
PAGE_BYTES = 1024 * 1024
#: Smallest chunk size.
CHUNK_MIN = 96
#: Geometric growth factor between classes.
GROWTH_FACTOR = 1.25


def build_chunk_sizes(chunk_min: int = CHUNK_MIN, factor: float = GROWTH_FACTOR) -> list[int]:
    """The ascending chunk-size table (last class == one full page)."""
    if chunk_min < 48 or factor <= 1.0:
        raise ValueError("chunk_min >= 48 and factor > 1.0 required")
    sizes = []
    size = chunk_min
    while size < PAGE_BYTES // 2:
        # 8-byte alignment, like memcached.
        aligned = (size + 7) & ~7
        if not sizes or aligned != sizes[-1]:
            sizes.append(aligned)
        size = int(size * factor) + 1
    sizes.append(PAGE_BYTES)
    return sizes


class Page:
    """One 1 MB arena; optionally backed by a registered memory region.

    Unregistered or not, the bytes are lazily zeroed (:func:`zeroed`): a
    slab page costs host RAM only for the OS pages its chunks touch.
    """

    __slots__ = ("page_id", "size", "mr", "_buffer")

    def __init__(self, page_id: int, size: int, mr: Optional["MemoryRegion"]) -> None:
        self.page_id = page_id
        self.size = size
        self.mr = mr
        #: Plain storage when not RDMA-registered.
        self._buffer = None if mr is not None else zeroed(size)

    def write(self, offset: int, data: bytes) -> None:
        if self.mr is not None:
            self.mr.write(offset, data)
        else:
            self._buffer[offset : offset + len(data)] = data

    def read(self, offset: int, length: int) -> bytes:
        if self.mr is not None:
            return self.mr.read(offset, length)
        return bytes(self._buffer[offset : offset + length])


class SlabChunk:
    """A fixed-size slot within a page."""

    __slots__ = ("slab_class", "page", "offset", "capacity", "used")

    def __init__(self, slab_class: "SlabClass", page: Page, offset: int) -> None:
        self.slab_class = slab_class
        self.page = page
        self.offset = offset
        #: Usable bytes for the value (class chunk size minus item header
        #: and key are accounted by the caller; capacity is raw).
        self.capacity = slab_class.chunk_size
        self.used = False

    def write(self, data: bytes) -> None:
        self.page.write(self.offset, data)

    def read(self, length: int) -> bytes:
        return self.page.read(self.offset, length)

    def rdma_location(self) -> tuple["MemoryRegion", int]:
        """(mr, offset) for zero-copy RDMA out of the slab."""
        if self.page.mr is None:
            raise RuntimeError("slab page is not RDMA-registered")
        return self.page.mr, self.offset


class ChunkPin:
    """One reader's hold on a slab chunk; :meth:`release` it exactly once."""

    __slots__ = ("allocator", "chunk")

    def __init__(self, allocator: "SlabAllocator", chunk: SlabChunk) -> None:
        self.allocator = allocator
        self.chunk = chunk

    def release(self) -> None:
        """The reader is done; a free the owner asked for meanwhile happens
        on the chunk's last release."""
        chunk, self.chunk = self.chunk, None
        if chunk is None:
            raise ValueError("slab chunk pin released twice")
        self.allocator.unpin(chunk)


class SlabClass:
    """All pages/chunks of one chunk size."""

    def __init__(self, class_id: int, chunk_size: int) -> None:
        self.class_id = class_id
        self.chunk_size = chunk_size
        self.chunks_per_page = max(1, PAGE_BYTES // chunk_size)
        self.free_chunks: list[SlabChunk] = []
        self.total_chunks = 0
        self.total_pages = 0

    def add_page(self, page: Page) -> None:
        """Carve *page* into chunks of this class's size."""
        self.total_pages += 1
        for i in range(self.chunks_per_page):
            self.free_chunks.append(SlabChunk(self, page, i * self.chunk_size))
        self.total_chunks += self.chunks_per_page

    def pop_free(self) -> Optional[SlabChunk]:
        if self.free_chunks:
            chunk = self.free_chunks.pop()
            chunk.used = True
            return chunk
        return None

    def reclaim_page(self) -> Optional[Page]:
        """Detach one fully-free page (every chunk on the free list).

        The page's chunks are dropped from this class entirely -- the
        caller re-carves the page elsewhere -- so any stale reference to
        them is a use-after-reassign bug.  Returns None when no page of
        this class is empty.  Lowest page id wins, for determinism.
        """
        if self.total_pages == 0 or len(self.free_chunks) < self.chunks_per_page:
            return None
        free_by_page: dict[int, list[SlabChunk]] = {}
        for chunk in self.free_chunks:
            free_by_page.setdefault(chunk.page.page_id, []).append(chunk)
        for page_id in sorted(free_by_page):
            chunks = free_by_page[page_id]
            if len(chunks) == self.chunks_per_page:
                page = chunks[0].page
                self.free_chunks = [c for c in self.free_chunks if c.page is not page]
                self.total_pages -= 1
                self.total_chunks -= self.chunks_per_page
                return page
        return None

    def release(self, chunk: SlabChunk) -> None:
        """Return *chunk* to this class's free list."""
        if not chunk.used:
            raise ValueError("double free of slab chunk")
        chunk.used = False
        self.free_chunks.append(chunk)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SlabClass {self.class_id} {self.chunk_size}B "
            f"{len(self.free_chunks)}/{self.total_chunks} free>"
        )


class SlabAllocator:
    """Page assignment and chunk allocation across all classes."""

    def __init__(
        self,
        max_bytes: int = 64 * PAGE_BYTES,
        pd: Optional["ProtectionDomain"] = None,
    ) -> None:
        if max_bytes < PAGE_BYTES:
            raise ValueError("need at least one page of memory")
        self.max_bytes = max_bytes
        self.pd = pd  # set => pages are registered with the HCA
        self.classes = [SlabClass(i, size) for i, size in enumerate(build_chunk_sizes())]
        self.allocated_bytes = 0
        self._next_page_id = 0
        #: chunk -> its readers' pin count; only pinned chunks are keys.
        self.pins: dict[SlabChunk, int] = {}
        #: Pinned chunks their owner has freed: each returns to its free
        #: list on its last unpin.
        self.deferred_frees: set[SlabChunk] = set()

    def class_for(self, total_item_bytes: int) -> Optional[SlabClass]:
        """Smallest class whose chunks fit *total_item_bytes* (None: too big)."""
        for cls in self.classes:
            if cls.chunk_size >= total_item_bytes:
                return cls
        return None

    def alloc(self, total_item_bytes: int) -> Optional[SlabChunk]:
        """Allocate a chunk, growing the class by a page if allowed.

        Returns None when memory is exhausted -- the store then evicts.
        """
        cls = self.class_for(total_item_bytes)
        if cls is None:
            raise ValueError(
                f"object of {total_item_bytes} bytes exceeds the page size"
            )
        chunk = cls.pop_free()
        if chunk is not None:
            return chunk
        if self.allocated_bytes + PAGE_BYTES <= self.max_bytes:
            cls.add_page(self._make_page())
            return cls.pop_free()
        return None

    def free(self, chunk: SlabChunk) -> None:
        if chunk in self.pins:
            if chunk in self.deferred_frees:
                raise ValueError("double free of slab chunk")
            self.deferred_frees.add(chunk)
            return
        chunk.slab_class.release(chunk)

    def pin(self, chunk: SlabChunk) -> ChunkPin:
        """Hold *chunk* for a reader: freeing it meanwhile is deferred."""
        self.pins[chunk] = self.pins.get(chunk, 0) + 1
        return ChunkPin(self, chunk)

    def unpin(self, chunk: SlabChunk) -> None:
        """Drop one pin of *chunk* (:meth:`ChunkPin.release`)."""
        left = self.pins.pop(chunk) - 1
        if left:
            self.pins[chunk] = left
        elif chunk in self.deferred_frees:
            self.deferred_frees.remove(chunk)
            chunk.slab_class.release(chunk)

    def reassign_page(self, src: SlabClass, dst: SlabClass) -> bool:
        """Move one empty page from *src* to *dst* (the slab mover).

        Only fully-free pages move: no items are relocated, the arena is
        simply re-carved at *dst*'s chunk size.  Returns False when *src*
        has no empty page to give.
        """
        if src is dst:
            return False
        page = src.reclaim_page()
        if page is None:
            return False
        dst.add_page(page)
        return True

    def _make_page(self) -> Page:
        from repro.verbs.enums import Access

        self._next_page_id += 1
        self.allocated_bytes += PAGE_BYTES
        mr = None
        if self.pd is not None:
            mr = self.pd.reg_mr(PAGE_BYTES, Access.full())
        return Page(self._next_page_id, PAGE_BYTES, mr)

    def stats(self) -> dict[str, int]:
        return {
            "allocated_bytes": self.allocated_bytes,
            "pages": self._next_page_id,
            "classes": len(self.classes),
            "free_chunks": sum(len(c.free_chunks) for c in self.classes),
            "total_chunks": sum(c.total_chunks for c in self.classes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SlabAllocator {self.allocated_bytes}/{self.max_bytes}B>"
