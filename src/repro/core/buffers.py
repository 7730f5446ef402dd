"""Registered buffer management.

UCR pre-registers two kinds of memory with the HCA:

- **Receive (bounce) buffers**: posted on every endpoint's receive queue;
  eager messages land here before being copied to their destination.
- **Send/rendezvous buffers**: staging space for payloads that will be
  RDMA-READ by the target; sized generously and recycled once the
  origin counter says the READ finished.

The pool is the piece of "performance critical logic (like buffer
management, flow control)" the paper says UCR shares with MPI runtimes
so memcached does not reimplement it (§I-B).
"""

from __future__ import annotations

from repro.core.errors import BufferLifecycleError
from repro.verbs.enums import Access
from repro.verbs.mr import MemoryRegion, ProtectionDomain

#: Every pooled buffer is registered for local and remote access.
ACCESS = Access.full()


class PooledBuffer:
    """A slice-sized registered buffer checked out of a :class:`BufferPool`."""

    __slots__ = ("pool", "mr", "in_use", "generation")

    def __init__(self, pool: "BufferPool", mr: MemoryRegion) -> None:
        self.pool = pool
        self.mr = mr
        self.in_use = False
        #: Bumped on every checkout; lets the sanitizer tell "same buffer,
        #: new owner" apart from "still my checkout".
        self.generation = 0

    def write(self, data: bytes) -> None:
        if not self.in_use:
            raise BufferLifecycleError(
                f"{self.pool.name}: write to a released buffer (use-after-release)"
            )
        self.mr.write(0, data)

    def read(self, length: int) -> bytes:
        if not self.in_use:
            raise BufferLifecycleError(
                f"{self.pool.name}: read from a released buffer (use-after-release)"
            )
        return self.mr.read(0, length)

    def release(self) -> None:
        if not self.in_use:
            raise BufferLifecycleError(f"{self.pool.name}: double release")
        self.pool.put(self)


class BufferPool:
    """Fixed-size registered buffers with O(1) checkout/return.

    The pool starts empty, grows on demand and never shrinks, mirroring
    MVAPICH-style registration caches.  Growth costs no simulated time:
    registering a new buffer is free in the model, and ``total_created``
    only counts it.
    """

    __slots__ = (
        "pd",
        "buffer_bytes",
        "name",
        "_free",
        "total_created",
    )

    #: Sanitizer observers notified as ``on_get(pool, buf)`` /
    #: ``on_put(pool, buf)`` around every checkout and return (see
    #: :mod:`repro.sanitize.buffers`); shared by all pools, normally empty.
    observers: list = []

    def __init__(
        self,
        pd: ProtectionDomain,
        buffer_bytes: int,
        name: str = "pool",
    ) -> None:
        if buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be > 0")
        self.pd = pd
        self.buffer_bytes = buffer_bytes
        self.name = name
        self._free: list[PooledBuffer] = []
        self.total_created = 0

    def get(self) -> PooledBuffer:
        """Check a buffer out, registering a new one when none is free."""
        if self._free:
            buf = self._free.pop()
        else:
            self.total_created += 1
            buf = PooledBuffer(self, self.pd.reg_mr(self.buffer_bytes, ACCESS))
        buf.in_use = True
        buf.generation += 1
        for observer in BufferPool.observers:
            observer.on_get(self, buf)
        return buf

    def put(self, buf: PooledBuffer) -> None:
        """Return a buffer to the free list."""
        if not buf.in_use:
            raise BufferLifecycleError(f"{self.name}: double release")
        for observer in BufferPool.observers:
            observer.on_put(self, buf)
        buf.in_use = False
        self._free.append(buf)

    @property
    def free_count(self) -> int:
        return len(self._free)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BufferPool {self.name} {self.free_count}/{self.total_created} free "
            f"x {self.buffer_bytes}B>"
        )
