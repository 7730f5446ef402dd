"""Protection domains and registered memory regions.

A memory region is a window onto real bytes so that RDMA operations move
actual data -- the memcached layer above stores values through these
buffers and the test suite checks integrity end-to-end.  The bytes are
lazily zeroed anonymous memory (:func:`zeroed`): each protection domain
bump-allocates its regions out of :data:`ARENA_BYTES` mappings, so a
region costs host RAM only for the pages the model writes, and thousands
of small registrations share a handful of mappings.  Keys (lkey/rkey)
and access-flag enforcement follow the verbs contract: a remote operation
with the wrong rkey or insufficient permissions fails with
``REM_ACCESS_ERR``, which is exactly the failure mode that makes the
"clients read server memory directly" design the paper argues against
(Appavoo et al.) unsafe.
"""

from __future__ import annotations

import itertools
import mmap
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.verbs.enums import Access

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.verbs.device import Hca

_pd_ids = itertools.count(1)
_keys = itertools.count(0x1000)

#: Size of one protection domain's arena mapping; a region at least this
#: large gets a mapping of its own.
ARENA_BYTES = 4 * 1024 * 1024


def zeroed(size: int) -> memoryview:
    """*size* bytes of private anonymous memory.

    The OS supplies the zeros on first touch, so untouched pages cost no
    resident memory -- unlike ``bytearray(size)``, which writes every byte.
    """
    return memoryview(mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE))


@dataclass(frozen=True, slots=True)
class RegionDescriptor:
    """Out-of-band advertisement of an exported region (rkey + geometry).

    What a server hands to remote peers so they can target the region
    with one-sided operations -- the moral equivalent of exchanging
    ``(rkey, addr, len)`` during connection setup on real verbs.
    """

    rkey: int
    size: int


class ProtectionDomain:
    """Isolation domain: QPs may only touch MRs of their own PD.

    It also owns its regions' backing: a bump allocator over
    :data:`ARENA_BYTES` mappings.  There is no free list -- pools never
    shrink -- so a mapping lives exactly as long as the regions cut from it.
    """

    __slots__ = ("hca", "pd_id", "_regions", "_arena", "_arena_used")

    def __init__(self, hca: "Hca") -> None:
        self.hca = hca
        self.pd_id = next(_pd_ids)
        self._regions: dict[int, MemoryRegion] = {}
        self._arena = zeroed(ARENA_BYTES)
        self._arena_used = 0

    def reg_mr(self, size: int, access: Access = Access.local_only()) -> "MemoryRegion":
        """Register a fresh buffer of *size* bytes."""
        mr = MemoryRegion(self, size, access)
        self._regions[mr.rkey] = mr
        return mr

    def _backing(self, size: int) -> memoryview:
        """*size* fresh zero bytes cut from the arena."""
        if size >= ARENA_BYTES:
            return zeroed(size)
        if self._arena_used + size > ARENA_BYTES:
            self._arena = zeroed(ARENA_BYTES)
            self._arena_used = 0
        start = self._arena_used
        self._arena_used += size
        return self._arena[start : start + size]

    def dereg_mr(self, mr: "MemoryRegion") -> None:
        """Invalidate a region; later remote access fails."""
        self._regions.pop(mr.rkey, None)
        mr._valid = False

    def lookup_rkey(self, rkey: int) -> "MemoryRegion":
        """Resolve an rkey carried by an inbound RDMA operation."""
        try:
            return self._regions[rkey]
        except KeyError:
            raise PermissionError(f"invalid rkey {rkey:#x} in PD {self.pd_id}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProtectionDomain #{self.pd_id} regions={len(self._regions)}>"


class MemoryRegion:
    """A registered, access-controlled buffer."""

    __slots__ = ("pd", "size", "access", "lkey", "rkey", "_buffer", "_valid")

    def __init__(self, pd: ProtectionDomain, size: int, access: Access) -> None:
        if size <= 0:
            raise ValueError(f"memory region size must be positive, got {size}")
        self.pd = pd
        self.size = size
        self.access = access
        self.lkey = next(_keys)
        self.rkey = next(_keys)
        self._buffer = pd._backing(size)
        self._valid = True

    def describe(self) -> RegionDescriptor:
        """The advertisement remote peers need to READ/WRITE this region."""
        if Access.REMOTE_READ not in self.access and Access.REMOTE_WRITE not in self.access:
            raise PermissionError("describing a region with no remote permissions")
        return RegionDescriptor(rkey=self.rkey, size=self.size)

    # -- local access (used by the software layers) ---------------------------

    def write(self, offset: int, data: bytes) -> None:
        """Local CPU store into the region."""
        self._check_bounds(offset, len(data))
        self._buffer[offset : offset + len(data)] = data

    def read(self, offset: int, length: int) -> bytes:
        """Local CPU load from the region."""
        self._check_bounds(offset, length)
        return bytes(self._buffer[offset : offset + length])

    # -- remote access (used by the simulated HCA) -----------------------------

    def remote_write(self, offset: int, data: bytes, require_remote: bool = True) -> None:
        """Inbound data placement.

        RDMA WRITE targets call with ``require_remote=True`` (the default)
        and need ``REMOTE_WRITE``.  SEND placement into a posted receive
        buffer passes ``require_remote=False`` -- the buffer was volunteered
        by the local QP, so ``LOCAL_WRITE`` suffices.
        """
        if not self._valid:
            raise PermissionError("write to deregistered memory region")
        needed = Access.REMOTE_WRITE if require_remote else Access.LOCAL_WRITE
        if needed not in self.access:
            raise PermissionError(f"region lacks {needed} permission")
        self._check_bounds(offset, len(data))
        self._buffer[offset : offset + len(data)] = data

    def remote_read(self, offset: int, length: int) -> bytes:
        """Inbound RDMA READ source; enforces REMOTE_READ."""
        if not self._valid:
            raise PermissionError("read from deregistered memory region")
        if Access.REMOTE_READ not in self.access:
            raise PermissionError("region lacks REMOTE_READ permission")
        self._check_bounds(offset, length)
        return bytes(self._buffer[offset : offset + length])

    def _check_bounds(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise IndexError(
                f"access [{offset}, {offset + length}) outside region of {self.size} bytes"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MemoryRegion {self.size}B rkey={self.rkey:#x} {self.access}>"
