"""Client-side key distribution.

"The identification of the destination server is done at the client side
using a hash function on the key.  Therefore, the architecture is
inherently scalable as there is no central server to consult" (paper
§II-C).  Two strategies, matching libmemcached behaviors:

- **Modula**: ``hash(key) % n_servers`` -- simple, but remaps almost all
  keys when the pool changes.
- **Ketama**: consistent hashing on a ring of virtual points -- only
  ~1/n of keys move when a server joins or leaves.
"""

from __future__ import annotations

import bisect
from typing import Sequence

from repro.cluster.router import ring_point


class ModulaDistribution:
    """hash % n, libmemcached's MEMCACHED_DISTRIBUTION_MODULA."""

    def __init__(self, servers: Sequence[str]) -> None:
        if not servers:
            raise ValueError("need at least one server")
        self.servers = list(servers)

    def server_for(self, key: str) -> str:
        """The server responsible for *key*."""
        return self.servers[ring_point(key) % len(self.servers)]

    def remove_server(self, name: str) -> None:
        """Drop a (dead) server from the distribution."""
        self.servers.remove(name)
        if not self.servers:
            raise ValueError("removed the last server")


class KetamaDistribution:
    """Consistent hashing, MEMCACHED_DISTRIBUTION_CONSISTENT_KETAMA."""

    POINTS_PER_SERVER = 160

    def __init__(self, servers: Sequence[str]) -> None:
        if not servers:
            raise ValueError("need at least one server")
        self.servers = list(servers)
        self._ring: list[tuple[int, str]] = []
        self._build()

    def _build(self) -> None:
        ring = []
        for server in self.servers:
            for i in range(self.POINTS_PER_SERVER):
                ring.append((ring_point(f"{server}-{i}"), server))
        ring.sort()
        self._ring = ring
        self._points = [p for p, _ in ring]

    def server_for(self, key: str) -> str:
        """The first ring point at or after the key's hash."""
        h = ring_point(key)
        idx = bisect.bisect(self._points, h)
        if idx == len(self._ring):
            idx = 0
        return self._ring[idx][1]

    def remove_server(self, name: str) -> None:
        """Drop a server; only ~1/n of keys remap (the ketama win)."""
        self.servers.remove(name)
        if not self.servers:
            raise ValueError("removed the last server")
        self._build()
