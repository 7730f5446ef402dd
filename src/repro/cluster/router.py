"""Client-side key distribution: how a client maps a key to a server.

"The identification of the destination server is done at the client side
using a hash function on the key" (paper §II-C), so there is no central
server to consult.  Every distribution here hashes keys with
:func:`ring_point`:

- :class:`ModulaDistribution`: ``hash % n``, libmemcached's MODULA --
  almost every key moves when the pool changes;
- :class:`HashRing`: consistent hashing with virtual nodes and weights,
  the ring a sharded client routes over;
- :class:`KetamaDistribution`: libmemcached's CONSISTENT_KETAMA, a
  :class:`HashRing` with its own point names and 160 points per server.

The ring has:

- **virtual nodes**: each server owns ``vnodes * weight`` points on a
  32-bit ring, so load imbalance shrinks as ``1/sqrt(vnodes)`` (at the
  default 100 vnodes the max/min key-share ratio stays under ~1.35 for
  pools of 2-8 servers);
- **weighted servers**: a weight-2 server owns twice the points and
  therefore ~twice the keys (heterogeneous hardware, paper §VI-A has two
  distinct testbeds);
- **failover by walking on**: ``server_for(key, avoid)`` walks clockwise
  from a key's point past avoided servers, so a dead shard's keys spread
  across the whole surviving pool instead of piling onto one neighbour.

Everything here is pure deterministic computation (MD5 over stable
strings) -- no clock, no entropy -- so routing decisions replay
bit-for-bit under the event-digest sanitizer.

Each distribution speaks the protocol
:class:`~repro.memcached.client.MemcachedClient` expects (``server_for``
/ ``servers`` / ``remove_server``); a ring's ``server_for`` also takes
the *avoid* set of a client under a failover policy.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence, Union

#: Virtual nodes per unit of weight.  100 keeps the max/min key-share
#: ratio of equal-weight pools under ~1.35 (measured over 10k keys for
#: pools of 2-8 servers), within the <=1.5 budget the property suite
#: enforces.
DEFAULT_VNODES = 100

_RING_BITS = 32
_RING_SIZE = 1 << _RING_BITS


def ring_point(data: str) -> int:
    """Map a string to a point on the 32-bit ring (stable across runs):
    the first four bytes of its MD5, little-endian.  The one key hash of
    every client distribution."""
    return int.from_bytes(hashlib.md5(data.encode()).digest()[:4], "little")


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


@dataclass(frozen=True)
class RingNode:
    """One weighted member of the ring."""

    name: str
    weight: int = 1

    def __post_init__(self) -> None:
        if self.weight < 1:
            raise ValueError(f"{self.name}: weight must be >= 1, got {self.weight}")


def _coerce(node: Union[str, RingNode]) -> RingNode:
    return node if isinstance(node, RingNode) else RingNode(node)


class HashRing:
    """A consistent-hash ring with virtual nodes and weighted servers.

    Parameters
    ----------
    nodes:
        Server names or :class:`RingNode` instances (for weights).
    vnodes:
        Ring points per unit of weight.

    The ring is rebuilt on membership change; only the joining/leaving
    server's points appear/disappear, so only the keys on those arcs
    remap (the consistent-hashing contract the property suite pins
    down).
    """

    #: Name of a server's i-th ring point (hashed by :func:`ring_point`).
    POINT = "{}#{}"

    def __init__(
        self,
        nodes: Iterable[Union[str, RingNode]],
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._nodes: dict[str, RingNode] = {}
        for node in nodes:
            node = _coerce(node)
            if node.name in self._nodes:
                raise ValueError(f"duplicate ring node {node.name!r}")
            self._nodes[node.name] = node
        if not self._nodes:
            raise ValueError("need at least one ring node")
        self._ring: list[tuple[int, str]] = []
        self._points: list[int] = []
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        ring: list[tuple[int, str]] = []
        point = self.POINT
        for node in self._nodes.values():
            for i in range(self.vnodes * node.weight):
                ring.append((ring_point(point.format(node.name, i)), node.name))
        # Sort by (point, name): the name tiebreaker makes point
        # collisions between servers deterministic instead of
        # insertion-order dependent.
        ring.sort()
        self._ring = ring
        self._points = [p for p, _ in ring]

    # -- membership --------------------------------------------------------

    @property
    def servers(self) -> list[str]:
        """Member names in insertion order (distribution protocol)."""
        return list(self._nodes)

    def add_server(self, node: Union[str, RingNode]) -> None:
        """Join a server; only ~weight/total_weight of keys remap to it."""
        node = _coerce(node)
        if node.name in self._nodes:
            raise ValueError(f"{node.name} already in ring")
        self._nodes[node.name] = node
        self._build()

    def remove_server(self, name: str) -> None:
        """Leave the ring; only the departed server's keys remap."""
        if name not in self._nodes:
            raise KeyError(f"{name!r} not in ring")
        if len(self._nodes) == 1:
            raise ValueError("removed the last server")
        del self._nodes[name]
        self._build()

    # -- routing -----------------------------------------------------------

    def _first_point(self, key: str) -> int:
        idx = bisect.bisect(self._points, ring_point(key))
        return 0 if idx == len(self._ring) else idx

    def server_for(
        self, key: str, avoid: AbstractSet[str] = frozenset()
    ) -> str:
        """The server owning *key*, skipping members of *avoid*.

        Walking clockwise from the key's point, the first point whose
        server is not avoided wins.  If *avoid* would exclude every
        member it is ignored entirely (fail-open: routing to a possibly
        dead natural owner beats refusing to route at all).
        """
        if avoid and not (set(self._nodes) - avoid):
            avoid = frozenset()
        start = self._first_point(key)
        if not avoid:
            return self._ring[start][1]
        n = len(self._ring)
        for step in range(n):
            server = self._ring[(start + step) % n][1]
            if server not in avoid:
                return server
        raise AssertionError("unreachable: avoid cannot cover the ring here")

    # -- introspection -----------------------------------------------------

    def arc_shares(self) -> dict[str, float]:
        """Fraction of the ring each server owns (analysis/testing aid)."""
        shares = {name: 0 for name in self._nodes}
        for i, (p, server) in enumerate(self._ring):
            lo = self._ring[i - 1][0] if i else 0
            shares[server] += p - lo
        # The wrap-around arc belongs to the first point's server.
        shares[self._ring[0][1]] += _RING_SIZE - self._ring[-1][0]
        return {name: arc / _RING_SIZE for name, arc in shares.items()}

    def __len__(self) -> int:
        return len(self._ring)

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {len(self._nodes)} servers, "
            f"{len(self._ring)} points, vnodes={self.vnodes}>"
        )


class KetamaDistribution(HashRing):
    """libmemcached's MEMCACHED_DISTRIBUTION_CONSISTENT_KETAMA: 160 points
    per server named ``<server>-<i>``; only ~1/n of keys move when a
    server joins or leaves."""

    POINT = "{}-{}"

    def __init__(self, servers: Sequence[str]) -> None:
        super().__init__(servers, vnodes=160)
