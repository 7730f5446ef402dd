"""Gutter routing: absorb an ejected shard's traffic in a spare pool.

When a shard dies, plain ring failover spreads its keys over the
surviving *primary* shards -- correct, but every rerouted get starts as
a miss and every rerouted set pollutes a shard that will keep the value
long after the dead one rejoins.  The production answer (Facebook's
"gutter" pool, via meta-memcache's gutter router) is a small pool of
spare servers that takes the dead shard's traffic with a *short* TTL:
misses refill quickly, nothing outlives the outage window, and the
primary ring's working set is untouched.

:class:`GutterRouter` wraps two :class:`~repro.cluster.router.HashRing`
instances and speaks the distribution protocol
(``server_for`` / ``servers`` / ``remove_server``), so it drops into
:class:`~repro.memcached.client.MemcachedClient` unchanged: the *avoid*
set a client under a failover policy passes (its ejected shards) is
exactly the signal that redirects a key to the gutter ring.  Flow diagram: ``docs/SERVING.md``.
"""

from __future__ import annotations

from typing import AbstractSet

from repro.cluster.router import HashRing


class GutterRouter:
    """Distribution that diverts ejected-shard traffic to a gutter ring.

    Parameters
    ----------
    primary:
        The main consistent-hash ring (owns every key in steady state).
    gutter:
        The spare pool's ring; consulted only while a key's natural
        owner is in the caller's *avoid* set.
    gutter_ttl_s:
        Expiry clamp for values written while gutter-routed; the client
        applies it so gutter entries die shortly after the outage.
    """

    def __init__(self, primary: HashRing, gutter: HashRing, gutter_ttl_s: float = 10.0) -> None:
        if gutter_ttl_s <= 0:
            raise ValueError(f"gutter_ttl_s must be positive, got {gutter_ttl_s}")
        overlap = set(primary.servers) & set(gutter.servers)
        if overlap:
            raise ValueError(f"servers in both rings: {sorted(overlap)}")
        self.primary = primary
        self.gutter = gutter
        self.gutter_ttl_s = gutter_ttl_s
        #: Operations redirected into the gutter pool.
        self.absorbed = 0

    @classmethod
    def reserving_last(
        cls, servers: list[str], n: int, gutter_ttl_s: float = 10.0
    ) -> "GutterRouter":
        """The standard split of one pool: its *last* n servers leave
        the primary ring and become the gutter pool."""
        if not 0 < n < len(servers):
            raise ValueError(
                f"gutter={n} leaves no primary shards out of {len(servers)} servers"
            )
        return cls(HashRing(servers[:-n]), HashRing(servers[-n:]), gutter_ttl_s)

    # -- distribution protocol ---------------------------------------------

    @property
    def servers(self) -> list[str]:
        """Primary members first, then the gutter pool."""
        return self.primary.servers + self.gutter.servers

    def server_for(self, key: str, avoid: AbstractSet[str] = frozenset()) -> str:
        """Natural owner normally; a gutter server while the owner is out.

        The natural owner is computed *ignoring* avoid: a key must not
        silently migrate to another primary shard (that is exactly the
        working-set pollution gutters exist to prevent).  Only when that
        owner is avoided does the key route to the gutter ring (which
        applies *avoid* to its own members, fail-open like any ring).
        """
        owner = self.primary.server_for(key)
        if owner not in avoid:
            return owner
        self.absorbed += 1
        return self.gutter.server_for(key, avoid=avoid)

    def remove_server(self, name: str) -> None:
        (self.primary if name in self.primary else self.gutter).remove_server(name)

    # -- introspection ------------------------------------------------------

    def is_gutter(self, name: str) -> bool:
        """True iff *name* is a gutter-pool member (TTL clamp applies)."""
        return name in self.gutter

    def __contains__(self, name: str) -> bool:
        return name in self.primary or name in self.gutter

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GutterRouter primary={self.primary.servers}"
            f" gutter={self.gutter.servers} ttl={self.gutter_ttl_s}s"
            f" absorbed={self.absorbed}>"
        )
