"""Memcached: server and client, in both sockets and UCR flavors.

This package reimplements the memcached 1.4-era engine the paper extends
(server 1.4.x, libmemcached 0.45):

- storage engine: slab allocator (:mod:`~repro.memcached.slabs`) under
  :class:`~repro.memcached.store.ItemStore`, which keeps the key index
  (a ``dict``) and one LRU per slab class (an ``OrderedDict``) and adds
  lazy expiry, CAS, flush_all and eviction accounting;
- :mod:`~repro.memcached.protocol`: the text protocol with an
  incremental parser (partial reads, pipelining, noreply);
- :class:`~repro.memcached.server.MemcachedServer`: libevent-style
  dispatcher + round-robin worker threads serving socket clients, and --
  per the paper's §V-A dual-mode design -- the same server object accepts
  UCR endpoints through :class:`~repro.memcached.server.UcrServerPort`;
- :class:`~repro.memcached.client.MemcachedClient`: a libmemcached-style
  API (set/get/mget/incr/decr/delete/cas/stats) over any key
  distribution of :mod:`repro.cluster.router` (modula, ketama, a hash
  ring) and pluggable transports:
  :class:`~repro.memcached.sockets_transport.SocketsTransport` (text or
  binary protocol over sockets),
  :class:`~repro.memcached.ucr_transport.UcrTransport` (UCR active
  messages over RC) and
  :class:`~repro.memcached.onesided.OneSidedTransport` (RDMA READ GETs).
"""

from repro.cluster.router import KetamaDistribution, ModulaDistribution
from repro.memcached.client import ClientCosts, MemcachedClient
from repro.memcached.command import MEMCACHED_PORT
from repro.memcached.errors import (
    ClientError,
    MemcachedError,
    ServerError,
)
from repro.memcached.items import Item
from repro.memcached.server import MemcachedServer, UcrServerPort
from repro.memcached.sockets_transport import SocketsTransport
from repro.memcached.store import ItemStore, StoreConfig
from repro.memcached.ucr_transport import UcrTransport

__all__ = [
    "ClientCosts",
    "ClientError",
    "Item",
    "ItemStore",
    "KetamaDistribution",
    "MEMCACHED_PORT",
    "MemcachedClient",
    "MemcachedError",
    "MemcachedServer",
    "ModulaDistribution",
    "ServerError",
    "SocketsTransport",
    "StoreConfig",
    "UcrServerPort",
    "UcrTransport",
]
