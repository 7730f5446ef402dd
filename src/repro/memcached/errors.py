"""Memcached error taxonomy (mirrors libmemcached return codes)."""

from __future__ import annotations


class MemcachedError(Exception):
    """Base class for memcached failures."""


class ClientError(MemcachedError):
    """CLIENT_ERROR: malformed request (bad key, bad data chunk...)."""


class ServerError(MemcachedError):
    """SERVER_ERROR: the server could not satisfy a well-formed request
    (out of memory with evictions disabled, object too large...)."""


class ProtocolError(MemcachedError):
    """Unparseable bytes on the wire: the connection should be dropped."""


class ServerDownError(MemcachedError):
    """Transport-level failure: the client declared the server dead
    (UCR wait timeout or socket EOF)."""
