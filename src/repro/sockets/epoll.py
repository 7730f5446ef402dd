"""epoll emulation: the readiness engine under libevent.

Memcached's event loop is libevent over epoll; the latency contribution
of that path -- an ``epoll_wait`` syscall per wakeup plus the thread
hand-off -- is part of why sockets-based memcached cannot approach verbs
latencies.  The :class:`Epoll` object reproduces level-triggered
semantics over the simulated sockets.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sim import Expired

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fabric.topology import Node
    from repro.sim import Simulator
    from repro.sockets.api import Socket

#: Readiness event masks (bit-compatible spirit, not values, with Linux).
EPOLLIN = 0x1
EPOLLOUT = 0x4

#: CPU cost of one ``epoll_wait`` call.
EPOLL_WAIT_US = 0.5


class Epoll:
    """Level-triggered readiness multiplexer for simulated sockets."""

    def __init__(self, sim: "Simulator", node: "Node") -> None:
        self.sim = sim
        self.node = node
        self._interest: dict["Socket", int] = {}
        self._wakeup = None  # armed while a wait() is blocked

    # -- interest list -------------------------------------------------------------

    def register(self, sock: "Socket", events: int = EPOLLIN) -> None:
        """Add *sock* to the interest list with *events* mask."""
        if events == 0:
            raise ValueError("empty event mask")
        if sock in self._interest:
            raise ValueError(f"{sock!r} already registered")
        self._interest[sock] = events
        sock.watch_readiness(self._on_readiness)

    def unregister(self, sock: "Socket") -> None:
        if self._interest.pop(sock, None) is not None:
            sock.unwatch_readiness(self._on_readiness)

    def __len__(self) -> int:
        return len(self._interest)

    # -- waiting ---------------------------------------------------------------------

    def wait(self, timeout_us: Optional[float] = None):
        """Process helper: block until ≥1 registered socket is ready.

        Returns ``[(socket, ready_mask), ...]``; an empty list on timeout.
        Level-triggered: a socket stays ready until drained.
        """
        yield from self.node.cpu_run(EPOLL_WAIT_US)
        while True:
            ready = self._poll_ready()
            if ready:
                return ready
            wakeup = self._wakeup = self.sim.event(name="epoll-wakeup")
            if timeout_us is not None:
                wakeup.expire_after(timeout_us)
            try:
                yield wakeup
            except Expired:
                return []
            finally:
                self._wakeup = None
            # Thread wakeup out of epoll_wait.
            yield from self.node.cpu_run(self.node.host.context_switch_us)

    def _poll_ready(self) -> list[tuple["Socket", int]]:
        ready = []
        for sock, mask in self._interest.items():
            hits = 0
            if mask & EPOLLIN and sock.readable:
                hits |= EPOLLIN
            if mask & EPOLLOUT and sock.writable:
                hits |= EPOLLOUT
            if hits:
                ready.append((sock, hits))
        return ready

    def _on_readiness(self, sock: "Socket") -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Epoll on {self.node.name} watching {len(self._interest)}>"
