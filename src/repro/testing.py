"""Reusable test/benchmark harnesses.

Small worlds used by the unit tests, the property suites, and the
benchmark ablations alike: a two-node UCR deployment, a per-stack socket
world, and an echo-RTT measurement helper.  Shipping them in the package
(rather than inside ``tests/``) keeps the benchmark suite runnable from
a bare checkout or an installed wheel.
"""

from __future__ import annotations

from typing import Optional

from repro.core import UcrRuntime
from repro.core.params import UcrParams
from repro.fabric import (
    ETH_1G,
    ETH_10G,
    HOST_CLOVERTOWN,
    IB_DDR,
    Network,
    Node,
)
from repro.sim import Simulator
from repro.sim.rng import RngStream
from repro.sockets.stack import SocketStack
from repro.verbs import Hca
from repro.verbs.params import HCA_CONNECTX_DDR

#: The memcached service id used by the UCR worlds.
SERVICE = 11211

#: The port :meth:`SocketWorld.connect_pair` listens on.
PAIR_PORT = 5000

#: Which physical link each socket stack rides in these harnesses.
NETWORK_FOR_STACK = {
    "1GigE-TCP": ETH_1G,
    "10GigE-TOE": ETH_10G,
    "IPoIB": IB_DDR,
    "SDP": IB_DDR,
}


class UcrWorld:
    """A client runtime and a server runtime on an IB-DDR fabric."""

    def __init__(self, params: Optional[UcrParams] = None, n_nodes: int = 2) -> None:
        self.sim = Simulator()
        self.net = Network(self.sim, IB_DDR)
        self.nodes = []
        self.runtimes = []
        for i in range(n_nodes):
            node = Node(self.sim, f"n{i}", HOST_CLOVERTOWN)
            hca = Hca(self.sim, self.net.attach(node), HCA_CONNECTX_DDR)
            self.nodes.append(node)
            kwargs = {"params": params} if params is not None else {}
            self.runtimes.append(UcrRuntime(self.sim, node, hca, **kwargs))
        self.client_rt = self.runtimes[0]
        self.server_rt = self.runtimes[1]

    def establish(self):
        """Listen on the server, connect from the client.

        Returns ``(client_ep, server_ep)``; also stores ``client_ctx``
        and ``server_ctx`` for callers that need the contexts.
        """
        server_ctx = self.server_rt.create_context("server")
        client_ctx = self.client_rt.create_context("client")
        eps = {}
        self.server_rt.listen(
            SERVICE,
            select_context=lambda: server_ctx,
            on_endpoint=lambda ep, pdata: eps.__setitem__("server", ep),
        )

        def connector():
            ep = yield from client_ctx.connect(self.server_rt, SERVICE)
            eps["client"] = ep

        self.sim.process(connector())
        self.sim.run()
        assert "client" in eps and "server" in eps
        self.client_ctx = client_ctx
        self.server_ctx = server_ctx
        return eps["client"], eps["server"]


class SocketWorld:
    """Two nodes, one network, one socket stack instance per node."""

    def __init__(self, params=None, seed: int = 1) -> None:
        from repro.sockets.params import STACK_TOE_10G

        if params is None:
            params = STACK_TOE_10G
        self.sim = Simulator()
        link = NETWORK_FOR_STACK[params.name.replace("-zcopy", "")]
        self.net = Network(self.sim, link)
        self.nodes = []
        self.stacks = []
        for i in range(2):
            node = Node(self.sim, f"n{i}", HOST_CLOVERTOWN)
            self.net.attach(node)
            self.nodes.append(node)
            self.stacks.append(
                SocketStack(self.sim, node, params, RngStream(seed, f"stack{i}"))
            )
        SocketStack.interconnect(self.stacks)

    def connect_pair(self):
        """Handshake a client (stack 0) to a server (stack 1) on
        :data:`PAIR_PORT`.

        Returns ``(client_sock, server_sock)``.
        """
        listener = self.stacks[1].socket()
        listener.bind(PAIR_PORT)
        listener.listen()
        client = self.stacks[0].socket()
        result = {}

        def server_proc():
            server = yield from listener.accept()
            result["server"] = server

        def client_proc():
            yield from client.connect("n1", PAIR_PORT)
            result["client"] = client

        self.sim.process(server_proc())
        self.sim.process(client_proc())
        self.sim.run()
        assert "client" in result and "server" in result
        return result["client"], result["server"]


def measure_echo_rtt(params, payload_size: int, n_ops: int = 5) -> float:
    """Median echo round-trip time over one socket stack (simulated µs)."""
    world = SocketWorld(params=params, seed=3)
    client, server = world.connect_pair()
    samples = []

    def server_proc():
        while True:
            try:
                data = yield from server.recv_exactly(payload_size)
            except EOFError:
                return
            yield from server.send(data)

    def client_proc():
        """Closed-loop echo client."""
        payload = bytes(payload_size)
        for _ in range(n_ops):
            t0 = world.sim.now
            yield from client.send(payload)
            yield from client.recv_exactly(payload_size)
            samples.append(world.sim.now - t0)
        client.close()

    world.sim.process(server_proc())
    world.sim.process(client_proc())
    world.sim.run()
    samples.sort()
    return samples[len(samples) // 2]


def sanitized_suite_fixture():
    """Build the suite-wide sanitizer fixture (used by ``tests/conftest.py``).

    Returns a pytest fixture that installs a record-mode-CQ /
    strict-buffer :class:`~repro.sanitize.SanitizerConfig` around every
    test, so lifecycle bugs anywhere in the suite fail the test that
    triggered them.  Packaged here (not in ``tests/``) so downstream
    suites can reuse it; pytest itself stays an optional dependency.
    """
    import pytest  # deferred: only test environments need it

    from repro.sanitize import SanitizerConfig

    @pytest.fixture(autouse=True, name="sanitizers")
    def _sanitizers():
        config = SanitizerConfig(strict_buffers=True, strict_cq=False)
        config.install()
        try:
            yield config
        finally:
            config.uninstall()

    return _sanitizers
