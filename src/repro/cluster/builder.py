"""Deployment builder: nodes, networks, stacks, server, clients.

Modeling note: each protocol family gets its own :class:`Network`
instance even when two families share physical silicon (SDP and IPoIB
both ride the IB HCA on the real testbeds).  The experiments only ever
drive one transport at a time, so cross-protocol bandwidth contention on
a shared port never matters; separate networks keep NIC ownership
single-writer and the model simple.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.cluster.configs import ClusterSpec
from repro.cluster.router import HashRing, KetamaDistribution, ModulaDistribution
from repro.core import UcrRuntime
from repro.fabric.topology import Network, Node
from repro.memcached.client import ClientCosts, FailoverPolicy, MemcachedClient
from repro.memcached.items import reset_cas_ids
from repro.memcached.onesided import OneSidedTransport
from repro.memcached.server import MemcachedCosts, MemcachedServer, UcrServerPort
from repro.memcached.serving import ProbabilisticHotCache
from repro.memcached.sockets_transport import SocketsTransport
from repro.memcached.store import StoreConfig
from repro.memcached.ucr_transport import UcrTransport
from repro.sim import Simulator
from repro.sim.rng import RngStream
from repro.sockets.stack import SocketStack
from repro.verbs.device import Hca

SERVER_NODE = "server"

#: :meth:`Cluster.client`'s libmemcached distribution behaviours.
_DISTRIBUTIONS = {"modula": ModulaDistribution, "ketama": KetamaDistribution}


class Cluster:
    """One instantiated testbed: a server node plus N client nodes."""

    def __init__(
        self,
        spec: ClusterSpec,
        n_client_nodes: int = 16,
        seed: int = 42,
        n_servers: int = 1,
        ucr_params=None,
    ) -> None:
        if n_client_nodes < 1:
            raise ValueError("need at least one client node")
        if n_servers < 1:
            raise ValueError("need at least one server node")
        reset_cas_ids()
        self.spec = spec
        self.seed = seed
        self.sim = Simulator()
        self.rng = RngStream(seed, f"cluster{spec.name}")

        # A single server keeps the paper's node name; pools number them
        # (the client-side hash needs stable names either way).
        if n_servers == 1:
            self.server_names = [SERVER_NODE]
        else:
            self.server_names = [f"server{i}" for i in range(n_servers)]
        names = self.server_names + [f"client{i}" for i in range(n_client_nodes)]
        self.nodes: dict[str, Node] = {
            name: Node(self.sim, name, spec.host) for name in names
        }
        self.server_node = self.nodes[self.server_names[0]]
        self.client_nodes = [self.nodes[n] for n in names[len(self.server_names):]]

        # --- native verbs / UCR fabric -------------------------------------
        self.verbs_net = Network(self.sim, spec.ucr_link)
        self.hcas: dict[str, Hca] = {}
        self.runtimes: dict[str, UcrRuntime] = {}
        for name, node in self.nodes.items():
            hca = Hca(self.sim, self.verbs_net.attach(node), spec.hca)
            self.hcas[name] = hca
            kwargs = {"params": ucr_params} if ucr_params is not None else {}
            self.runtimes[name] = UcrRuntime(self.sim, node, hca, **kwargs)

        # --- sockets transports ----------------------------------------------
        #: transport name -> {node name -> SocketStack}
        self.stacks: dict[str, dict[str, SocketStack]] = {}
        for tname, (stack_params, link_params) in spec.sockets.items():
            # Give each transport a private network namespace (see module
            # docstring) with the right physical link characteristics.
            net_params = replace(link_params, name=f"{link_params.name}/{tname}")
            params = replace(stack_params, network=net_params.name)
            net = Network(self.sim, net_params)
            per_node: dict[str, SocketStack] = {}
            for name, node in self.nodes.items():
                net.attach(node)
                per_node[name] = SocketStack(
                    self.sim,
                    node,
                    params,
                    rng=self.rng.child(f"{tname}/{name}"),
                )
            SocketStack.interconnect(list(per_node.values()))
            self.stacks[tname] = per_node

        self.servers: dict[str, MemcachedServer] = {}
        self.ucr_ports: dict[str, UcrServerPort] = {}

    @property
    def server(self) -> Optional[MemcachedServer]:
        """The first (often only) server; None before start_server()."""
        return self.servers.get(self.server_names[0])

    # -- server -------------------------------------------------------------------

    def start_server(
        self,
        n_workers: int = 4,
        store_config: StoreConfig = StoreConfig(),
        costs: MemcachedCosts = MemcachedCosts(),
    ) -> MemcachedServer:
        """Boot the dual-mode memcached server(s) on every transport.

        With ``n_servers > 1`` every server node gets its own process;
        clients spread keys across the pool with modula or ketama
        hashing (paper §II-C: "the architecture is inherently scalable
        as there is no central server to consult").  Returns the first
        server for the common single-server case.
        """
        if self.servers:
            raise RuntimeError("server already started")
        for name in self.server_names:
            runtime = self.runtimes[name]
            server = MemcachedServer(
                self.sim,
                self.nodes[name],
                n_workers=n_workers,
                store_config=store_config,
                costs=costs,
                pd=runtime.pd,  # slab pages RDMA-registered for the UCR port
            )
            for tname, per_node in self.stacks.items():
                server.listen_sockets(per_node[name])
            self.servers[name] = server
            self.ucr_ports[name] = UcrServerPort(server, runtime)
        return self.servers[self.server_names[0]]

    # -- clients -------------------------------------------------------------------

    def client(
        self,
        transport: str,
        client_node: int = 0,
        costs: ClientCosts = ClientCosts(),
        distribution: str = "modula",
        timeout_us: Optional[float] = None,
        binary: bool = False,
        pipeline_depth: int = 1,
    ) -> MemcachedClient:
        """A memcached client on ``client<client_node>`` using *transport*.

        Transport names come from :meth:`ClusterSpec.transports`
        ("UCR-IB", "SDP", "IPoIB", "10GigE-TOE", "1GigE-TCP"), plus the
        derived "UCR-1S" (one-sided GETs over the server-exported index,
        docs/ONESIDED.md; every other op rides UCR-IB active messages).
        *binary* selects the binary wire protocol on sockets transports
        (libmemcached's BINARY_PROTOCOL behavior; ignored for UCR, whose
        active messages are already structs).  *distribution* is
        ``"modula"`` or ``"ketama"`` over every server in the pool.
        *timeout_us* defaults to the spec's ``client_timeout_us``.
        *pipeline_depth* sets the client's default in-flight window for
        batched operations.  The client has no failover policy: one
        attempt per op.
        """
        if distribution not in _DISTRIBUTIONS:
            raise ValueError(f"unknown distribution {distribution!r}")
        t = self._transport(transport, client_node, costs, timeout_us, binary)
        return MemcachedClient(
            t,
            _DISTRIBUTIONS[distribution](self.server_names),
            pipeline_depth=pipeline_depth,
        )

    def _transport(self, transport, client_node, costs, timeout_us, binary):
        """The client-side transport object named *transport* on
        ``client<client_node>``, wired to every server in the pool."""
        if not self.servers:
            raise RuntimeError("start_server() first")
        if timeout_us is None:
            timeout_us = self.spec.client_timeout_us
        node_name = f"client{client_node}"
        if node_name not in self.nodes:
            raise KeyError(f"no such client node {node_name!r}")
        if transport in ("UCR-IB", "UCR-1S"):
            context = self.runtimes[node_name].create_context(f"mc-client/{transport}")
            onesided = transport == "UCR-1S"
            cls = OneSidedTransport if onesided else UcrTransport
            t = cls(context, costs, timeout_us)
            for name in self.server_names:
                t.add_server(name, self.runtimes[name])
                if onesided:
                    t.add_index(name, self.servers[name].export_index())
        elif transport in self.stacks:
            t = SocketsTransport(
                self.sim,
                self.nodes[node_name],
                self.stacks[transport][node_name],
                costs,
                binary=binary,
            )
        else:
            raise KeyError(
                f"unknown transport {transport!r}; cluster {self.spec.name} has "
                f"{self.spec.transports}"
            )
        return t

    def sharded_client(
        self,
        transport: str = "UCR-IB",
        client_node: int = 0,
        costs: ClientCosts = ClientCosts(),
        timeout_us: Optional[float] = None,
        policy: FailoverPolicy = FailoverPolicy(),
        binary: bool = False,
        pipeline_depth: int = 1,
        hot_cache: Optional[ProbabilisticHotCache] = None,
        ring=None,
    ) -> MemcachedClient:
        """A failure-aware client routing over the server pool.

        Same transports as :meth:`client`, but keys route through *ring*
        -- any object speaking the distribution protocol (``server_for``
        / ``servers`` / ``remove_server``); by default a
        :class:`~repro.cluster.router.HashRing` over every server -- and
        operations fail over per *policy* (bounded retry, exponential
        backoff, ejection/rejoin) when a shard dies.  A gutter pool is a
        router like any other: ``ring=GutterRouter.reserving_last(
        cluster.server_names, n)`` (docs/SERVING.md).  *hot_cache*
        attaches a client-local
        :class:`~repro.memcached.serving.ProbabilisticHotCache`.
        """
        t = self._transport(transport, client_node, costs, timeout_us, binary)
        return MemcachedClient(
            t,
            ring if ring is not None else HashRing(self.server_names),
            policy=policy,
            pipeline_depth=pipeline_depth,
            hot_cache=hot_cache,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cluster {self.spec.name}: {len(self.client_nodes)} client nodes, "
            f"transports={self.spec.transports}>"
        )
