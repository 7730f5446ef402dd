"""Nodes and single-switch networks.

The paper's clusters are flat: every node connects to one big switch
(144-port Silverstorm DDR / 171-port Mellanox QDR / Fulcrum 10GigE).  We
model each *network* (one per interconnect type) as a namespace of NICs;
the per-hop switch delay lives in :class:`~repro.fabric.params.LinkParams`
so a network object is mostly a directory plus validation.

A :class:`Node` is a host: it owns a CPU resource (cores) and one NIC per
network it participates in.  Cluster A nodes carry both an IB-DDR NIC and a
10GigE NIC, exactly like the paper's testbed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fabric.link import Nic
from repro.fabric.params import HostParams, LinkParams
from repro.sim import Resource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import Simulator


class Network:
    """A named, single-switch broadcast domain of one link generation."""

    def __init__(self, sim: "Simulator", params: LinkParams) -> None:
        self.sim = sim
        self.params = params
        self.name = params.name
        self._nics: dict[str, Nic] = {}

    def attach(self, node: "Node") -> Nic:
        """Create and register a NIC for *node* on this network."""
        if node.name in self._nics:
            raise ValueError(f"{node.name} already attached to {self.name}")
        nic = Nic(self.sim, node, self.params, name=f"{node.name}:{self.name}")
        self._nics[node.name] = nic
        node._register_nic(self.name, nic)
        return nic

    def nic_of(self, node_name: str) -> Nic:
        """Look up the NIC of a node by name."""
        try:
            return self._nics[node_name]
        except KeyError:
            raise KeyError(f"node {node_name!r} is not on network {self.name}") from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Network {self.name} nodes={len(self._nics)}>"


class Node:
    """A host: CPU cores plus one NIC per attached network."""

    def __init__(self, sim: "Simulator", name: str, host: HostParams) -> None:
        self.sim = sim
        self.name = name
        self.host = host
        #: Shared CPU: every modeled software activity (kernel stack, server
        #: worker, client library) competes for these cores.
        self.cpu = Resource(sim, capacity=host.cores, name=f"{name}.cpu")
        self._nics: dict[str, Nic] = {}

    def _register_nic(self, network_name: str, nic: Nic) -> None:
        self._nics[network_name] = nic

    def nic(self, network_name: str) -> Nic:
        """The NIC this node has on *network_name* (KeyError if absent)."""
        try:
            return self._nics[network_name]
        except KeyError:
            raise KeyError(f"{self.name} has no NIC on {network_name!r}") from None

    @property
    def networks(self) -> list[str]:
        return list(self._nics)

    @property
    def cpu_scale(self) -> float:
        """Chaos hook (repro.chaos): multiplies every unit of CPU work on
        this host, read when the work gets its core.  1.0 is nominal; a
        SlowServer fault raises it for a window (thermal throttling, a
        co-scheduled batch job...)."""
        return self.cpu.stretch

    @cpu_scale.setter
    def cpu_scale(self, factor: float) -> None:
        self.cpu.stretch = factor

    def cpu_run(self, work_us: float):
        """Process helper: occupy one core for *work_us* of CPU time.

        Yields from inside a process::

            yield from node.cpu_run(1.5)

        One :meth:`~repro.sim.resources.Resource.hold`, so one event per
        slice; ``cpu_scale`` applies as of the moment the core is granted.
        """
        cpu = self.cpu
        held = cpu.hold(work_us)
        try:
            yield held
        finally:
            # Whatever raises at the yield (GeneratorExit when the process
            # is closed), a granted core is freed.
            cpu.release(held)

    def memcpy(self, nbytes: int):
        """Process helper: one single-core buffer copy of *nbytes*."""
        yield from self.cpu_run(self.host.memcpy_time(nbytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} ({self.host.name}, {self.host.cores} cores)>"
