"""Fault types the chaos harness can inject.

Each fault is a frozen dataclass naming an absolute simulated timestamp
(``at_us``) and a target, plus :meth:`~Fault.apply` / :meth:`~Fault.revert`
hooks the :class:`~repro.chaos.controller.ChaosController` drives.  Faults
hold no mutable state and consult no clock or entropy of their own -- the
controller's process supplies all timing from the simulation's event
loop, which is what makes every chaos run bit-for-bit reproducible.

The four fault families and what they model:

``NodeCrash``
    The server process dies (paper §IV-A's failure unit).  The UCR
    listener stops, every server-side endpoint fails; in-flight client
    requests time out and reconnects are refused until ``duration_us``
    elapses (or forever, if None).
``SlowServer``
    The server host's CPU slows by ``factor`` (thermal throttling, a
    co-scheduled batch job): every modeled cycle on that node stretches.
``LinkDegrade``
    The target node's port serializes and propagates ``factor`` x slower
    (cable renegotiation, congested uplink) via
    :attr:`repro.fabric.link.Nic.slowdown`.
``EndpointFlap``
    Server-side endpoints fail without the listener going down (QP error
    burst, port bounce): clients reconnect immediately and succeed.
    Combine with ``repeat``/``interval_us`` for a flapping pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.builder import Cluster


@dataclass(frozen=True, kw_only=True)
class Fault:
    """Base fault: one scheduled perturbation of a running cluster."""

    #: Absolute simulated time (µs) at which the fault strikes.
    at_us: float
    #: Window after which :meth:`revert` runs (None: permanent).
    duration_us: Optional[float] = None
    #: Number of strikes (apply[/revert] cycles).
    repeat: int = 1
    #: Gap between strikes when ``repeat > 1``.
    interval_us: float = 0.0

    def __post_init__(self) -> None:
        if self.at_us < 0:
            raise ValueError(f"at_us must be >= 0, got {self.at_us}")
        if self.duration_us is not None and self.duration_us <= 0:
            raise ValueError(f"duration_us must be > 0, got {self.duration_us}")
        if self.repeat < 1:
            raise ValueError(f"repeat must be >= 1, got {self.repeat}")
        if self.repeat > 1 and self.interval_us <= 0:
            raise ValueError("repeat > 1 needs a positive interval_us")

    def apply(self, cluster: "Cluster") -> None:
        raise NotImplementedError

    def revert(self, cluster: "Cluster") -> None:
        """Undo the fault (only called when ``duration_us`` is set)."""
        raise NotImplementedError

    def describe(self) -> str:
        """Short log label, e.g. ``"crash server1"``."""
        raise NotImplementedError


@dataclass(frozen=True, kw_only=True)
class NodeCrash(Fault):
    """*server*'s UCR port dies (and maybe restarts).

    Only the UCR listener and its endpoints fail: the sockets listeners
    and the store stay up, so sockets clients do not feel the crash (and
    ``flap`` is UCR-only too).  Of the four kinds, only ``slow`` -- and
    ``degrade`` with a ``network`` -- reaches a sockets config.
    """

    server: str

    def apply(self, cluster: "Cluster") -> None:
        cluster.ucr_ports[self.server].crash(
            f"chaos: {self.server} crashed at t={self.at_us}"
        )

    def revert(self, cluster: "Cluster") -> None:
        cluster.ucr_ports[self.server].recover()

    def describe(self) -> str:
        return f"crash {self.server}"


@dataclass(frozen=True, kw_only=True)
class SlowServer(Fault):
    """CPU work on *server* stretches by *factor* for the window."""

    server: str
    factor: float = 4.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 1.0:
            raise ValueError(f"slow factor must be > 1, got {self.factor}")

    def apply(self, cluster: "Cluster") -> None:
        cluster.nodes[self.server].cpu_scale *= self.factor

    def revert(self, cluster: "Cluster") -> None:
        cluster.nodes[self.server].cpu_scale /= self.factor

    def describe(self) -> str:
        return f"slow {self.server} x{self.factor:g}"


@dataclass(frozen=True, kw_only=True)
class LinkDegrade(Fault):
    """*server*'s port serializes/propagates *factor* x slower.

    With ``network`` unset the fault hits the node's UCR (verbs) port;
    name a network (``node.networks``) to degrade a sockets-path NIC.
    """

    server: str
    factor: float = 4.0
    network: Optional[str] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.factor <= 1.0:
            raise ValueError(f"degrade factor must be > 1, got {self.factor}")

    def _nic(self, cluster: "Cluster"):
        if self.network is None:
            return cluster.verbs_net.nic_of(self.server)
        return cluster.nodes[self.server].nic(self.network)

    def apply(self, cluster: "Cluster") -> None:
        self._nic(cluster).slowdown *= self.factor

    def revert(self, cluster: "Cluster") -> None:
        self._nic(cluster).slowdown /= self.factor

    def describe(self) -> str:
        where = f" on {self.network}" if self.network else ""
        return f"degrade {self.server} x{self.factor:g}{where}"


@dataclass(frozen=True, kw_only=True)
class EndpointFlap(Fault):
    """Fail *server*'s live UCR endpoints; the listener stays up."""

    server: str

    def apply(self, cluster: "Cluster") -> None:
        cluster.ucr_ports[self.server].flap_endpoints(
            f"chaos: {self.server} endpoint flap at t={self.at_us}"
        )

    def describe(self) -> str:
        return f"flap {self.server}"

