"""Shared fixtures for verbs-layer tests: a two-node IB fabric."""

import pytest

from repro.fabric import HOST_CLOVERTOWN, IB_DDR, Network, Node
from repro.sim import Simulator
from repro.verbs import Access, Hca, QpType
from repro.verbs.params import HCA_CONNECTX_DDR


class VerbsPair:
    """Two connected RC endpoints with PDs, CQs and helpers."""

    def __init__(self, params=IB_DDR, hca_params=HCA_CONNECTX_DDR):
        self.sim = Simulator()
        self.net = Network(self.sim, params)
        self.node_a = Node(self.sim, "a", HOST_CLOVERTOWN)
        self.node_b = Node(self.sim, "b", HOST_CLOVERTOWN)
        self.hca_a = Hca(self.sim, self.net.attach(self.node_a), hca_params)
        self.hca_b = Hca(self.sim, self.net.attach(self.node_b), hca_params)
        self.pd_a = self.hca_a.alloc_pd()
        self.pd_b = self.hca_b.alloc_pd()
        self.cq_a = self.hca_a.create_cq(name="cq_a")
        self.cq_b = self.hca_b.create_cq(name="cq_b")
        self.qp_a = self.hca_a.create_qp(self.pd_a, self.cq_a, self.cq_a)
        self.qp_b = self.hca_b.create_qp(self.pd_b, self.cq_b, self.cq_b)
        self.qp_a.connect(self.qp_b)
        self.qp_b.connect(self.qp_a)

    def mr(self, side: str, size: int, access=None) -> object:
        pd = self.pd_a if side == "a" else self.pd_b
        return pd.reg_mr(size, access or Access.full())


@pytest.fixture
def pair():
    return VerbsPair()
