"""Repository quality gates: docs, determinism, API hygiene."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent


def all_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


def test_every_module_has_a_docstring():
    missing = []
    for name in all_modules():
        mod = importlib.import_module(name)
        if not (mod.__doc__ or "").strip():
            missing.append(name)
    assert missing == []


def test_every_public_class_and_function_documented():
    undocumented = []
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_"):
                    continue
                if not ast.get_docstring(node):
                    # Tiny property getters and dataclass helpers excepted.
                    body = [n for n in node.body if not isinstance(n, ast.Pass)]
                    if len(body) <= 2:
                        continue
                    undocumented.append(f"{path.relative_to(SRC)}:{node.name}")
    assert undocumented == [], undocumented


#: Public class names that may be defined in more than one module, each
#: with where and why.  Everything else names one thing under ``repro``.
SHARED_CLASS_NAMES = {
    "ReplyAssembler": (
        {"memcached/protocol.py", "memcached/protocol_binary.py"},
        "the per-codec symmetric surface: each wire format's row names its own",
    ),
    "Opcode": (
        {"memcached/protocol_binary.py", "verbs/enums.py"},
        "two wire vocabularies: memcached binary opcodes and IB verbs opcodes",
    ),
}


def test_public_class_names_are_unique():
    """One name, one concept: ``Request`` and ``Tracer`` used to mean two
    things each.  A new duplicate needs an entry above, with its reason."""
    defined: dict[str, set[str]] = {}
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                defined.setdefault(node.name, set()).add(str(path.relative_to(SRC)))
    shared = {name: where for name, where in defined.items() if len(where) > 1}
    assert shared == {name: where for name, (where, _why) in SHARED_CLASS_NAMES.items()}
    assert all(why for _where, why in SHARED_CLASS_NAMES.values())


def test_public_api_importable_and_versioned():
    assert repro.__version__
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_all_exports_exist():
    """Every name in every package's __all__ must resolve."""
    for name in all_modules():
        mod = importlib.import_module(name)
        for symbol in getattr(mod, "__all__", []):
            assert hasattr(mod, symbol), f"{name}.{symbol} missing"


def test_kernel_public_surface_is_pinned():
    """A new kernel primitive is a reviewed decision: it changes this list."""
    import repro.sim

    assert repro.sim.__all__ == [
        "Counter",
        "Event",
        "Expired",
        "LatencyRecorder",
        "Process",
        "Resource",
        "RngStream",
        "Simulator",
        "Timeout",
    ]


def test_constructor_surface_is_pinned():
    """An option exists only when two callers need different values: a
    new constructor parameter is a reviewed decision that changes this
    table, not a default nothing sets."""
    import inspect

    from repro.cluster import Cluster
    from repro.core.buffers import BufferPool
    from repro.core.runtime import UcrRuntime
    from repro.memcached.client import MemcachedClient
    from repro.memcached.onesided import OneSidedTransport
    from repro.memcached.onesided.index import ExportedIndex
    from repro.memcached.server import MemcachedServer, UcrServerPort
    from repro.memcached.slabs import SlabAllocator
    from repro.memcached.sockets_transport import SocketsTransport
    from repro.memcached.store import ItemStore
    from repro.memcached.ucr_transport import UcrTransport

    surface = {
        f.__qualname__: tuple(inspect.signature(f).parameters)
        for f in (
            Cluster, Cluster.start_server, Cluster.client, Cluster.sharded_client,
            MemcachedServer, UcrServerPort, MemcachedClient,
            SocketsTransport, UcrTransport, OneSidedTransport,
            ItemStore, SlabAllocator, ExportedIndex, UcrRuntime, BufferPool,
        )
    }
    assert surface == {
        "Cluster": ("spec", "n_client_nodes", "seed", "n_servers", "ucr_params"),
        "Cluster.start_server": ("self", "n_workers", "store_config", "costs"),
        "Cluster.client": (
            "self", "transport", "client_node", "costs", "distribution",
            "timeout_us", "binary", "pipeline_depth",
        ),
        "Cluster.sharded_client": (
            "self", "transport", "client_node", "costs", "timeout_us", "policy",
            "binary", "pipeline_depth", "hot_cache", "ring",
        ),
        "MemcachedServer": ("sim", "node", "n_workers", "store_config", "costs", "pd"),
        "UcrServerPort": ("server", "runtime"),
        "MemcachedClient": (
            "transport", "distribution", "policy", "pipeline_depth", "hot_cache",
        ),
        "SocketsTransport": ("sim", "node", "stack", "costs", "binary"),
        "UcrTransport": ("context", "costs", "timeout_us"),
        "OneSidedTransport": ("context", "costs", "timeout_us"),
        "ItemStore": ("sim", "config", "pd"),
        "SlabAllocator": ("max_bytes", "pd"),
        "ExportedIndex": ("store",),
        "UcrRuntime": ("sim", "node", "hca", "params"),
        "BufferPool": ("pd", "buffer_bytes", "name"),
    }


def test_full_stack_determinism():
    """Two identical fast Figure-5 panels must agree to the bit."""
    from repro.cluster import CLUSTER_B, Cluster
    from repro.workloads import NON_INTERLEAVED_10_90, MemslapRunner

    def one_run():
        cluster = Cluster(CLUSTER_B, n_client_nodes=2, seed=99)
        cluster.start_server()
        result = MemslapRunner(
            cluster, "SDP", 256, NON_INTERLEAVED_10_90,
            n_clients=2, n_ops_per_client=30,
        ).run()
        return (result.latency.samples, result.elapsed_us)

    a = one_run()
    b = one_run()
    assert a == b


def test_no_wall_clock_leakage():
    """Simulated results must not depend on host time/random state."""
    import random
    import time

    from repro.cluster import CLUSTER_A, Cluster

    def probe():
        cluster = Cluster(CLUSTER_A, n_client_nodes=1, seed=5)
        cluster.start_server()
        client = cluster.client("UCR-IB")

        def scenario():
            yield from client.set("det", bytes(128))
            t0 = cluster.sim.now
            yield from client.get("det")
            return cluster.sim.now - t0

        p = cluster.sim.process(scenario())
        cluster.sim.run()
        return p.value

    first = probe()
    random.seed(time.time_ns() % 2**31)  # perturb global RNG state
    random.random()
    second = probe()
    assert first == second


#: Modules allowed over 600 lines, each at most its entry.  The ratchet
#: only tightens: lower an entry when its module shrinks, and delete it
#: once the module is back at 600 or fewer.
OVERSIZE = {
    "memcached/client.py": 750,
    "lint/flow.py": 741,
    "lint/rules.py": 663,
}


def test_no_module_over_600_lines():
    lines = {
        str(path.relative_to(SRC)): path.read_text().count("\n")
        for path in SRC.rglob("*.py")
    }
    too_long = {p: n for p, n in lines.items() if n > OVERSIZE.get(p, 600)}
    assert too_long == {}, "split the module, or shorten it"
    stale = {p for p in OVERSIZE if lines.get(p, 0) <= 600}
    assert stale == set(), "delete the entry: the module is under the gate"


def test_the_client_never_probes_its_transport():
    """The transport contract (``execute``, ``execute_many``) is read
    directly, with no optional capability: the one-sided ladder is a
    stage of its transport's ``execute``."""
    probes = sorted(
        f"{path.relative_to(SRC)}: {line.strip()}"
        for path in SRC.rglob("*.py")
        for line in path.read_text().splitlines()
        if "getattr(self.transport" in line
    )
    assert probes == []


def test_every_client_transport_is_a_checked_config():
    """Every class in ``repro.memcached`` that offers the transport
    contract is the transport of some ``check.differential.CONFIGS`` row:
    a new transport joins the differential replay against the oracle
    before it can ship."""
    import repro.memcached
    from repro.check.differential import CONFIGS
    from repro.cluster import Cluster
    from repro.cluster.configs import CLUSTER_A

    transports = set()
    for info in pkgutil.walk_packages(repro.memcached.__path__, prefix="repro.memcached."):
        mod = importlib.import_module(info.name)
        for obj in vars(mod).values():
            if (isinstance(obj, type) and obj.__module__ == info.name
                    and callable(getattr(obj, "execute", None))
                    and callable(getattr(obj, "execute_many", None))):
                transports.add(obj)
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    cluster.start_server()
    checked = {
        type(cluster.client(transport, binary=binary).transport)
        for _name, transport, binary in CONFIGS
    }
    assert transports, "no class offers the transport contract"
    assert sorted(cls.__name__ for cls in transports - checked) == []


def test_verbs_data_path_starts_no_process():
    """A work request is its delays, chained by callbacks: under
    ``verbs/`` only connection set-up (``cm.py``) may start a process."""
    starters = sorted(
        path.name
        for path in (SRC / "verbs").glob("*.py")
        if "sim.process(" in path.read_text()
    )
    assert starters == ["cm.py"]


def test_the_engine_has_one_caller():
    """Every front end (sockets text and binary, UCR active messages)
    reaches the store through ``MemcachedServer.execute``: it is the one
    place that calls ``CommandEngine.apply``, so the request path's cost
    model and linearization point are written once."""
    callers = []
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for scope in ast.walk(tree):
            if not isinstance(scope, ast.ClassDef):
                continue
            for fn in scope.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    func = getattr(node, "func", None)
                    if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                            and func.attr == "apply"
                            and ast.unparse(func.value).split(".")[-1] == "engine"):
                        callers.append(f"{path.relative_to(SRC)}:{scope.name}.{fn.name}")
    assert callers == ["memcached/server.py:MemcachedServer.execute"]


def test_seq_end_is_the_one_writer_of_exported_entry_fields():
    """Within the one-sided package, only ``ExportedIndex.seq_begin``
    (the version) and ``seq_end`` (every other field) write the exported
    region, and ``__init__`` its header: the region is the index's one
    copy of every entry, so a write anywhere else is an entry mutation
    outside the seqlock.  The stamps behind the values are the helpers'
    too: ``_stamp_at`` writes them, and only the helpers call it."""
    writers, header, stampers = set(), [], set()
    for path in (SRC / "memcached" / "onesided").glob("*.py"):
        tree = ast.parse(path.read_text())
        scopes = {fn: f"{cls.name}.{fn.name}" for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) for fn in cls.body
                  if isinstance(fn, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            where = f"{path.name}:{scopes.get(fn, fn.name)}"
            for node in ast.walk(fn):
                if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                    if ast.unparse(node.value).endswith("_buffer"):
                        writers.add(where)
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                    continue
                if node.func.attr in ("write", "remote_write"):
                    writers.add(where)
                    if fn.name == "__init__":
                        header.append(ast.unparse(node.args[1]).split("(")[0])
                elif node.func.attr == "_stamp_at":
                    stampers.add(where)
    assert sorted(writers) == [
        "index.py:ExportedIndex.__init__",
        "index.py:ExportedIndex._stamp_at",
        "index.py:ExportedIndex.seq_begin",
        "index.py:ExportedIndex.seq_end",
    ]
    assert header == ["pack_header"]
    assert sorted(stampers) == [
        "index.py:ExportedIndex.seq_begin",
        "index.py:ExportedIndex.seq_end",
    ]


_NUMPY_FREE_RUN = """
import sys
from repro.cluster import CLUSTER_B, Cluster

cluster = Cluster(CLUSTER_B, n_client_nodes=2, seed=1)
cluster.start_server()
clients = [cluster.client("UCR-1S"), cluster.client("IPoIB")]

def scenario():
    for n, client in enumerate(clients):
        for i in range(4):
            key, value = f"k{n}-{i}", bytes(100 * i + 1)
            assert (yield from client.set(key, value))
            assert (yield from client.get(key)) == value
    return "served"

run = cluster.sim.process(scenario())
cluster.sim.run()
assert run.value == "served", run.value
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, loaded
"""


def test_a_run_that_draws_no_lognormal_never_imports_numpy():
    """numpy is 13.6 MB of resident memory: ``RngStream`` is a pure-Python
    PCG64 and ``LatencyRecorder`` imports numpy only to summarise, so a
    cluster serving one-sided and IPoIB sets and gets never loads it.  A
    fresh interpreter, because this one has long since imported it."""
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_RUN],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    )
    assert done.returncode == 0, done.stderr
