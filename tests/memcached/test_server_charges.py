"""Counted server costs per request, pinned for every front end.

Each case runs one command against a server that already holds ``k0`` and
``k1`` (both non-numeric values of the front end's size) and records two
things from the moment the command is issued until the simulation drains:

- the server node's charges in order: every ``cpu_run`` as its duration
  in µs, every ``memcpy`` as ``copy:<bytes>``;
- the ``server.op`` and ``store.apply`` span intervals, relative to the
  issue time.

The front ends are the sockets text and binary codecs over IPoIB (100 B
values) and UCR active messages with eager (100 B) and zero-copy (16 KB)
values.  A request-path refactor keeps every row; a cost-model change
re-pins it (``python -m tests.memcached.test_server_charges`` prints the
table) and names the rows that moved.
"""

import pytest

from repro.cluster import CLUSTER_A, Cluster
from repro.memcached.errors import ClientError
from repro.telemetry import tracer, tracing

#: front end -> (transport, binary, value size)
FRONT_ENDS = {
    "text": ("IPoIB", False, 100),
    "binary": ("IPoIB", True, 100),
    "ucr_eager": ("UCR-IB", False, 100),
    "ucr_zero_copy": ("UCR-IB", False, 16_384),
}

#: case -> the command, given the client and the front end's value.
CASES = {
    "get_hit": lambda client, value: client.get("k0"),
    "get_miss": lambda client, value: client.get("absent"),
    "set": lambda client, value: client.set("k2", value),
    "error": lambda client, value: client.incr("k0", 1),
    "mget": lambda client, value: client.get_multi(["k0", "k1"]),
}

_SOCKETS_HEAD = "2.8 2.5 1.5 17.5"

#: (front end, case) -> (charges, [(span, start, end), ...])
PINNED = {
    ("text", "get_hit"): (
        f"{_SOCKETS_HEAD} 0.003636 1.2 1.2 copy:100 1.0 17.5 0.055909 0.5 2.2",
        [("server.op", 46.186503, 67.187867), ("store.apply", 47.386503, 49.631958)],
    ),
    ("text", "get_miss"): (
        f"{_SOCKETS_HEAD} 0.005455 1.2 1.2 1.0 17.5 0.002273 0.5 2.2",
        [("server.op", 46.193217, 67.09549), ("store.apply", 47.393217, 49.593217)],
    ),
    ("text", "set"): (
        f"{_SOCKETS_HEAD} 0.053636 1.2 1.2 1.0 17.5 0.003636 0.5 2.2",
        [("server.op", 46.371119, 67.274755), ("store.apply", 47.571119, 49.771119)],
    ),
    ("text", "error"): (
        f"{_SOCKETS_HEAD} 0.005 1.2 1.2 17.5 0.028182 0.5 2.2",
        [("server.op", 46.191538, 66.11972), ("store.apply", 47.391538, 48.591538)],
    ),
    ("text", "mget"): (
        f"{_SOCKETS_HEAD} 0.005 1.2 1.2 copy:100 copy:100 1.0 17.5 0.109545 0.5 2.2",
        [("server.op", 46.591538, 67.691993), ("store.apply", 47.791538, 50.082448)],
    ),
    ("binary", "get_hit"): (
        f"{_SOCKETS_HEAD} 0.011818 0.6 1.2 copy:100 17.5 0.058182 0.5 2.2",
        [("server.op", 46.216713, 65.62035), ("store.apply", 46.816713, 48.062168)],
    ),
    ("binary", "get_miss"): (
        f"{_SOCKETS_HEAD} 0.013636 0.6 1.2 17.5 0.010909 0.5 2.2",
        [("server.op", 46.223427, 65.534336), ("store.apply", 46.823427, 48.023427)],
    ),
    ("binary", "set"): (
        f"{_SOCKETS_HEAD} 0.060909 0.6 1.2 17.5 0.010909 0.5 2.2",
        [("server.op", 46.397972, 65.708881), ("store.apply", 46.997972, 48.197972)],
    ),
    ("binary", "error"): (
        f"{_SOCKETS_HEAD} 0.020909 0.6 1.2 17.5 0.010909 0.5 2.2",
        [("server.op", 46.25028, 65.561189), ("store.apply", 46.85028, 48.05028)],
    ),
    # Two quiet gets and the noop that ends the batch: three requests.
    ("binary", "mget"): (
        f"{_SOCKETS_HEAD} 0.034545 0.6 1.2 copy:100 17.5 0.059091 0.6 2.2"
        " 1.2 copy:100 17.5 0.059091 0.6 2.2 1.2 17.5 0.010909 0.5 2.2",
        [
            ("server.op", 46.700629, 66.105175), ("store.apply", 47.300629, 48.546084),
            ("server.op", 66.105175, 85.50972), ("store.apply", 66.705175, 67.950629),
            ("server.op", 85.50972, 104.820629), ("store.apply", 86.10972, 87.30972),
        ],
    ),
    ("ucr_eager", "get_hit"): (
        "0.15 0.2 0.1 0.6 2.0 0.8 0.3 copy:100 0.15",
        [("server.op", 3.540769, 7.286224), ("store.apply", 4.140769, 6.140769)],
    ),
    ("ucr_eager", "get_miss"): (
        "0.15 0.2 0.1 0.6 2.0 0.8 0.3 0.15",
        [("server.op", 3.543846, 7.243846), ("store.apply", 4.143846, 6.143846)],
    ),
    ("ucr_eager", "set"): (
        "0.15 0.2 copy:100 0.1 0.6 2.0 0.8 0.3 0.15",
        [("server.op", 4.008601, 7.708601), ("store.apply", 4.608601, 6.608601)],
    ),
    ("ucr_eager", "error"): (
        "0.15 0.2 0.1 0.6 2.0 0.8 0.3 0.15",
        [("server.op", 3.540769, 7.240769), ("store.apply", 4.140769, 6.140769)],
    ),
    # The UCR reply copies its payload at the endpoint (the eager copy),
    # not in the request path.
    ("ucr_eager", "mget"): (
        "0.15 0.2 0.1 0.6 2.0 0.8 0.3 copy:200 0.15",
        [("server.op", 3.942308, 7.733217), ("store.apply", 4.542308, 6.542308)],
    ),
    ("ucr_zero_copy", "get_hit"): (
        "0.15 0.2 0.1 0.6 2.0 0.8 0.3 0.15 0.15",
        [("server.op", 3.540769, 7.240769), ("store.apply", 4.140769, 6.140769)],
    ),
    ("ucr_zero_copy", "get_miss"): (
        "0.15 0.2 0.1 0.6 2.0 0.8 0.3 0.15",
        [("server.op", 3.543846, 7.243846), ("store.apply", 4.143846, 6.143846)],
    ),
    ("ucr_zero_copy", "set"): (
        "0.15 0.2 0.15 0.1 0.6 2.0 0.8 0.3 0.15 0.15",
        [("server.op", 18.734615, 22.434615), ("store.apply", 19.334615, 21.334615)],
    ),
    ("ucr_zero_copy", "error"): (
        "0.15 0.2 0.1 0.6 2.0 0.8 0.3 0.15",
        [("server.op", 3.540769, 7.240769), ("store.apply", 4.140769, 6.140769)],
    ),
    # Two hits are one payload: staged and copied for a rendezvous send.
    ("ucr_zero_copy", "mget"): (
        "0.15 0.2 0.1 0.6 2.0 0.8 0.3 copy:32768 0.15 0.15",
        [("server.op", 3.942308, 22.536853), ("store.apply", 4.542308, 6.542308)],
    ),
}


def observe(front_end: str, case: str):
    """Run *case* on *front_end*; returns (charges, spans) as pinned."""
    transport, binary, size = FRONT_ENDS[front_end]
    cluster = Cluster(CLUSTER_A, n_client_nodes=1)
    server = cluster.start_server()
    client = cluster.client(transport, binary=binary)
    node = server.node
    value = b"v" * size
    charges = []
    issued = []
    cpu_run = node.cpu_run

    def recorded_cpu_run(work_us):
        if issued:
            charges.append(f"{round(work_us, 6)}")
        return cpu_run(work_us)

    def recorded_memcpy(nbytes):
        if issued:
            charges.append(f"copy:{nbytes}")
        return cpu_run(node.host.memcpy_time(nbytes))

    node.cpu_run = recorded_cpu_run
    node.memcpy = recorded_memcpy

    def scenario():
        yield from client.set("k0", value)
        yield from client.set("k1", value)
        # Let the server finish the preload's tail before the clock starts.
        yield cluster.sim.timeout(1_000.0)
        issued.append(cluster.sim.now)
        try:
            yield from CASES[case](client, value)
        except ClientError:
            pass  # the error case: incr of a non-numeric value

    with tracing():
        cluster.sim.process(scenario())
        cluster.sim.run()
        (t0,) = issued
        spans = [
            (s.name, round(s.start_us - t0, 6), round(s.end_us - t0, 6))
            for s in tracer.finished_spans()
            if s.name in ("server.op", "store.apply") and s.start_us >= t0
        ]
    return " ".join(charges), spans


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("front_end", list(FRONT_ENDS))
def test_server_charges_and_spans_are_pinned(front_end, case):
    charges, spans = observe(front_end, case)
    pinned_charges, pinned_spans = PINNED[front_end, case]
    assert charges == pinned_charges
    assert spans == pinned_spans


if __name__ == "__main__":  # pragma: no cover - re-pinning aid
    for front_end in FRONT_ENDS:
        for case in CASES:
            print((front_end, case), observe(front_end, case))
