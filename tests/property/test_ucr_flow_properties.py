"""Property-based UCR flow control: random sizes, tiny windows, ordering."""

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cluster import CLUSTER_A, Cluster
from repro.core.params import UcrParams
from repro.memcached.command import Command
from repro.testing import SERVICE, UcrWorld
from repro.verbs.enums import WcStatus
from repro.verbs.qp import QueuePair

MSG = 4


@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(
    st.integers(min_value=2, max_value=8),            # credit window
    st.lists(                                          # message sizes
        st.integers(min_value=0, max_value=20_000),
        min_size=1,
        max_size=25,
    ),
)
def test_any_credit_window_delivers_everything_in_order(credits, sizes):
    params = UcrParams(credits=credits)
    world = UcrWorld(params=params)
    client_ep, server_ep = world.establish()
    received = []

    def completion(ep, header, data):
        received.append((header, len(data)))
        yield world.sim.timeout(0)

    world.server_rt.register_handler(MSG, None, completion)

    def sender():
        for i, size in enumerate(sizes):
            yield from client_ep.send_message(
                MSG, header=i, header_bytes=8, data=bytes(size)
            )

    world.sim.process(sender())
    world.sim.run()  # an RNR would escalate as UnhandledFailure
    # Everything arrives exactly once with the right size...
    assert sorted(h for h, _ in received) == list(range(len(sizes)))
    assert all(n == sizes[h] for h, n in received)
    # ...and the runtime's contract holds: same-path messages complete in
    # send order (eager may overtake an in-flight rendezvous, not peers).
    threshold = params.eager_threshold_bytes
    eager_seen = [h for h, n in received if 8 + n <= threshold]
    rdv_seen = [h for h, n in received if 8 + n > threshold]
    assert eager_seen == sorted(eager_seen)
    assert rdv_seen == sorted(rdv_seen)
    assert client_ep.staged_count == 0
    assert not client_ep.failed and not server_ep.failed
    # Credit conservation: everything lent is back or owed.
    assert client_ep.send_credits + server_ep.credits_owed <= params.credits
    world.sim.run()


def test_eager_am_stays_behind_an_earlier_larger_eager_am():
    """The property above, one program, sent at 1 000 us instead of where
    ``UcrWorld.establish()`` leaves the clock (its drained run stands at the
    CM's 1 s deadline).  AM 8 (0 B) must complete after AM 7 (1 164 B), both
    eager on one RC QP.  When RC let the smaller SEND skip the larger one's
    DMA fetch, which of the two nearly tied arrivals won followed how the
    clock's float rounded: reordered at 1 000 us, in order at 4 096 us or
    at 1 s.  Post order per QP makes the start time irrelevant."""
    params = UcrParams(credits=5)
    sizes = [0, 0, 0, 0, 0, 5532, 9595, 1164, 0]
    world = UcrWorld(params=params)
    sim = world.sim
    server_ctx = world.server_rt.create_context("server")
    client_ctx = world.client_rt.create_context("client")
    world.server_rt.listen(
        SERVICE, select_context=lambda: server_ctx, on_endpoint=lambda ep, pdata: None
    )

    def connector():
        return (yield from client_ctx.connect(world.server_rt, SERVICE))

    client_ep = sim.run_until_event(sim.process(connector()))
    sim.run(until=1000.0)
    received = []

    def completion(ep, header, data):
        received.append(header)
        yield sim.timeout(0)

    world.server_rt.register_handler(MSG, None, completion)

    def sender():
        for i, size in enumerate(sizes):
            yield from client_ep.send_message(MSG, header=i, header_bytes=8, data=bytes(size))

    sim.process(sender())
    sim.run()
    eager = [h for h in received if 8 + sizes[h] <= params.eager_threshold_bytes]
    assert eager == sorted(eager), received


@settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=12_000), min_size=2, max_size=12))
def test_bidirectional_traffic_preserves_per_direction_order(sizes):
    world = UcrWorld()
    client_ep, server_ep = world.establish()
    got = {"c2s": [], "s2c": []}

    def c2s_completion(ep, header, data):
        got["c2s"].append(header)
        yield world.sim.timeout(0)

    def s2c_completion(ep, header, data):
        got["s2c"].append(header)
        yield world.sim.timeout(0)

    world.server_rt.register_handler(MSG, None, c2s_completion)
    world.client_rt.register_handler(MSG, None, s2c_completion)

    def pump(ep, tag):
        for i, size in enumerate(sizes):
            yield from ep.send_message(MSG, header=(tag, i), header_bytes=8,
                                       data=bytes(size))

    world.sim.process(pump(client_ep, "c"))
    world.sim.process(pump(server_ep, "s"))
    world.sim.run()

    def check(direction, tag):
        seen = got[direction]
        assert sorted(i for _, i in seen) == list(range(len(sizes)))
        assert all(t == tag for t, _ in seen)
        # Same-path FIFO per direction (see endpoint module docstring).
        eager = [i for _, i in seen if 8 + sizes[i] <= 8192]
        rdv = [i for _, i in seen if 8 + sizes[i] > 8192]
        assert eager == sorted(eager)
        assert rdv == sorted(rdv)

    check("c2s", "c")
    check("s2c", "s")


@settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(
    st.integers(min_value=0, max_value=30_000),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_counter_combinations_all_fire(size, use_origin, use_target, use_completion):
    world = UcrWorld()
    client_ep, _ = world.establish()
    world.server_rt.register_handler(MSG)
    origin = world.client_rt.create_counter() if use_origin else None
    target = world.server_rt.create_counter() if use_target else None
    completion = world.client_rt.create_counter() if use_completion else None

    def sender():
        yield from client_ep.send_message(
            MSG, header=None, header_bytes=8, data=bytes(size),
            origin_counter=origin,
            target_counter_id=target.counter_id if target is not None else 0,
            completion_counter=completion,
        )
        waits = [c for c in (origin, target, completion) if c is not None]
        for c in waits:
            yield from c.wait_for(1, timeout_us=1e6)
        return True

    p = world.sim.process(sender())
    world.sim.run()
    assert p.value is True
    for c, used in ((origin, use_origin), (target, use_target), (completion, use_completion)):
        if used:
            assert c.value == 1


@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(st.data())
def test_a_pipeline_deeper_than_the_window_never_overruns_a_receive_queue(data):
    """Memcached over UCR with a small window and a pipeline 1 to 4
    windows deeper: sets carry values to the server and gets bring them
    back, eager and rendezvous alike, while replies queue behind shut
    windows on both endpoints.  No endpoint fails, no SEND finds an empty
    receive queue, and every get returns the bytes its set stored."""
    credits = data.draw(st.integers(min_value=2, max_value=8), label="credits")
    depth = data.draw(st.integers(min_value=credits + 1, max_value=4 * credits),
                      label="depth")
    sizes = data.draw(st.lists(st.integers(min_value=0, max_value=20_000),
                               min_size=2 * depth, max_size=4 * depth), label="sizes")
    values = [bytes([i % 251]) * n for i, n in enumerate(sizes)]
    cluster = Cluster(CLUSTER_A, n_client_nodes=1, ucr_params=UcrParams(credits=credits))
    cluster.start_server()
    client = cluster.client("UCR-IB")
    half = len(values) // 2

    def set_(i):
        return Command(op="set", keys=[f"p{i}"], value=values[i])

    def get(i):
        return Command(op="get", keys=[f"p{i}"])

    # The middle window mixes gets of the first half with sets of the
    # second, so values cross both ways at once.
    mixed = [c for i in range(half) for c in (get(i), set_(half + i))]
    mixed += [set_(i) for i in range(2 * half, len(values))]
    statuses = []
    recv_done = QueuePair._recv_done

    def watching(qp, packet, span, status=None):
        statuses.append(status)
        return recv_done(qp, packet, span, status)

    def scenario():
        first = yield from client.pipeline([set_(i) for i in range(half)], depth=depth)
        middle = yield from client.pipeline(mixed, depth=depth)
        last = yield from client.pipeline([get(i) for i in range(half, len(values))],
                                          depth=depth)
        return first + middle + last

    expected = [True] * half
    expected += [x for i in range(half) for x in (values[i], True)]
    expected += [True] * (len(values) - 2 * half) + values[half:]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QueuePair, "_recv_done", watching)
        p = cluster.sim.process(scenario())
        cluster.sim.run()
    assert p.value == expected
    assert WcStatus.RNR_RETRY_EXC_ERR not in statuses
    eps = [*client.transport._endpoints.values(), *cluster.ucr_ports["server"].endpoints]
    assert len(eps) == 2 and not any(ep.failed for ep in eps)
