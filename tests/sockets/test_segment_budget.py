"""A counted budget for the sockets segment path (cannot flake).

The companion of ``tests/sim/test_kernel_budget.py`` one layer up: heap
events per TCP segment, counted by the engine, for one 32 KB ``send`` over
IPoIB between two nodes with nobody reading.  A segment is six events --
the tx CPU slice, the frame's three (tx hold, fly ``Timeout``, rx hold; the
pump waits on the tx hold itself) and two rx CPU slices -- plus one
rx-queue wake whenever the rx pump was idle, which here is the first
segment only.  It was nine while a frame was a process (``process-init``,
``txdone`` and the process end on top).  A process or a helper event
creeping back into the segment path costs at least one event per segment
and fails here in well under a second.
"""

from repro.sockets import STACK_IPOIB
from repro.testing import SocketWorld

EVENTS_PER_SEGMENT = 6
#: Around the segments: the sender process' start and end, ``send``'s two
#: CPU slices (syscall + overhead, copy), the tx pump's wake, the rx pump's
#: wake.  Nothing marks the end of a send: it was seven while a
#: ``send-done`` event nobody waited on closed each one.
EVENTS_PER_SEND = 6


def _events_for_one_send(nbytes: int) -> int:
    world = SocketWorld(params=STACK_IPOIB)
    client, server = world.connect_pair()
    sim = world.sim
    before = sim.events_processed

    def sender():
        yield from client.send(bytes(nbytes))

    sim.process(sender())
    sim.run()
    assert len(server.conn.rx_buffer) == nbytes
    return sim.events_processed - before


def test_events_per_segment_of_a_32k_send():
    nbytes = 32 * 1024
    segments = -(-nbytes // STACK_IPOIB.segment_bytes)
    assert segments == 17
    assert _events_for_one_send(nbytes) == EVENTS_PER_SEND + segments * EVENTS_PER_SEGMENT


def test_one_more_segment_is_six_more_events():
    seg = STACK_IPOIB.segment_bytes
    assert _events_for_one_send(33 * seg) - _events_for_one_send(32 * seg) == EVENTS_PER_SEGMENT
