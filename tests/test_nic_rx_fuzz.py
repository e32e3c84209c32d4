"""Property fuzz of the NIC RX path: random arrival patterns, fixed laws.

Hypothesis generates irregular arrival schedules (bursts, gaps, mixed
sizes); regardless of the pattern, the NIC/driver pipeline must conserve
packets, never corrupt ring state, and deliver every accepted packet
exactly once.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import ddio
from repro.harness.server import ServerConfig, SimulatedServer
from repro.net.packet import Packet
from repro.sim import units


arrival_patterns = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),  # gap to next arrival (ns)
        st.sampled_from([64, 256, 1024, 1514]),  # packet size
    ),
    min_size=1,
    max_size=120,
)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(arrival_patterns)
def test_rx_pipeline_laws_under_fuzzed_arrivals(pattern):
    server = SimulatedServer(
        ServerConfig(policy=ddio(), app="touchdrop", ring_size=16)
    )
    server.start()

    flow = server.generators[0].flow
    t = units.microseconds(1)
    for gap_ns, size in pattern:
        t += units.nanoseconds(gap_ns)
        server.sim.schedule_at(
            t,
            lambda s=size, tt=t: server.nics[0].receive(
                Packet(size_bytes=s, flow=flow, arrival_time=tt)
            ),
        )
    server.run_until_drained(t + units.milliseconds(5))

    accepted = server.total_rx
    dropped = server.total_drops
    # Law 1: every arrival either accepted or dropped.
    assert accepted + dropped == len(pattern)
    # Law 2: every accepted packet completes exactly once.
    completed = server.completed_packets()
    assert len(completed) == accepted
    assert len({p.packet_id for p in completed}) == accepted
    # Law 3: the ring ends empty and consistent.
    queue = server.nics[0].queues[0]
    assert queue.ring.occupancy() == 0
    assert queue.ring.free_slots() == queue.ring.size
    # Law 4: latencies are ordered sanely (completion after arrival).
    for p in completed:
        assert p.completion_time > p.arrival_time
