"""System-level property tests: conservation laws over random configs.

Hypothesis draws (policy, rate, ring size, app) tuples; every run must
respect the accounting invariants regardless of configuration.  These
are the strongest regression guards in the suite — any bookkeeping bug
anywhere in the pipeline breaks one of them.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.policies import extended_policies
from repro.harness.experiment import Experiment, run_experiment
from repro.harness.server import ServerConfig
from repro.mem.line import num_lines
from repro.nic.descriptor import DESCRIPTOR_BYTES


configs = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(sorted(set(extended_policies()) - {"cachedirector"})),
        "rate": st.sampled_from([25.0, 50.0, 100.0]),
        "ring": st.sampled_from([32, 64]),
        "app": st.sampled_from(["touchdrop", "l2fwd", "l2fwd-payload-drop"]),
        "packet_bytes": st.sampled_from([256, 1024, 1514]),
    }
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(configs)
def test_conservation_invariants(cfg):
    policy = extended_policies()[cfg["policy"]]
    exp = Experiment(
        name="prop",
        server=ServerConfig(
            policy=policy,
            app=cfg["app"],
            ring_size=cfg["ring"],
            packet_bytes=cfg["packet_bytes"],
        ),
        traffic="bursty",
        burst_rate_gbps=cfg["rate"],
    )
    result = run_experiment(exp)
    server = result.server

    # 1. Packet conservation.
    assert result.rx_packets + result.rx_drops == result.offered_packets
    assert result.completed == result.rx_packets

    # 2. Ring conservation: everything freed after drain.
    for queue in server.nics[0].queues.values():
        assert queue.ring.occupancy() == 0

    # 3. DMA line accounting: data lines + descriptor writebacks, plus
    #    class-1 lines that went straight to DRAM, equals total inbound
    #    transactions.
    lines = num_lines(cfg["packet_bytes"])
    desc_lines = DESCRIPTOR_BYTES // 64
    expected = result.rx_packets * (lines + desc_lines)
    direct = server.stats.counters.get("direct_dram_writes")
    pcie = server.stats.counters.get("pcie_writes")
    # TX completions (L2Fwd with TX rings) add descriptor writebacks.
    tx_completions = sum(e.packets_sent for e in server.nics[0].tx_engines.values())
    assert pcie == expected + tx_completions * desc_lines
    assert direct <= pcie

    # 4. Non-inclusive single-copy invariant on every packet buffer line.
    for queue in server.nics[0].queues.values():
        for desc in queue.ring.descriptors[: min(8, queue.ring.size)]:
            addr = desc.buffer_addr
            in_llc = addr in server.hierarchy.llc
            in_mlc = any(
                addr in server.hierarchy.mlc[c]
                for c in range(server.hierarchy.config.num_cores)
            )
            assert not (in_llc and in_mlc)

    # 5. Every latency is positive and bounded by the run length.
    for lat in result.latencies_ns:
        assert 0 < lat < 1e9
