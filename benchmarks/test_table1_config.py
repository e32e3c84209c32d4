"""Table I: the simulated platform configuration.

Asserts that the default simulated server matches the paper's (scaled)
gem5 configuration and prints the effective topology.
"""

from repro.harness.report import format_table
from repro.harness.server import ServerConfig, SimulatedServer
from repro.sim import units


def build_server():
    return SimulatedServer(ServerConfig())


def test_table1_configuration(benchmark):
    server = benchmark.pedantic(build_server, rounds=1, iterations=1)
    h = server.hierarchy

    rows = [
        ["Core freq", "3 GHz", f"{units.CPU_FREQ_GHZ} GHz"],
        ["L1D size/assoc", "64 KB / 2", f"{h.l1[0].config.size_bytes // 1024} KB / {h.l1[0].config.assoc}"],
        ["L1D latency", "2 CC", f"{h.l1[0].config.latency / units.cycles(1):.0f} CC"],
        ["MLC size/assoc", "1 MB / 8", f"{h.mlc[0].config.size_bytes // 1024} KB / {h.mlc[0].config.assoc}"],
        ["MLC latency", "12 CC", f"{h.mlc[0].config.latency / units.cycles(1):.0f} CC"],
        ["LLC size/assoc", "3 MB (scaled) / 12", f"{h.llc.config.size_bytes // 1024} KB / {h.llc.config.assoc}"],
        ["LLC latency", "24 CC", f"{h.llc.config.latency / units.cycles(1):.0f} CC"],
        ["DDIO ways", "2", str(h.llc.ddio_ways)],
        ["LLC inclusion", "non-inclusive", "inclusive" if h.llc.inclusive else "non-inclusive"],
        ["Ring size", "1024 (DPDK default)", str(server.config.ring_size)],
        ["Packet size", "1514 B", f"{server.config.packet_bytes} B"],
        ["PMD batch", "32", str(server.drivers[0].batch_size)],
    ]
    print()
    print(format_table(["parameter", "paper (Table I / SVI)", "simulated"], rows,
                       title="Table I — platform configuration"))

    assert h.l1[0].config.size_bytes == 64 * 1024 and h.l1[0].config.assoc == 2
    assert h.mlc[0].config.size_bytes == 1024 * 1024 and h.mlc[0].config.assoc == 8
    assert h.llc.config.size_bytes == 3 * 1024 * 1024 and h.llc.config.assoc == 12
    assert h.llc.ddio_ways == 2 and not h.llc.inclusive
    assert h.mlc[0].config.latency == units.cycles(12)
    assert h.llc.config.latency == units.cycles(24)
    assert server.config.ring_size == 1024
    assert server.drivers[0].batch_size == 32
