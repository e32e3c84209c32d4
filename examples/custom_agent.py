#!/usr/bin/env python3
"""Scripting a custom agent against a live simulation.

Everything in the harness is driven by the same discrete-event kernel, so
user code can attach its own agents.  This example spawns a coroutine
process that samples the DMA-buffer occupancy of each cache level every
50 us while a burst is processed — the live view of Fig. 3's red/gray
residency picture — and prints the resulting occupancy timeline.

Run:  python examples/custom_agent.py
"""

from repro import ServerConfig, SimulatedServer
from repro.core import idio
from repro.harness.report import format_table
from repro.net.traffic import BurstProfile
from repro.sim import spawn, units


def main() -> None:
    server = SimulatedServer(ServerConfig(app="touchdrop", ring_size=1024,
                                          policy=idio()))
    server.start()
    # One ring-sized 25 Gbps burst on every NF flow, 20 us in.
    burst = BurstProfile(burst_rate_gbps=25.0, packets_per_burst=1024,
                         start=units.microseconds(20))
    server.inject_traffic([burst] * len(server.generators))

    samples = []

    def occupancy_probe():
        """Sample where the DMA-buffer lines currently live."""
        buffer_lines = set()
        for queue in server.all_queues():
            for desc in queue.ring.descriptors:
                base = desc.buffer_addr
                for i in range(24):
                    buffer_lines.add(base + i * 64)
        h = server.hierarchy
        while True:
            in_mlc = sum(
                1
                for addr in buffer_lines
                if any(addr in h.mlc[c] for c in range(h.config.num_cores))
            )
            in_llc = sum(1 for addr in buffer_lines if addr in h.llc)
            samples.append(
                (
                    units.to_microseconds(server.sim.now),
                    in_mlc,
                    in_llc,
                    len(buffer_lines) - in_mlc - in_llc,
                )
            )
            yield units.microseconds(50)

    probe = spawn(server.sim, occupancy_probe(), name="occupancy-probe")
    server.run_until_drained(units.milliseconds(3))
    probe.stop()
    server.stop()

    rows = [
        [f"{t:.0f}", mlc, llc, uncached]
        for t, mlc, llc, uncached in samples[:24]
    ]
    print(
        format_table(
            ["time (us)", "lines in MLCs", "lines in LLC", "uncached"],
            rows,
            title="DMA-buffer residency over one 25 Gbps burst (IDIO)",
        )
    )
    print(
        "\nThe custom probe is ~20 lines of user code: a generator that\n"
        "yields its sampling period, spawned with repro.sim.spawn()."
    )


if __name__ == "__main__":
    main()
