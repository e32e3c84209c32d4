"""Shorthand for offering one §VI burst on every flow of a test server.

``SimulatedServer.inject_traffic`` takes one profile per traffic
generator; most white-box tests want the same burst on every NF flow.
"""

from repro.net.traffic import BurstProfile


def offer_bursts(server, rate_gbps=100.0, packets_per_burst=None, start=0):
    """Schedule one burst per flow (one ring fill by default); returns
    the number of packets queued."""
    config = server.config
    profile = BurstProfile(
        burst_rate_gbps=rate_gbps,
        packets_per_burst=packets_per_burst or config.ring_size,
        packet_bytes=config.packet_bytes,
        start=start,
    )
    return server.inject_traffic([profile] * len(server.generators))
