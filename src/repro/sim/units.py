"""Time and bandwidth units used throughout the simulator.

The simulation clock counts integer *picoseconds*.  Using an integer tick
avoids floating-point drift when millions of events are scheduled and keeps
event ordering exact.  All public helpers convert human-friendly quantities
(nanoseconds, gigabits per second, CPU cycles) into ticks and back.
"""

from __future__ import annotations

#: Number of simulator ticks per picosecond (the base unit).
PICOSECOND = 1
#: Ticks per nanosecond.
NANOSECOND = 1_000 * PICOSECOND
#: Ticks per microsecond.
MICROSECOND = 1_000 * NANOSECOND
#: Ticks per millisecond.
MILLISECOND = 1_000 * MICROSECOND
#: Ticks per second.
SECOND = 1_000 * MILLISECOND
#: Core clock of the modeled server (Table I).
CPU_FREQ_GHZ = 3.0


def picoseconds(value: float) -> int:
    """Convert a picosecond quantity to simulator ticks."""
    return int(round(value * PICOSECOND))


def nanoseconds(value: float) -> int:
    """Convert a nanosecond quantity to simulator ticks."""
    return int(round(value * NANOSECOND))


def microseconds(value: float) -> int:
    """Convert a microsecond quantity to simulator ticks."""
    return int(round(value * MICROSECOND))


def milliseconds(value: float) -> int:
    """Convert a millisecond quantity to simulator ticks."""
    return int(round(value * MILLISECOND))


def seconds(value: float) -> int:
    """Convert a second quantity to simulator ticks."""
    return int(round(value * SECOND))


def to_nanoseconds(ticks: int) -> float:
    """Convert simulator ticks to nanoseconds."""
    return ticks / NANOSECOND


def to_microseconds(ticks: int) -> float:
    """Convert simulator ticks to microseconds."""
    return ticks / MICROSECOND


def to_milliseconds(ticks: int) -> float:
    """Convert simulator ticks to milliseconds."""
    return ticks / MILLISECOND


def to_seconds(ticks: int) -> float:
    """Convert simulator ticks to seconds."""
    return ticks / SECOND


def cycles(count: float) -> int:
    """Convert a CPU cycle count at :data:`CPU_FREQ_GHZ` into ticks.

    One cycle at 3 GHz is 1/3 ns, i.e. 333.33 ps.
    """
    return int(round(count * 1_000 / CPU_FREQ_GHZ)) * PICOSECOND


def gbps_to_bytes_per_tick(gbps: float) -> float:
    """Convert a bandwidth in gigabits per second to bytes per tick."""
    bits_per_second = gbps * 1e9
    bytes_per_second = bits_per_second / 8.0
    return bytes_per_second / SECOND


def transfer_time(num_bytes: int, gbps: float) -> int:
    """Ticks needed to transfer ``num_bytes`` at ``gbps`` gigabits/second."""
    if gbps <= 0:
        raise ValueError(f"bandwidth must be positive, got {gbps}")
    return int(round(num_bytes / gbps_to_bytes_per_tick(gbps)))


def bytes_to_gbps(num_bytes: int, ticks: int) -> float:
    """Average bandwidth in Gbps of ``num_bytes`` moved over ``ticks``."""
    if ticks <= 0:
        return 0.0
    bytes_per_second = num_bytes * SECOND / ticks
    return bytes_per_second * 8.0 / 1e9
