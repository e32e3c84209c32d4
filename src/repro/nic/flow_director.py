"""Ethernet Flow Director (§II-C): steering packets to cores.

The server installs only **EP (Externally Programmed)** exact-match
rules, one per flow, when it pins an application to a core (the setup
ADQ relies on).  A flow without a rule goes to the default core.
"""

from __future__ import annotations

from typing import Dict

from ..net.packet import FiveTuple


class FlowDirector:
    """Flow-to-core steering by exact-match EP rules."""

    def __init__(self, default_core: int = 0) -> None:
        self.default_core = default_core
        self._ep_rules: Dict[FiveTuple, int] = {}

    def install_rule(self, flow: FiveTuple, dest_core: int) -> None:
        """Install an exact-match (perfect filter) rule."""
        if dest_core < 0:
            raise ValueError(f"dest_core must be non-negative, got {dest_core}")
        self._ep_rules[flow] = dest_core

    def lookup(self, flow: FiveTuple) -> int:
        """Destination core for ``flow``: its EP rule, else the default."""
        return self._ep_rules.get(flow, self.default_core)
