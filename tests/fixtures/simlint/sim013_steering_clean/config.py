# simlint-fixture-module: repro.harness.fix_steering
"""Clean half of the SIM013 subclass pair: every subclass field of the
slot's base type canonicalizes."""

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Steering:
    """One mechanism per slot; the base itself has no fields."""


@dataclass(frozen=True)
class Resizing(Steering):
    ways: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Pinning(Steering):
    cores: Tuple[int, ...] = ()  # ordered: canonical() walks it stably


@dataclass
class ServerConfig:
    steering: Optional[Steering] = None
