# simlint-fixture-module: repro.harness.fix_steering
"""SIM013 fixture: a slot typed by a field-less base class whose subclass
carries an unordered field — only a walk over the subclasses sees it."""

from dataclasses import dataclass
from typing import Optional, Set, Tuple


@dataclass(frozen=True)
class Steering:
    """One mechanism per slot; the base itself has no fields."""


@dataclass(frozen=True)
class Resizing(Steering):
    ways: Tuple[int, ...] = ()


@dataclass(frozen=True)
class Pinning(Steering):
    cores: Set[int] = frozenset()  # unordered: canonical() cannot order it


@dataclass
class ServerConfig:
    steering: Optional[Steering] = None
