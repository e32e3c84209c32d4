"""IDIO: the paper's contribution — classifier-driven inbound data steering."""

from .cachedirector import CacheDirectorController
from .config import IDIOConfig
from .controller import IDIOController
from .fsm import STATE_MAX, STATE_MIN, STATUS_LLC, STATUS_MLC, StatusFSM
from .iat import IATController
from .policies import (
    PREFETCH_DYNAMIC,
    PREFETCH_OFF,
    PREFETCH_STATIC,
    IatResizing,
    IdioSteering,
    PolicyConfig,
    SlicePinning,
    Steering,
    TenantPartition,
    all_policies,
    cachedirector,
    ddio,
    extended_policies,
    iat,
    idio,
    invalidate_only,
    policy_by_name,
    prefetch_only,
    regulated_idio,
    static_idio,
)
from .prefetcher import MLCPrefetcher, RegulatedMLCPrefetcher

__all__ = [
    "CacheDirectorController",
    "IATController",
    "IDIOConfig",
    "IDIOController",
    "IatResizing",
    "IdioSteering",
    "MLCPrefetcher",
    "PREFETCH_DYNAMIC",
    "PREFETCH_OFF",
    "PREFETCH_STATIC",
    "PolicyConfig",
    "RegulatedMLCPrefetcher",
    "STATE_MAX",
    "STATE_MIN",
    "STATUS_LLC",
    "STATUS_MLC",
    "SlicePinning",
    "StatusFSM",
    "Steering",
    "TenantPartition",
    "all_policies",
    "cachedirector",
    "ddio",
    "extended_policies",
    "iat",
    "idio",
    "invalidate_only",
    "policy_by_name",
    "prefetch_only",
    "regulated_idio",
    "static_idio",
]
