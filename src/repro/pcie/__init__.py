"""PCIe substrate: TLP headers with IDIO metadata and the root complex."""

from .root_complex import RootComplex, SteeringHook
from .tlp import (
    APP_CLASS1_CORE_CODE,
    BURST_FLAG_BIT,
    DEST_CORE_BITS,
    HEADER_FLAG_BIT,
    MAX_DEST_CORE,
    IdioTag,
    decode_idio_bits,
    encode_idio_bits,
)

__all__ = [
    "APP_CLASS1_CORE_CODE",
    "BURST_FLAG_BIT",
    "DEST_CORE_BITS",
    "HEADER_FLAG_BIT",
    "IdioTag",
    "MAX_DEST_CORE",
    "RootComplex",
    "SteeringHook",
    "decode_idio_bits",
    "encode_idio_bits",
]
