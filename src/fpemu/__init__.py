"""fpemu: bit-exact emulation of parametric 16-bit floating-point formats.

The package models storage formats of the shape 1/e/p with or without
denormals, round-to-nearest-even quantization with full flag reporting,
the four mixed-precision multiply-accumulate instructions (mac, macs,
fmac, fmacs), a chunked-FMAC dot product, denormal-frequency telemetry,
and a deterministic toy training harness with dynamic loss scaling.
"""

from .formats import (
    BINARY32,
    FpClass,
    FpFormat,
    FpValue,
    classify,
    decode16,
    encode16,
)
from .instructions import AccumMode, fmac, fmac8_dot, fmacs, mac, macs, matmul
from .rounding import RoundFlag, RoundingOutcome, roundfp
from .telemetry import DenormalStats, Phase, RunSummary, TelemetrySink

__version__ = "0.1.0"

__all__ = [
    "BINARY32",
    "FpClass",
    "FpFormat",
    "FpValue",
    "classify",
    "decode16",
    "encode16",
    "AccumMode",
    "fmac",
    "fmac8_dot",
    "fmacs",
    "mac",
    "macs",
    "matmul",
    "RoundFlag",
    "RoundingOutcome",
    "roundfp",
    "DenormalStats",
    "Phase",
    "RunSummary",
    "TelemetrySink",
    "__version__",
]
