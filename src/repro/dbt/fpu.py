"""Double-precision helpers for GA64's FP instructions.

GA64 stores IEEE-754 doubles as bit patterns in the integer registers.  The
interpreter does bits → float → op → bits per instruction; translated code
keeps values as host floats and reinterprets only where bits are observable
(see :mod:`repro.dbt.backend`).  The arithmetic helpers here take and return
floats and define the edge-case behaviour (division by zero, NaN
propagation, conversion saturation) in one place for both.
"""

from __future__ import annotations

import math
import struct

__all__ = [
    "b2f",
    "f2b",
    "fdiv",
    "fsqrt",
    "fmin",
    "fmax",
    "d2l",
    "l2d",
    "fcvt_l_d",
    "fcvt_d_l",
]

M64 = 0xFFFF_FFFF_FFFF_FFFF
_I64_MAX = (1 << 63) - 1
_I64_MIN = -(1 << 63)

_pack = struct.Struct("<d").pack
_unpack = struct.Struct("<d").unpack
_qpack = struct.Struct("<Q").pack
_qunpack = struct.Struct("<Q").unpack

#: Canonical quiet NaN bit pattern (matches RISC-V's canonical NaN).
CANONICAL_NAN = 0x7FF8_0000_0000_0000


def b2f(bits: int) -> float:
    """Reinterpret 64 register bits as a double."""
    return _unpack(_qpack(bits))[0]


def f2b(value: float) -> int:
    """Register bits of a double.  Every NaN becomes the canonical quiet NaN,
    as in RISC-V: an FP result never carries a payload.  Which operand's
    payload the host would propagate depends on the C compiler's operand
    order — it differs between CPython's specialised and generic float paths
    — so a payload would make guest results depend on how warm host code is.
    """
    return CANONICAL_NAN if value != value else _qunpack(_pack(value))[0]


def fdiv(a: float, b: float) -> float:
    """IEEE division: x/0 is ±inf, 0/0 is NaN (Python raises instead)."""
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.inf if sign > 0 else -math.inf
    return a / b


def fsqrt(a: float) -> float:
    if a < 0.0:
        return math.nan
    return math.sqrt(a)


def fmin(a: float, b: float) -> float:
    """RISC-V fmin: returns the non-NaN operand if exactly one is NaN."""
    if math.isnan(a):
        return b if not math.isnan(b) else math.nan
    if math.isnan(b):
        return a
    # -0.0 < +0.0 for fmin purposes
    if a == b == 0.0:
        return -0.0 if math.copysign(1.0, a) < 0 or math.copysign(1.0, b) < 0 else 0.0
    return a if a < b else b


def fmax(a: float, b: float) -> float:
    if math.isnan(a):
        return b if not math.isnan(b) else math.nan
    if math.isnan(b):
        return a
    if a == b == 0.0:
        return 0.0 if math.copysign(1.0, a) > 0 or math.copysign(1.0, b) > 0 else -0.0
    return a if a > b else b


def d2l(x: float) -> int:
    """Double → int64 register bits, truncating toward zero, saturating
    (NaN → 0)."""
    if math.isnan(x):
        return 0
    if x >= _I64_MAX:
        return _I64_MAX & M64
    if x <= _I64_MIN:
        return _I64_MIN & M64
    return int(x) & M64


def l2d(bits: int) -> float:
    """Int64 (register bits, signed) → double."""
    return float(bits - (1 << 64) if bits > _I64_MAX else bits)


def fcvt_l_d(bits: int) -> int:
    """``fcvt.l.d`` on register bits."""
    return d2l(b2f(bits))


def fcvt_d_l(bits: int) -> int:
    """``fcvt.d.l`` on register bits."""
    return f2b(l2d(bits))
