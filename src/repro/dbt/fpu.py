"""Double-precision semantics of GA64's FP instructions, in two forms.

GA64 stores IEEE-754 doubles as bit patterns in the integer registers.  The
functions here are the interpreter's ops, which go bits → float → op → bits
per instruction.  Translated code keeps values as host floats and
reinterprets only where bits are observable (see :mod:`repro.dbt.backend`),
and there each op is the expression template defined beside its function:
the common case inline, over ``struct``'s C accessors and the names in
:data:`CODEGEN`, with the function as the slow arm of an edge case only
(division by zero, a negative root, an out-of-range conversion) — min/max of
two unknown operands stays a call.  Both forms give every edge case (division
by zero, NaN propagation, conversion saturation) the same bits.  A template's
operands are atoms — a name or a literal — because it may evaluate one more
than once.
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

# A double's and a u64's bytes, packed (``DP``/``QP``) and unpacked.
DP = struct.Struct("<d").pack
DU = struct.Struct("<d").unpack
QP = struct.Struct("<Q").pack
QU = struct.Struct("<Q").unpack

#: Canonical quiet NaN bit pattern (matches RISC-V's canonical NaN).
CANONICAL_NAN = 0x7FF8_0000_0000_0000


def b2f(bits: int) -> float:
    """Reinterpret 64 register bits as a double."""
    return DU(QP(bits))[0]


B2F = "DU(QP({x}))[0]"


def f2b(value: float) -> int:
    """Register bits of a double.  Every NaN becomes the canonical quiet NaN,
    as in RISC-V: an FP result never carries a payload.  Which operand's
    payload the host would propagate depends on the C compiler's operand
    order — it differs between CPython's specialised and generic float paths
    — so a payload would make guest results depend on how warm host code is.
    """
    return CANONICAL_NAN if value != value else QU(DP(value))[0]


F2B = "NAN if {x} != {x} else QU(DP({x}))[0]"


def fdiv(a: float, b: float) -> float:
    """IEEE division: x/0 is ±inf, 0/0 is NaN (Python raises instead)."""
    if b == 0.0:
        if a == 0.0 or math.isnan(a):
            return math.nan
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.inf if sign > 0 else -math.inf
    return a / b


FDIV = "{a} / {b} if {b} else fdiv_h({a}, {b})"


def fsqrt(a: float) -> float:
    if a < 0.0:
        return math.nan
    return math.sqrt(a)


FSQRT = "SQRT({a}) if {a} >= 0.0 else fsqrt_h({a})"


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


def fmin_const(v: str, c: float) -> str:
    """:func:`fmin` of ``v`` and the finite ``c``, in either order, inline: a
    NaN ``v`` fails the test and gives ``c``; against +0.0 the test is ``<=``,
    so that -0.0 wins."""
    op = "<=" if c == 0.0 and math.copysign(1.0, c) > 0 else "<"
    return f"{v} if {v} {op} {c!r} else {c!r}"


def fmax(a: float, b: float) -> float:
    if math.isnan(a):
        return b if not math.isnan(b) else math.nan
    if math.isnan(b):
        return a
    if a == b == 0.0:
        return 0.0 if math.copysign(1.0, a) > 0 or math.copysign(1.0, b) > 0 else -0.0
    return a if a > b else b


def fmax_const(v: str, c: float) -> str:
    """:func:`fmax` of ``v`` and the finite ``c``, in either order, inline: a
    NaN ``v`` fails the test and gives ``c``; against -0.0 the test is ``>=``,
    so that +0.0 wins."""
    op = ">=" if c == 0.0 and math.copysign(1.0, c) < 0 else ">"
    return f"{v} if {v} {op} {c!r} else {c!r}"


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


D2L = "int({x}) & M if -2.0**63 < {x} < 2.0**63 else d2l({x})"


def l2d(bits: int) -> float:
    """Int64 (register bits, signed) → double."""
    return float(bits - (1 << 64) if bits > _I64_MAX else bits)


L2D = "float({x} - 2**64 if {x} > 2**63 - 1 else {x})"


def fcvt_l_d(bits: int) -> int:
    """``fcvt.l.d`` on register bits."""
    return d2l(b2f(bits))


def fcvt_d_l(bits: int) -> int:
    """``fcvt.d.l`` on register bits."""
    return f2b(l2d(bits))


#: The globals the templates read: accessors, constants and slow arms.
CODEGEN = {
    "DP": DP, "DU": DU, "QP": QP, "QU": QU, "NAN": CANONICAL_NAN, "SQRT": math.sqrt, "M": M64,
    "d2l": d2l, "fdiv_h": fdiv, "fsqrt_h": fsqrt, "fmin_h": fmin, "fmax_h": fmax,
}
