"""FP helper edge cases (IEEE-754 semantics of GA64's double instructions)."""

import math

from hypothesis import given, strategies as st

from repro.dbt.fpu import (
    CANONICAL_NAN,
    b2f,
    d2l,
    f2b,
    fcvt_d_l,
    fcvt_l_d,
    fdiv,
    fmax,
    fmin,
    fsqrt,
    l2d,
)

M64 = 2**64 - 1
I64_MAX = 2**63 - 1
I64_MIN = -(2**63)


class TestBitCasts:
    @given(st.floats(allow_nan=False))
    def test_roundtrip_floats(self, x):
        assert b2f(f2b(x)) == x

    @given(st.integers(0, M64))
    def test_roundtrip_bits(self, bits):
        back = f2b(b2f(bits))
        # NaN payloads may not roundtrip identically through Python floats,
        # but non-NaN patterns must.
        if not math.isnan(b2f(bits)):
            assert back == bits

    def test_every_nan_becomes_the_canonical_quiet_nan(self):
        # quiet/signalling, either sign, any payload: which payload a host
        # operation propagates is not something guest results may depend on
        for bits in (0x7FF8_DEAD_BEEF_CAFE, 0x7FF0_0000_0000_0001, 0xFFF7_FFFF_FFFF_FFFF):
            assert math.isnan(b2f(bits))
            assert f2b(b2f(bits)) == CANONICAL_NAN
        assert f2b(b2f(0x7FF8_0000_0000_0034) + b2f(0x7FF8_0000_0000_0ABC)) == CANONICAL_NAN

    def test_known_patterns(self):
        assert f2b(0.0) == 0
        assert f2b(1.0) == 0x3FF0_0000_0000_0000
        assert f2b(-2.0) == 0xC000_0000_0000_0000
        assert b2f(0x7FF0_0000_0000_0000) == math.inf


class TestDivision:
    def test_div_by_zero_signs(self):
        assert fdiv(1.0, 0.0) == math.inf
        assert fdiv(-1.0, 0.0) == -math.inf
        assert fdiv(1.0, -0.0) == -math.inf

    def test_zero_over_zero_nan(self):
        assert math.isnan(fdiv(0.0, 0.0))

    def test_nan_over_zero_nan(self):
        assert math.isnan(fdiv(math.nan, 0.0))

    def test_normal_division(self):
        assert fdiv(6.0, 3.0) == 2.0


class TestSqrt:
    def test_negative_nan(self):
        assert math.isnan(fsqrt(-1.0))

    def test_zero(self):
        assert fsqrt(0.0) == 0.0

    @given(st.floats(min_value=0, allow_infinity=False, allow_nan=False))
    def test_matches_math_sqrt(self, x):
        assert fsqrt(x) == math.sqrt(x)


class TestMinMax:
    def test_one_nan_returns_other(self):
        assert fmin(math.nan, 3.0) == 3.0
        assert fmax(3.0, math.nan) == 3.0

    def test_both_nan(self):
        assert math.isnan(fmin(math.nan, math.nan))
        assert math.isnan(fmax(math.nan, math.nan))

    def test_signed_zeros(self):
        assert math.copysign(1.0, fmin(0.0, -0.0)) == -1.0
        assert math.copysign(1.0, fmax(0.0, -0.0)) == 1.0

    @given(st.floats(allow_nan=False), st.floats(allow_nan=False))
    def test_ordering(self, a, b):
        assert fmin(a, b) <= fmax(a, b)


class TestConversions:
    def test_truncation_toward_zero(self):
        assert fcvt_l_d(f2b(2.9)) == 2
        assert fcvt_l_d(f2b(-2.9)) == (-2) & M64

    def test_nan_converts_to_zero(self):
        assert fcvt_l_d(f2b(math.nan)) == 0

    def test_saturation(self):
        assert fcvt_l_d(f2b(1e30)) == I64_MAX & M64
        assert fcvt_l_d(f2b(-1e30)) == I64_MIN & M64
        assert fcvt_l_d(f2b(math.inf)) == I64_MAX & M64

    def test_int_to_double_negative(self):
        bits = fcvt_d_l((-5) & M64)
        assert b2f(bits) == -5.0

    @given(st.integers(0, M64))
    def test_bit_wrappers_are_the_float_cores(self, bits):
        # one definition of saturation / NaN -> 0 for interpreter and DBT
        assert fcvt_l_d(bits) == d2l(b2f(bits))
        assert fcvt_d_l(bits) == f2b(l2d(bits))

    @given(st.integers(-(2**52), 2**52))
    def test_int_roundtrip_exact_range(self, v):
        assert fcvt_l_d(fcvt_d_l(v & M64)) == v & M64
