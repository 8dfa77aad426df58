"""Interval kernel: containment, directed rounding, and the special kernels."""

import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repulse.interval import (
    _NO_SPLIT,
    _PROD_MAX,
    _PROD_MIN,
    DomainError,
    Interval,
    Lanes,
    PI,
    cos,
    exp,
    hull,
    log,
    pow_int,
    remainder_R,
    s3_kernel,
    sin,
    sinc,
    sqrt,
)

from _oracles import EXP_ONE, R_AT_PI, S3_AT_PI, SINC_HALF, contains_bracket


def test_add_exact_integer_endpoints():
    v = Interval(1, 2) + Interval(3, 4)
    assert v.lo == 4.0 and v.hi == 6.0


def test_mul_sign_cases():
    v = Interval(-1, 2) * Interval(-1, 2)
    assert v.lo == -2.0 and v.hi == 4.0


def test_div_third_two_ulp():
    v = Interval(1) / Interval(3)
    assert v.contains(Fraction(1, 3))
    assert v.width <= 2 * math.ulp(1.0 / 3.0)


def test_div_by_zero_interval_raises():
    with pytest.raises(DomainError):
        Interval(1) / Interval(-1, 1)


def test_pow_even_straddle():
    v = pow_int(Interval(-1, 2), 4)
    assert v.lo == 0.0 and v.hi == 16.0


def test_pow_exact():
    v = pow_int(Interval(2), 10)
    assert v.lo == 1024.0 and v.hi == 1024.0


def test_pow_contains_rational():
    a = Interval.from_fraction(Fraction(11, 10), Fraction(12, 10))
    assert pow_int(a, 6).contains(Fraction(11, 10) ** 6)


def test_mig_is_the_least_magnitude():
    assert Interval(-3, -2).mig == 2.0
    assert Interval(2, 3).mig == 2.0
    assert Interval(-1, 4).mig == 0.0
    assert Interval(-3, -2).mag == 3.0
    assert pow_int(Interval(-3, -2), 2) == Interval(4.0, 9.0)


def test_product_underflowing_to_zero_rounds_outward():
    # Dekker's error term is lost when a*b underflows to 0 from nonzero
    # factors, but its sign is known, so the result is still the tightest one
    tiny = 5e-324
    assert Interval(1e-200) * Interval(1e-200) == Interval(0.0, tiny)
    assert Interval(-1e-200) * Interval(1e-200) == Interval(-tiny, -0.0)
    for x, y in ((1e-200, 1e-200), (-1e-200, 1e-200), (1e-170, -3e-170)):
        exact = Fraction(x) * Fraction(y)
        assert (Interval(x) * Interval(y)).contains(exact)
        assert (Interval(*sorted((x, 2 * x))) * Interval(y)).contains(exact)
        outer = Interval(*sorted((0.0, 2 * x))) * Interval(*sorted((0.0, 2 * y)))
        assert outer.contains_interval(Interval(x) * Interval(y))
    assert pow_int(Interval(1e-100), 4).contains(Fraction(1e-100) ** 4)
    assert Interval(0.0) * Interval(1e-200) == Interval(0.0)


def test_sin_zero():
    v = sin(Interval(0))
    assert v.lo == 0.0 and v.hi == 0.0


def test_cos_half_period():
    v = cos(Interval(0.0, PI.hi))
    assert v.hi >= 1.0 and v.lo <= -1.0


def test_trig_huge_arguments_stay_sound():
    import mpmath

    with mpmath.workprec(300):
        for x in (9.9e8, 1e9, 5e11, 1e13):
            s = sin(Interval(x))
            assert s.lo <= mpmath.sin(mpmath.mpf(x)) <= s.hi
            c = cos(Interval(x))
            assert c.lo <= mpmath.cos(mpmath.mpf(x)) <= c.hi


def test_exp_one_tight():
    v = exp(Interval(1))
    assert contains_bracket(v, EXP_ONE)
    assert v.width <= 4 * math.ulp(math.e)


def test_sqrt_domain_and_exactness():
    assert sqrt(Interval(4)).lo == 2.0 == sqrt(Interval(4)).hi
    with pytest.raises(DomainError):
        sqrt(Interval(-1, 1))


def test_log_domain():
    with pytest.raises(DomainError):
        log(Interval(0, 1))
    v = log(Interval(2))
    assert v.lo <= math.log(2) <= v.hi


def test_sinc_at_zero():
    v = sinc(Interval(0))
    assert v.lo == 1.0 and v.hi == 1.0


def test_sinc_at_pi_contains_zero():
    assert sinc(PI).contains(0.0)


def test_sinc_half_oracle():
    assert contains_bracket(sinc(Interval(0.5)), SINC_HALF)


def test_sinc_range_clamp():
    v = sinc(Interval(-50.0, 50.0))
    assert v.lo >= -0.22 and v.hi <= 1.0


def test_remainder_R_zero():
    v = remainder_R(Interval(0))
    assert v.lo == 0.0 and v.hi == 0.0


def test_remainder_R_at_pi_oracle():
    assert contains_bracket(remainder_R(PI), R_AT_PI)


def test_remainder_R_monotone_in_abs():
    rng = random.Random(7)
    for _ in range(300):
        a = rng.uniform(0.0, 8.0)
        b = a + rng.uniform(0.0, 4.0)
        ra = remainder_R(Interval(a))
        rb = remainder_R(Interval(b))
        assert ra.hi <= rb.hi + 2 * (ra.width + rb.width)


def test_s3_kernel_zero():
    v = s3_kernel(Interval(0))
    assert v.contains(Fraction(1, 6))
    assert v.width <= 4 * math.ulp(1 / 6)


def test_s3_kernel_at_pi_oracle():
    assert contains_bracket(s3_kernel(PI), S3_AT_PI)


def test_w_expression_at_zero():
    v = 32.0 * s3_kernel(Interval(0)) - 5.0 * pow_int(sinc(Interval(0)), 2)
    assert v.contains(Fraction(1, 3))


# -- series/direct switchover band ------------------------------------------

def test_kernel_paths_agree_on_band():
    from repulse.interval import _sinc_direct, _sinc_series

    rng = random.Random(11)
    for _ in range(200):
        x = rng.uniform(0.25, 0.5)
        a = Interval(x)
        s = _sinc_series(a)
        d = _sinc_direct(a)
        assert s.overlaps(d)
        r_series = remainder_R(Interval(x))  # series branch (|x| <= 1/2)
        num = sin(a) - a + pow_int(a, 3) / 6.0
        r_direct = num / pow_int(a, 3)
        assert r_series.overlaps(r_direct)


# -- bit pins -----------------------------------------------------------------
# Hex endpoints "lo hi" of sin, cos, sinc, remainder_R and s3_kernel, in that
# order, on points in every quadrant k mod 4, on +-0.0, past the reduction
# limit |x| > 1e9, next to |x| = 1/2 (the series/direct switch of sinc and R)
# and next to the reduced-range limit pi/4 (and 3pi/4, where round() ties to
# the even quadrant), and on thin and wide boxes.  Containment would not see a
# changed rounding; these pins see every bit.

_ELEMENTARY_PINS = [
    ((0.0, 0.0),
     ("0x0.0p+0 0x0.0p+0", "0x1.0000000000000p+0 0x1.0000000000000p+0",
      "0x1.0000000000000p+0 0x1.0000000000000p+0", "0x0.0p+0 0x0.0p+0",
      "0x1.5555555555555p-3 0x1.5555555555556p-3")),
    ((-0.0, -0.0),
     ("0x0.0p+0 0x0.0p+0", "0x1.0000000000000p+0 0x1.0000000000000p+0",
      "0x1.0000000000000p+0 0x1.0000000000000p+0", "0x0.0p+0 0x0.0p+0",
      "0x1.5555555555555p-3 0x1.5555555555556p-3")),
    ((0.3, 0.3),
     ("0x1.2e9cd95baba32p-2 0x1.2e9cd95baba35p-2", "0x1.e921dd42f09b9p-1 0x1.e921dd42f09bcp-1",
      "0x1.f85abf98c8baap-1 0x1.f85abf98c8badp-1", "0x1.885fdbbcdb8f3p-11 0x1.885fdbbcdb8fap-11",
      "0x1.53ccf5799879cp-3 0x1.53ccf5799879ep-3")),
    ((1.7, 1.7),
     ("0x1.fbbb7d72f98b5p-1 0x1.fbbb7d72f98b8p-1", "-0x1.07df9f4a26c8ap-3 -0x1.07df9f4a26c7fp-3",
      "0x1.2aaa8607659d4p-1 0x1.2aaa8607659d6p-1", "0x1.707df8f02b433p-6 0x1.707df8f02b46ap-6",
      "0x1.274596374fec7p-3 0x1.274596374fed0p-3")),
    ((3.0, 3.0),
     ("0x1.210386db6d555p-3 0x1.210386db6d568p-3", "-0x1.fae04be85e5d4p-1 -0x1.fae04be85e5d0p-1",
      "0x1.815a092491c71p-5 0x1.815a092491c8bp-5", "0x1.f1ed8f3cf3c07p-5 0x1.f1ed8f3cf3c16p-5",
      "0x1.b1b3e30c30c9fp-4 0x1.b1b3e30c30ca9p-4")),
    ((4.6, 4.6),
     ("-0x1.fcc51135decbbp-1 -0x1.fcc51135decb7p-1", "-0x1.cb6072b598dffp-4 -0x1.cb6072b598dbbp-4",
      "-0x1.ba689487e3208p-3 -0x1.ba689487e3203p-3", "0x1.bf47412a29c3cp-4 0x1.bf47412a29c48p-4",
      "0x1.d6c6d30101cc4p-5 0x1.d6c6d30101ce0p-5")),
    ((6.0, 6.0),
     ("-0x1.1e1f18ab0a2cdp-2 -0x1.1e1f18ab0a2bap-2", "0x1.eb9b7097822f2p-1 0x1.eb9b7097822f8p-1",
      "-0x1.7d7ecb8eb83bcp-5 -0x1.7d7ecb8eb83a2p-5", "0x1.19cb905d3b2a2p-3 0x1.19cb905d3b2a6p-3",
      "0x1.dc4e27c0d1578p-6 0x1.dc4e27c0d15a0p-6")),
    ((-1.7, -1.7),
     ("-0x1.fbbb7d72f98b8p-1 -0x1.fbbb7d72f98b5p-1", "-0x1.07df9f4a26c8ap-3 -0x1.07df9f4a26c7fp-3",
      "0x1.2aaa8607659d4p-1 0x1.2aaa8607659d6p-1", "0x1.707df8f02b433p-6 0x1.707df8f02b46ap-6",
      "0x1.274596374fec7p-3 0x1.274596374fed0p-3")),
    ((-3.0, -3.0),
     ("-0x1.210386db6d568p-3 -0x1.210386db6d555p-3", "-0x1.fae04be85e5d4p-1 -0x1.fae04be85e5d0p-1",
      "0x1.815a092491c71p-5 0x1.815a092491c8bp-5", "0x1.f1ed8f3cf3c07p-5 0x1.f1ed8f3cf3c16p-5",
      "0x1.b1b3e30c30c9fp-4 0x1.b1b3e30c30ca9p-4")),
    ((-4.6, -4.6),
     ("0x1.fcc51135decb7p-1 0x1.fcc51135decbbp-1", "-0x1.cb6072b598dffp-4 -0x1.cb6072b598dbbp-4",
      "-0x1.ba689487e3208p-3 -0x1.ba689487e3203p-3", "0x1.bf47412a29c3cp-4 0x1.bf47412a29c48p-4",
      "0x1.d6c6d30101cc4p-5 0x1.d6c6d30101ce0p-5")),
    ((7.9, 7.9),
     ("0x1.ff753d53a5fa7p-1 0x1.ff753d53a5fabp-1", "-0x1.78d9732562ad9p-5 -0x1.78d97325629d5p-5",
      "0x1.02f74fa8bbbc5p-3 0x1.02f74fa8bbbc8p-3", "0x1.38aae20895410p-3 0x1.38aae20895416p-3",
      "0x1.caa734cc013f0p-7 0x1.caa734cc01460p-7")),
    ((-12.3, -12.3),
     ("0x1.0d8ca27cbc03bp-2 0x1.0d8ca27cbc05ep-2", "0x1.edf16f066a371p-1 0x1.edf16f066a379p-1",
      "-0x1.5ea2205fa7932p-6 -0x1.5ea2205fa7903p-6", "0x1.4781b80a9d791p-3 0x1.4781b80a9d797p-3",
      "0x1.ba73a956fb7c0p-8 0x1.ba73a956fb8a0p-8")),
    ((0.5, 0.5),
     ("0x1.eaee8744b05eep-2 0x1.eaee8744b05f1p-2", "0x1.c1528065b7d4ep-1 0x1.c1528065b7d51p-1",
      "0x1.eaee8744b05eep-1 0x1.eaee8744b05f1p-1", "0x1.0f726816d14f6p-9 0x1.0f726816d14fap-9",
      "0x1.51178bb4fa101p-3 0x1.51178bb4fa103p-3")),
    ((0.49999999999999994, 0.49999999999999994),
     ("0x1.eaee8744b05edp-2 0x1.eaee8744b05f2p-2", "0x1.c1528065b7d4ep-1 0x1.c1528065b7d51p-1",
      "0x1.eaee8744b05eep-1 0x1.eaee8744b05f2p-1", "0x1.0f726816d14f4p-9 0x1.0f726816d14fap-9",
      "0x1.51178bb4fa101p-3 0x1.51178bb4fa103p-3")),
    ((0.5000000000000001, 0.5000000000000001),
     ("0x1.eaee8744b05efp-2 0x1.eaee8744b05f3p-2", "0x1.c1528065b7d4dp-1 0x1.c1528065b7d51p-1",
      "0x1.eaee8744b05edp-1 0x1.eaee8744b05f2p-1", "0x1.0f726816d09fap-9 0x1.0f726816d1b3dp-9",
      "0x1.51178bb4fa0e8p-3 0x1.51178bb4fa12fp-3")),
    ((-0.5, -0.5),
     ("-0x1.eaee8744b05f1p-2 -0x1.eaee8744b05eep-2", "0x1.c1528065b7d4ep-1 0x1.c1528065b7d51p-1",
      "0x1.eaee8744b05eep-1 0x1.eaee8744b05f1p-1", "0x1.0f726816d14f6p-9 0x1.0f726816d14fap-9",
      "0x1.51178bb4fa101p-3 0x1.51178bb4fa103p-3")),
    ((0.7853981633974483, 0.7853981633974483),
     ("0x1.6a09e667f3bcap-1 0x1.6a09e667f3bcep-1", "0x1.6a09e667f3bcbp-1 0x1.6a09e667f3bcfp-1",
      "0x1.ccf6429be661ep-1 0x1.ccf6429be6624p-1", "0x1.4bfa153470043p-8 0x1.4bfa1534704ebp-8",
      "0x1.4af584abb1d2dp-3 0x1.4af584abb1d54p-3")),
    ((2.356194490192345, 2.356194490192345),
     ("0x1.6a09e667f3bc9p-1 0x1.6a09e667f3bd2p-1", "-0x1.6a09e667f3bcfp-1 -0x1.6a09e667f3bc8p-1",
      "0x1.334ed71299968p-2 0x1.334ed71299971p-2", "0x1.4c923c9f0a85bp-5 0x1.4c923c9f0a879p-5",
      "0x1.0230c62d92b36p-3 0x1.0230c62d92b40p-3")),
    ((-3.9269908169872414, -3.9269908169872414),
     ("0x1.6a09e667f3bc7p-1 0x1.6a09e667f3bcfp-1", "-0x1.6a09e667f3bd2p-1 -0x1.6a09e667f3bcbp-1",
      "-0x1.70c5021651e84p-3 -0x1.70c5021651e7bp-3", "0x1.713bae390e72fp-4 0x1.713bae390e73ap-4",
      "0x1.396efc719c370p-4 0x1.396efc719c37dp-4")),
    ((1e-300, 1e-300),
     ("0x1.56e1fc2f8f357p-997 0x1.56e1fc2f8f35bp-997", "0x1.ffffffffffffep-1 0x1.0000000000000p+0",
      "0x1.ffffffffffffep-1 0x1.0000000000000p+0", "0x0.0p+0 0x0.0000000000001p-1022",
      "0x1.5555555555554p-3 0x1.5555555555556p-3")),
    ((1000000000.0, 1000000000.0),
     ("0x1.1778c71eff28dp-1 0x1.1778cf92b44e3p-1", "0x1.acff89da97b77p-1 0x1.acff8e7976ae6p-1",
      "0x1.2c149ec76ec87p-31 0x1.2c14a7dab2333p-31", "0x1.5555555555552p-3 0x1.5555555555556p-3",
      "0x0.0p+0 0x1.0000000000000p-53")),
    ((2000000000.0, 2000000000.0),
     ("-0x1.0000000000000p+0 0x1.0000000000000p+0", "-0x1.0000000000000p+0 0x1.0000000000000p+0",
      "-0x1.12e0be826d695p-31 0x1.12e0be826d695p-31", "0x1.5555555555552p-3 0x1.5555555555556p-3",
      "0x0.0p+0 0x1.0000000000000p-53")),
    ((-5000000000.0, -5000000000.0),
     ("-0x1.0000000000000p+0 0x1.0000000000000p+0", "-0x1.0000000000000p+0 0x1.0000000000000p+0",
      "-0x1.b7cdfd9d7bdbbp-33 0x1.b7cdfd9d7bdbbp-33", "0x1.5555555555552p-3 0x1.5555555555556p-3",
      "0x0.0p+0 0x1.0000000000000p-53")),
    ((1e+300, 1e+300),
     ("-0x1.0000000000000p+0 0x1.0000000000000p+0", "-0x1.0000000000000p+0 0x1.0000000000000p+0",
      "-0x1.56e1fc2f8f35ap-997 0x1.56e1fc2f8f35ap-997", "0x0.0p+0 0x1.5555555555556p-3",
      "0x0.0p+0 0x1.5555555555556p-3")),
    ((1.0, 1.0000000000000002),
     ("0x1.aed548f090cecp-1 0x1.aed548f090cf1p-1", "0x1.14a280fb50688p-1 0x1.14a280fb5068fp-1",
      "0x1.aed548f090ceap-1 0x1.aed548f090cf1p-1", "0x1.0aa7917989050p-7 0x1.0aa791798918dp-7",
      "0x1.44aadc3dbcc3cp-3 0x1.44aadc3dbcc51p-3")),
    ((0.4, 0.6),
     ("0x1.8ec3ae92b6769p-2 0x1.2118d17a5415ap-1", "0x1.a69263c485b13p-1 0x1.d7954e7dba2f9p-1",
      "0x1.991c1b63e84f1p-1 0x1.0000000000000p+0", "0x1.5c325f0da89ddp-10 0x1.85dcc48ec3000p-9",
      "0x1.4f3de2431a495p-3 0x1.529cf0973a043p-3")),
    ((-0.25, 0.25),
     ("-0x1.faaeed4f31578p-3 0x1.faaeed4f31578p-3", "0x1.f01549f7deea0p-1 0x1.0000000000000p+0",
      "0x1.faaaaaaaaaaa9p-1 0x1.0000000000000p+0", "0x0.0p+0 0x1.10a921ab303fap-11",
      "0x1.5444ac33aa251p-3 0x1.5555555555556p-3")),
    ((1.5, 1.6),
     ("0x1.feb7a9b2c6d89p-1 0x1.0000000000000p+0", "-0x1.de67ac55f1646p-6 0x1.21bd54fc5f9b4p-4",
      "0x1.3f32ca0fbc475p-1 0x1.5555555555556p-1", "0x1.233f2c8c1afb4p-6 0x1.48f609432b475p-6",
      "0x1.2c36942cefec6p-3 0x1.30ed6fc3d1f60p-3")),
    ((2.0, 4.5),
     ("-0x1.f47ed3dc74082p-1 0x1.d18f6ead1b448p-1", "-0x1.0000000000000p+0 -0x1.afb5b54583d62p-3",
      "-0x1.c28f5c28f5c29p-3 0x1.d18f6ead1b448p-2", "0x1.f0e8655f17bb8p-6 0x1.b474b0a60fccfp-4",
      "0x1.ec6bf40935bb6p-5 0x1.173848a9725dfp-3")),
    ((-3.0, 5.0),
     ("-0x1.0000000000000p+0 0x1.0000000000000p+0", "-0x1.0000000000000p+0 0x1.0000000000000p+0",
      "-0x1.c28f5c28f5c29p-3 0x1.0000000000000p+0", "0x0.0p+0 0x1.e767963a26fb8p-4",
      "0x1.868628e1075e4p-5 0x1.5555555555556p-3")),
    ((0.0, 7.0),
     ("-0x1.0000000000000p+0 0x1.0000000000000p+0", "-0x1.0000000000000p+0 0x1.0000000000000p+0",
      "-0x1.c28f5c28f5c29p-3 0x1.0000000000000p+0", "0x0.0p+0 0x1.2f75ce62795a5p-3",
      "0x1.2efc3796dfd80p-6 0x1.5555555555556p-3")),
    ((100.0, 100.5),
     ("-0x1.03425b78c4e15p-1 -0x1.fb3f833470b84p-6", "0x1.b981dbf665fadp-1 0x1.ffc12adaecec4p-1",
      "-0x1.4bda0eaf107c9p-8 -0x1.43060ec6f78afp-12", "0x1.5520a398e7d46p-3 0x1.552168af4426fp-3",
      "0x1.9f65308973000p-14 0x1.a58de36c08000p-14")),
    ((-100000001.0, -100000000.0),
     ("-0x1.dcffcaa979d8cp-1 -0x1.94a961fe829fep-3", "-0x1.f5e7eacf1504dp-1 -0x1.741b370b5f4d5p-2",
      "0x1.0f905777f58bbp-29 0x1.401bd6103e4c5p-27", "0x1.555555555554fp-3 0x1.5555555555556p-3",
      "0x0.0p+0 0x1.c000000000000p-53")),
]


_PINNED = (("sin", sin), ("cos", cos), ("sinc", sinc), ("remainder_R", remainder_R),
           ("s3_kernel", s3_kernel))


def test_elementary_functions_bit_pins():
    moved = []
    for box, pins in _ELEMENTARY_PINS:
        for (name, fn), pin in zip(_PINNED, pins):
            v = fn(Interval(*box))
            got = f"{v.lo.hex()} {v.hi.hex()}"
            if got != pin:
                moved.append((name, box, got, pin))
    assert not moved


# -- inclusion monotonicity ---------------------------------------------------

_vals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_widths = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def _nested(center, w_in, w_out):
    inner = Interval(center - w_in, center + w_in)
    outer = Interval(center - w_in - w_out, center + w_in + w_out)
    return inner, outer


@settings(max_examples=300, deadline=None)
@given(_vals, _vals, _widths, _widths, _widths, _widths)
@example(2.2250738585e-313, 1.0229864588617348e-37, 0.0, 2.2250738585e-313, 0.0, 0.0)  # product underflows to 0
@example(5e-324, 2.0, 0.0, 5e-324, 0.0, 0.0)  # quotient underflows to 0
def test_inclusion_monotonicity_binary(c1, c2, wi1, wo1, wi2, wo2):
    a_in, a_out = _nested(c1, wi1, wo1)
    b_in, b_out = _nested(c2, wi2, wo2)
    assert a_out.contains_interval(a_in)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        assert op(a_out, b_out).contains_interval(op(a_in, b_in))
    if b_in.lo > 0 or b_in.hi < 0:
        if b_out.lo > 0 or b_out.hi < 0:
            assert (a_out / b_out).contains_interval(a_in / b_in)


def _edge_grid():
    """0 and 22 magnitudes with both signs: the subnormals, the smallest
    normal, the guards of the error-free product and a neighbour, small
    integers and fractions, and the largest float."""
    mags = [5e-324, 1e-323, 1.5e-323, sys.float_info.min, 1e-300, 3e-200, 1e-150,
            _PROD_MIN, math.nextafter(_PROD_MIN, 1.0), 1 / 3, 0.5, 1.0, math.nextafter(1.0, 2.0),
            2.0, 3.0, 10.0, 1e16, 1e150, 1e290, _PROD_MAX, _NO_SPLIT, sys.float_info.max]
    return [0.0, *mags, *(-m for m in mags)]


def _widened(v):
    """The point v first, then v widened by one ulp below, above and on both
    sides, where the new endpoints stay finite."""
    down, up = math.nextafter(v, -math.inf), math.nextafter(v, math.inf)
    return [Interval(a, b) for a, b in ((v, v), (down, v), (v, up), (down, up))
            if math.isfinite(a) and math.isfinite(b)]


def _check_edge_results(pairs, scalar, lanes, exact):
    """Lanes equal the scalar kernel bit for bit; every point result contains
    the exact value and keeps the sign of a one-signed one; every result
    contains the result at the points it widens."""
    assert [(v.lo.hex(), v.hi.hex()) for v in scalar] == \
        [(a.hex(), b.hex()) for a, b in zip(lanes.lo.tolist(), lanes.hi.tolist())]
    at_points = {}
    for (key, point), v in zip(pairs, scalar):
        if point:
            r = exact(*key)
            assert v.lo <= r <= v.hi, key
            assert (r <= 0 or v.lo >= 0.0) and (r >= 0 or v.hi <= 0.0), key
            at_points[key] = v
    for (key, _), v in zip(pairs, scalar):
        assert v.contains_interval(at_points[key]), key


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div"])
def test_rational_ops_on_the_edge_grid(name):
    # every pair of grid points, each as a point and widened by one ulp, on
    # the scalar kernel and on lanes, against the exact rational result
    op = getattr(operator, {"div": "truediv"}.get(name, name))
    grid = _edge_grid()
    boxes = {v: _widened(v) for v in grid}
    pairs, xs, ys = [], [], []
    for a in grid:
        for b in grid:
            for i, x in enumerate(boxes[a]):
                for j, y in enumerate(boxes[b]):
                    if name != "div" or y.lo > 0.0 or y.hi < 0.0:
                        pairs.append(((a, b), i == j == 0))
                        xs.append(x)
                        ys.append(y)
    scalar = [op(x, y) for x, y in zip(xs, ys)]
    _check_edge_results(pairs, scalar, op(Lanes.of(xs), Lanes.of(ys)),
                        lambda a, b: op(Fraction(a), Fraction(b)))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_pow_int_on_the_edge_grid(k):
    grid = _edge_grid()
    pairs, xs = [], []
    for a in grid:
        for i, x in enumerate(_widened(a)):
            pairs.append(((a,), i == 0))
            xs.append(x)
    _check_edge_results(pairs, [pow_int(x, k) for x in xs], pow_int(Lanes.of(xs), k),
                        lambda a: Fraction(a) ** k)


@settings(max_examples=200, deadline=None)
@given(_vals, st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.0, max_value=3.0))
def test_near_isotonicity_unary(c, wi, wo):
    # endpoint enclosures carry their own ulp-scale noise, so unary kernels
    # are isotone only up to that noise (binary ops are exactly isotone)
    inner, outer = _nested(c, wi, wo)
    for fn in (sin, cos, sinc, remainder_R, s3_kernel):
        fi, fo = fn(inner), fn(outer)
        slack = 4 * math.ulp(max(1.0, abs(fo.lo), abs(fo.hi)))
        assert fo.lo <= fi.lo + slack
        assert fi.hi <= fo.hi + slack


# -- point containment smoke fuzz (the large sweep lives in the acceptance suite)

def test_containment_smoke():
    import mpmath

    mpmath.mp.prec = 90
    rng = random.Random(3)
    for _ in range(2000):
        x = rng.uniform(-30, 30)
        y = rng.uniform(-30, 30)
        assert (Interval(x) + Interval(y)).contains(Fraction(x) + Fraction(y))
        assert (Interval(x) * Interval(y)).contains(Fraction(x) * Fraction(y))
        if y != 0.0:
            assert (Interval(x) / Interval(y)).contains(Fraction(x) / Fraction(y))
        X = mpmath.mpf(x)
        s = sin(Interval(x))
        assert s.lo <= mpmath.sin(X) <= s.hi
        c = cos(Interval(x))
        assert c.lo <= mpmath.cos(X) <= c.hi
