"""Interval kernel: containment, directed rounding, and the special kernels."""

import math
import operator
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repulse.interval import (
    _div_down,
    _div_up,
    _mul_down,
    _mul_up,
    _vdiv_rows,
    _vmul_rows,
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
    # the corners -1 * 2 and 2 * 2, each product one ulp outward
    v = Interval(-1, 2) * Interval(-1, 2)
    assert v.lo == math.nextafter(-2.0, -math.inf) and v.hi == math.nextafter(4.0, math.inf)


def test_div_third_two_ulp():
    v = Interval(1) / Interval(3)
    assert v.contains(Fraction(1, 3))
    assert v.width <= 2 * math.ulp(1.0 / 3.0)


def test_div_by_zero_interval_raises():
    with pytest.raises(DomainError):
        Interval(1) / Interval(-1, 1)


def test_pow_even_straddle():
    # the least magnitude 0 gives an exact 0; 2 * 2 and its square step up
    v = pow_int(Interval(-1, 2), 4)
    assert v.lo == 0.0 and v.hi == 16.0 + 3 * math.ulp(16.0)


def test_pow_exact():
    # 2**10 from an exact point: four directed products, 9 ulps of 1024 out
    v = pow_int(Interval(2), 10)
    assert v.lo == 1024.0 - 9 * math.ulp(1023.0) and v.hi == 1024.0 + 9 * math.ulp(1024.0)


def test_pow_contains_rational():
    a = Interval.from_fraction(Fraction(11, 10), Fraction(12, 10))
    assert pow_int(a, 6).contains(Fraction(11, 10) ** 6)


def test_mig_is_the_least_magnitude():
    assert Interval(-3, -2).mig == 2.0
    assert Interval(2, 3).mig == 2.0
    assert Interval(-1, 4).mig == 0.0
    assert Interval(-3, -2).mag == 3.0
    assert pow_int(Interval(-3, -2), 2) == Interval(math.nextafter(4.0, 0.0), math.nextafter(9.0, 10.0))


def test_product_underflowing_to_zero_rounds_outward():
    # a*b that underflows to 0 from nonzero factors has the sign of its
    # zero, so it steps outward on that side only: the tightest result
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
    assert v.width <= 6 * math.ulp(math.e)


def test_sqrt_domain_and_exactness():
    # a root steps one ulp outward even where it is exact; a root of 0 is 0
    assert sqrt(Interval(4)) == Interval(math.nextafter(2.0, 0.0), math.nextafter(2.0, 3.0))
    assert sqrt(Interval(0.0)) == Interval(0.0)
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
      "0x1.f85abf98c8baap-1 0x1.f85abf98c8badp-1", "0x1.885fdbbcdb8f2p-11 0x1.885fdbbcdb8fcp-11",
      "0x1.53ccf5799879cp-3 0x1.53ccf5799879ep-3")),
    ((1.7, 1.7),
     ("0x1.fbbb7d72f98b4p-1 0x1.fbbb7d72f98b9p-1", "-0x1.07df9f4a26c9ap-3 -0x1.07df9f4a26c6ep-3",
      "0x1.2aaa8607659d2p-1 0x1.2aaa8607659d7p-1", "0x1.707df8f02b41dp-6 0x1.707df8f02b47fp-6",
      "0x1.274596374fec5p-3 0x1.274596374fed3p-3")),
    ((3.0, 3.0),
     ("0x1.210386db6d535p-3 0x1.210386db6d589p-3", "-0x1.fae04be85e5d5p-1 -0x1.fae04be85e5cfp-1",
      "0x1.815a092491c46p-5 0x1.815a092491cb8p-5", "0x1.f1ed8f3cf3bf4p-5 0x1.f1ed8f3cf3c2dp-5",
      "0x1.b1b3e30c30c93p-4 0x1.b1b3e30c30cb2p-4")),
    ((4.6, 4.6),
     ("-0x1.fcc51135decbdp-1 -0x1.fcc51135decb5p-1", "-0x1.cb6072b598e80p-4 -0x1.cb6072b598d3ap-4",
      "-0x1.ba689487e320ap-3 -0x1.ba689487e3201p-3", "0x1.bf47412a29c35p-4 0x1.bf47412a29c50p-4",
      "0x1.d6c6d30101cb4p-5 0x1.d6c6d30101ceep-5")),
    ((6.0, 6.0),
     ("-0x1.1e1f18ab0a2eep-2 -0x1.1e1f18ab0a299p-2", "0x1.eb9b7097822eep-1 0x1.eb9b7097822fcp-1",
      "-0x1.7d7ecb8eb83e9p-5 -0x1.7d7ecb8eb8376p-5", "0x1.19cb905d3b29dp-3 0x1.19cb905d3b2acp-3",
      "0x1.dc4e27c0d1548p-6 0x1.dc4e27c0d15c8p-6")),
    ((-1.7, -1.7),
     ("-0x1.fbbb7d72f98b9p-1 -0x1.fbbb7d72f98b4p-1", "-0x1.07df9f4a26c9ap-3 -0x1.07df9f4a26c6ep-3",
      "0x1.2aaa8607659d2p-1 0x1.2aaa8607659d7p-1", "0x1.707df8f02b41dp-6 0x1.707df8f02b47fp-6",
      "0x1.274596374fec5p-3 0x1.274596374fed3p-3")),
    ((-3.0, -3.0),
     ("-0x1.210386db6d589p-3 -0x1.210386db6d535p-3", "-0x1.fae04be85e5d5p-1 -0x1.fae04be85e5cfp-1",
      "0x1.815a092491c46p-5 0x1.815a092491cb8p-5", "0x1.f1ed8f3cf3bf4p-5 0x1.f1ed8f3cf3c2dp-5",
      "0x1.b1b3e30c30c93p-4 0x1.b1b3e30c30cb2p-4")),
    ((-4.6, -4.6),
     ("0x1.fcc51135decb5p-1 0x1.fcc51135decbdp-1", "-0x1.cb6072b598e80p-4 -0x1.cb6072b598d3ap-4",
      "-0x1.ba689487e320ap-3 -0x1.ba689487e3201p-3", "0x1.bf47412a29c35p-4 0x1.bf47412a29c50p-4",
      "0x1.d6c6d30101cb4p-5 0x1.d6c6d30101ceep-5")),
    ((7.9, 7.9),
     ("0x1.ff753d53a5fa7p-1 0x1.ff753d53a5facp-1", "-0x1.78d9732562bdap-5 -0x1.78d9732562955p-5",
      "0x1.02f74fa8bbbc5p-3 0x1.02f74fa8bbbc9p-3", "0x1.38aae2089540dp-3 0x1.38aae20895419p-3",
      "0x1.caa734cc013c0p-7 0x1.caa734cc01490p-7")),
    ((-12.3, -12.3),
     ("0x1.0d8ca27cbbffap-2 0x1.0d8ca27cbc09fp-2", "0x1.edf16f066a369p-1 0x1.edf16f066a381p-1",
      "-0x1.5ea2205fa7987p-6 -0x1.5ea2205fa78aep-6", "0x1.4781b80a9d78ep-3 0x1.4781b80a9d79bp-3",
      "0x1.ba73a956fb740p-8 0x1.ba73a956fb900p-8")),
    ((0.5, 0.5),
     ("0x1.eaee8744b05edp-2 0x1.eaee8744b05f3p-2", "0x1.c1528065b7d4ep-1 0x1.c1528065b7d51p-1",
      "0x1.eaee8744b05eep-1 0x1.eaee8744b05f2p-1", "0x1.0f726816d14f4p-9 0x1.0f726816d14fcp-9",
      "0x1.51178bb4fa101p-3 0x1.51178bb4fa103p-3")),
    ((0.49999999999999994, 0.49999999999999994),
     ("0x1.eaee8744b05ecp-2 0x1.eaee8744b05f2p-2", "0x1.c1528065b7d4ep-1 0x1.c1528065b7d52p-1",
      "0x1.eaee8744b05eep-1 0x1.eaee8744b05f2p-1", "0x1.0f726816d14f3p-9 0x1.0f726816d14fap-9",
      "0x1.51178bb4fa101p-3 0x1.51178bb4fa103p-3")),
    ((0.5000000000000001, 0.5000000000000001),
     ("0x1.eaee8744b05efp-2 0x1.eaee8744b05f4p-2", "0x1.c1528065b7d4dp-1 0x1.c1528065b7d51p-1",
      "0x1.eaee8744b05ecp-1 0x1.eaee8744b05f3p-1", "0x1.0f726816d093ap-9 0x1.0f726816d1f80p-9",
      "0x1.51178bb4fa0d7p-3 0x1.51178bb4fa132p-3")),
    ((-0.5, -0.5),
     ("-0x1.eaee8744b05f3p-2 -0x1.eaee8744b05edp-2", "0x1.c1528065b7d4ep-1 0x1.c1528065b7d51p-1",
      "0x1.eaee8744b05eep-1 0x1.eaee8744b05f2p-1", "0x1.0f726816d14f4p-9 0x1.0f726816d14fcp-9",
      "0x1.51178bb4fa101p-3 0x1.51178bb4fa103p-3")),
    ((0.7853981633974483, 0.7853981633974483),
     ("0x1.6a09e667f3bcap-1 0x1.6a09e667f3bcfp-1", "0x1.6a09e667f3bcap-1 0x1.6a09e667f3bcfp-1",
      "0x1.ccf6429be661dp-1 0x1.ccf6429be6626p-1", "0x1.4bfa153470020p-8 0x1.4bfa153470636p-8",
      "0x1.4af584abb1d23p-3 0x1.4af584abb1d55p-3")),
    ((2.356194490192345, 2.356194490192345),
     ("0x1.6a09e667f3bc0p-1 0x1.6a09e667f3bdbp-1", "-0x1.6a09e667f3bd6p-1 -0x1.6a09e667f3bc1p-1",
      "0x1.334ed71299960p-2 0x1.334ed71299979p-2", "0x1.4c923c9f0a84bp-5 0x1.4c923c9f0a88bp-5",
      "0x1.0230c62d92b32p-3 0x1.0230c62d92b44p-3")),
    ((-3.9269908169872414, -3.9269908169872414),
     ("0x1.6a09e667f3bbdp-1 0x1.6a09e667f3bd8p-1", "-0x1.6a09e667f3bd8p-1 -0x1.6a09e667f3bc4p-1",
      "-0x1.70c5021651e8ep-3 -0x1.70c5021651e70p-3", "0x1.713bae390e728p-4 0x1.713bae390e73ep-4",
      "0x1.396efc719c36cp-4 0x1.396efc719c384p-4")),
    ((1e-300, 1e-300),
     ("0x1.56e1fc2f8f357p-997 0x1.56e1fc2f8f35bp-997", "0x1.ffffffffffffep-1 0x1.0000000000000p+0",
      "0x1.ffffffffffffep-1 0x1.0000000000000p+0", "0x0.0p+0 0x0.0000000000001p-1022",
      "0x1.5555555555554p-3 0x1.5555555555556p-3")),
    ((1000000000.0, 1000000000.0),
     ("0x1.1778bf1b37c61p-1 0x1.1778d43c7c9f5p-1", "0x1.acff877ae93ccp-1 0x1.acff93081691dp-1",
      "0x1.2c14962c5a1b5p-31 0x1.2c14acdc82a1bp-31", "0x1.555555555554fp-3 0x1.5555555555556p-3",
      "0x0.0p+0 0x1.c000000000000p-53")),
    ((2000000000.0, 2000000000.0),
     ("-0x1.0000000000000p+0 0x1.0000000000000p+0", "-0x1.0000000000000p+0 0x1.0000000000000p+0",
      "-0x1.12e0be826d696p-31 0x1.12e0be826d696p-31", "0x1.555555555554fp-3 0x1.5555555555556p-3",
      "0x0.0p+0 0x1.c000000000000p-53")),
    ((-5000000000.0, -5000000000.0),
     ("-0x1.0000000000000p+0 0x1.0000000000000p+0", "-0x1.0000000000000p+0 0x1.0000000000000p+0",
      "-0x1.b7cdfd9d7bdbcp-33 0x1.b7cdfd9d7bdbcp-33", "0x1.555555555554ep-3 0x1.5555555555556p-3",
      "0x0.0p+0 0x1.0000000000000p-52")),
    ((1e+300, 1e+300),
     ("-0x1.0000000000000p+0 0x1.0000000000000p+0", "-0x1.0000000000000p+0 0x1.0000000000000p+0",
      "-0x1.56e1fc2f8f35ap-997 0x1.56e1fc2f8f35ap-997", "0x0.0p+0 0x1.5555555555556p-3",
      "0x0.0p+0 0x1.5555555555556p-3")),
    ((1.0, 1.0000000000000002),
     ("0x1.aed548f090ce9p-1 0x1.aed548f090cf4p-1", "0x1.14a280fb50683p-1 0x1.14a280fb50693p-1",
      "0x1.aed548f090ce6p-1 0x1.aed548f090cf5p-1", "0x1.0aa7917988f6dp-7 0x1.0aa7917989260p-7",
      "0x1.44aadc3dbcc2fp-3 0x1.44aadc3dbcc60p-3")),
    ((0.4, 0.6),
     ("0x1.8ec3ae92b6768p-2 0x1.2118d17a5415bp-1", "0x1.a69263c485b13p-1 0x1.d7954e7dba2f9p-1",
      "0x1.991c1b63e84efp-1 0x1.0000000000000p+0", "0x1.5c325f0da89ddp-10 0x1.85dcc48ec3537p-9",
      "0x1.4f3de2431a480p-3 0x1.529cf0973a043p-3")),
    ((-0.25, 0.25),
     ("-0x1.faaeed4f31579p-3 0x1.faaeed4f31579p-3", "0x1.f01549f7deea0p-1 0x1.0000000000000p+0",
      "0x1.faaaaaaaaaaa9p-1 0x1.0000000000000p+0", "0x0.0p+0 0x1.10a921ab303fcp-11",
      "0x1.5444ac33aa251p-3 0x1.5555555555556p-3")),
    ((1.5, 1.6),
     ("0x1.feb7a9b2c6d89p-1 0x1.0000000000000p+0", "-0x1.de67ac55f16c7p-6 0x1.21bd54fc5f9d5p-4",
      "0x1.3f32ca0fbc474p-1 0x1.5555555555556p-1", "0x1.233f2c8c1af9ep-6 0x1.48f609432b487p-6",
      "0x1.2c36942cefec4p-3 0x1.30ed6fc3d1f63p-3")),
    ((2.0, 4.5),
     ("-0x1.f47ed3dc74086p-1 0x1.d18f6ead1b44ap-1", "-0x1.0000000000000p+0 -0x1.afb5b54583d21p-3",
      "-0x1.c28f5c28f5c29p-3 0x1.d18f6ead1b44bp-2", "0x1.f0e8655f17b9bp-6 0x1.b474b0a60fcd7p-4",
      "0x1.ec6bf40935ba6p-5 0x1.173848a9725e3p-3")),
    ((-3.0, 5.0),
     ("-0x1.0000000000000p+0 0x1.0000000000000p+0", "-0x1.0000000000000p+0 0x1.0000000000000p+0",
      "-0x1.c28f5c28f5c29p-3 0x1.0000000000000p+0", "0x0.0p+0 0x1.e767963a26fbfp-4",
      "0x1.868628e1075d6p-5 0x1.5555555555556p-3")),
    ((0.0, 7.0),
     ("-0x1.0000000000000p+0 0x1.0000000000000p+0", "-0x1.0000000000000p+0 0x1.0000000000000p+0",
      "-0x1.c28f5c28f5c29p-3 0x1.0000000000000p+0", "0x0.0p+0 0x1.2f75ce62795aap-3",
      "0x1.2efc3796dfd58p-6 0x1.5555555555556p-3")),
    ((100.0, 100.5),
     ("-0x1.03425b78c4f22p-1 -0x1.fb3f83346eb82p-6", "0x1.b981dbf665f25p-1 0x1.ffc12adaececcp-1",
      "-0x1.4bda0eaf10922p-8 -0x1.43060ec6f644dp-12", "0x1.5520a398e7d40p-3 0x1.552168af44275p-3",
      "0x1.9f65308970000p-14 0x1.a58de36c0b000p-14")),
    ((-100000001.0, -100000000.0),
     ("-0x1.dcffcad9a0afap-1 -0x1.94a95dfe7bca5p-3", "-0x1.f5e7eb01ea906p-1 -0x1.741b35f9b57a3p-2",
      "0x1.0f9054c8bf19bp-29 0x1.401bd6308eb33p-27", "0x1.555555555554bp-3 0x1.5555555555556p-3",
      "0x0.0p+0 0x1.6000000000000p-52")),
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


# exp over boxes from 0 and +-5e-324 to the top of its range and down
# through the subnormal results to the flush at -745: (box, "lo hi").
_EXP_PINS = [
    ((0.0, 0.0), "0x1.0000000000000p+0 0x1.0000000000000p+0"),
    ((-0.0, -0.0), "0x1.0000000000000p+0 0x1.0000000000000p+0"),
    ((5e-324, 5e-324), "0x1.fffffffffffffp-1 0x1.0000000000002p+0"),
    ((-5e-324, -5e-324), "0x1.ffffffffffffep-1 0x1.0000000000001p+0"),
    ((1e-300, 1e-300), "0x1.fffffffffffffp-1 0x1.0000000000002p+0"),
    ((8.673617379884035e-19, 8.673617379884035e-19), "0x1.fffffffffffffp-1 0x1.0000000000002p+0"),
    ((0.25, 0.25), "0x1.48b5e3c3e8185p+0 0x1.48b5e3c3e8188p+0"),
    ((0.3465735902799726, 0.3465735902799726), "0x1.6a09e667f3bcap+0 0x1.6a09e667f3bcep+0"),
    ((0.34657359027997264, 0.34657359027997264), "0x1.6a09e667f3bcbp+0 0x1.6a09e667f3bcep+0"),
    ((0.5, 0.5), "0x1.a61298e1e0698p+0 0x1.a61298e1e069fp+0"),
    ((1.0, 1.0), "0x1.5bf0a8b145766p+1 0x1.5bf0a8b14576cp+1"),
    ((-1.0, -1.0), "0x1.78b56362cef34p-2 0x1.78b56362cef3bp-2"),
    ((0.6931471805599453, 0.6931471805599453), "0x1.ffffffffffffcp+0 0x1.0000000000002p+1"),
    ((2.5, 2.5), "0x1.85d6fd931e0b2p+3 0x1.85d6fd931e0c2p+3"),
    ((10.0, 10.0), "0x1.5829dcf95054cp+14 0x1.5829dcf950570p+14"),
    ((-10.0, -10.0), "0x1.7cd79b5647c83p-15 0x1.7cd79b5647cb7p-15"),
    ((100.0, 100.0), "0x1.3494a9b171b61p+144 0x1.3494a9b171c4cp+144"),
    ((-100.0, -100.0), "0x1.a8c1f14e2aec3p-145 0x1.a8c1f14e2b049p-145"),
    ((700.0, 700.0), "0x1.d945df4f8e651p+1009 0x1.d945df4f8f257p+1009"),
    ((709.0, 709.0), "0x1.d422d2be5d3c2p+1022 0x1.d422d2be5dfc9p+1022"),
    ((-700.0, -700.0), "0x1.14f2b0fb92d60p-1010 0x1.14f2b0fb933e3p-1010"),
    ((-708.0, -708.0), "0x1.7c8ab2288c5c6p-1022 0x1.7c8ab2288d1fap-1022"),
    ((-708.4, -708.4), "0x0.ff15b469edd0bp-1022 0x0.ff15b469ee30fp-1022"),
    ((-709.0, -709.0), "0x0.8bfe55de0226bp-1022 0x0.8bfe55de025b7p-1022"),
    ((-710.0, -710.0), "0x0.33802fd28b31ep-1022 0x0.33802fd28b4a4p-1022"),
    ((-720.0, -720.0), "0x0.0000993b4dc94p-1022 0x0.0000993b4dc96p-1022"),
    ((-730.0, -730.0), "0x0.00000001c7ea2p-1022 0x0.00000001c7ea4p-1022"),
    ((-740.0, -740.0), "0x0.0000000000054p-1022 0x0.0000000000056p-1022"),
    ((-744.0, -744.0), "0x0.0000000000001p-1022 0x0.0000000000003p-1022"),
    ((-744.4, -744.4), "0x0.0p+0 0x0.0000000000002p-1022"),
    ((-745.0, -745.0), "0x0.0p+0 0x0.0000000000002p-1022"),
    ((-745.1, -745.1), "0x0.0p+0 0x0.0000000000001p-1022"),
    ((-1000.0, -1000.0), "0x0.0p+0 0x0.0000000000001p-1022"),
    ((-1.0, 1.0), "0x1.78b56362cef34p-2 0x1.5bf0a8b14576cp+1"),
    ((0.5, 2.5), "0x1.a61298e1e0698p+0 0x1.85d6fd931e0c2p+3"),
    ((-745.0, -700.0), "0x0.0p+0 0x1.14f2b0fb933e3p-1010"),
    ((-746.0, 709.0), "0x0.0p+0 0x1.d422d2be5dfc9p+1022"),
    ((-1e-300, 1e-300), "0x1.ffffffffffffep-1 0x1.0000000000002p+0"),
    ((700.0, 709.0), "0x1.d945df4f8e651p+1009 0x1.d422d2be5dfc9p+1022"),
    ((-740.0, -720.0), "0x0.0000000000054p-1022 0x0.0000993b4dc96p-1022"),
]


def _moved_or_outside(fn, pins):
    """The pins of the increasing fn that moved, and those whose interval
    misses mpmath's fn of the same name at a box endpoint, in 200-bit
    arithmetic."""
    import mpmath

    mp_fn = getattr(mpmath, fn.__name__)
    moved, outside = [], []
    with mpmath.workprec(200):
        for box, pin in pins:
            v = fn(Interval(*box))
            got = f"{v.lo.hex()} {v.hi.hex()}"
            if got != pin:
                moved.append((box, got, pin))
            if not (v.lo <= mp_fn(mpmath.mpf(box[0])) and mp_fn(mpmath.mpf(box[1])) <= v.hi):
                outside.append((box, got))
    return moved, outside


def test_exp_bit_pins():
    assert _moved_or_outside(exp, _EXP_PINS) == ([], [])


# log at the mantissas just inside 1/sqrt(2) and sqrt(2), where |u| =
# |m - 1|/(m + 1) is largest, scaled by 2^0, 2^-1, 2^1, 2^-40 and 2^40;
# then from the smallest subnormal to the largest float: (box, "lo hi").
_LOG_PINS = [
    ((0.7071067811865476, 0.7071067811865476), "-0x1.62e42fefa39f3p-2 -0x1.62e42fefa39e9p-2"),
    ((0.3535533905932738, 0.3535533905932738), "-0x1.0a2b23f3bab76p+0 -0x1.0a2b23f3bab71p+0"),
    ((1.4142135623730951, 1.4142135623730951), "0x1.62e42fefa39e9p-2 0x1.62e42fefa39f9p-2"),
    ((6.431098710768743e-13, 6.431098710768743e-13), "-0x1.c128ccab4b155p+4 -0x1.c128ccab4b151p+4"),
    ((777472127993.8688, 777472127993.8688), "0x1.b611ab2bcdf82p+4 0x1.b611ab2bcdf86p+4"),
    ((0.7071067811865477, 0.7071067811865477), "-0x1.62e42fefa39f0p-2 -0x1.62e42fefa39e7p-2"),
    ((0.35355339059327384, 0.35355339059327384), "-0x1.0a2b23f3bab75p+0 -0x1.0a2b23f3bab70p+0"),
    ((1.4142135623730954, 1.4142135623730954), "0x1.62e42fefa39ecp-2 0x1.62e42fefa39fbp-2"),
    ((6.431098710768744e-13, 6.431098710768744e-13), "-0x1.c128ccab4b155p+4 -0x1.c128ccab4b151p+4"),
    ((777472127993.8689, 777472127993.8689), "0x1.b611ab2bcdf82p+4 0x1.b611ab2bcdf86p+4"),
    ((1.4142135623730947, 1.4142135623730947), "0x1.62e42fefa39e6p-2 0x1.62e42fefa39f0p-2"),
    ((0.7071067811865474, 0.7071067811865474), "-0x1.62e42fefa39fcp-2 -0x1.62e42fefa39ecp-2"),
    ((2.8284271247461894, 2.8284271247461894), "0x1.0a2b23f3bab70p+0 0x1.0a2b23f3bab75p+0"),
    ((1.2862197421537482e-12, 1.2862197421537482e-12), "-0x1.b611ab2bcdf86p+4 -0x1.b611ab2bcdf82p+4"),
    ((1554944255987.737, 1554944255987.737), "0x1.c128ccab4b151p+4 0x1.c128ccab4b155p+4"),
    ((1.414213562373095, 1.414213562373095), "0x1.62e42fefa39e9p-2 0x1.62e42fefa39f2p-2"),
    ((0.7071067811865475, 0.7071067811865475), "-0x1.62e42fefa39f9p-2 -0x1.62e42fefa39eap-2"),
    ((2.82842712474619, 2.82842712474619), "0x1.0a2b23f3bab71p+0 0x1.0a2b23f3bab75p+0"),
    ((1.2862197421537484e-12, 1.2862197421537484e-12), "-0x1.b611ab2bcdf86p+4 -0x1.b611ab2bcdf82p+4"),
    ((1554944255987.7373, 1554944255987.7373), "0x1.c128ccab4b151p+4 0x1.c128ccab4b155p+4"),
    ((1.0, 1.0), "0x0.0p+0 0x0.0p+0"),
    ((2.0, 2.0), "0x1.62e42fefa39eep-1 0x1.62e42fefa39f1p-1"),
    ((0.5, 0.5), "-0x1.62e42fefa39f1p-1 -0x1.62e42fefa39eep-1"),
    ((1.0000000000000002, 1.0000000000000002), "0x1.ffffffffffffap-53 0x1.0000000000005p-52"),
    ((0.9999999999999999, 0.9999999999999999), "-0x1.0000000000006p-53 -0x1.ffffffffffffcp-54"),
    ((2.718281828459045, 2.718281828459045), "0x1.ffffffffffffbp-1 0x1.0000000000002p+0"),
    ((10.0, 10.0), "0x1.26bb1bbb55513p+1 0x1.26bb1bbb55518p+1"),
    ((5e-324, 5e-324), "-0x1.74385446d71c5p+9 -0x1.74385446d71c2p+9"),
    ((2.2250738585072014e-308, 2.2250738585072014e-308), "-0x1.6232bdd7abcd4p+9 -0x1.6232bdd7abcd1p+9"),
    ((1e-300, 1e-300), "-0x1.5963447f87fb8p+9 -0x1.5963447f87fb4p+9"),
    ((1e+300, 1e+300), "0x1.5963447f87fb4p+9 0x1.5963447f87fb8p+9"),
    ((1.7976931348623157e+308, 1.7976931348623157e+308), "0x1.62e42fefa39edp+9 0x1.62e42fefa39f1p+9"),
    ((0.5, 2.0), "-0x1.62e42fefa39f1p-1 0x1.62e42fefa39f1p-1"),
    ((0.7, 1.5), "-0x1.6d3c324e13f59p-2 0x1.9f323ecbf9854p-2"),
    ((1.4135, 1.4142135623730951), "0x1.625fe29ee4d82p-2 0x1.62e42fefa39f9p-2"),
    ((1e-300, 1e+300), "-0x1.5963447f87fb8p+9 0x1.5963447f87fb8p+9"),
    ((5e-324, 1.7976931348623157e+308), "-0x1.74385446d71c5p+9 0x1.62e42fefa39f1p+9"),
]


def test_log_bit_pins():
    assert _moved_or_outside(log, _LOG_PINS) == ([], [])


def test_log_series_table_holds_every_coefficient():
    from repulse import interval

    assert len(interval._LOG_C) == 11
    for j, (lo, hi) in enumerate(interval._LOG_C):
        assert Fraction(lo) <= Fraction(1, 2 * j + 1) <= Fraction(hi), j


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
    normal, 1e-290 and a neighbour, small integers and fractions, 1e290,
    1e300, 6.69692879491417e299 and the largest float."""
    mags = [5e-324, 1e-323, 1.5e-323, sys.float_info.min, 1e-300, 3e-200, 1e-150,
            1e-290, math.nextafter(1e-290, 1.0), 1 / 3, 0.5, 1.0, math.nextafter(1.0, 2.0),
            2.0, 3.0, 10.0, 1e16, 1e150, 1e290, 1e300, 6.69692879491417e299, sys.float_info.max]
    return [0.0, *mags, *(-m for m in mags)]


def _widened(v):
    """The point v first, then v widened by one ulp below, above and on both
    sides; the largest float widens out to inf."""
    down, up = math.nextafter(v, -math.inf), math.nextafter(v, math.inf)
    return [Interval(a, b) for a, b in ((v, v), (down, v), (v, up), (down, up))]


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


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 16])
def test_pow_int_on_the_edge_grid(k):
    grid = _edge_grid()
    pairs, xs = [], []
    for a in grid:
        for i, x in enumerate(_widened(a)):
            pairs.append(((a,), i == 0))
            xs.append(x)
    _check_edge_results(pairs, [pow_int(x, k) for x in xs], pow_int(Lanes.of(xs), k),
                        lambda a: Fraction(a) ** k)


@pytest.mark.parametrize("k", [2, 4, 8, 16])
def test_pow_int_of_a_power_of_two_is_the_chain_of_directed_squarings(k):
    # x**(2**m) is its one factor, so no step beyond the m directed squarings
    # [RD(...RD(x*x)...), RU(...RU(x*x)...)] may widen it, at any edge
    grid = _edge_grid()
    want = []
    for x in grid:
        lo = hi = abs(x)
        for _ in range(k.bit_length() - 1):
            lo, hi = _mul_down(lo, lo), _mul_up(hi, hi)
        want.append((lo.hex(), hi.hex()))
    lanes = pow_int(Lanes.of([Interval(x) for x in grid]), k)
    assert [(v.lo.hex(), v.hi.hex()) for v in (pow_int(Interval(x), k) for x in grid)] == want
    assert list(zip(map(float.hex, lanes.lo.tolist()), map(float.hex, lanes.hi.tolist()))) == want


def _exact_result(name, a, b):
    """(value, sign) of a * b or a / b on the extended reals: inf where a
    result is unbounded, 0 * inf = 0 (IEEE 1788), and a finite a over inf
    the 0 that the quotient approaches from the side of its sign."""
    if math.isfinite(a) and math.isfinite(b):
        r = Fraction(a) * Fraction(b) if name == "mul" else Fraction(a) / Fraction(b)
        return r, (r > 0) - (r < 0)
    sign = (math.copysign(1.0, a) * math.copysign(1.0, b) > 0) * 2 - 1
    if a == 0.0 or (name == "mul" and b == 0.0):
        return Fraction(0), 0
    if name == "div" and math.isinf(b):
        return Fraction(0), sign
    return sign * math.inf, sign


@pytest.mark.parametrize("name", ["mul", "div"])
def test_directed_products_and_quotients_on_the_edge_grid(name):
    # every pair of +-0, subnormals, the smallest normal, magnitudes whose
    # products and quotients underflow to 0 or overflow to inf, inexact
    # fractions, the largest float and +-inf: each bound is the float
    # result or one ulp outward from it and holds the exact result; an
    # exact 0 (a zero factor or numerator, or 0 * inf) is kept exactly, a
    # nonzero result keeps its sign; the lane rows give the same bits
    down, up, rows = {"mul": (_mul_down, _mul_up, _vmul_rows),
                      "div": (_div_down, _div_up, _vdiv_rows)}[name]
    mags = [0.0, 5e-324, 1e-323, sys.float_info.min, 1e-300, 1e-200, 1e-160, 0.1, 1 / 3, 0.5,
            1.0, 3.0, 1e160, 1e200, 1e300, sys.float_info.max, math.inf]
    grid = [*mags, *(-m for m in mags)]
    pairs = [(a, b) for a in grid for b in grid
             if name == "mul" or (b != 0.0 and not (math.isinf(a) and math.isinf(b)))]
    xs, ys = (np.array([p[i] for p in pairs]) for i in (0, 1))
    with np.errstate(all="ignore"):
        lanes = rows(np.array((xs, xs)), np.array((ys, ys)))
        near = np.nan_to_num(xs * ys if name == "mul" else xs / ys, nan=0.0, posinf=math.inf,
                             neginf=-math.inf)
    for (a, b), (lane_lo, lane_hi), p in zip(pairs, lanes.T.tolist(), near.tolist()):
        lo, hi = down(a, b), up(a, b)
        assert (lo.hex(), hi.hex()) == (lane_lo.hex(), lane_hi.hex()), (a, b)
        r, sign = _exact_result(name, a, b)
        assert lo <= r <= hi, (a, b, lo, hi)
        assert math.nextafter(p, -math.inf) <= lo and hi <= math.nextafter(p, math.inf), (a, b)
        if r == 0 and sign == 0:
            assert lo == hi == 0.0, (a, b, lo, hi)
        assert sign <= 0 or lo >= 0.0, (a, b, lo)
        assert sign >= 0 or hi <= 0.0, (a, b, hi)


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
