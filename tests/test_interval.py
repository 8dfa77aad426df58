"""Interval kernel: containment, directed rounding, and the special kernels."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repulse.interval import (
    DomainError,
    Interval,
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
def test_inclusion_monotonicity_binary(c1, c2, wi1, wo1, wi2, wo2):
    a_in, a_out = _nested(c1, wi1, wo1)
    b_in, b_out = _nested(c2, wi2, wo2)
    assert a_out.contains_interval(a_in)
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        assert op(a_out, b_out).contains_interval(op(a_in, b_in))
    if b_in.lo > 0 or b_in.hi < 0:
        if b_out.lo > 0 or b_out.hi < 0:
            assert (a_out / b_out).contains_interval(a_in / b_in)


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
