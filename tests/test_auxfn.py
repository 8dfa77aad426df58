"""Auxiliary function: interpolation, transform, decay, and the float paths."""

import numpy as np
import pytest

from repulse.auxfn import build_coefficients, decay_constant, psi, psi_hat
from repulse.interval import Interval
from repulse.potential import solve_s_alpha

from _oracles import psi_float, psi_hat_float


def test_tables(coeffs4):
    assert coeffs4.Fn[0] == Interval(1.0)
    for n in range(1, coeffs4.N):
        assert coeffs4.Fn[n].lo >= coeffs4.Fn[n + 1].hi - 1e-15
        assert coeffs4.dFn[n].hi <= 0.0
    assert coeffs4.tail_F.lo == 0.0 and coeffs4.tail_F.hi > 0.0


def test_interpolation_small_n(coeffs4, coeffs6):
    for coeffs in (coeffs4, coeffs6):
        for n in range(0, 11):
            p = psi(coeffs, Interval(float(n)))
            F = coeffs.Fn[n]
            assert p.lo <= F.lo and F.hi <= p.hi or p.overlaps(F)
            assert p.width <= 1e-9


def test_psi_below_potential_at_half(coeffs4):
    # F(1/2) = 1/(1 + 4/16) = 0.8 at the exact spacing
    assert psi(coeffs4, Interval(0.5)).hi <= 0.8 + 1e-10


def test_psi_even(coeffs4):
    for x in (0.3, 1.8, 7.25):
        assert psi(coeffs4, Interval(x)).overlaps(psi(coeffs4, Interval(-x)))


def test_psi_needs_a_box_narrower_than_one(coeffs4):
    # x - n would hold 0 for some n != eta in a box 1 or more wide
    for box in (Interval(2.0, 3.0), Interval(-0.5, 0.5), Interval(0.0, 7.0)):
        with pytest.raises(ValueError):
            psi(coeffs4, box)
    box = psi(coeffs4, Interval(2.0, np.nextafter(3.0, 0.0)))
    assert box.contains_interval(psi(coeffs4, Interval(2.0)))
    assert box.contains_interval(psi(coeffs4, Interval(2.75)))


@pytest.mark.parametrize("alpha", [4, 6, 14, 1000])
def test_psi_contains_the_interpolation_series(alpha, ctx_by_alpha):
    # psi(x) = sum_n (F(n) + F'(n)(x - n)) sinc^2(pi(x - n)) at 40 digits, in
    # the symmetrised form over +-n, with c = s^alpha the midpoint of its
    # enclosure, so F(n) and F'(n) are exact for that c and lie in the
    # enclosures of the table.  |n| <= M summed; for n > M and |x| <= 50.3,
    # |sinc(pi(x +- n))| <= 1/(pi (n - |x|)) <= 1/(0.97 pi n), F(n) <= n^-alpha/c
    # and n |F'(n)| <= alpha n^-alpha/c, so the terms at n and -n sum to at
    # most (2 + 2 alpha) n^-(alpha+2)/(0.97^2 pi^2 c), and all of them to
    # `rest`; 1e-30 more covers the rounding of the 40-digit sum
    import mpmath

    ctx = ctx_by_alpha.get(alpha) or solve_s_alpha(alpha, 1e-12)
    coeffs = build_coefficients(ctx)
    M = 2000
    with mpmath.workdps(40):
        pi = mpmath.pi
        c = mpmath.mpf(ctx.s_pow_alpha.mid)

        def sinc(t):
            return mpmath.mpf(1) if t == 0 else mpmath.sinpi(t) / (pi * t)

        rows = []
        for n in range(1, M + 1):
            Fn = 1 / (1 + c * mpmath.mpf(n) ** alpha)
            rows.append((n, Fn, -alpha * c * mpmath.mpf(n) ** (alpha - 1) * Fn ** 2))
        rest = 2 / (mpmath.mpf(0.97) ** 2 * pi ** 2 * c * mpmath.mpf(M) ** (alpha + 1)) \
            + mpmath.mpf(1e-30)
        for x in (1.0, 1.25, 2.5, -2.5, 7.75, 50.3):
            X = mpmath.mpf(x)
            want = sinc(X) ** 2 + mpmath.fsum(
                Fn * (sinc(X - n) ** 2 + sinc(X + n) ** 2) + 2 * n * dFn * sinc(X - n) * sinc(X + n)
                for n, Fn, dFn in rows)
            got = psi(coeffs, Interval(x))
            assert got.lo <= want - rest and want + rest <= got.hi, (alpha, x)


def test_psi_hat_support(coeffs4):
    z = psi_hat(coeffs4, Interval(1.5))
    assert z.lo == 0.0 and z.hi == 0.0
    assert psi_hat(coeffs4, Interval(-2.0)) == Interval(0.0)
    straddle = psi_hat(coeffs4, Interval(0.9, 1.2))
    assert straddle.contains(0.0)


def test_psi_hat_at_zero_is_coefficient_sum(coeffs4):
    v = psi_hat(coeffs4, Interval(0.0))
    s = Interval(1.0)
    for n in range(1, coeffs4.N + 1):
        s = s + 2.0 * coeffs4.Fn[n]
    s = s + 2.0 * coeffs4.tail_F
    assert v.overlaps(s)


def test_psi_hat_quarter_nonnegative(coeffs4):
    assert psi_hat(coeffs4, Interval(0.25)).lo >= 0.0


def test_psi_hat_even(coeffs6):
    for xi in (0.2, 0.65):
        assert psi_hat(coeffs6, Interval(xi)).overlaps(psi_hat(coeffs6, Interval(-xi)))


def test_near_one_nonnegative_alpha4(coeffs4):
    # psi_hat vanishes like (1 - xi)^3 at the edge of its support
    for tv in (0.0, 0.02, 0.1, 0.25, 0.4, 0.5):
        assert psi_hat(coeffs4, Interval(1.0 - tv)).lo >= 0.0


def test_decay_bound(coeffs4, coeffs6):
    for coeffs in (coeffs4, coeffs6):
        C = decay_constant(coeffs).hi
        for x in (10.0, 50.0, 100.0):
            p = psi(coeffs, Interval(x))
            assert (1.0 + x * x) * max(abs(p.lo), abs(p.hi)) <= C


def test_float_paths_inside_enclosures(coeffs4):
    xs = np.array([0.25, 1.1, 3.7, 9.9])
    vals = psi_float(coeffs4, xs)
    for x, v in zip(xs, vals):
        box = psi(coeffs4, Interval(float(x)))
        assert box.lo - 1e-12 <= v <= box.hi + 1e-12
    xis = np.array([0.1, 0.45, 0.8])
    hvals = psi_hat_float(coeffs4, xis)
    for xi, v in zip(xis, hvals):
        box = psi_hat(coeffs4, Interval(float(xi)))
        assert box.lo - 1e-7 <= v <= box.hi + 1e-7


def test_psi_hat_grid_nonnegative_scan(coeffs4):
    xs = np.linspace(0.0, 1.0, 1001)
    assert float(psi_hat_float(coeffs4, xs).min()) >= -1e-12


@pytest.mark.parametrize("alpha", [4, 6, 14, 1000])
def test_coefficient_tails_bound_the_rows_beyond_the_table(alpha, ctx_by_alpha):
    # sum_{n > N} F(n), |F'(n)| and n^2 F(n) at 40 digits, with c = s^alpha at
    # each end of its enclosure, F(n) = 1/(1 + c n^alpha) and
    # |F'(n)| = alpha c n^(alpha-1) F(n)^2.  n <= M summed; beyond it,
    # F(n) <= n^-alpha/c, |F'(n)| <= alpha n^-(alpha+1)/c and
    # sum_{n > M} n^-b <= M^(1-b)/(b-1) give the three `rest` bounds
    import mpmath

    ctx = ctx_by_alpha.get(alpha) or solve_s_alpha(alpha, 1e-12)
    tables = [build_coefficients(ctx, N) for N in (8, 64, 256)]
    M = 2000
    with mpmath.workdps(40):
        for end in (ctx.s_pow_alpha.lo, ctx.s_pow_alpha.hi):
            c, m = mpmath.mpf(end), mpmath.mpf(M)
            rows = {}
            for n in range(9, M + 1):
                p = c * mpmath.mpf(n) ** alpha
                F = 1 / (1 + p)
                rows[n] = (F, alpha * p * F ** 2 / n, n * n * F)
            rest = (m ** (1 - alpha) / ((alpha - 1) * c), m ** -alpha / c,
                    m ** (3 - alpha) / ((alpha - 3) * c))
            for coeffs in tables:
                tails = (coeffs.tail_F, coeffs.tail_dF, coeffs.tail_n2F)
                for k, (name, tail) in enumerate(zip(("F", "dF", "n2F"), tails)):
                    beyond = mpmath.fsum(rows[n][k] for n in range(coeffs.N + 1, M + 1)) + rest[k]
                    assert tail.lo == 0.0 and beyond <= tail.hi, (name, coeffs.N, end)
