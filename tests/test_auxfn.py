"""Auxiliary function: interpolation, transform, decay, and the float paths."""

import numpy as np

from repulse.auxfn import (
    decay_constant,
    psi,
    psi_float,
    psi_hat,
    psi_hat_float,
)
from repulse.interval import Interval


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
