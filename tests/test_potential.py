"""Potential family, lattice sums, and the certified spacing solver."""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from repulse.interval import PI, Interval, sqrt
from repulse.potential import (
    AmbiguousSignChangeError,
    F_alpha,
    PotentialContext,
    asymptotic_s_pow_alpha,
    closed_form_energy_alpha4,
    energy_derivative,
    f_alpha,
    first_order_residual,
    lattice_energy,
    power_sum_tail,
    solve_s_alpha,
)

from _oracles import (
    DERIV6_AT_1_BRUTE,
    E4_AT_S4,
    E4_AT_S4_HALF,
    E4_AT_S4_THIRD,
    G_BOUND_12,
    H_PLUS_12,
    H_PLUS_20,
    F_alpha_second,
    contains_bracket,
)


def test_f_alpha_values():
    assert f_alpha(4, Interval(0)) == Interval(1.0)
    assert f_alpha(4, Interval(1)).contains(Fraction(1, 2))
    assert f_alpha(6, Interval(2)).contains(Fraction(1, 65))


def test_f_alpha_monotone_decreasing():
    rng = random.Random(5)
    for _ in range(200):
        x1 = rng.uniform(0.0, 20.0)
        x2 = x1 + rng.uniform(1e-6, 5.0)
        a = f_alpha(4, Interval(x1))
        b = f_alpha(4, Interval(x2))
        assert a.lo >= b.hi - (a.width + b.width)


def test_power_sum_tail_bounds_brute_force():
    import mpmath

    mpmath.mp.prec = 120
    for beta, k in ((2, 5), (4, 65), (6, 3), (12, 129)):
        brute = sum(mpmath.mpf(n) ** -beta for n in range(200000, k - 1, -1))
        brute += 1 / ((beta - 1) * mpmath.mpf(200000) ** (beta - 1))  # integral rest
        bound = power_sum_tail(beta, k)
        assert brute <= bound.hi
        assert bound.lo == 0.0


def test_rescaled_values(ctx4):
    assert F_alpha(ctx4, Interval(0)) == Interval(1.0)
    assert F_alpha(ctx4, Interval(1)).contains(Fraction(1, 5))
    # convex beyond the shoulder: F''(9) >= 0
    assert F_alpha_second(ctx4, Interval(9)).lo >= 0.0


def test_context_invariants_small(ctx4, ctx6):
    for ctx in (ctx4, ctx6):
        assert ctx.s_alpha.lo > 1.0
        assert ctx.dF1.hi <= 0.0


def test_context_invariants_alpha12(ctx12):
    a = 12
    sp = ctx12.s_pow_alpha
    assert 2 * a - 5 <= sp.lo and sp.hi <= 2 * a - 3
    assert 1 / (2 * a - 2) <= ctx12.F1.lo and ctx12.F1.hi <= 1 / (2 * a - 4)
    neg = -1.0 * ctx12.dF1
    assert 0.5 * (1 - 1 / (2 * a - 4)) <= neg.lo and neg.hi <= a / (2 * a - 4)


def test_lattice_energy_oracle_at_minimum(ctx4):
    terms = lattice_energy(4, ctx4.s_alpha, 64)
    assert contains_bracket(terms.total, E4_AT_S4)
    assert terms.tail.hi >= 0.0
    # the coarse symmetric-tail combination must still contain the total
    coarse = terms.head + Interval(-terms.tail.hi, terms.tail.hi)
    assert coarse.contains_interval(terms.total)


def test_lattice_energy_half_and_third_spacings():
    s2 = sqrt(Interval(2.0))
    assert contains_bracket(lattice_energy(4, s2 * 0.5, 64).total, E4_AT_S4_HALF)
    assert contains_bracket(closed_form_energy_alpha4(s2 / 3.0), E4_AT_S4_THIRD)


def test_closed_form_oracle_agreement():
    rng = random.Random(42)
    for _ in range(50):
        t = Interval(rng.uniform(0.5, 3.0))
        a = lattice_energy(4, t, 256).total
        b = closed_form_energy_alpha4(t)
        assert a.overlaps(b)
        assert a.width + b.width <= 1e-9


def test_lattice_energy_head_structure(ctx6):
    t = ctx6.s_alpha
    terms = lattice_energy(6, t, 16)
    s = Interval(0.0)
    for n in range(1, 17):
        s = s + f_alpha(6, t * n)
    rebuilt = t * (1.0 + 2.0 * s)
    assert rebuilt.overlaps(terms.head)
    assert abs(rebuilt.mid - terms.head.mid) <= 1e-15


def test_tail_monotone_in_N(ctx4):
    t = ctx4.s_alpha
    prev = None
    for N in (8, 16, 32, 64, 128):
        terms = lattice_energy(4, t, N)
        if prev is not None:
            assert terms.tail.hi <= prev.tail.hi
            assert terms.total.width <= prev.total.width + 1e-16
        prev = terms


def test_remainder_sums_bound_brute_force():
    # the midpoint-rule tails are the load-bearing rigor piece behind the
    # tight energy widths, so check them straight against high precision
    import mpmath

    from repulse.potential import _sum_f_beyond, _sum_g_beyond

    with mpmath.workprec(140):
        # (4, 0.01, 4): the coarse fallback, at its integral bound 4/(3t)
        for alpha, tv, M in ((4, 1.41421356, 64), (4, 0.9, 16),
                             (6, 2.5, 64), (12, 1.1, 16), (4, 0.01, 4)):
            T = mpmath.mpf(tv)
            sf = mpmath.mpf(0)
            sg = mpmath.mpf(0)
            top = M + 100000
            for n in range(top, M, -1):
                u = (T * n) ** alpha
                f = 1 / (1 + u)
                sf += f
                sg += f * (1 - alpha) + alpha * f * f
            rest = (T * top) ** (1 - alpha) / (T * (alpha - 1))
            enc_f = _sum_f_beyond(alpha, Interval(tv), M)
            assert enc_f.lo <= sf and sf + rest <= enc_f.hi, (alpha, tv, M)
            enc_g = _sum_g_beyond(alpha, Interval(tv), M)
            assert enc_g.lo <= sg - alpha * rest, (alpha, tv, M)
            assert sg + alpha * rest <= enc_g.hi, (alpha, tv, M)


def test_tail_bound_at_eight_terms_brute_force():
    # the spacing solve sums as few as 8 terms from alpha 14 on, so the
    # midpoint tail takes over at n = 9; the terms decay like n^-alpha, so
    # 2000 of them leave a rest far below the enclosure width
    import mpmath

    from repulse.potential import _sum_g_beyond

    with mpmath.workprec(140):
        for alpha in (14, 40):
            for tv in (1.0, 1.5):
                T, M = mpmath.mpf(tv), 8
                top = M + 2000
                sg = mpmath.fsum(_g_exact(alpha, T * n) for n in range(M + 1, top + 1))
                rest = alpha * (T * top) ** (1 - alpha) / (T * (alpha - 1))
                enc = _sum_g_beyond(alpha, Interval(tv), M)
                assert enc.lo <= sg - rest and sg + rest <= enc.hi, (alpha, tv)


def _g_exact(alpha, x):
    """f(x) + x f'(x) = f(1 - alpha) + alpha f^2 for f = 1/(1 + x^alpha)."""
    f = 1 / (1 + x ** alpha)
    return f * (1 - alpha) + alpha * f * f


@pytest.mark.parametrize("alpha", [8, 14, 40, 1000])
def test_derivative_at_the_solved_endpoints_contains_mpmath(alpha, ctx8):
    # the solve reads energy_derivative with the term counts of its rule;
    # at both ends of the enclosure each count must contain the exact
    # derivative 1 + 2 sum_{n >= 1} g(tn), whose sign changes in between
    import mpmath

    from repulse.potential import _term_count

    ctx = ctx8 if alpha == 8 else solve_s_alpha(alpha, 1e-12)
    top = 2000 if alpha < 40 else 50
    with mpmath.workprec(140):
        for end, sign in ((ctx.s_alpha.lo, -1), (ctx.s_alpha.hi, 1)):
            T = mpmath.mpf(end)
            exact = 1 + 2 * mpmath.fsum(_g_exact(alpha, T * n) for n in range(1, top + 1))
            rest = 2 * alpha * (T * top) ** (1 - alpha) / (T * (alpha - 1))
            assert sign * exact > rest, (alpha, end)
            for fine in (False, True):
                d = energy_derivative(alpha, Interval(end), ext=_term_count(alpha, fine))
                assert d.lo <= exact - rest and exact + rest <= d.hi, (alpha, end, fine)


def test_lattice_energy_at_vanishing_spacing():
    # t^4 underflows at t = 1e-100, so the tail takes the integral bound;
    # as t -> 0 the energy tends to int f = pi/sqrt(2)
    total = lattice_energy(4, Interval(1e-100)).total
    limit = PI / sqrt(Interval(2.0))
    assert total.lo <= limit.lo and limit.hi <= total.hi


def test_energy_derivative_zero_at_minimum(ctx_by_alpha):
    for a in (4, 6, 8):
        ctx = ctx_by_alpha[a]
        d = energy_derivative(a, ctx.s_alpha)
        assert d.contains(0.0)


def test_energy_derivative_takes_ext_by_keyword_only():
    t = Interval(1.2)
    assert energy_derivative(4, t) == energy_derivative(4, t, ext=128)
    with pytest.raises(TypeError):
        energy_derivative(4, t, 64)  # the old truncation N, which ext overrode
    with pytest.raises(ValueError):
        energy_derivative(4, t, ext=1)


def test_term_counts_above_the_truncation_cap_raise_at_once(ctx4):
    # above 10^6 terms these would hold or sum every term before answering
    start = time.perf_counter()
    with pytest.raises(ValueError, match="energy_derivative requires ext <= 1000000"):
        energy_derivative(4, Interval(1.2), ext=10 ** 6 + 1)
    with pytest.raises(ValueError, match="first_order_residual requires N <= 1000000"):
        first_order_residual(ctx4, 10 ** 6 + 1)
    assert time.perf_counter() - start < 1.0


def test_energy_derivative_alpha6_at_one():
    d = energy_derivative(6, Interval(1.0))
    assert d.hi < 0.0
    assert contains_bracket(d, DERIV6_AT_1_BRUTE)


def test_solve_alpha4_brackets_sqrt2():
    ctx = solve_s_alpha(4, 1e-12)
    s = ctx.s_alpha
    assert s.width <= 1e-12
    assert s.contains(1.4142135623730950)
    root2 = sqrt(Interval(2.0))
    assert s.overlaps(root2)


def test_solve_alpha12_bracket(ctx12):
    sp = ctx12.s_pow_alpha
    assert 19.0 <= sp.lo and sp.hi <= 21.0


def test_asymptotic_alpha12_oracles():
    main, g = asymptotic_s_pow_alpha(12)
    assert contains_bracket(main, H_PLUS_12)
    assert g.lo == 0.0
    assert G_BOUND_12[0] <= g.hi <= G_BOUND_12[1] * (1 + 1e-12)


def test_asymptotic_alpha20_main_term():
    ctx = solve_s_alpha(20, 1e-12)
    main, g = asymptotic_s_pow_alpha(20)
    assert contains_bracket(main, H_PLUS_20)
    assert main.lo - g.hi <= ctx.s_pow_alpha.lo
    assert ctx.s_pow_alpha.hi <= main.hi + g.hi


def test_asymptotic_rejects_small_alpha():
    with pytest.raises(ValueError):
        asymptotic_s_pow_alpha(10)


def test_residual_contains_zero(ctx4, ctx6):
    assert first_order_residual(ctx4, 64).contains(0.0)
    assert first_order_residual(ctx6, 64).contains(0.0)


def test_residual_width_tracks_solve_tolerance():
    wide = first_order_residual(solve_s_alpha(6, 1e-8), 128)
    tight = first_order_residual(solve_s_alpha(6, 1e-12), 128)
    assert wide.contains(0.0) and tight.contains(0.0)
    assert tight.width < wide.width


def test_residual_detects_wrong_spacing():
    fake = PotentialContext.from_spacing(6, Interval(1.0))
    r = first_order_residual(fake, 128)
    assert not r.contains(0.0)


def test_grid_minimum_near_solution(ctx_by_alpha):
    ts = np.linspace(1.0, 2.0, 200)
    for a in (4, 6, 8, 10):
        ctx = ctx_by_alpha[a]
        vals = [lattice_energy(a, Interval(float(t)), 48).total.mid for t in ts]
        best = ts[int(np.argmin(vals))]
        nearest = ts[int(np.argmin(np.abs(ts - ctx.s_alpha.mid)))]
        assert best == nearest


def test_solver_rejects_bad_alpha():
    with pytest.raises(ValueError):
        solve_s_alpha(5)
    with pytest.raises(ValueError):
        solve_s_alpha(2)


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
def test_solver_rejects_bad_tol(tol):
    # hi - lo > nan is False: a NaN tol would return the unrefined scan bracket
    with pytest.raises(ValueError):
        solve_s_alpha(4, tol)


def test_solve_flags_a_tol_below_its_floor():
    # the enclosure of s_4 stops narrowing near 6e-14: the solve must say
    # so rather than loop or return a wider enclosure than asked for
    with pytest.raises(AmbiguousSignChangeError, match="cannot narrow"):
        solve_s_alpha(4, 1e-17)
