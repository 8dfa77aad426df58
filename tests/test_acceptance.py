"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else; the suite is the gate for the
whole artifact.
"""

import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from repulse import auxfn, certify, simulate as sim
from repulse.cli import main
from repulse.interval import Interval, cos, exp, log, pow_int, remainder_R, s3_kernel, sin, sinc, sqrt
from repulse.potential import (
    asymptotic_s_pow_alpha,
    closed_form_energy_alpha4,
    first_order_residual,
    lattice_energy,
    solve_s_alpha,
)

from _oracles import E4_AT_S4, contains_bracket


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_spacing_alpha4(capsys):
    t0 = time.perf_counter()
    code = main(["salpha", "--alpha", "4", "--tol", "1e-12"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    d = json.loads(out)
    assert d["s_lo"] <= 1.4142135623730950 <= d["s_hi"]
    assert d["s_hi"] - d["s_lo"] <= 1e-12
    assert elapsed < 1.0
    with capsys.disabled():
        _report(1, f"s_4 enclosure width {d['s_hi'] - d['s_lo']:.2e}, {elapsed:.2f}s")


def test_criterion_2_closed_form_oracle(ctx4):
    t0 = time.perf_counter()
    lat = lattice_energy(4, ctx4.s_alpha, 64).total
    closed = closed_form_energy_alpha4(ctx4.s_alpha)
    elapsed = time.perf_counter() - t0
    assert lat.overlaps(closed)
    assert contains_bracket(lat, E4_AT_S4)
    assert contains_bracket(closed, E4_AT_S4)
    width_sum = lat.width + closed.width
    assert width_sum <= 1e-10
    assert elapsed < 1.0
    _report(2, f"lattice/closed-form widths sum {width_sum:.2e}, both contain the oracle")


def test_criterion_3_asymptotic_bracket():
    t0 = time.perf_counter()
    for a in range(12, 42, 2):
        ctx = solve_s_alpha(a, 1e-12)
        sp = ctx.s_pow_alpha
        assert 2 * a - 5 <= sp.lo and sp.hi <= 2 * a - 3, a
        main_term, gbound = asymptotic_s_pow_alpha(a)
        assert main_term.lo - gbound.hi <= sp.lo, a
        assert sp.hi <= main_term.hi + gbound.hi, a
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(3, f"alpha = 12..40 inside both brackets, {elapsed:.1f}s")


def test_criterion_4_certificate_parity(ctx_by_alpha):
    t0 = time.perf_counter()
    results = []
    coeffs = {a: auxfn.build_coefficients(ctx_by_alpha[a], 64) for a in (4, 6, 8, 10)}
    for a in (4, 6, 8, 10):
        results.append(certify.certify_T(ctx_by_alpha[a]))
    for a in (6, 8, 10):
        results.append(certify.certify_L(ctx_by_alpha[a]))
    results.append(certify.certify_w_inequality())
    results.append(certify.certify_psi4_le_F4(ctx_by_alpha[4]))
    for a in (6, 8, 10):
        results.append(certify.certify_eta0(ctx_by_alpha[a]))
        results.append(certify.certify_eta1(ctx_by_alpha[a]))
        results.append(certify.certify_eta_ge2(ctx_by_alpha[a]))
    for a in (12, 14):
        ctx = ctx_by_alpha[12] if a == 12 else solve_s_alpha(14, 1e-12)
        results.append(certify.certify_eta_ge2(ctx))
    for a in range(12, 102, 2):
        results.append(certify.certify_T_large(a))
        results.append(certify.certify_L_large(a))
    for a in range(16, 102, 2):
        results.append(certify.certify_allthestars_large(a))
    for a in (4, 6, 8, 10):
        results.append(certify.certify_psihat_nonneg(coeffs[a]))
    elapsed = time.perf_counter() - t0
    bad = [(c.inequality_id, c.alpha, c.status) for c in results if c.status != "verified"]
    assert not bad, bad
    assert elapsed < 600.0
    _report(4, f"{len(results)} certificates verified in {elapsed:.0f}s")


def test_criterion_5_structural_conditions(coeffs_by_alpha):
    worst_width = 0.0
    for a, coeffs in coeffs_by_alpha.items():
        for n in range(0, 11):
            p = auxfn.psi(coeffs, Interval(float(n)))
            F = coeffs.F.interval(n)
            assert p.overlaps(F), (a, n)
            assert p.lo <= F.mid <= p.hi, (a, n)
            worst_width = max(worst_width, p.width)
        for xi in (1.0, 1.5, 7.0, -2.5):
            z = auxfn.psi_hat(coeffs, Interval(xi))
            assert z.lo == 0.0 and z.hi == 0.0, (a, xi)
        C = auxfn.decay_constant(coeffs).hi
        for x in (10.0, 50.0, 100.0):
            p = auxfn.psi(coeffs, Interval(x))
            assert (1.0 + x * x) * max(abs(p.lo), abs(p.hi)) <= C, (a, x)
    assert worst_width <= 1e-9
    _report(5, f"interpolation width <= {worst_width:.2e}, support exact, decay bounded")


def test_criterion_6_first_order_condition(ctx_by_alpha):
    for a in (4, 6, 8, 10, 12):
        r = first_order_residual(ctx_by_alpha[a], 128)
        assert r.contains(0.0), a
    _report(6, "first-order residual contains 0 for alpha in {4, 6, 8, 10, 12}")


def test_criterion_7_ground_state_desk_scale(ctx4, ctx6):
    t0 = time.perf_counter()
    K = 48
    ctxs = {4: ctx4, 6: ctx6}
    checked = 0
    for a in (4, 6):
        s = ctxs[a].s_alpha.mid
        for n in (2, 3, 4):
            theorem = sim.theorem_configuration(a, n, 12, s_alpha=s, image_cutoff=K)
            base = sim.periodic_energy(theorem, K)
            for i in range(theorem.count):
                for dx in (0.05, -0.05):
                    p = theorem.positions.copy()
                    p[i] = (p[i] + dx) % theorem.L
                    p.sort()
                    probe = sim.Configuration(p, theorem.L, a, theorem.rho, None,
                                              0.0, True, 0.0)
                    assert sim.periodic_energy(probe, K) >= base, (a, n, i, dx)
            for seed in range(20):
                cfg = sim.relax(a, n / s, 12 * s, seed=seed, iters=30000, gtol=1e-8)
                relaxed = sim.periodic_energy(cfg, K)
                assert relaxed >= base - 1e-9, (a, n, seed, relaxed - base)
                checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(7, f"{checked} relaxations above the lattice bound, probes stable, {elapsed:.0f}s")


def test_criterion_8_figure_statistics(ctx4, ctx6):
    s4 = ctx4.s_alpha.mid
    cfg = sim.relax(4, 8.0, 30.0, seed=0, iters=20000)
    rep = sim.detect_clusters(cfg, s4 / 2.0)
    k = len(rep.clusters)
    assert 19 <= k <= 23, k
    assert abs(rep.mean_spacing / s4 - 1.0) <= 0.10, rep.mean_spacing
    s6 = ctx6.s_alpha.mid
    cfg6 = sim.relax(6, 10.0, 30.0, seed=1, iters=20000)
    rep6 = sim.detect_clusters(cfg6, s6 / 2.0)
    assert abs(rep6.mean_spacing / s6 - 1.0) <= 0.10, rep6.mean_spacing
    _report(8, f"alpha=4: {k} clusters, spacing {rep.mean_spacing:.3f}; "
               f"alpha=6 spacing {rep6.mean_spacing:.3f} vs {s6:.3f}")


def test_criterion_9_interval_soundness():
    import mpmath

    mpmath.mp.prec = 90
    rng = random.Random(20240817)
    violations = 0
    cases = 0

    def scaled():
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-6, 6)

    t0 = time.perf_counter()
    for _ in range(150_000):
        x, y = scaled(), scaled()
        fx, fy = Fraction(x), Fraction(y)
        cases += 4
        if not (Interval(x) + Interval(y)).contains(fx + fy):
            violations += 1
        if not (Interval(x) - Interval(y)).contains(fx - fy):
            violations += 1
        if not (Interval(x) * Interval(y)).contains(fx * fy):
            violations += 1
        if y != 0.0 and not (Interval(x) / Interval(y)).contains(fx / fy):
            violations += 1
    for _ in range(100_000):
        x = scaled()
        k = rng.randint(0, 12)
        cases += 1
        if not pow_int(Interval(x), k).contains(Fraction(x) ** k):
            violations += 1
    for _ in range(75_000):
        x = rng.uniform(-600.0, 600.0)
        X = mpmath.mpf(x)
        cases += 4
        s = sin(Interval(x))
        if not s.lo <= mpmath.sin(X) <= s.hi:
            violations += 1
        c = cos(Interval(x))
        if not c.lo <= mpmath.cos(X) <= c.hi:
            violations += 1
        e = exp(Interval(x))
        if not e.lo <= mpmath.exp(X) <= e.hi:
            violations += 1
        ax = abs(x) + 1e-300
        sq = sqrt(Interval(ax))
        if not sq.lo <= mpmath.sqrt(mpmath.mpf(ax)) <= sq.hi:
            violations += 1
    with mpmath.workprec(200):
        # the kernel oracles cancel catastrophically near 0, so they need
        # far more working precision than the 1-ulp enclosures they check
        for _ in range(50_000):
            x = rng.uniform(-80.0, 80.0)
            X = mpmath.mpf(x)
            cases += 3
            sc = sinc(Interval(x))
            want = mpmath.sin(X) / X if x else mpmath.mpf(1)
            if not sc.lo <= want <= sc.hi:
                violations += 1
            r = remainder_R(Interval(x))
            want = (mpmath.sin(X) - X + X ** 3 / 6) / X ** 3 if x else mpmath.mpf(0)
            if not r.lo <= want <= r.hi:
                violations += 1
            s3 = s3_kernel(Interval(x))
            want = (X - mpmath.sin(X)) / X ** 3 if x else mpmath.mpf(1) / 6
            if not s3.lo <= want <= s3.hi:
                violations += 1
    for _ in range(25_000):
        x = rng.uniform(1e-12, 1e12)
        lg = log(Interval(x))
        cases += 1
        if not lg.lo <= mpmath.log(mpmath.mpf(x)) <= lg.hi:
            violations += 1
    # inclusion monotonicity of the binary operations on nested intervals
    for _ in range(25_000):
        c1, c2 = scaled(), scaled()
        w1, w2 = abs(scaled()), abs(scaled())
        a_in = Interval(c1 - w1, c1 + w1)
        a_out = Interval(c1 - 2 * w1 - 1.0, c1 + 2 * w1 + 1.0)
        b_in = Interval(c2 - w2, c2 + w2)
        b_out = Interval(c2 - 2 * w2 - 1.0, c2 + 2 * w2 + 1.0)
        cases += 3
        if not (a_out + b_out).contains_interval(a_in + b_in):
            violations += 1
        if not (a_out - b_out).contains_interval(a_in - b_in):
            violations += 1
        if not (a_out * b_out).contains_interval(a_in * b_in):
            violations += 1
    elapsed = time.perf_counter() - t0
    assert cases >= 1_000_000
    assert violations == 0
    _report(9, f"{cases} containment/monotonicity cases, 0 violations, {elapsed:.0f}s")
