"""Certification engine and the individual inequality certificates."""

import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from repulse import auxfn, certify as cert
from repulse.auxfn import build_coefficients
from repulse.certify import (
    BnbPolicy,
    certify_L,
    certify_L_large,
    certify_T,
    certify_T_large,
    certify_all,
    certify_allthestars_large,
    certify_eta0,
    certify_eta1,
    certify_eta_ge2,
    certify_psi4_le_F4,
    certify_psihat_nonneg,
    certify_w_inequality,
    certificates_to_json,
)
from repulse.interval import (
    ONE,
    ZERO,
    Interval,
    Lanes,
    PI,
    lane_sum,
    pow_int,
    remainder_R,
    s3_kernel,
    sin,
    sinc,
)
from repulse.potential import F_alpha, F_deficit_over_x_sq, PotentialContext, solve_s_alpha

from _oracles import (
    L_scalar,
    bnb_level_by_level,
    F_alpha_second,
    eta1_scalar,
    eta_ge2_parts_two_chain,
    inv_sq_offset_sum_two_chain,
    inv_sq_tail_two_chain,
    mean_value_two_chain,
    offset_sum,
    offset_sum_two_chain,
    per_lane,
    psi4_parts_two_chain,
    psi_float,
    sum_inv_sq_offset,
)


# -- engine ------------------------------------------------------------------

def _run_engine(f, roots, policy=None):
    run = cert._Run()
    cert._bnb(run, f, roots, policy or BnbPolicy())
    return run


def test_engine_square_is_nonnegative():
    run = _run_engine(per_lane(lambda x: pow_int(x, 2)), [(-1.0, 1.0)])
    assert run.status == "verified"
    assert run.min_lb >= 0.0


def test_engine_failure_attaches_valid_witness():
    f = lambda x: x - 10.0
    run = _run_engine(per_lane(f), [(0.0, 1.0)])
    assert run.status == "failed"
    assert run.witness is not None
    assert f(Interval(run.witness)).hi < 0.0


def test_engine_sine_positive_piece():
    run = _run_engine(per_lane(sin), [(0.1, 3.0)])
    assert run.status == "verified"


def test_engine_budget_exhaustion_is_inconclusive():
    run = _run_engine(per_lane(lambda x: x), [(-1e-9, 1.0)], BnbPolicy(max_depth=4))
    assert run.status == "inconclusive"


def test_engine_zero_depth_policy():
    run = _run_engine(per_lane(lambda x: Interval(1.0)), [(0.0, 1.0)], BnbPolicy(max_depth=0))
    assert run.status == "inconclusive"


class _LaneProbe:
    """Batched test function: [-1, -1] at a bad point, [-1, 1] on boxes
    wider than `fine` * (1 + param) or holding a bad point, else
    [1 - tilt * lo, 1].  Records how many boxes (not midpoints) it was asked
    to evaluate, in how many calls, and the most lanes in one call."""

    def __init__(self, bad=(), fine=0.0, tilt=0.0):
        self.bad = np.array(bad, dtype=float)
        self.fine = fine
        self.tilt = tilt
        self.boxes = 0
        self.calls = 0
        self.widest = 0

    def __call__(self, x: Lanes, param) -> Lanes:
        lo, hi = x.lo, x.hi
        self.calls += 1
        self.boxes += int(np.count_nonzero(lo < hi))
        self.widest = max(self.widest, lo.size)
        holds = ((lo[:, None] <= self.bad) & (self.bad <= hi[:, None])).any(axis=1)
        point_bad = holds & (lo == hi)
        open_ = holds | (hi - lo > self.fine * (1 + (0 if param is None else param)))
        v_lo = np.where(point_bad | open_, -1.0, 1.0 - self.tilt * lo)
        v_hi = np.where(point_bad, -1.0, 1.0)
        return Lanes(v_lo, v_hi)


def test_engine_fails_at_first_level_with_a_bad_midpoint():
    # depth-first order would meet 0.125 (left, depth 2) before 0.75 (right, depth 1)
    f = _LaneProbe(bad=(0.125, 0.75))
    run = _run_engine(f, [(0.0, 1.0)])
    assert run.status == "failed" and run.witness == 0.75
    assert f(Lanes([run.witness]), None).hi[0] < 0.0
    assert run.min_lb == -1.0
    assert (run.boxes, run.max_depth) == (3, 1)


def test_engine_witness_is_leftmost_on_its_level():
    run = _run_engine(_LaneProbe(bad=(0.25, 0.75)), [(0.0, 1.0)])
    assert run.status == "failed" and run.witness == 0.25


def test_engine_max_depth_is_inconclusive():
    f = _LaneProbe(fine=0.0)  # never discharged, never failing
    run = _run_engine(f, [(0.0, 1.0)], BnbPolicy(max_depth=3))
    assert run.status == "inconclusive"
    assert (run.boxes, run.max_depth, f.boxes) == (15, 3, 15)


def test_engine_unsplittable_box_is_inconclusive():
    run = _run_engine(_LaneProbe(fine=0.0), [(1.0, math.nextafter(1.0, 2.0))])
    assert run.status == "inconclusive" and run.boxes == 1


@pytest.mark.parametrize("budget", [1, 6, 7, 10])
def test_engine_never_evaluates_more_than_budget(budget):
    f = _LaneProbe(fine=0.0)
    run = _run_engine(f, [(0.0, 1.0)], BnbPolicy(budget=budget))
    assert run.status == "inconclusive"
    assert f.boxes == run.boxes == budget


def test_engine_budget_counts_earlier_pieces():
    f = _LaneProbe(fine=0.0)
    run = cert._Run(boxes=5)
    cert._bnb(run, f, [(0.0, 1.0)], BnbPolicy(budget=5))
    assert run.status == "inconclusive" and f.boxes == 0 and run.boxes == 5


def test_engine_zero_depth_evaluates_nothing():
    f = _LaneProbe(fine=1.0)
    run = _run_engine(f, [(0.0, 1.0)], BnbPolicy(max_depth=0))
    assert run.status == "inconclusive" and f.boxes == 0 and run.boxes == 0


def test_engine_multi_root_params_and_order():
    def f(x: Lanes, param) -> Lanes:
        # root 7 splits down to width 1/4; root 9 is discharged at once
        wide = (param == 7) & (x.hi - x.lo > 0.25)
        return Lanes(np.where(wide, -1.0, 1.0 + param), np.full(param.shape, 20.0))

    run = _run_engine(f, [(0.0, 1.0, 7), (2.0, 3.0, 9)])
    assert run.status == "verified"
    assert (run.boxes, run.max_depth, run.min_lb) == (8, 2, 8.0)
    run = _run_engine(_LaneProbe(bad=(0.125, 2.5)), [(0.0, 1.0), (2.0, 3.0)])
    assert run.status == "failed" and run.witness == 2.5


def test_engine_small_level_costs_one_call():
    # levels of 1, 2, 4 and 8 boxes; the last is discharged whole.  One
    # window holds the 31 boxes of depths 0..4 and their midpoints: the 16
    # boxes of depth 4 are evaluated, never reached and never counted
    f = _LaneProbe(fine=0.125)
    run = _run_engine(f, [(0.0, 1.0)])
    assert run.status == "verified"
    assert (run.boxes, run.max_depth, f.boxes, f.calls, f.widest) == (15, 3, 31, 1, 62)


def test_engine_window_stops_at_max_depth_and_budget():
    # the window of a one-box frontier is 5 levels deep unless max_depth or
    # the budget room ends it sooner; the levels past the window are new calls
    for policy, boxes, calls in ((BnbPolicy(max_depth=2), 7, 1),
                                 (BnbPolicy(budget=14), 7 + 7, 2),
                                 (BnbPolicy(max_depth=6), 31 + 32 + 64, 4)):
        f = _LaneProbe(fine=0.0)
        run = _run_engine(f, [(0.0, 1.0)], policy)
        assert run.status == "inconclusive"
        assert (f.boxes, run.boxes, f.calls) == (boxes, boxes, calls)
        assert f.widest <= cert._CHUNK


def _random_engine_case(rng: random.Random):
    """A _LaneProbe on 1-40 dyadic roots with params, bad points that fall on
    midpoints at depths 0..5, a policy and a count of earlier boxes."""
    roots, bad = [], []
    for k in range(rng.randint(1, 40)):
        lo, width = k + rng.randrange(4) / 4.0, 2.0 ** -rng.randrange(4)
        kind = rng.random()
        hi = lo if kind < 0.05 else math.nextafter(lo, 2 * lo + 1) if kind < 0.1 else lo + width
        roots.append((lo, hi, rng.randrange(4)))
        if rng.random() < 0.03:
            depth = rng.randrange(6)
            bad.append(lo + width * (2 * rng.randrange(2 ** depth) + 1) / 2.0 ** (depth + 1))
    fine = rng.choice([0.0, *(2.0 ** -rng.randrange(7) for _ in range(3))])
    policy = BnbPolicy(max_depth=rng.randrange(11), budget=rng.randint(1, 300))
    return roots, bad, fine, policy, rng.choice([0, 0, rng.randrange(20)])


@pytest.mark.parametrize("seed", range(4))
def test_engine_matches_level_by_level_oracle(seed):
    rng = random.Random(seed)
    for _ in range(100):
        roots, bad, fine, policy, earlier = _random_engine_case(rng)
        runs, probes = [], []
        for engine in (cert._bnb, bnb_level_by_level):
            f = _LaneProbe(bad=bad, fine=fine, tilt=1.0 / 64)
            run = cert._Run(boxes=earlier)
            engine(run, f, roots, policy)
            runs.append(run)
            probes.append(f)
        new, old = runs
        case = (roots, bad, fine, policy, earlier)
        assert (new.status, new.boxes, new.max_depth, new.min_lb.hex(), new.witness) == \
            (old.status, old.boxes, old.max_depth, old.min_lb.hex(), old.witness), case
        assert probes[0].calls <= probes[1].calls, case
        assert probes[0].widest <= cert._CHUNK, case


def test_engine_large_level_keeps_midpoints_apart():
    # 40 roots: 2 * 40 > _CHUNK, so boxes and midpoints are separate batches
    f = _LaneProbe(fine=0.5)
    run = _run_engine(f, [(float(k), k + 1.0) for k in range(40)])
    assert run.status == "verified"
    assert (run.boxes, run.max_depth, f.boxes, f.calls) == (120, 1, 120, 4)


def test_engine_ignores_midpoints_of_discharged_boxes():
    # [2, 3] is discharged at depth 0 although f is negative at its midpoint;
    # [0, 1] is split once and its halves are discharged
    def f(x: Lanes, param) -> Lanes:
        point = x.lo == x.hi
        open_ = ~point & (x.hi <= 1.0) & (x.hi - x.lo > 0.5)
        trap = point & (x.lo == 2.5)
        return Lanes(np.where(open_ | trap, -1.0, 2.0 - x.lo / 8.0),
                     np.where(trap, -1.0, 3.0))

    run = _run_engine(f, [(0.0, 1.0), (2.0, 3.0)])
    assert f(Lanes([2.5]), None).hi[0] < 0.0
    assert run.status == "verified" and run.witness is None
    assert (run.boxes, run.max_depth, run.min_lb) == (4, 1, 1.75)


def test_engine_straddling_midpoint_is_inconclusive():
    # f holds 0 on every box that holds 3/4, the point 3/4 included, so no box
    # that holds it can be discharged: the run stops, without a witness, on
    # the level whose midpoint is 3/4, not at max_depth
    def f(x: Lanes, param) -> Lanes:
        holds = (x.lo <= 0.75) & (0.75 <= x.hi)
        return Lanes(np.where(holds, -1.0, 1.0), np.ones_like(x.lo))

    for engine in (cert._bnb, bnb_level_by_level):
        run = cert._Run()
        engine(run, f, [(0.0, 1.0)], BnbPolicy())
        assert run.status == "inconclusive" and run.witness is None
        assert (run.boxes, run.max_depth, run.min_lb) == (3, 1, 1.0)


def test_engine_scalar_adapter_matches_lanes():
    def g(x):
        return pow_int(x - 0.3, 2) * 4.0 - 0.01 + x * 0.05

    a = _run_engine(per_lane(g), [(0.0, 1.0)])
    run = _run_engine(lambda x, _p: g(x), [(0.0, 1.0)])
    assert a.status == run.status == "verified"
    assert (a.boxes, a.max_depth, a.min_lb.hex()) == (run.boxes, run.max_depth, run.min_lb.hex())
    assert a.boxes > 1


# -- T and L -----------------------------------------------------------------

def test_T_small_alphas(ctx_by_alpha):
    for a in (4, 6, 8, 10):
        c = certify_T(ctx_by_alpha[a])
        assert c.status == "verified" and c.min_lower_bound > 0.0


def _with_F(coeffs, n, value):
    """The table with lane n of F set to the Interval value."""
    F = Lanes(coeffs.F.lo, coeffs.F.hi)
    F.lo[n], F.hi[n] = value.lo, value.hi
    return dataclasses.replace(coeffs, F=F)


def test_T_detects_perturbation(ctx4):
    # inflating the first coefficient eats the margin: doubling F(1) costs
    # exactly 2 F(1) ~ 0.4 of slack and 4x pushes the constant negative
    coeffs = build_coefficients(ctx4, 64)
    base = cert._T_value(coeffs)
    doubled = _with_F(coeffs, 1, 2.0 * coeffs.F.interval(1))
    assert cert._T_value(doubled).hi < base.lo
    quadrupled = _with_F(coeffs, 1, 4.0 * coeffs.F.interval(1))
    assert cert._T_value(quadrupled).hi < 0.0


def test_monotone_check_reports_the_first_least_margin(ctx4):
    # a widened F(3) with the upper end of F(2) ties F(1) - F(n) in its
    # lower end at n = 2 and 3; the check reports the first, n = 2
    coeffs = build_coefficients(ctx4, 64)
    F2 = coeffs.F.interval(2)
    tied = _with_F(coeffs, 3, Interval(F2.hi - 1e-3, F2.hi))
    assert cert._monotone_coefficient_check(tied) == coeffs.F.interval(1) - F2


def test_T_large_examples():
    assert certify_T_large(12).status == "verified"
    assert certify_T_large(100).status == "verified"
    with pytest.raises(ValueError):
        certify_T_large(4)


_SOLVED_ROWS = [r for r in cert.ROUTES if r.needs_ctx]


@pytest.mark.parametrize("route", _SOLVED_ROWS, ids=[r.cli for r in _SOLVED_ROWS])
def test_solved_context_routes_reject_alpha_above_their_row(route):
    # the closed rows above are reached through the route table only; a
    # direct call checks its alpha before it reads the context
    above = route.alphas[-1] + 2
    ctx = PotentialContext.from_spacing(above, Interval(1.0))
    with pytest.raises(ValueError, match=f"covers .*not alpha = {above}"):
        route.call(above, ctx, None)


def test_L_small_alphas(ctx_by_alpha):
    for a in (6, 8, 10):
        c = certify_L(ctx_by_alpha[a])
        assert c.status == "verified" and c.min_lower_bound > 0.0


def test_L_rejects_alpha4(ctx4):
    with pytest.raises(ValueError):
        certify_L(ctx4)


def test_L_sensitive_to_remainder_kernel(ctx6):
    # replacing R(pi n) by its limit 1/6 flips the sign at alpha = 6:
    # float recomputation documents that the kernel term carries the margin
    coeffs = build_coefficients(ctx6, 64)
    total = 0.0
    for n in range(1, 65):
        total += 2.0 * (n ** 3 * coeffs.dF.interval(n).mid * (4.0 / 6.0 - 2.0 / 3.0)
                        - 2.0 * n * n * coeffs.F.interval(n).mid)
    assert total < 0.0
    assert cert._L_value(coeffs).lo > 0.0


@pytest.mark.parametrize("alpha", [6, 8, 10])
def test_L_closed_kernel_lies_inside_the_kernel_form(alpha, ctx_by_alpha):
    # L in its paper form, with the kernel -2/3 + 4R(pi n) from remainder_R:
    # each kernel lane holds -4/(pi n)^2 (40 digits), and _L_value, which
    # takes the kernel in that closed form, lies inside the kernel form
    import mpmath

    coeffs = build_coefficients(ctx_by_alpha[alpha], 64)
    n, F, dF = coeffs.rows()
    kern = Lanes.of([4.0 * remainder_R(PI * k) - Interval.from_fraction(Fraction(2, 3))
                     for k in range(1, 65)])
    with mpmath.workdps(40):
        for k in range(1, 65):
            exact = -4 / (mpmath.pi * k) ** 2
            assert kern.lo[k - 1] <= exact <= kern.hi[k - 1], k
    t2 = coeffs.tail_n2F.hi
    old = 2.0 * lane_sum(ZERO, dF * cert._n_pow(n, 3) * kern, -((2.0 * n * n) * F)) \
        + Interval(-4.0 * t2, (4.0 * alpha / 3.0) * t2)
    new = cert._L_value(coeffs)
    assert old.lo <= new.lo and new.hi <= old.hi


@pytest.mark.parametrize("alpha", [6, 8, 10])
def test_L_tail_contains_the_terms_beyond_the_head(alpha, ctx_by_alpha):
    # _L_value bounds its rows n > N = 64 by [-4 t2, (4 alpha/3) t2], with
    # t2 >= sum_{n > N} n^2 F(n).  Those rows add
    # 2 sum_{n > N} (-(4/pi^2) n F'(n) - 2 n^2 F(n)), here summed at 40
    # digits over N < n <= M = 2000 at both ends of the s_alpha enclosure
    # (c = s^alpha).  Beyond M, n |F'(n)| = alpha c n^alpha F(n)^2 <= alpha F(n)
    # and F(n) <= n^-alpha/c, so a row adds at most 2 (alpha + 2) n^(2-alpha)/c
    # in size and all of them at most 2 (alpha + 2) M^(3-alpha)/((alpha - 3) c),
    # `rest`; 1e-30 more covers the rounding of the sum.  The library's tail
    # is _L_value on the table with its head rows set to 0.  The rows beyond
    # N sum to a negative value, near -4 sum n^2 F(n), so the lower side is
    # tight and the upper side is loose.
    import mpmath

    ctx = ctx_by_alpha[alpha]
    coeffs = build_coefficients(ctx, 64)
    N, M = coeffs.N, 2000
    bare = dataclasses.replace(coeffs, F=Lanes(np.r_[1.0, np.zeros(N)]), dF=Lanes(np.zeros(N + 1)))
    tail = cert._L_value(bare)
    with mpmath.workdps(40):
        for s in (ctx.s_alpha.lo, ctx.s_alpha.hi):
            c = mpmath.mpf(s) ** alpha
            total = mpmath.mpf(0)
            for k in range(N + 1, M + 1):
                Fk = 1 / (1 + c * mpmath.mpf(k) ** alpha)
                k_dFk = -alpha * c * mpmath.mpf(k) ** alpha * Fk ** 2
                total += 2 * (-4 / mpmath.pi ** 2 * k_dFk - 2 * k * k * Fk)
            rest = 2 * (alpha + 2) * mpmath.mpf(M) ** (3 - alpha) / ((alpha - 3) * c) \
                + mpmath.mpf(1e-30)
            assert total < 0
            assert tail.lo <= total - rest and total + rest <= tail.hi, (alpha, s)


@pytest.mark.parametrize("alpha", [4, 6, 14, 1000])
def test_3n2F_n3dF_tail_contains_the_terms_beyond_the_head(alpha):
    # _sum_3n2F_n3dF bounds its rows |n| > N = 16 by [-2b, 0],
    # b = (alpha - 3) t2 with t2 >= sum_{n > N} n^2 F(n).  Those rows add
    # 2 sum_{n > N} (3 n^2 F(n) + n^3 F'(n)), here summed at 40 digits over
    # N < n <= M = 2000 at both ends of the s_alpha enclosure (c = s^alpha).
    # Beyond M, each row is 2 n^2 F(n)(3 - alpha + alpha F(n)), at most
    # 2 (alpha - 3) n^(2-alpha)/c in size by F(n) <= n^-alpha/c, and all of
    # them at most 2 M^(3-alpha)/c, `rest`; 1e-35 of the sum more covers its
    # rounding.  The library's tail
    # is _sum_3n2F_n3dF on the table with its head rows set to 0.
    import mpmath

    ctx = solve_s_alpha(alpha)
    coeffs = build_coefficients(ctx, cert._N)
    N, M = coeffs.N, 2000
    bare = dataclasses.replace(coeffs, F=Lanes(np.r_[1.0, np.zeros(N)]), dF=Lanes(np.zeros(N + 1)))
    tail = cert._sum_3n2F_n3dF(bare)
    assert tail.hi == 0.0
    with mpmath.workdps(40):
        for s in (ctx.s_alpha.lo, ctx.s_alpha.hi):
            c = mpmath.mpf(s) ** alpha
            total = mpmath.mpf(0)
            for k in range(N + 1, M + 1):
                Fk = 1 / (1 + c * mpmath.mpf(k) ** alpha)
                k_dFk = -alpha * c * mpmath.mpf(k) ** alpha * Fk ** 2
                total += 2 * (3 * k * k * Fk + k * k * k_dFk)
            rest = 2 * mpmath.mpf(M) ** (3 - alpha) / c + mpmath.mpf(1e-35) * abs(total)
            assert total < 0
            assert tail.lo <= total - rest and total + rest <= tail.hi, (alpha, s)


def test_3n2F_n3dF_needs_F_below_a_quarter_beyond_the_head():
    # a solved s_alpha is >= 1, so F(N) <= F(8) < 1/4; at the spacing 1/8,
    # F(8) = 1/2 and the terms beyond the head need not be negative
    coeffs = build_coefficients(PotentialContext.from_spacing(4, Interval(0.125)), 8)
    assert coeffs.F.interval(8).contains(0.5) and coeffs.F.interval(8).width < 1e-15
    with pytest.raises(ValueError, match="F\\(N\\) < 1/4"):
        cert._sum_3n2F_n3dF(coeffs)


def test_L_large_examples():
    assert certify_L_large(12).status == "verified"
    assert certify_L_large(40).status == "verified"


def test_integer_coefficients_are_enclosures_past_2_to_53():
    # the n^3 of L and of the x >= 9 sum, the 10 n^4 and 2 n^5 of the x >= 10
    # constant; a float 2 * n**5 is rounded from n = 1553 on
    n = range(1, 1601)
    for k, c in ((3, 1), (4, 10), (5, 2)):
        lanes = cert._n_pow(np.array(n, dtype=float), k, float(c))
        for i, m in enumerate(n):
            assert Fraction(lanes.lo[i]) <= c * m ** k <= Fraction(lanes.hi[i]), (k, m)


# -- the w inequality ---------------------------------------------------------

def test_w_inequality_displayed_form():
    c = certify_w_inequality()
    assert c.status == "verified"
    assert c.boxes_processed <= 10_000


def _w_constants(ctx4):
    """c1 of the displayed route (16/5) and of the alpha = 4 route (4(1 - F(1)))."""
    return (Interval.from_fraction(Fraction(16, 5)), Interval(4.0 * (ONE - ctx4.F1).lo))


def test_w_minorant_lies_below_the_integrand(ctx4):
    # at 40 digits on 20,001 points w of [0, pi/2], both c1: the truncations
    # S3(2w) >= 1/6 - w^2/30 and sinc(w)^2 <= 1 - w^2/3 + 2 w^4/45 hold;
    # f(w) = 4 c1 S3(2w) - 2 sinc(w)^2 is at least
    # P(w^2) = (2 c1/3 - 2) + w^2 ((2/3 - 2 c1/15) - (4/45) w^2), with
    # equality only at w = 0; and the lane minorant the certificate
    # discharges encloses P at every point
    import mpmath

    ws = np.linspace(0.0, math.pi / 2.0, 20_001)
    consts = []
    with mpmath.workdps(40):
        for c1, C in zip(_w_constants(ctx4), (mpmath.mpf(16) / 5, None)):
            P = cert._w_minorant(c1)(Lanes(ws), np.zeros(ws.size, dtype=np.int64))
            consts.append((C or mpmath.mpf(c1.lo), P.lo.tolist(), P.hi.tolist()))
        one, two = mpmath.mpf(1), mpmath.mpf(2)
        for i, w in enumerate(ws.tolist()):
            W = mpmath.mpf(w)
            s = W * W
            s3_low = one / 6 - s / 30
            sinc2_high = 1 - s / 3 + 2 * s * s / 45
            if w == 0.0:
                s3, sinc2 = one / 6, one
            else:
                s3 = (2 * W - mpmath.sin(2 * W)) / (2 * W) ** 3
                sinc2 = (mpmath.sin(W) / W) ** 2
            assert s3 >= s3_low and sinc2 <= sinc2_high, w
            p_c1, p_rest = two / 3 - 2 * s / 15, s * (two / 3 - 4 * s / 45) - 2  # P = c1 p_c1 + p_rest
            for C, lo, hi in consts:
                p = C * p_c1 + p_rest
                f = 4 * C * s3 - 2 * sinc2
                assert lo[i] <= p <= hi[i], (w, C)
                assert f > p or (w == 0.0 and abs(f - p) < 1e-35), (w, C)


@pytest.mark.parametrize("route", [0, 1])
def test_w_integrand_in_kernel_form_still_verifies(route, ctx4):
    # f itself, on the scalar kernels s3_kernel and sinc through the per-box
    # adapter, also verifies on [0, pi/2]: after the two w >= pi/2 checks,
    # in 39 boxes to depth 6, where its minorant P takes 3 boxes at depth 0
    c1 = _w_constants(ctx4)[route]
    run = cert._Run()
    run.check(c1 - 2.0, None)
    run.check((c1 - 2.0) * Interval(PI.lo / 2.0) - 0.5 * c1, None, at=math.pi / 2.0)
    cert._bnb(run, per_lane(lambda w: 4.0 * c1 * s3_kernel(2.0 * w) - 2.0 * pow_int(sinc(w), 2)),
              [(0.0, (PI / 2.0).hi)], None)
    bits = ("0x1.ea6e43b11bc00p-9", "0x1.ea6e43b083c00p-9")[route]
    assert (run.status, run.boxes, run.max_depth, run.min_lb.hex()) == ("verified", 39, 6, bits)


def test_w_inequality_reports_the_integrand_minimum(ctx4):
    # P(0) = f(0) = 2 c1/3 - 2 is the least value of f on [0, pi/2], so the
    # certificate's margin is f's own: 2/15 for c1 = 16/5, in one box
    for ctx in (None, ctx4):
        c = certify_w_inequality(ctx)
        assert (c.status, c.boxes_processed, c.max_depth) == ("verified", 3, 0)
        assert abs(c.min_lower_bound - 2.0 / 15.0) < 1e-12


def test_w_inequality_tail_piece():
    # 3(pi/2) - 4 > 0 is what absorbs w >= pi/2 in the displayed form
    v = 3.0 * (PI / 2.0) - 4.0
    assert v.lo > 0.0


@pytest.mark.parametrize("alpha", [5, 3, 2, -2, 4.0])
def test_w_inequality_checks_its_alpha(alpha):
    # the context-free route is labelled with alpha, so alpha must be one
    # the paper covers: an even integer >= 4
    with pytest.raises(ValueError, match="even integer >= 4"):
        certify_w_inequality(alpha=alpha)


def test_w_inequality_context_variant(ctx4):
    c = certify_w_inequality(ctx4)
    assert c.status == "verified"


# -- composite transform positivity -------------------------------------------

def test_psihat_nonneg_alpha4(coeffs4):
    c = certify_psihat_nonneg(coeffs4)
    assert c.status == "verified"


def test_psihat_nonneg_alpha8(ctx8):
    c = certify_psihat_nonneg(build_coefficients(ctx8, 64))
    assert c.status == "verified"


# -- psi4 <= F4 ----------------------------------------------------------------

def _L_term(ctx, x, n):
    """L(x, n) = (F(x) - F(n) - F'(n)(x - n))/(x - n)^2 for one box x: the
    closed form (F(x) - 1)/x^2 at n = 0, else one lane of certify._L_terms."""
    if n == 0:
        return F_deficit_over_x_sq(ctx, x, F_alpha(ctx, x))
    Fn = F_alpha(ctx, Interval(float(n)))
    dFn = -ctx.alpha * Fn * (1.0 - Fn) / float(n)
    xl = Lanes([[x.lo]], [[x.hi]])
    t = cert._L_terms(ctx, xl, F_alpha(ctx, xl), np.array([float(n)]), Fn, dFn)
    return Interval(t.lo.item(), t.hi.item())


def test_mean_value_term_examples(ctx4):
    at9 = _L_term(ctx4, Interval(9.0), 9)
    ref = 0.5 * F_alpha_second(ctx4, Interval(9.0))
    assert at9.overlaps(ref) and at9.lo > 0.0
    at0 = _L_term(ctx4, Interval(0.5), 0)
    assert at0.contains(Fraction(-4, 5))  # (F(1/2) - 1)/(1/4) at the exact spacing
    far = _L_term(ctx4, Interval(0.25), 40)
    d = 40.0 - 0.25
    bound = (2.0 + abs(ctx4.dF1.lo) * d) / (d * d)
    assert abs(far.lo) <= bound and abs(far.hi) <= bound


def test_psi4_certificate(ctx4):
    c = certify_psi4_le_F4(ctx4)
    assert c.status == "verified"
    assert c.min_lower_bound >= 0.0


def test_psi4_thin_point_at_zero(ctx4):
    # at x = 0 the n and -n terms coincide, so the full sum is
    # L(0, 0) + 2 sum_{n >= 1} L(0, n), every piece evaluable directly
    total = _L_term(ctx4, Interval(0.0), 0)
    for n in range(1, 65):
        total = total + 2.0 * _L_term(ctx4, Interval(0.0), n)
    assert total.lo > 0.0


def test_psi4_grid_corroboration(coeffs4):
    xs = np.linspace(0.0, 12.0, 10001)
    vals = psi_float(coeffs4, xs)
    F = 1.0 / (1.0 + coeffs4.ctx.s_pow_alpha.mid * xs ** 4)
    assert bool((vals <= F + 1e-12).all())


# -- the nearest-integer cases -------------------------------------------------

def test_eta0(ctx6, ctx8):
    assert certify_eta0(ctx6).status == "verified"
    assert certify_eta0(ctx8).status == "verified"


def test_eta0_large_route_respects_zero_depth(ctx12):
    route = cert.route_for("eta0", 12)
    c = route.call(12, ctx12, BnbPolicy(max_depth=0))
    assert c.status == "inconclusive"
    assert (c.boxes_processed, c.max_depth, c.witness) == (0, 0, None)
    assert math.isnan(c.min_lower_bound)
    c = route.call(12, ctx12, None)
    assert c.status == "verified"
    assert (c.boxes_processed, c.max_depth, c.witness) == (1, 0, None)
    assert c.min_lower_bound > 0.0


@pytest.mark.parametrize("alpha", [6, 16, 100, 1000])
def test_eta0_discharges_its_root_in_one_box_across_its_row(alpha):
    # the direct enclosure of sum_n L(x, n) holds on all of [0, 1/2] at once
    c = certify_eta0(solve_s_alpha(alpha))
    assert c.status == "verified"
    assert (c.boxes_processed, c.max_depth, c.witness) == (1, 0, None)
    assert c.min_lower_bound > 0.5


@pytest.mark.parametrize("alpha", [6, 14, 1000])
def test_eta0_integrand_is_pi_sq_times_F_minus_psi_over_sin_sq(alpha, ctx_by_alpha):
    # the interpolation identity sum_n L(x, n) = pi^2 (F(x) - psi(x))/sin^2(pi x)
    # at points of [0, 1/2]: psi(x) at 40 digits from its sinc-product
    # definition (auxfn.psi's docstring), with c = s^alpha the midpoint of its
    # enclosure, so F(n) and F'(n) are exact for that c and lie in the
    # enclosures the lanes use.  |n| <= M summed; for n > M and x <= 1/2,
    # |sinc(pi(x +- n))| <= 1/(pi (n - 1)) <= 1/(0.999 pi n), F(n) <= n^-alpha/c
    # and n |F'(n)| <= alpha n^-alpha/c, so the terms at n and -n sum to at
    # most (2 + 2 alpha) n^-(alpha+2)/(0.999^2 pi^2 c), and all of them to
    # `rest`; 1e-30 more covers the rounding of the 40-digit sum.  auxfn.psi
    # on the same table must contain psi(x) +- rest as well
    import mpmath

    ctx = ctx_by_alpha.get(alpha) or solve_s_alpha(alpha, 1e-12)
    coeffs = build_coefficients(ctx, 64)
    head, _, tail = _split(cert._psi4_parts(coeffs))
    M = 2000
    with mpmath.workdps(40):
        pi = mpmath.pi
        c = mpmath.mpf(ctx.s_pow_alpha.mid)

        def F(t):
            return 1 / (1 + c * t ** alpha)

        def sinc(t):
            return mpmath.sin(pi * t) / (pi * t)

        rows = []
        for n in range(1, M + 1):
            Fn = F(mpmath.mpf(n))
            rows.append((n, Fn, -alpha * c * mpmath.mpf(n) ** (alpha - 1) * Fn ** 2))
        rest = 2 / (mpmath.mpf(0.999) ** 2 * pi ** 2 * c * mpmath.mpf(M) ** (alpha + 1)) \
            + mpmath.mpf(1e-30)
        for x in (1 / 64, 1 / 8, 1 / 4, 3 / 8, 1 / 2):
            X = mpmath.mpf(x)
            psi = sinc(X) ** 2 + mpmath.fsum(
                Fn * (sinc(X - n) ** 2 + sinc(X + n) ** 2) + 2 * n * dFn * sinc(X - n) * sinc(X + n)
                for n, Fn, dFn in rows)
            scale = pi ** 2 / mpmath.sin(pi * X) ** 2
            want = scale * (F(X) - psi)
            at, param = Lanes(np.array([x])), np.zeros(1, dtype=np.int64)
            got = head(at, param) + tail(at, param)
            assert got.lo[0] <= want - scale * rest and want + scale * rest <= got.hi[0], (alpha, x)
            p = auxfn.psi(coeffs, Interval(x))
            assert p.lo <= psi - rest and psi + rest <= p.hi, (alpha, x)


def test_eta1(ctx6, ctx8):
    for ctx in (ctx6, ctx8):
        c = certify_eta1(ctx)
        assert c.status == "verified"
        assert c.min_lower_bound > 0.0


def _eta1_boxes(rng, count):
    """Boxes of t in [-1/2, 1/2]: seeded random boxes, boxes straddling 0,
    point boxes at 0 and +-1/2, and thin boxes near 0 on both sides."""
    boxes = [(0.0, 0.0), (-0.0, 0.0), (0.5, 0.5), (-0.5, -0.5), (-0.5, 0.5),
             (-0.5, 0.0), (0.0, 0.5), (-1e-3, 1e-3), (-1e-12, 0.0), (0.0, 1e-12)]
    for _ in range(count):
        a, b = sorted(rng.uniform(-0.5, 0.5) for _ in range(2))
        boxes.append((a, b))
        w = rng.uniform(0.0, 0.25)
        boxes.append((-rng.uniform(0.0, w), rng.uniform(0.0, w)))  # straddles 0
        p = rng.uniform(-0.5, 0.5)
        boxes.append((p, p))
        near = 10.0 ** rng.uniform(-140.0, -1.0)
        width = near * 10.0 ** rng.uniform(-15.0, 0.0)
        side = rng.choice((-1.0, 1.0))
        boxes.append(tuple(sorted((side * near, side * (near + width)))))
    return boxes


@pytest.mark.parametrize("alpha", [6, 12])
def test_eta1_lanes_match_scalar_reference(alpha, ctx_by_alpha):
    ctx = ctx_by_alpha[alpha]
    boxes = _eta1_boxes(random.Random(20260 + alpha), 40)
    lo = np.array([b[0] for b in boxes])
    hi = np.array([b[1] for b in boxes])
    got = cert._eta1_integrand(build_coefficients(ctx, cert._N))(Lanes(lo, hi), None)
    ref = eta1_scalar(ctx, cert._N)
    for i, (a, b) in enumerate(boxes):
        want = ref(Interval(a, b))
        assert (got.lo[i].hex(), got.hi[i].hex()) == (want.lo.hex(), want.hi.hex()), (a, b)


@pytest.mark.parametrize("N", [1, 2, 64])
def test_inv_sq_offset_sum_matches_scalar_reference(N):
    # at small N the tails weigh as much as the head, so their rounding shows
    boxes = _eta1_boxes(random.Random(7 + N), 100)
    lo = np.array([b[0] for b in boxes])
    hi = np.array([b[1] for b in boxes])
    got = cert._inv_sq_offset_sum(Lanes(lo, hi), N)
    for i, (a, b) in enumerate(boxes):
        want = sum_inv_sq_offset(Interval(a, b), N)
        assert (got.lo[i].hex(), got.hi[i].hex()) == (want.lo.hex(), want.hi.hex()), (a, b)


@pytest.mark.parametrize("alpha", [4, 6, 14, 200, 1000])
def test_offset_tail_bounds_the_terms_beyond_the_head(alpha, ctx_by_alpha):
    # sum_{|n| > N} (F(n)/(x-n)^2 + F'(n)/(x-n)) on a grid of [0, 10], for the
    # certificates' head N = _N, for N = 64 and for the least head the bound
    # admits, N = 10, where its factor ((N+1)/(N-9))^2 carries it (121) and
    # a smaller one fails; at 40 digits with c = s^alpha
    # at the lower end of its enclosure, where F(n) and |F'(n)| are largest
    # (c n^alpha > 1); N < |n| <= M summed, and `rest` bounds the terms
    # beyond: for n > M and x <= 10, n - 10 >= 0.99 n, so the terms at n and
    # -n sum to at most (2 + 2 alpha)/(0.99^2 c) n^-(alpha+2).  At alpha 200
    # and N = 16 the sum is 0.91 of the bound, where the alpha factor
    # (N+1)^2/((N+1)^2-100) carries it, so a smaller factor fails here; at
    # alpha 1000, (N+1)^(alpha+2) overflows and the bound is a subnormal, far
    # above the sum
    import mpmath

    ctx = ctx_by_alpha.get(alpha) or solve_s_alpha(alpha, 1e-12)
    M = 2000
    with mpmath.workdps(40):
        c = mpmath.mpf(ctx.s_pow_alpha.lo)
        rest = (2 + 2 * alpha) / (mpmath.mpf(0.99) ** 2 * c * (alpha + 1)
                                  * mpmath.mpf(M) ** (alpha + 1))
        rows = []
        for k in range(11, M + 1):
            Fk = 1 / (1 + c * mpmath.mpf(k) ** alpha)
            rows.append((k, Fk, -alpha * c * mpmath.mpf(k) ** (alpha - 1) * Fk ** 2))
        for x in [mpmath.mpf(j) / 2 for j in range(21)]:  # 0, 1/2, 3/2, 9 and 10 among them
            terms = [Fk / (x - k) ** 2 + dFk / (x - k) + Fk / (x + k) ** 2 - dFk / (x + k)
                     for k, Fk, dFk in rows]
            for N in (10, cert._N, 64):
                head = mpmath.fsum(terms[N - 10:])  # the terms k = N + 1 .. M
                assert 0 < head and head + rest <= cert._offset_tail(ctx, N), (alpha, N, x)


def test_offset_tail_integrands_reject_a_short_head(ctx6):
    # the offset-tail bound is derived for heads |n| <= N with N >= 10 (it
    # divides by N - 9); any such head carries the tail beyond its own N, so
    # a 10- or 16-row eta_ge2 head plus its tail contains the exact sum at
    # x = 9.5, 9.75 and 10, which a 16-row head plus the tail beyond |n| = 64
    # missed: 40 digits, |n| <= M, at both ends of c = s^alpha's enclosure,
    # and for |n| > M the terms at n and -n sum to at most
    # (2 + 2 alpha)/(0.99^2 c) n^-(alpha+2), all of them to `rest`
    import mpmath

    for N in (8, 9):  # build_coefficients takes N >= 8
        short = build_coefficients(ctx6, N)
        for make in (lambda: cert._eta_ge2_parts(short), lambda: cert._psi4_parts(short),
                     lambda: cert._eta1_integrand(short), lambda: cert._offset_tail(ctx6, N)):
            with pytest.raises(ValueError, match="N >= 10"):
                make()
    assert cert._offset_tail(ctx6, 10) > cert._offset_tail(ctx6, 16) > cert._offset_tail(ctx6, 64)
    alpha, M, xs = 6, 2000, (9.5, 9.75, 10.0)
    at, eta = Lanes(np.array(xs)), np.full(len(xs), 10, dtype=np.int64)
    with mpmath.workdps(40):
        for c in (mpmath.mpf(ctx6.s_pow_alpha.lo), mpmath.mpf(ctx6.s_pow_alpha.hi)):
            rows = []
            for k in range(-M, M + 1):
                Fk = 1 / (1 + c * mpmath.mpf(k) ** alpha)
                rows.append((k, Fk, -alpha * c * mpmath.mpf(k) ** (alpha - 1) * Fk ** 2))
            rest = (2 + 2 * alpha) / (mpmath.mpf(0.99) ** 2 * c * (alpha + 1)
                                      * mpmath.mpf(M) ** (alpha + 1))
            want = [-mpmath.fsum(Fk / (x - k) ** 2 + dFk / (x - k) for k, Fk, dFk in rows if k != 10)
                    for x in map(mpmath.mpf, xs)]
            for N in (10, 16):
                head, _, tail = _split(cert._eta_ge2_parts(build_coefficients(ctx6, N)))
                got = head(at, eta) + tail(at, eta)
                for i, w in enumerate(want):
                    assert got.lo[i] <= w - rest and w + rest <= got.hi[i], (N, xs[i])


def test_inv_sq_tail_contains_mpmath():
    # sum_{|n| > N} 1/(x - n)^2 = psi'(N + 1 - x) + psi'(N + 1 + x), for the
    # certificates' head N = _N and for N = 64, on seeded boxes of [0, 9]
    # (psi4_le_F4) and [-1/2, 1/2] (eta1), at box ends, midpoints and inner
    # points
    import mpmath

    rng = random.Random(6400)
    boxes = [(0.0, 9.0), (-0.5, 0.5), (0.0, 0.0), (9.0, 9.0), (-0.5, -0.5), (0.5, 0.5)]
    for lo, hi in ((0.0, 9.0), (-0.5, 0.5)):
        for _ in range(30):
            boxes.append(tuple(sorted(rng.uniform(lo, hi) for _ in range(2))))
    lo = np.array([b[0] for b in boxes])
    hi = np.array([b[1] for b in boxes])
    with mpmath.workdps(40):
        for N in (cert._N, 64):
            got = cert._inv_sq_tail(Lanes(lo, hi), N)
            for i, (a, b) in enumerate(boxes):
                for x in (a, 0.5 * (a + b), b, rng.uniform(a, b)):
                    v = mpmath.psi(1, N + 1 - mpmath.mpf(x)) + mpmath.psi(1, N + 1 + mpmath.mpf(x))
                    assert got.lo[i] <= v <= got.hi[i], (N, a, b, x)


@pytest.mark.parametrize("alpha", [4, 6, 12])
def test_L_terms_match_scalar_reference(alpha, ctx_by_alpha):
    # boxes in [0, 9]: seeded random ones, and ones at, across and within 1/4
    # of an integer, where the hull of the mean-value term takes over
    ctx = ctx_by_alpha[alpha]
    coeffs = build_coefficients(ctx, 16)
    n, Fn, dFn = coeffs.rows()
    rng = random.Random(3100 + alpha)
    boxes = [(0.0, 0.0), (0.0, 9.0), (1.0, 1.0), (0.75, 1.25), (0.75, 0.75), (1.25, 1.25)]
    for _ in range(30):
        boxes.append(tuple(sorted(rng.uniform(0.0, 9.0) for _ in range(2))))
        c = rng.randint(1, 9) + rng.uniform(-0.3, 0.3)
        w = rng.uniform(0.0, 0.2) * 10.0 ** rng.uniform(-12.0, 0.0)
        boxes.append((c - w, c + w))
    lo = np.array([b[0] for b in boxes])
    hi = np.array([b[1] for b in boxes])
    x = Lanes(lo, hi)
    X, FX = x[:, None], F_alpha(ctx, x)[:, None]
    for sign in (1, -1):
        got = cert._L_terms(ctx, X, FX, sign * n, Fn, sign * dFn)
        for i, (a, b) in enumerate(boxes):
            xi = Interval(a, b)
            for j in range(coeffs.N):
                want = L_scalar(ctx, xi, sign * (j + 1), F_alpha(ctx, xi), coeffs.F.interval(j + 1),
                                sign * coeffs.dF.interval(j + 1))
                assert (got.lo[i, j].hex(), got.hi[i, j].hex()) == \
                    (want.lo.hex(), want.hi.hex()), (a, b, sign * (j + 1))


@pytest.mark.parametrize("alpha", [6, 12])
def test_offset_sum_matches_scalar_reference(alpha, ctx_by_alpha):
    # boxes in [eta - 1/2, eta + 1/2] for eta = 1..10, each with its eta, and
    # boxes in [0, 1/2] with eta = 0 (psi's own lanes), the point 0 among them
    coeffs = build_coefficients(ctx_by_alpha[alpha], 16)
    rng = random.Random(5100 + alpha)
    boxes = []
    for eta in range(1, 11):
        lo, hi = eta - 0.5, eta + 0.5
        boxes += [(lo, lo, eta), (hi, hi, eta), (eta, eta, eta), (lo, hi, eta)]
        boxes += [(*sorted(rng.uniform(lo, hi) for _ in range(2)), eta) for _ in range(6)]
    boxes += [(0.0, 0.0, 0), (0.5, 0.5, 0), (0.0, 0.5, 0), (0.0, 0.25, 0)]
    boxes += [(*sorted(rng.uniform(0.0, 0.5) for _ in range(2)), 0) for _ in range(6)]
    lo, hi, eta = (np.array(c) for c in zip(*boxes))
    got = auxfn._offset_sum(Lanes(lo, hi), eta, coeffs.rows())
    for i, (a, b, e) in enumerate(boxes):
        want = offset_sum(Interval(a, b), e, coeffs)
        assert (got.lo[i].hex(), got.hi[i].hex()) == (want.lo.hex(), want.hi.hex()), (a, b, e)


def _assert_same_bits(got, want, what):
    for end in ("lo", "hi"):
        g, w = getattr(got, end), getattr(want, end)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), (what, end)


def _offset_boxes(rng, etas, lo_end=0.0):
    """(lo, hi, eta) boxes within [eta - 1/2, eta + 1/2] and >= lo_end: the
    ends, the integer eta, the whole segment, boxes within 0.25 of eta (the
    near lanes of `_removable`) and seeded boxes and points."""
    boxes = []
    for eta in etas:
        lo, hi = max(eta - 0.5, lo_end), eta + 0.5
        boxes += [(lo, lo, eta), (hi, hi, eta), (eta, eta, eta), (lo, hi, eta),
                  (max(eta - 0.1, lo), eta + 0.05, eta), (eta + 0.1, eta + 0.2, eta),
                  (max(eta - 0.3, lo), max(eta - 0.2, lo), eta)]
        for _ in range(4):
            w = (hi - lo) * 10.0 ** rng.uniform(-6.0, 0.0)
            a = rng.uniform(lo, hi - w)
            boxes += [(a, a + w, eta), (a, a, eta)]
    return boxes


@pytest.mark.parametrize("alpha", [4, 6, 14, 1000])
def test_block_integrands_match_the_two_chain_forms(alpha):
    # one block of the rows n and -n (and of the four tail quotients), and
    # one block of the midpoints and boxes of a mean-value batch, against a
    # chain per sign and per part, bit for bit: eta = 0 with the point 0, the
    # left-out own row, the near lanes of _removable and -(F'(n)/(x + n)) now
    # formed as (-F'(n))/(x + n), which at alpha 1000 meets F'(n) rounded to 0
    coeffs = build_coefficients(solve_s_alpha(alpha), cert._N)
    rng = random.Random(2900 + alpha)
    boxes = _offset_boxes(rng, range(0, 11))
    lo, hi, eta = (np.array(c) for c in zip(*boxes))
    x = Lanes(lo, hi)
    _assert_same_bits(auxfn._offset_sum(x, eta, coeffs.rows()),
                      offset_sum_two_chain(x, eta, coeffs.rows()), "offset")

    psi4 = x[hi <= 9.0]
    ge2 = _offset_boxes(rng, range(2, 11), lo_end=1.5)
    lo, hi, eta = (np.array(c) for c in zip(*ge2))
    for terms, want, x, param in (
            (cert._psi4_parts(coeffs), psi4_parts_two_chain(coeffs), psi4,
             np.zeros(psi4.lo.size, dtype=np.int64)),
            (cert._eta_ge2_parts(coeffs), eta_ge2_parts_two_chain(coeffs), Lanes(lo, hi), eta)):
        for name, g, w in zip(("head", "slope", "tail"), _split(terms), want):
            got, ref = g(x, param), w(x, param)
            if isinstance(ref, Interval):
                assert got == ref, name
            else:
                _assert_same_bits(got, ref, name)
        _assert_same_bits(cert._mean_value(terms)(x, param),
                          mean_value_two_chain(*want)(x, param), "mean value")

    ts = [(-0.5, -0.5), (0.5, 0.5), (0.0, 0.0), (-0.5, 0.5)] + \
        [tuple(sorted(rng.uniform(-0.5, 0.5) for _ in range(2))) for _ in range(30)]
    t = Lanes(*(np.array(c) for c in zip(*ts)))
    for N in (cert._N, 64):
        _assert_same_bits(cert._inv_sq_tail(t, N), inv_sq_tail_two_chain(t, N), "tail")
        _assert_same_bits(cert._inv_sq_offset_sum(t, N), inv_sq_offset_sum_two_chain(t, N),
                          "inverse squares")


@pytest.mark.parametrize("alpha", [6, 12, 1000])
def test_eta1_lanes_contain_mpmath(alpha, ctx_by_alpha):
    # the eta1 integrand at point boxes t, against
    # q + F(x)(pi^2/sin^2(pi t) - 1/t^2) - offset(x, 1) with x = 1 + t and
    # q = (F(x) - F(1) - F'(1) t)/t^2 (pi^2/3 and F''(1)/2 at t = 0), at 40
    # digits with c = s^alpha at its enclosure's midpoint; the offset sums
    # |n| <= M, and `rest` bounds the terms beyond: there |x - n| >= |n|/2,
    # F(n) <= 1/(c n^alpha) and |F'(n)| <= alpha/(c |n|^(alpha+1))
    import mpmath

    ctx = ctx_by_alpha.get(alpha) or solve_s_alpha(alpha, 1e-12)
    rng = random.Random(6100 + alpha)
    ts = [0.0, 0.5, -0.5, 1e-12, -1e-12] + [rng.uniform(-0.5, 0.5) for _ in range(41)]
    got = cert._eta1_integrand(build_coefficients(ctx, 64))(Lanes(ts, ts), None)
    M = 200
    with mpmath.workdps(40):
        c = mpmath.mpf(ctx.s_pow_alpha.mid)

        def F(x):
            return 1 / (1 + c * x ** alpha)

        def dF(x):
            return -alpha * c * x ** (alpha - 1) * F(x) ** 2

        rows = [(k, F(k), dF(k)) for k in range(-M, M + 1) if k != 1]
        rest = 2 * (4 + 2 * alpha) / (c * (alpha + 1) * mpmath.mpf(M) ** (alpha + 1))
        for i, t in enumerate(ts):
            t = mpmath.mpf(t)
            x = 1 + t
            offset = mpmath.fsum(Fk / (x - k) ** 2 + dFk / (x - k) for k, Fk, dFk in rows)
            if t == 0:
                q, inv_sq = mpmath.diff(F, 1, 2) / 2, mpmath.pi ** 2 / 3
            else:
                q = (F(x) - F(1) - dF(1) * t) / t ** 2
                inv_sq = mpmath.pi ** 2 / mpmath.sin(mpmath.pi * t) ** 2 - 1 / t ** 2
            v = q + F(x) * inv_sq - offset
            assert got.lo[i] <= v - rest and v + rest <= got.hi[i], (alpha, ts[i])


def test_eta1_scalar_reference_gives_the_certificate(ctx6):
    # the reference, run through the per-box adapter, reproduces certify_eta1
    c = certify_eta1(ctx6)
    run = _run_engine(per_lane(eta1_scalar(ctx6, cert._N)), [(-0.5, 0.5)])
    assert c.status == run.status == "verified"
    assert (c.boxes_processed, c.max_depth, c.min_lower_bound.hex()) == \
        (run.boxes, run.max_depth, run.min_lb.hex())


def test_eta1_windows_cut_calls_and_keep_the_certificate(ctx6, monkeypatch):
    # certify_eta1 at alpha 6 through a call-counting integrand, with the
    # engine and with the level-by-level oracle
    integrand = cert._eta1_integrand
    calls = []

    def counted(coeffs):
        f = integrand(coeffs)
        calls.append(0)

        def g(t, param):
            calls[-1] += 1
            return f(t, param)
        return g

    monkeypatch.setattr(cert, "_eta1_integrand", counted)
    new = certify_eta1(ctx6).to_json_dict()
    monkeypatch.setattr(cert, "_bnb", bnb_level_by_level)
    old = certify_eta1(ctx6).to_json_dict()
    assert calls == [4, 9]
    del new["wall_time_ms"], old["wall_time_ms"]
    assert new["status"] == "verified" and new["boxes_processed"] == 85
    assert new["min_lower_bound"].hex() == old["min_lower_bound"].hex()
    assert new == old


def test_eta1_rejects_alpha4(ctx4):
    with pytest.raises(ValueError):
        certify_eta1(ctx4)


def test_eta_ge2(ctx6):
    c = certify_eta_ge2(ctx6)
    assert c.status == "verified"


# -- the mean-value form of psi4_le_F4 and eta_ge2 --------------------------------

@pytest.mark.parametrize("alpha", range(4, 15, 2))
def test_derivative_lanes_contain_mpmath(alpha):
    import mpmath

    s = 1.0 + alpha / 40.0  # any spacing: the forms hold for every c = s^alpha > 0
    ctx = PotentialContext.from_spacing(alpha, Interval(s))
    rng = random.Random(9000 + alpha)
    points = [0.0, 1e-3, 0.5, 1.0, 12.0] + [rng.uniform(0.0, 12.0) for _ in range(35)]
    boxes = [(0.0, 0.0), (0.0, 0.5), (0.9, 1.1)]
    for _ in range(20):
        a = rng.uniform(0.0, 12.0)
        boxes.append((a, a + rng.uniform(0.0, 1.0) * 10.0 ** rng.uniform(-6.0, 0.0)))
    x = Lanes(points + [b[0] for b in boxes], points + [b[1] for b in boxes])
    lanes = {1: cert._first_derivative(ctx, x, F_alpha(ctx, x)),
             3: cert._third_derivative(ctx, x)}
    with mpmath.workdps(50):
        c = mpmath.mpf(s) ** alpha

        def F(t):
            return 1 / (1 + c * t ** alpha)

        for i, (lo, hi) in enumerate(zip(x.lo.tolist(), x.hi.tolist())):
            for p in {lo, 0.5 * (lo + hi), hi, rng.uniform(lo, hi)}:
                for k, d in lanes.items():
                    # at 0 both derivatives are exactly 0 (alpha - 3 >= 1)
                    want = mpmath.diff(F, mpmath.mpf(p), k) if p else 0
                    assert d.lo[i] <= want <= d.hi[i], (alpha, k, lo, hi, p)


def _roots(alpha):
    """(lo, hi, param) root boxes: the psi4 domain [0, 9] (alpha 4) or the
    eta_ge2 segments of [1.5, 10] (param eta)."""
    if alpha == 4:
        return [(0.0, 9.0, 0)]
    return [(max(1.5, e - 0.5), min(10.0, e + 0.5), e) for e in range(2, 11)]


def _seeded_boxes(rng, alpha, count):
    """The roots, then `count` boxes inside them, of widths from 1e-6 of a root to all of it."""
    roots = _roots(alpha)
    boxes = list(roots)
    for _ in range(count):
        lo, hi, p = rng.choice(roots)
        w = (hi - lo) * 10.0 ** rng.uniform(-6.0, 0.0)
        a = rng.uniform(lo, hi - w)
        boxes.append((a, a + w, p))
    return boxes


def _split(terms):
    """(head, slope, tail) of the `_mean_value` terms of an integrand, each
    callable on its own lanes: head and tail with every lane a point of the
    block, slope with every lane a box."""
    def head(x, param):
        return terms(x, x.lo.size, param)[0]

    def slope(x, param):
        return terms(x, 0, param)[1]

    def tail(x, param):
        return terms(x, x.lo.size, param)[2]

    return head, slope, tail


def _terms(alpha, ctx):
    coeffs = build_coefficients(ctx, 64)
    return cert._psi4_parts(coeffs) if alpha == 4 else cert._eta_ge2_parts(coeffs)


@pytest.mark.parametrize("alpha", [4, 6, 8, 10, 12])
def test_mean_value_form_contains_direct_point_enclosures(alpha, ctx_by_alpha):
    terms = _terms(alpha, ctx_by_alpha[alpha])
    head, _, tail = _split(terms)
    f = cert._mean_value(terms)
    rng = random.Random(4242 + alpha)
    boxes = _seeded_boxes(rng, alpha, 60)
    lo, hi, param = (np.array(c) for c in zip(*boxes))
    got = f(Lanes(lo, hi), param)
    for i, (a, b, p) in enumerate(boxes):
        pts = np.array([a, 0.5 * (a + b), b] + [rng.uniform(a, b) for _ in range(5)])
        at = np.full(pts.size, p)
        direct = head(Lanes(pts), at) + tail(Lanes(pts), at)
        assert (got.lo[i] <= direct.lo).all() and (direct.hi <= got.hi[i]).all(), (a, b, p)
        # a point box keeps the direct form, bit for bit
        point = f(Lanes(pts), at)
        assert np.array_equal(point.lo, direct.lo) and np.array_equal(point.hi, direct.hi)


def _head_oracle(coeffs, eta):
    """The head of the psi4 (alpha 4) or eta_ge2 integrand as an mpmath
    function, with c = s^alpha the midpoint of its enclosure and F(n), F'(n)
    exact for that c: all lie in the enclosures the lanes use, so the head's
    derivative lies in the slope enclosure."""
    import mpmath

    alpha = coeffs.ctx.alpha
    c = mpmath.mpf(coeffs.ctx.s_pow_alpha.mid)

    def F(t):
        return 1 / (1 + c * t ** alpha)

    rows = [(n, F(n), -alpha * c * n ** (alpha - 1) * F(n) ** 2) for n in range(1, coeffs.N + 1)]

    def psi4(x):
        Fx = F(x)
        total = -c * x ** (alpha - 2) * Fx
        for n, Fn, dFn in rows:
            total += (Fx - Fn - dFn * (x - n)) / (x - n) ** 2 + (Fx - Fn + dFn * (x + n)) / (x + n) ** 2
        return total

    def eta_ge2(x):
        total = 1 / x ** 2
        for n, Fn, dFn in rows:
            if n != eta:
                total += Fn / (x - n) ** 2 + dFn / (x - n)
            total += Fn / (x + n) ** 2 - dFn / (x + n)
        return -total

    return psi4 if alpha == 4 else eta_ge2


@pytest.mark.parametrize("alpha", [4, 6, 12])
def test_slope_contains_mpmath_derivative_of_the_head(alpha, ctx_by_alpha):
    import mpmath

    coeffs = build_coefficients(ctx_by_alpha[alpha], 64)
    _, slope, _ = _split(_terms(alpha, ctx_by_alpha[alpha]))
    rng = random.Random(77 + alpha)
    boxes = _seeded_boxes(rng, alpha, 12)
    lo, hi, param = (np.array(c) for c in zip(*boxes))
    got = slope(Lanes(lo, hi), param)
    with mpmath.workdps(40):
        for i, (a, b, p) in enumerate(boxes):
            head = _head_oracle(coeffs, p)
            for x in (a, 0.5 * (a + b), b, rng.uniform(a, b)):
                if alpha == 4 and x != 0.0 and x == int(x):
                    continue  # the oracle's quotient at x = n is 0/0
                want = mpmath.diff(head, mpmath.mpf(x))
                assert got.lo[i] <= want <= got.hi[i], (a, b, p, x)


@pytest.mark.parametrize("alpha", [4, 6])
def test_mean_value_route_fails_with_a_witness_when_shifted_below_zero(alpha, ctx_by_alpha):
    # both integrands fall to about 6e-5 at the right end of their domain
    terms = _terms(alpha, ctx_by_alpha[alpha])
    head, _, tail = _split(terms)

    def shifted(x, param):
        return head(x, param) - 1e-4

    def shifted_terms(y, B, param):
        v, slope, t = terms(y, B, param)
        return v - 1e-4, slope, t

    roots = _roots(alpha)
    run = _run_engine(cert._mean_value(shifted_terms), roots)
    assert run.status == "failed"
    w = np.array([run.witness])
    at = np.array([next(p for lo, hi, p in roots if lo <= run.witness <= hi)])
    assert (shifted(Lanes(w), at) + tail(Lanes(w), at)).hi[0] < 0.0


def test_allthestars_large():
    for a in (16, 50, 100):
        assert certify_allthestars_large(a).status == "verified"
    with pytest.raises(ValueError):
        certify_allthestars_large(14)


# -- invariants ----------------------------------------------------------------

def test_soundness_rerun_double_budget(ctx6):
    a = certify_eta1(ctx6)
    b = certify_eta1(ctx6, policy=BnbPolicy(max_depth=96))
    assert a.status == b.status == "verified"


def test_min_lower_bound_monotone_in_depth():
    a = certify_w_inequality(policy=BnbPolicy(max_depth=48))
    b = certify_w_inequality(policy=BnbPolicy(max_depth=60))
    assert b.min_lower_bound >= a.min_lower_bound


def test_certificate_determinism(ctx6):
    a = certify_L(ctx6).to_json_dict()
    b = certify_L(ctx6).to_json_dict()
    a.pop("wall_time_ms")
    b.pop("wall_time_ms")
    assert json.dumps(a) == json.dumps(b)


def test_json_field_order(ctx6):
    d = certify_T(ctx6).to_json_dict()
    assert list(d.keys()) == [
        "inequality_id", "alpha", "domain", "status", "boxes_processed",
        "max_depth", "min_lower_bound", "wall_time_ms", "witness",
        "paper_anchor", "policy",
    ]
    text = certificates_to_json([certify_T(ctx6)])
    parsed = json.loads(text)
    assert parsed[0]["inequality_id"] == "T_alpha"


def test_json_is_strict_for_unbounded_values():
    # an enclosure unbounded below would be written as -Infinity
    c = cert.Certificate("probe", 4, "[0, 1]", "failed", 1, 0, -math.inf, 0, math.inf,
                         "probe", BnbPolicy())

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    (d,) = json.loads(certificates_to_json([c]), parse_constant=reject)
    assert (d["min_lower_bound"], d["witness"], d["status"]) == (None, None, "failed")


def test_certify_all_rejects_odd():
    with pytest.raises(ValueError):
        certify_all(5)


def test_certify_all_rejects_a_context_of_another_alpha(monkeypatch):
    # the routes are chosen by alpha and run on ctx: alpha 16 on the alpha-14
    # context would mix certificates of both alphas and skip eta_ge2, which
    # alpha 14 needs; no route runs
    ran = []
    for name in ("certify_psihat_nonneg", "certify_eta0", "certify_eta1",
                 "certify_allthestars_large", "certify_eta_ge2"):
        monkeypatch.setattr(cert, name, lambda *args, _name=name, **kwargs: ran.append(_name))
    with pytest.raises(ValueError, match="alpha = 16 got a context of alpha = 14"):
        certify_all(16, ctx=solve_s_alpha(14))
    assert ran == []


@pytest.mark.parametrize("alpha", [4, 6])
def test_certify_all_leaves_the_table_bit_identical(alpha, ctx_by_alpha):
    ctx = ctx_by_alpha[alpha]
    cert._table.cache_clear()
    table = cert._table(ctx)
    before = (table.F.ends.tobytes(), table.dF.ends.tobytes())
    assert all(c.status == "verified" for c in certify_all(alpha, ctx=ctx))
    assert cert._table(ctx) is table
    assert (table.F.ends.tobytes(), table.dF.ends.tobytes()) == before


def test_certify_all_alpha4(ctx4):
    certs = certify_all(4, ctx=ctx4)
    assert all(c.status == "verified" for c in certs)
    ids = {c.inequality_id for c in certs}
    assert {"psihat_nonneg", "w_inequality", "psi4_le_F4"} <= ids


# -- the route table -------------------------------------------------------------

@pytest.mark.parametrize("alpha", [16, 1000])
def test_certify_all_large_alpha_covers_every_piece(alpha):
    certs = certify_all(alpha)
    assert [c.inequality_id for c in certs] == [
        "psihat_nonneg", "eta0", "eta1", "allthestars_const"]
    assert all(c.status == "verified" for c in certs)


def test_certify_all_rejects_alpha_past_eta1():
    with pytest.raises(ValueError):
        certify_all(1002)


def test_closed_routes_reject_alpha_below_their_row():
    for fn in (cert.certify_T_large, cert.certify_L_large):
        with pytest.raises(ValueError):
            fn(10)


def test_route_rows_of_one_name_are_disjoint():
    for i, r in enumerate(cert.ROUTES):
        for s in cert.ROUTES[i + 1:]:
            if r.cli is not None and r.cli == s.cli:
                assert not set(r.alphas[:600]) & set(s.alphas[:600]), (r, s)


def test_one_coefficient_table_per_context(monkeypatch, ctx6, ctx8):
    # certify_all builds the head table once for every piece, psihat_nonneg
    # included; a later piece on the same context reuses it, a new context
    # gets its own
    built = []

    def counting(ctx, N):
        built.append((ctx.alpha, N))
        return build_coefficients(ctx, N)

    monkeypatch.setattr(cert, "build_coefficients", counting)
    cert._table.cache_clear()
    cert.certify_all(6, ctx=ctx6)
    assert built == [(6, cert._N)]
    assert cert.certify_eta1(ctx6).status == "verified"
    assert built == [(6, cert._N)]
    assert cert.certify_T(ctx8).status == "verified"
    assert built == [(6, cert._N), (8, cert._N)]


def test_dispatch_looks_functions_up_at_call_time(monkeypatch, ctx4):
    # a spy bound over the module attribute, as a tracer installs it, sees
    # every route call; certify_all(4) makes the w certificate only once
    seen = []
    for name in cert.__all__:
        fn = getattr(cert, name)
        if name.startswith("certify_") and callable(fn):
            def spy(*args, _fn=fn, _name=name, **kwargs):
                seen.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cert, name, spy)
    cert.route_for("T", 16).call(16, None, None)
    assert seen == ["certify_T_large"]
    seen.clear()
    cert.certify_all(4, ctx=ctx4)
    assert sorted(seen) == ["certify_T", "certify_all", "certify_psi4_le_F4",
                            "certify_psihat_nonneg", "certify_w_inequality"]
