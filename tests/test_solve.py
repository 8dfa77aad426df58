"""The spacing solve: its proof steps against independent sums.

The solve rests on three facts: t_c from _t_crit satisfies
(alpha - 1) t_c^alpha >= alpha + 1, so every term of t E''(t) is >= 0 on
[t_c, 2]; _DerivativeRows.second encloses E''; and the returned enclosure's
ends carry opposite signs of E'.  Each is checked here against exact
rationals or an mpmath sum that shares no code with the library.

The solve puts many spacing points on one lane batch; the one-point-at-a-time
solve of _oracles must give the same enclosure bit for bit and the same
counts.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from repulse.interval import Interval
from repulse.potential import (
    _LANE_ELEMENTS,
    PotentialContext,
    _DerivativeRows,
    _t_crit,
    _term_count,
    energy_derivative,
    solve_s_alpha,
)

from _oracles import derivative_mp, second_derivative_mp, solve_s_alpha_sequential

TOLS = (1e-6, 1e-9, 1e-12)
COUNTS = ("cover_cells", "newton_steps", "bisection_steps")


def _bits(iv):
    return iv.lo.hex(), iv.hi.hex()


def _meets_t_crit(alpha, t):
    """(alpha - 1) t^alpha >= alpha + 1, exactly."""
    return (alpha - 1) * Fraction(t) ** alpha >= alpha + 1


@pytest.mark.parametrize("alphas", [range(4, 1001, 2), (4000, 100000)], ids=["4-1000", "large"])
def test_t_crit_meets_its_inequality_within_two_ulps(alphas):
    for alpha in alphas:
        t = _t_crit(alpha)
        below = float(np.nextafter(np.nextafter(t, 0.0), 0.0))
        assert _meets_t_crit(alpha, t) and not _meets_t_crit(alpha, below), alpha


@pytest.mark.parametrize("alpha", range(4, 201, 2))
def test_batched_solve_equals_sequential(alpha):
    for tol, (s_alpha, counts) in zip(TOLS, solve_s_alpha_sequential(alpha, TOLS)):
        ctx = solve_s_alpha(alpha, tol)
        assert _bits(ctx.s_alpha) == _bits(s_alpha), tol
        assert {k: getattr(ctx.diagnostics, k) for k in COUNTS} == counts, tol


@pytest.mark.parametrize("alpha", [6, 8, 14, 20, 40, 100, 1000])
def test_solved_ends_carry_the_signs_of_the_exact_derivative(alpha, ctx_by_alpha):
    ctx = ctx_by_alpha.get(alpha) or solve_s_alpha(alpha, 1e-12)
    value, rest = derivative_mp(alpha, ctx.s_alpha.lo)
    assert value + rest < 0, alpha
    value, rest = derivative_mp(alpha, ctx.s_alpha.hi)
    assert value - rest > 0, alpha


@pytest.mark.parametrize("alpha", [4, 6, 14, 1000])
def test_second_derivative_contains_mpmath(alpha):
    # points and seeded boxes in [t_c, 2]; at alpha 4 the bound on the
    # terms beyond ext is most of the width of E'' (8.5e-3 of E'' at 8
    # terms), so a dropped or halved bound misses the exact value
    rng = random.Random(alpha)
    t_c = _t_crit(alpha)
    points = [t_c, 2.0] + [rng.uniform(t_c, 2.0) for _ in range(3)]
    boxes = [Interval(t_c, 2.0)] + [Interval(*sorted(rng.uniform(t_c, 2.0) for _ in range(2)))
                                    for _ in range(3)]
    exact = {p: second_derivative_mp(alpha, p)
             for p in points + [p for box in boxes for p in (box.lo, box.mid, box.hi)]}
    for ext in (8, _term_count(alpha, False), _term_count(alpha, True)):
        rows = _DerivativeRows(alpha, [Interval(p) for p in points] + boxes, ext)
        for i, t in enumerate([Interval(p) for p in points] + boxes):
            d2 = rows.second(i)
            for p in {t.lo, t.mid, t.hi}:
                value, rest = exact[p]
                assert d2.lo <= value and value + rest <= d2.hi, (alpha, ext, t, p)


@pytest.mark.parametrize("alpha", [4, 12, 40])
def test_diagnostics_count_the_sequential_work(alpha, ctx_by_alpha):
    ctx = ctx_by_alpha.get(alpha) or solve_s_alpha(alpha, 1e-12)
    (_, counts), = solve_s_alpha_sequential(alpha)
    d = ctx.diagnostics
    assert {k: getattr(d, k) for k in COUNTS} == counts
    steps = d.newton_steps + d.bisection_steps
    # the cover's rows (the point 2 and the cells of [1, t_c]), then one
    # box and one point per step
    assert d.rows_evaluated == d.cover_cells + 2 * steps
    assert d.lane_batches > steps >= d.newton_steps > 0 and d.cover_cells >= 2
    # terms per row above and below width 1e-6
    assert (d.coarse_terms, d.fine_terms) == {4: (128, 704), 12: (16, 32), 40: (8, 8)}[alpha]
    # the counts are not part of the context's value
    assert ctx == PotentialContext.from_spacing(alpha, ctx.s_alpha)
    assert "diagnostics" not in repr(ctx)


def test_term_count_keeps_the_caps():
    # alpha 4 and 6 keep the 128 and 704 terms the solve always summed;
    # no alpha sums more, and larger alpha never sums more than smaller
    assert [_term_count(a, fine) for a in (4, 6) for fine in (False, True)] == \
        [128, 704, 128, 704]
    prev = (128, 704)
    for alpha in [*range(4, 401, 2), 1000, 4000, 10000, 100000]:
        counts = (_term_count(alpha, False), _term_count(alpha, True))
        assert counts[0] <= counts[1] and counts[0] <= prev[0] and counts[1] <= prev[1], alpha
        prev = counts
    assert prev == (8, 8)


def test_rows_equal_the_one_row_derivative():
    # more rows than one batch holds at 704 terms, so the terms are split
    ts = [Interval(1.0 + k / 97.0) for k in range(12)] + [Interval(1.25, 1.2509765625)]
    assert len(ts) * 704 > _LANE_ELEMENTS
    rows = _DerivativeRows(6, ts, 704)
    assert len(rows.batches) > 1
    assert all(b.lo.size <= _LANE_ELEMENTS for b in rows.batches)
    for i, t in enumerate(ts):
        assert _bits(rows.row(i)) == _bits(energy_derivative(6, t, ext=704))
