"""The spacing solve: its proof steps against independent sums.

The solve rests on two facts: t_c from _t_crit satisfies
(alpha - 1) t_c^alpha >= alpha + 1, so every term of t E''(t) is >= 0 on
[t_c, 2]; and the returned enclosure's ends carry opposite signs of E'.
Each is checked here against exact rationals or an mpmath sum that shares
no code with the library.

The solve puts many spacing points on one lane batch; the one-point-at-a-time
solve of _oracles must give the same enclosure bit for bit and the same
counts.  From tol 1e-1 down to 1e-12 the first bracket around the float root
(half-width tol/4) certifies at every alpha tested, so the rows evaluated
are the cover's and its two ends; a tol below its resolution (alpha 4 at
1e-13) takes the second (half-width just under tol/2), whose ends must
carry the signs too.
"""

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

from _oracles import derivative_mp, solve_s_alpha_sequential

TOLS = (1e-1, 1e-3, 1e-6, 1e-9, 1e-12)
COUNTS = ("cover_cells", "rows_evaluated")


def _bits(iv):
    return iv.lo.hex(), iv.hi.hex()


def _meets_t_crit(alpha, t):
    """(alpha - 1) t^alpha >= alpha + 1, exactly."""
    return (alpha - 1) * Fraction(t) ** alpha >= alpha + 1


@pytest.mark.parametrize("alphas", [range(4, 1001, 2), (4000, 100000)], ids=["4-1000", "large"])
def test_t_crit_meets_its_inequality_within_three_ulps(alphas):
    # pow_int's chain of t^alpha steps one ulp outward per product, so the
    # certified t_c lies up to three ulps above the exact threshold
    for alpha in alphas:
        t = _t_crit(alpha)
        below = float(np.nextafter(np.nextafter(np.nextafter(t, 0.0), 0.0), 0.0))
        assert _meets_t_crit(alpha, t) and not _meets_t_crit(alpha, below), alpha


@pytest.mark.parametrize("alpha", [*range(4, 201, 2), 1000, 100000])
def test_batched_solve_equals_sequential(alpha):
    for tol, (s_alpha, counts) in zip(TOLS, solve_s_alpha_sequential(alpha, TOLS)):
        ctx = solve_s_alpha(alpha, tol)
        assert _bits(ctx.s_alpha) == _bits(s_alpha), tol
        assert {k: getattr(ctx.diagnostics, k) for k in COUNTS} == counts, tol
        assert ctx.s_alpha.hi - ctx.s_alpha.lo <= tol, tol
        # the first bracket certified: a poor float root would need the second
        assert counts["rows_evaluated"] == counts["cover_cells"] + 2, tol


def test_numpy_integer_alpha_solves_as_int():
    for alpha in (4, 6, 40):
        ctx = solve_s_alpha(np.int64(alpha))
        assert ctx == solve_s_alpha(alpha) and type(ctx.alpha) is int


def _ends_carry_the_signs(alpha, s_alpha):
    value, rest = derivative_mp(alpha, s_alpha.lo)
    assert value + rest < 0, alpha
    value, rest = derivative_mp(alpha, s_alpha.hi)
    assert value - rest > 0, alpha


@pytest.mark.parametrize("alpha", [4, 6, 8, 14, 20, 40, 100, 1000, 4000])
def test_solved_ends_carry_the_signs_of_the_exact_derivative(alpha, ctx_by_alpha):
    ctx = ctx_by_alpha.get(alpha) or solve_s_alpha(alpha, 1e-12)
    assert ctx.diagnostics.rows_evaluated == ctx.diagnostics.cover_cells + 2
    _ends_carry_the_signs(alpha, ctx.s_alpha)


@pytest.mark.parametrize("alpha, tol", [(4, 1e-13), (4, 6.2e-14), (6, 3.3e-14), (8, 1.05e-14)])
def test_ends_of_the_second_bracket_carry_the_signs(alpha, tol):
    # the first bracket needs a half-width near 2.9e-14 at alpha 4: at tol
    # 1e-13 (half-width 2.5e-14) only the second, just under tol/2, certifies
    ctx = solve_s_alpha(alpha, tol)
    d = ctx.diagnostics
    assert d.rows_evaluated == d.cover_cells + 4
    assert ctx.s_alpha.hi - ctx.s_alpha.lo <= tol
    _ends_carry_the_signs(alpha, ctx.s_alpha)


@pytest.mark.parametrize("alpha", [4, 12, 40])
def test_diagnostics_count_the_sequential_work(alpha, ctx_by_alpha):
    ctx = ctx_by_alpha.get(alpha) or solve_s_alpha(alpha, 1e-12)
    (_, counts), = solve_s_alpha_sequential(alpha)
    d = ctx.diagnostics
    assert {k: getattr(d, k) for k in COUNTS} == counts
    # the cover's rows (the point 2 and the cells of [1, t_c]), then the
    # first bracket's two ends on one batch
    assert d.rows_evaluated == d.cover_cells + 2
    assert d.lane_batches >= 2 and d.cover_cells >= 2
    # terms per row of the cover and of the bracket
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
