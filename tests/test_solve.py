"""The batched spacing solve against the sequential one, bit for bit.

The scan evaluates one level of cells per lane batch and the bisection
evaluates predicted midpoints ahead of the walk; neither may move a bit of
an enclosure, a count of the sequential solve, or the error it raises.
"""

import pytest

from repulse.interval import Interval
from repulse.potential import (
    _LANE_ELEMENTS,
    AmbiguousSignChangeError,
    PotentialContext,
    _DerivativeRows,
    _scan_resolution,
    _term_count,
    energy_derivative,
    solve_s_alpha,
)

from _oracles import solve_s_alpha_sequential

TOLS = (1e-6, 1e-9, 1e-12)
COUNTS = ("scan_cells", "bisection_steps", "off_centre_retries")


def _bits(iv):
    return iv.lo.hex(), iv.hi.hex()


def _raised(solve, *args):
    with pytest.raises(Exception) as info:
        solve(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("alpha", range(4, 201, 2))
def test_batched_solve_equals_sequential(alpha):
    want = solve_s_alpha_sequential(alpha, TOLS)
    cells = want[0][1]["scan_cells"]
    # a budget of exactly the scan tree solves, and the tree is the same
    for tol, (s_alpha, counts), max_cells in zip(TOLS, want, (cells, 1024, 1024)):
        ctx = solve_s_alpha(alpha, tol, max_cells)
        assert _bits(ctx.s_alpha) == _bits(s_alpha), tol
        assert {k: getattr(ctx.diagnostics, k) for k in COUNTS} == counts, tol
    # one cell less fails alike, before any bisection
    assert _raised(solve_s_alpha, alpha, 1e-6, cells - 1) == \
        _raised(solve_s_alpha_sequential, alpha, TOLS, cells - 1) == \
        (AmbiguousSignChangeError, "scan budget exhausted on [1, 2]")


@pytest.mark.parametrize("alpha, tol", [(12, 2e-14), (40, 1e-13)])
def test_off_centre_retries_equal_sequential(alpha, tol):
    # below 1e-12 the centre's sign can stay undecided; the retries run
    # one point at a time and leave the predicted path
    (s_alpha, counts), = solve_s_alpha_sequential(alpha, (tol,))
    ctx = solve_s_alpha(alpha, tol)
    assert counts["off_centre_retries"] > 0
    assert _bits(ctx.s_alpha) == _bits(s_alpha)
    assert {k: getattr(ctx.diagnostics, k) for k in COUNTS} == counts


def test_undecided_retries_fail_alike():
    assert _raised(solve_s_alpha, 4, 3e-14) == \
        _raised(solve_s_alpha_sequential, 4, (3e-14,)) == \
        (AmbiguousSignChangeError, "cannot certify derivative sign below width 8.527e-14")


@pytest.mark.parametrize("alpha", [4, 12, 40])
def test_diagnostics_count_the_sequential_work(alpha, ctx_by_alpha):
    ctx = ctx_by_alpha.get(alpha) or solve_s_alpha(alpha, 1e-12)
    (_, counts), = solve_s_alpha_sequential(alpha)
    d = ctx.diagnostics
    assert {k: getattr(d, k) for k in COUNTS} == counts
    # every scan cell and every step or retry is one row read
    assert d.rows_used == sum(counts.values()) <= d.rows_evaluated
    assert 0 < d.lane_batches < d.rows_used
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


def test_scan_resolution_moves_only_above_alpha_1024():
    assert all(_scan_resolution(a) == 1.0 / 1024.0 for a in range(4, 1025, 2))
    assert _scan_resolution(1026) == 1.0 / 2048.0
    assert _scan_resolution(4000) == 1.0 / 4096.0

