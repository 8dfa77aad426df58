"""Lane kernel against the scalar Interval kernel, bit for bit.

Every lane of a Lanes operation must equal the Interval operation on the
same endpoints, down to the sign of zero, so the batched certificates keep
the scalar ones' bits.
"""

import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest

from repulse.interval import (
    DomainError,
    _add_down,
    _add_up,
    Interval,
    Lanes,
    hull,
    lane_fold,
    lane_sum,
    pow_int,
)

from _oracles import lane_fold_sequential, pairwise_sum

OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
}
TINY = 5e-324


def _bits(values) -> np.ndarray:
    """int64 bit patterns, with every NaN mapped to one pattern."""
    a = np.array(values, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.view(np.int64)


def _scalar(op, xs, ys):
    out = [op(x, y) for x, y in zip(xs, ys)]
    return [v.lo for v in out], [v.hi for v in out]


def _assert_same(lanes: Lanes, lo, hi, context):
    got_lo = np.broadcast_to(lanes.lo, (len(lo),))
    got_hi = np.broadcast_to(lanes.hi, (len(hi),))
    bad = np.flatnonzero((_bits(got_lo) != _bits(lo)) | (_bits(got_hi) != _bits(hi)))
    assert bad.size == 0, [(context, i, got_lo[i].hex(), lo[i].hex(), got_hi[i].hex(), hi[i].hex())
                           for i in bad[:5]]


def _acceptance9_intervals(rng, count):
    """Points and hulls of the acceptance-9 soundness-fuzz values."""
    def scaled():
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-6, 6)

    out = []
    for i in range(count):
        x = scaled()
        if i % 3 == 0:
            out.append(Interval(x))
        else:
            y = scaled()
            out.append(Interval(min(x, y), max(x, y)))
    return out


def _edge_values():
    """Endpoints at and around magnitudes whose products underflow or
    overflow (1e-290, 1e300, 6.69692879491417e299 and their square roots),
    plus inf, zeros and subnormals."""
    base = [
        0.0, TINY, 2 * TINY, 2.2250738585072014e-308, 1e-300, 1e-290,
        math.sqrt(1e-290), math.sqrt(1e300), 1e300, 6.69692879491417e299,
        1e-160, 1e-145, 1e150, 1.0, 3.0, 0.1, 1e308, math.inf,
    ]
    vals = set()
    for v in base:
        for w in (v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)):
            vals.update((w, -w))
    return sorted(vals)


def _edge_intervals(rng, count, nonneg=False):
    vals = [v for v in _edge_values() if v >= 0.0 or not nonneg]
    out = []
    while len(out) < count:
        a, b = rng.choice(vals), rng.choice(vals)
        lo, hi = min(a, b), max(a, b)
        if lo == math.inf or hi == -math.inf:
            continue
        if rng.random() < (0.3 if nonneg else 0.05):  # signed zeros as endpoints
            lo = -0.0 if lo == 0.0 else lo
            hi = -0.0 if hi == 0.0 else hi
        out.append(Interval._raw(lo, hi))
    return out


def _nonneg_intervals(rng, count):
    """Intervals with lo >= 0 (-0.0 included): |acceptance-9 values| and edge values."""
    zeros = [Interval._raw(-0.0, -0.0), Interval._raw(-0.0, 0.0)]
    return [abs(x) for x in _acceptance9_intervals(rng, count)] + \
        _edge_intervals(rng, count, nonneg=True) + zeros


def _pairs(rng, count):
    xs = _acceptance9_intervals(rng, count) + _edge_intervals(rng, count)
    ys = _acceptance9_intervals(rng, count) + _edge_intervals(rng, count)
    rng.shuffle(ys)
    return xs, ys


def _excludes_zero(iv):
    return not iv.lo <= 0.0 <= iv.hi


@pytest.mark.parametrize("name", sorted(OPS))
def test_binary_ops_match_scalar_bits(name):
    rng = random.Random(20240817 + len(name))
    xs, ys = _pairs(rng, 6000)
    if name == "div":
        keep = [i for i, y in enumerate(ys) if _excludes_zero(y)]
        xs, ys = [xs[i] for i in keep], [ys[i] for i in keep]
    op = OPS[name]
    lo, hi = _scalar(op, xs, ys)
    _assert_same(op(Lanes.of(xs), Lanes.of(ys)), lo, hi, name)


@pytest.mark.parametrize("name", sorted(OPS))
def test_mixed_operands_keep_scalar_order(name):
    # Interval and float operands on either side of the lanes
    rng = random.Random(7)
    xs = _acceptance9_intervals(rng, 400)
    op = OPS[name]
    for other in (Interval(-0.75, 2.5), Interval(3.0), 0.1, -2, -0.0):
        if name == "div" and not _excludes_zero(Interval._coerce(other)):
            continue
        lo, hi = _scalar(op, xs, [other] * len(xs))
        _assert_same(op(Lanes.of(xs), other), lo, hi, (name, other))
        pos = [x for x in xs if _excludes_zero(x)] if name == "div" else xs
        lo, hi = _scalar(op, [other] * len(pos), pos)
        _assert_same(op(other, Lanes.of(pos)), lo, hi, (name, "reflected", other))


@pytest.mark.parametrize("name", sorted(OPS))
def test_nonnegative_operands_match_scalar_bits(name):
    # every lane of both operands >= 0 (divisors > 0): the kernels skip the sign selection
    rng = random.Random(4099 + len(name))
    xs, ys = _nonneg_intervals(rng, 3000), _nonneg_intervals(rng, 3000)
    rng.shuffle(ys)
    if name == "div":
        keep = [i for i, y in enumerate(ys) if y.lo > 0.0]
        xs, ys = [xs[i] for i in keep], [ys[i] for i in keep]
    op = OPS[name]
    lo, hi = _scalar(op, xs, ys)
    _assert_same(op(Lanes.of(xs), Lanes.of(ys)), lo, hi, name)
    for other in (Interval(0.75, 2.5), Interval(-0.0, 3.0), 0.1, 2):
        if name == "div" and not _excludes_zero(Interval._coerce(other)):
            continue
        lo, hi = _scalar(op, xs, [other] * len(xs))
        _assert_same(op(Lanes.of(xs), other), lo, hi, (name, other))


def test_pow_int_of_nonnegative_lanes_matches_scalar_bits():
    # odd powers of all-nonnegative lanes take one chain per endpoint
    xs = _nonneg_intervals(random.Random(8191), 3000)
    lanes = Lanes.of(xs)
    for k in (*range(2, 13), 41):
        out = [pow_int(x, k) for x in xs]
        _assert_same(pow_int(lanes, k), [v.lo for v in out], [v.hi for v in out], k)


def test_pow_int_matches_scalar_bits():
    rng = random.Random(11)
    xs = _acceptance9_intervals(rng, 4000) + _edge_intervals(rng, 4000)
    lanes = Lanes.of(xs)
    for k in range(0, 13):
        out = [pow_int(x, k) for x in xs]
        _assert_same(pow_int(lanes, k), [v.lo for v in out], [v.hi for v in out], k)
    for k in (40, 41, 704):
        out = [pow_int(x, k) for x in xs[:500]]
        _assert_same(pow_int(lanes[:500], k), [v.lo for v in out], [v.hi for v in out], k)


def test_neg_intersect_hull_match_scalar():
    rng = random.Random(5)
    xs = _acceptance9_intervals(rng, 500)
    lanes = Lanes.of(xs)
    neg = [-x for x in xs]
    _assert_same(-lanes, [v.lo for v in neg], [v.hi for v in neg], "neg")
    box = Interval(-0.5, 0.5)
    inside = [x for x in xs if x.overlaps(box)]
    want = [x.intersect(box) for x in inside]
    _assert_same(Lanes.of(inside).intersect(box), [v.lo for v in want], [v.hi for v in want],
                 "intersect")
    with pytest.raises(DomainError):
        Lanes.of([Interval(1.0, 2.0)]).intersect(box)


def test_abs_matches_scalar_bits():
    rng = random.Random(23)
    special = [Interval._raw(lo, hi) for lo, hi in (
        (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, 1.0), (-0.0, 2.0), (-1.0, -0.0),
        (-1.0, 0.0), (-2.0, 1.0), (-1.0, 2.0), (-1.0, 1.0), (-math.inf, 1.0),
        (-1.0, math.inf), (-math.inf, math.inf), (-math.inf, -1.0), (1.0, math.inf),
        (-math.inf, -0.0), (-0.0, math.inf), (-TINY, TINY))]
    xs = special + _acceptance9_intervals(rng, 2000) + _edge_intervals(rng, 2000)
    want = [abs(x) for x in xs]
    _assert_same(abs(Lanes.of(xs)), [v.lo for v in want], [v.hi for v in want], "abs")


def test_division_by_any_zero_lane_raises():
    good = Interval(1.0, 2.0)
    for bad in (Interval(-1.0, 1.0), Interval(0.0, 1.0), Interval(-1.0, -0.0), Interval(0.0)):
        with pytest.raises(DomainError):
            Lanes.of([good, good]) / Lanes.of([good, bad])
        with pytest.raises(DomainError):
            1.0 / Lanes.of([bad, good])


def test_lane_sum_is_the_sequential_sum():
    rng = random.Random(3)
    terms = _acceptance9_intervals(rng, 700) + [Interval(-0.0), Interval(0.0, 1e-300)]
    acc = Interval(-0.0, 0.0)
    want = acc
    for t in terms:
        want = want + t
    got = lane_sum(acc, Lanes.of(terms))
    assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex())


def test_lane_sum_interleaves_its_terms():
    rng = random.Random(31)
    t, u = _acceptance9_intervals(rng, 300), _acceptance9_intervals(rng, 300)
    acc = Interval(-1.0, 0.5)
    want = acc
    for a, b in zip(t, u):
        want = want + a + b
    got = lane_sum(acc, Lanes.of(t), Lanes.of(u))
    assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex())


def test_lane_sum_matches_the_directed_add_loop():
    # lane_sum folds its lanes with _add_down/_add_up; the fold must give
    # the loop's bits on every edge value: infinities (and the NaN of
    # inf - inf), signed zeros, subnormals and sums that overflow
    rng = random.Random(29)
    vals = _edge_values() + [1.7976931348623157e308, -1.7976931348623157e308, 8.98846567431158e307]
    for case in range(2000):
        count = rng.randint(0, 12)
        lo = [rng.choice(vals) for _ in range(count)]
        hi = [rng.choice(vals) for _ in range(count)]
        acc_lo, acc_hi = rng.choice(vals), rng.choice(vals)
        want_lo, want_hi = acc_lo, acc_hi
        for a, b in zip(lo, hi):
            want_lo = _add_down(want_lo, a)
            want_hi = _add_up(want_hi, b)
        got = lane_sum(Interval._raw(acc_lo, acc_hi), Lanes(np.array(lo, dtype=float),
                                                            np.array(hi, dtype=float)))
        assert list(_bits([got.lo, got.hi])) == list(_bits([want_lo, want_hi])), \
            (case, acc_lo, acc_hi, lo, hi)


def test_lane_fold_is_the_pairwise_sum():
    rng = random.Random(13)
    boxes, cols = 40, 9
    t = [[rng.choice(_acceptance9_intervals(rng, 1) + [Interval(-0.0), Interval(0.0)])
          for _ in range(cols)] for _ in range(boxes)]
    u = [_acceptance9_intervals(rng, cols) for _ in range(boxes)]
    skip = [[rng.random() < 0.3 for _ in range(cols)] for _ in range(boxes)]
    acc = [Interval(-0.0, 0.0) if i % 2 else Interval(-1.0, 2.0) for i in range(boxes)]
    for first in (False, True):  # lanes of -0.0 elements only: the sum keeps its sign
        t.append([Interval(-0.0)] * cols)
        u.append([Interval(0.0)] * cols)
        skip.append([(j % 2 == 0) == first for j in range(cols)])
        acc.append(Interval(-0.0))
    # the elements of each lane in fold order, a skipped term standing as -0.0
    items = [[acc[i]] + [v for j in range(cols)
                         for v in (Interval(-0.0) if skip[i][j] else t[i][j], -u[i][j])]
             for i in range(len(acc))]

    def grid(rows):
        return Lanes([[v.lo for v in r] for r in rows], [[v.hi for v in r] for r in rows])

    terms = ((grid(t), np.array(skip)), -grid(u))
    got = lane_fold(Lanes.of(acc), *terms)
    want = [pairwise_sum(row) for row in items]
    _assert_same(got, [v.lo for v in want], [v.hi for v in want], "fold")
    seq = lane_fold_sequential(Lanes.of(acc), *terms)
    bound = 2 * len(items[0]) * Fraction(2) ** -52  # K roundings each way, and then some
    for i, row in enumerate(items):
        lo, hi = Fraction(float(got.lo[i])), Fraction(float(got.hi[i]))
        los, his = [Fraction(v.lo) for v in row], [Fraction(v.hi) for v in row]
        assert lo <= sum(los) and sum(his) <= hi
        assert abs(lo - Fraction(float(seq.lo[i]))) <= bound * sum(map(abs, los))
        assert abs(hi - Fraction(float(seq.hi[i]))) <= bound * sum(map(abs, his))


def test_lanes_contain_exact_results():
    rng = random.Random(17)
    xs = _acceptance9_intervals(rng, 600)
    ys = [y for y in _acceptance9_intervals(rng, 700) if _excludes_zero(y)][:600]
    xs = xs[:len(ys)]
    lx, ly = Lanes.of(xs), Lanes.of(ys)
    exact = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
    }
    for name, op in OPS.items():
        v = op(lx, ly)
        for i, (x, y) in enumerate(zip(xs, ys)):
            # the corners of the operand boxes bound every rational op here
            for a in (Fraction(x.lo), Fraction(x.hi)):
                for b in (Fraction(y.lo), Fraction(y.hi)):
                    r = exact[name](a, b)
                    assert Fraction(float(v.lo[i])) <= r <= Fraction(float(v.hi[i])), (name, i)
    v = pow_int(lx, 5)
    for i, x in enumerate(xs):
        for a in (Fraction(x.lo), Fraction(x.hi)):
            assert Fraction(float(v.lo[i])) <= a ** 5 <= Fraction(float(v.hi[i]))


def test_kernel_sets_no_global_error_state():
    before = np.geterr()
    Lanes.of([Interval(1e308)]) * Lanes.of([Interval(1e308)])
    Lanes.of([Interval(1.0)]) / Lanes.of([Interval(1.0, math.inf)])
    assert np.geterr() == before


def test_hull_and_intersect_match_scalar_with_signed_zeros():
    rng = random.Random(41)
    zeros = [Interval._raw(lo, hi) for lo, hi in ((-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (0.0, 1.0),
                                                   (-0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0))]
    xs = zeros * len(zeros) + _acceptance9_intervals(rng, 300)
    ys = [y for y in zeros for _ in zeros] + _acceptance9_intervals(rng, 300)
    want = [hull(x, y) for x, y in zip(xs, ys)]
    _assert_same(Lanes.of(xs).hull(Lanes.of(ys)), [v.lo for v in want], [v.hi for v in want],
                 "hull")
    pairs = [(x, y) for x, y in zip(xs, ys) if x.overlaps(y)]
    want = [x.intersect(y) for x, y in pairs]
    got = Lanes.of([x for x, _ in pairs]).intersect(Lanes.of([y for _, y in pairs]))
    _assert_same(got, [v.lo for v in want], [v.hi for v in want], "intersect")


def test_lane_results_share_no_memory_with_their_operands():
    """Every lane operation writes a new endpoint array, so a write into a
    result (as certify's `_removable` and `_mean_value` make) moves no operand."""
    x = Lanes([-2.0, 0.5, 1.0], [-1.0, 2.0, 3.0])
    y = Lanes([[1.0], [2.0]], [[1.5], [4.0]])
    pts = np.array([1.0, 2.0, 3.0])
    iv = Interval(0.5, 0.75)
    acc = Lanes([0.0, 1.0], [0.5, 1.5])
    cols = Lanes([[1.0, 2.0], [3.0, 4.0]], [[1.5, 2.5], [3.5, 4.5]])
    results = [
        x + y, x - y, x * y, x / y, y - x, iv * x, x * iv, 2.0 * x, pts - x, x / pts, pts / y,
        -x, abs(x), pow_int(x, 0), pow_int(x, 1), pow_int(x, 2), pow_int(x, 3), Lanes.where(x.lo > 0.0, x, y),
        Lanes.where(x.lo > 0.0, 1.0, x), x.hull(y), x.intersect(Interval(-5.0, 5.0)),
        Lanes.concat((x, x)), lane_fold(acc, cols), lane_fold(acc, cols, (cols, cols.lo > 2.0)),
    ]
    for r in results:
        for operand in (x.ends, y.ends, pts, acc.ends, cols.ends):
            assert not np.shares_memory(r.ends, operand)


def test_writes_through_lo_and_hi_reach_the_next_operation():
    r = Lanes([1.0, 2.0, 3.0], [1.5, 2.5, 3.5]) + 1.0
    r.lo[0] = -4.0
    r.hi[1] = 8.0
    r[2] = Lanes([0.25], [0.5])[0]
    s = r + 0.0
    assert s.lo.tolist() == [-4.0, 3.0, 0.25] and s.hi.tolist() == [2.5, 8.0, 0.5]
    block = Lanes([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]]) + 0.0
    block[np.array([0, 1]), np.array([1, 0])] = Lanes([-1.0, -2.0], [5.0, 6.0])
    assert (block - 0.0).lo.tolist() == [[1.0, -1.0], [-2.0, 4.0]]
    assert (block - 0.0).hi.tolist() == [[1.0, 5.0], [6.0, 4.0]]


def test_point_lanes_have_independent_rows():
    pts = np.array([1.0, 2.0])
    x = Lanes(pts)
    x.hi[0] = 3.0
    x.lo[1] = 0.5
    assert x.lo.tolist() == [1.0, 0.5] and x.hi.tolist() == [3.0, 2.0]
    assert pts.tolist() == [1.0, 2.0]
