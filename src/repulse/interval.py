"""Self-contained interval arithmetic with outward rounding.

Endpoints are binary64.  Every operation returns an interval that contains
the exact image of its inputs: results of +,-,*,/ and sqrt are widened by
one ulp in each direction unless an error-free transformation proves the
float result exact (or proves the direction of its rounding error).
Elementary functions are evaluated by argument reduction plus a truncated
series whose remainder is bounded explicitly, so no correctly-rounded libm
is assumed anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

_INF = math.inf
_nextafter = math.nextafter

__all__ = [
    "DomainError", "Interval", "Lanes", "PI", "TWO_PI", "HALF_PI", "LN2", "SIXTH",
    "sin", "cos", "exp", "log", "sqrt", "sinc", "remainder_R", "s3_kernel", "pow_int", "hull",
    "lane_fold", "lane_sum",
]


class DomainError(ValueError):
    """Raised when an operation is applied outside its mathematical domain."""


def _down(x: float) -> float:
    return _nextafter(x, -_INF)


def _up(x: float) -> float:
    return _nextafter(x, _INF)


# ---------------------------------------------------------------------------
# Directed rounding via error-free transformations (no fma on this platform).
# ---------------------------------------------------------------------------

def _two_sum(a, b):
    """(a + b, its rounding error), on floats or elementwise on arrays."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


_SPLITTER = 134217729.0  # 2**27 + 1
_NO_SPLIT = 6.69692879491417e299  # overflow guard for Veltkamp splitting
_PROD_MAX = 1e300  # |a*b| above this: the split products may overflow
_PROD_MIN = 1e-290  # |a*b| below this: the error term may underflow


def _two_prod(a: float, b: float):
    """Dekker product: returns (p, e) with a*b == p + e exactly, or (p, None)
    when the splitting could overflow/underflow and e is unknown.

    When nonzero factors underflow to p == 0 the error is a*b itself, too
    small to hold; e is then +-1.0 with its sign, the only part callers use.
    """
    p = a * b
    if not math.isfinite(p):
        return p, None
    ap = abs(p)
    if ap > _PROD_MAX or (ap != 0.0 and ap < _PROD_MIN) or abs(a) > _NO_SPLIT or abs(b) > _NO_SPLIT:
        return p, None
    if ap == 0.0 and a != 0.0 and b != 0.0:
        return p, math.copysign(1.0, a) * math.copysign(1.0, b)
    ca = _SPLITTER * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLITTER * b
    bh = cb - (cb - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


# A sum that overflows from finite operands has e = NaN: its error is
# unknown, so it steps outward, to the largest float on the inner side.

def _add_down(a: float, b: float) -> float:
    s, e = _two_sum(a, b)
    return s if e >= 0.0 else _down(s)


def _add_up(a: float, b: float) -> float:
    s, e = _two_sum(a, b)
    return s if e <= 0.0 else _up(s)


def _sub_down(a: float, b: float) -> float:
    return _add_down(a, -b)


def _sub_up(a: float, b: float) -> float:
    return _add_up(a, -b)


def _mul_down(a: float, b: float) -> float:
    p, e = _two_prod(a, b)
    return _down(p) if e is None or e < 0.0 else p


def _mul_up(a: float, b: float) -> float:
    p, e = _two_prod(a, b)
    return _up(p) if e is None or e > 0.0 else p


def _div_err(a: float, b: float, q: float):
    """The residual r = a - q*b of the division, signed as r/b: the side of q
    on which the true quotient q + r/b lies; None if unknown.

    When a nonzero a gives q == 0 the residual is a itself, and r/b has the
    sign of a/b, as `_two_prod` signs a product that underflows.
    """
    if q == 0.0 and a != 0.0:
        return math.copysign(1.0, a) * math.copysign(1.0, b)
    p, e = _two_prod(q, b)
    if e is None:
        return None
    # a - p is exact by Sterbenz when p/2 <= a <= 2p (same sign); q is the
    # correctly rounded quotient so p is within a couple ulp of a.
    if a != p and ((a > 0.0) != (p > 0.0) or not 0.5 * abs(p) <= abs(a) <= 2.0 * abs(p)):
        return None
    s, t = _two_sum(0.0 if a == p else a - p, -e)
    r = s if s != 0.0 else t
    return r if b > 0.0 else -r


def _div_down(a: float, b: float) -> float:
    q = a / b
    r = _div_err(a, b, q)
    return _down(q) if r is None or r < 0.0 else q


def _div_up(a: float, b: float) -> float:
    q = a / b
    r = _div_err(a, b, q)
    return _up(q) if r is None or r > 0.0 else q


def _sqrt_down(x: float) -> float:
    s = math.sqrt(x)
    if Fraction(s) * Fraction(s) <= Fraction(x):
        return s
    return _down(s)


def _sqrt_up(x: float) -> float:
    s = math.sqrt(x)
    if Fraction(s) * Fraction(s) >= Fraction(x):
        return s
    return _up(s)


def _float_down(fr: Fraction) -> float:
    f = float(fr)
    return f if Fraction(f) <= fr else _down(f)


def _float_up(fr: Fraction) -> float:
    f = float(fr)
    return f if Fraction(f) >= fr else _up(f)


# ---------------------------------------------------------------------------
# The interval type.
# ---------------------------------------------------------------------------

class Interval:
    """Closed interval [lo, hi] with outward-rounded binary64 endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if not lo <= hi:
            raise ValueError(f"invalid interval endpoints [{lo!r}, {hi!r}]")
        if lo == _INF or hi == -_INF:
            raise ValueError("interval endpoints out of range")
        self.lo = lo
        self.hi = hi

    @classmethod
    def _raw(cls, lo: float, hi: float) -> "Interval":
        iv = object.__new__(cls)
        iv.lo = lo
        iv.hi = hi
        return iv

    @classmethod
    def from_fraction(cls, lo, hi=None) -> "Interval":
        """Tightest interval containing the exact rational(s)."""
        flo = Fraction(lo)
        fhi = flo if hi is None else Fraction(hi)
        return cls._raw(_float_down(flo), _float_up(fhi))

    # -- basic queries ------------------------------------------------------

    @property
    def width(self) -> float:
        return _sub_up(self.hi, self.lo)

    @property
    def mid(self) -> float:
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        if m < self.lo:
            m = self.lo
        if m > self.hi:
            m = self.hi
        return m

    @property
    def mag(self) -> float:
        """max |x| over the interval."""
        return max(-self.lo, self.hi)

    @property
    def mig(self) -> float:
        """min |x| over the interval."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return -self.hi if self.hi < 0.0 else self.lo

    def contains(self, x) -> bool:
        if isinstance(x, Fraction):
            return Fraction(self.lo) <= x <= Fraction(self.hi)
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise DomainError("empty intersection")
        return Interval._raw(lo, hi)

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Interval):
            return x
        if isinstance(x, (int, float)):
            x = float(x)
            return Interval._raw(x, x)
        if isinstance(x, Fraction):
            return Interval.from_fraction(x)
        return NotImplemented

    def __add__(self, other):
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval._raw(_add_down(self.lo, o.lo), _add_up(self.hi, o.hi))

    __radd__ = __add__

    def __neg__(self):
        return Interval._raw(-self.hi, -self.lo)

    def __sub__(self, other):
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval._raw(_sub_down(self.lo, o.hi), _sub_up(self.hi, o.lo))

    def __rsub__(self, other):
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b, c, d = self.lo, self.hi, o.lo, o.hi
        if a >= 0.0:
            if c >= 0.0:
                return Interval._raw(_mul_down(a, c), _mul_up(b, d))
            if d <= 0.0:
                return Interval._raw(_mul_down(b, c), _mul_up(a, d))
            return Interval._raw(_mul_down(b, c), _mul_up(b, d))
        if b <= 0.0:
            if c >= 0.0:
                return Interval._raw(_mul_down(a, d), _mul_up(b, c))
            if d <= 0.0:
                return Interval._raw(_mul_down(b, d), _mul_up(a, c))
            return Interval._raw(_mul_down(a, d), _mul_up(a, c))
        if c >= 0.0:
            return Interval._raw(_mul_down(a, d), _mul_up(b, d))
        if d <= 0.0:
            return Interval._raw(_mul_down(b, c), _mul_up(a, c))
        return Interval._raw(
            min(_mul_down(a, d), _mul_down(b, c)),
            max(_mul_up(a, c), _mul_up(b, d)),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        c, d = o.lo, o.hi
        if c <= 0.0 <= d:
            raise DomainError("division by an interval containing 0")
        a, b = self.lo, self.hi
        if c > 0.0:
            if a >= 0.0:
                return Interval._raw(_div_down(a, d), _div_up(b, c))
            if b <= 0.0:
                return Interval._raw(_div_down(a, c), _div_up(b, d))
            return Interval._raw(_div_down(a, c), _div_up(b, c))
        if a >= 0.0:
            return Interval._raw(_div_down(b, d), _div_up(a, c))
        if b <= 0.0:
            return Interval._raw(_div_down(b, c), _div_up(a, d))
        return Interval._raw(_div_down(b, d), _div_up(a, d))

    def __rtruediv__(self, other):
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return pow_int(self, k)

    def __abs__(self):
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return Interval._raw(-self.hi, -self.lo)
        return Interval._raw(0.0, self.mag)


ZERO = Interval._raw(0.0, 0.0)
ONE = Interval._raw(1.0, 1.0)
UNIT = Interval._raw(-1.0, 1.0)


def hull(a: Interval, b: Interval) -> Interval:
    return Interval._raw(min(a.lo, b.lo), max(a.hi, b.hi))


# ---------------------------------------------------------------------------
# Integer powers (monotone by parity, never naive repeated self-multiply).
# ---------------------------------------------------------------------------

def _known_unit(x: float) -> bool:
    """Does _two_prod(1.0, x) know its error?  It is then 0 and 1.0 * x is x."""
    return (x == 0.0 or abs(x) >= _PROD_MIN) and abs(x) <= _NO_SPLIT


def _unit_down(x: float) -> float:
    """_mul_down(1.0, x) without the product."""
    return x if _known_unit(x) else _down(x)


def _unit_up(x: float) -> float:
    """_mul_up(1.0, x) without the product."""
    return x if _known_unit(x) else _up(x)


def _pow_dir(x, k: int, mul, unit):
    """x**k for x >= 0 and k >= 1, every product rounded by the directed `mul`
    (_mul_down/_mul_up, or _vmul_rows on stacked lanes); the chain starts from
    its first factor x**(2**j) as `unit` gives it, rounded as mul(1.0, .)."""
    acc = None
    while True:
        if k & 1:
            acc = unit(x) if acc is None else mul(acc, x)
        k >>= 1
        if not k:
            return acc
        x = mul(x, x)


def pow_int(a, k: int):
    """a**k for a nonnegative integer exponent k; `a` is an Interval or Lanes."""
    if k < 0:
        raise DomainError("pow_int requires a nonnegative exponent")
    if k == 0:
        return Lanes(np.ones_like(a.lo)) if isinstance(a, Lanes) else ONE
    if k == 1:
        return a
    if isinstance(a, Lanes):
        with np.errstate(all="ignore"):
            return Lanes(*_vpow(a.lo, a.hi, k))
    if k % 2 == 0:
        return Interval._raw(_pow_dir(a.mig, k, _mul_down, _unit_down),
                             _pow_dir(a.mag, k, _mul_up, _unit_up))
    if a.lo >= 0.0:
        return Interval._raw(_pow_dir(a.lo, k, _mul_down, _unit_down),
                             _pow_dir(a.hi, k, _mul_up, _unit_up))
    if a.hi <= 0.0:
        return Interval._raw(-_pow_dir(-a.lo, k, _mul_up, _unit_up),
                             -_pow_dir(-a.hi, k, _mul_down, _unit_down))
    return Interval._raw(-_pow_dir(-a.lo, k, _mul_up, _unit_up),
                         _pow_dir(a.hi, k, _mul_up, _unit_up))


# ---------------------------------------------------------------------------
# Interval lanes: the rational core on numpy endpoint arrays.
#
# Each operand's endpoints are the rows of one (2, ...) stack, and an
# operation runs its error-free transformation once on the stacks: row 0
# rounds down and row 1 up, by one np.nextafter (_vround).  Each row repeats
# its scalar twin above operation for operation, so a lane's endpoints equal
# the scalar result bit for bit.  Branches become masks; every branch is
# computed on every lane and np.where picks.  If every lane of both factors
# is >= 0 (numerator >= 0, divisor > 0), the sign selection would pick
# [lo * lo, hi * hi] ([lo / hi, hi / lo]) on every lane, -0.0 included, so
# it is skipped.  np.where(b < a, b, a) keeps Python's min(a, b) tie rule on
# signed zeros (np.minimum does not).  Kernels may overflow or divide by zero
# on lanes whose result is discarded, so callers run them inside
# np.errstate(all="ignore").
# ---------------------------------------------------------------------------

# At index n, for a stack of n + 1 axes: e * sign > 0 where the rounding
# error e points outward, and the direction of the outward step.
_ROUND_SIGN = [np.array([-1.0, 1.0]).reshape((2,) + (1,) * n) for n in range(8)]
_ROUND_TOWARD = [np.array([-_INF, _INF]).reshape((2,) + (1,) * n) for n in range(8)]


def _stack(lo, hi, ndim: int = 0):
    """lo and hi as rows 0 and 1 of one array with at least ndim lane axes."""
    if lo.shape != hi.shape:
        lo, hi = np.broadcast_arrays(lo, hi)
    x = np.array((lo, hi))
    return x.reshape((2,) + (1,) * (ndim - lo.ndim) + lo.shape) if ndim > lo.ndim else x


def _vround(x, e, unknown=None):
    """The rows of the new array x, stepped in place one ulp outward (row 0
    down, row 1 up) where the rounding error e points outward, is NaN (as
    `_add_down` and `_add_up` read it) or `unknown`."""
    n = x.ndim - 1
    move = ~(e * _ROUND_SIGN[n] <= 0.0)
    if unknown is not None:
        move |= unknown
    return np.nextafter(x, _ROUND_TOWARD[n], out=x, where=move)


def _vtwo_prod(a, b):
    """Lanes of _two_prod: (p, e, known), with e meaningful where known."""
    p = a * b
    ap = np.abs(p)
    zero = ap == 0.0
    known = (ap <= _PROD_MAX) & (zero | (ap >= _PROD_MIN)) \
        & (np.abs(a) <= _NO_SPLIT) & (np.abs(b) <= _NO_SPLIT)
    ca = _SPLITTER * a
    ah = ca - (ca - a)
    al = a - ah
    cb = _SPLITTER * b
    bh = cb - (cb - b)
    bl = b - bh
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    if zero.any():
        e = np.where(zero & (a != 0.0) & (b != 0.0), np.sign(a) * np.sign(b), e)
    return p, e, known


def _vadd(x, y):
    """Stacked _add_down/_add_up: [x0 + y0 down, x1 + y1 up]."""
    s, e = _two_sum(x, y)
    return _vround(s, e)


def _vsub(x, y):
    return _vadd(x, -y[::-1])


def _vmul_rows(x, y):
    """Stacked _mul_down/_mul_up: [x0 * y0 down, x1 * y1 up]."""
    p, e, known = _vtwo_prod(x, y)
    return _vround(p, e, ~known)


def _vdiv_rows(x, y):
    """Stacked _div_down/_div_up: [x0 / y0 down, x1 / y1 up], by the
    residual of _div_err."""
    q = x / y
    p, e, known = _vtwo_prod(q, y)
    same = x == p
    ax, ap = np.abs(x), np.abs(p)
    known &= same | (((x > 0.0) == (p > 0.0)) & (0.5 * ap <= ax) & (ax <= 2.0 * ap))
    s, t = _two_sum(np.where(same, 0.0, x - p), -e)
    r = np.where(s != 0.0, s, t)
    r = np.where(y > 0.0, r, -r)
    zero = q == 0.0
    if zero.any():
        under = zero & (x != 0.0)
        r = np.where(under, np.sign(x) * np.sign(y), r)
        known |= under
    return _vround(q, r, ~known)


def _vunit(x):
    """Stacked _unit_down/_unit_up: 1.0 * x as _vmul_rows would round it."""
    ax = np.abs(x)
    known = (ax <= _NO_SPLIT) & ((ax >= _PROD_MIN) | (x == 0.0))
    if known.all():
        return x
    return np.nextafter(x, np.where(known, x, _ROUND_TOWARD[x.ndim - 1]))


def _vmul(x, y):
    """[a, b] * [c, d] by the sign cases of Interval.__mul__, per lane."""
    (a, b), (c, d) = x, y
    a_pos = a >= 0.0
    c_pos = c >= 0.0
    if a_pos.all() and c_pos.all():
        return _vmul_rows(x, y)
    b_neg = ~a_pos & (b <= 0.0)
    d_neg = ~c_pos & (d <= 0.0)
    out = _vmul_rows(
        np.array((np.where(a_pos, np.where(c_pos, a, b), np.where(d_neg, b, a)),
                  np.where(a_pos, np.where(d_neg, a, b), np.where(c_pos, b, a)))),
        np.array((np.where(a_pos, c, np.where(~b_neg & d_neg, c, d)),
                  np.where(a_pos, d, np.where(~b_neg & c_pos, d, c)))))
    both = ~a_pos & ~b_neg & ~c_pos & ~d_neg  # both factors straddle 0
    if both.any():
        alt = _vmul_rows(b, y)
        out = np.array((np.where(both & (alt[0] < out[0]), alt[0], out[0]),
                        np.where(both & (alt[1] > out[1]), alt[1], out[1])))
    return out


def _vdiv(x, y):
    """[a, b] / [c, d] by the sign cases of Interval.__truediv__, per lane."""
    (a, b), (c, d) = x, y
    c_pos = c > 0.0
    a_pos = a >= 0.0
    if c_pos.all() and a_pos.all():
        return _vdiv_rows(x, y[::-1])
    if ((c <= 0.0) & (0.0 <= d)).any():
        raise DomainError("division by an interval containing 0")
    b_neg = ~a_pos & (b <= 0.0)
    return _vdiv_rows(
        np.array((np.where(c_pos, a, b), np.where(c_pos, b, a))),
        np.array((np.where(c_pos, np.where(a_pos, d, c), np.where(b_neg, c, d)),
                  np.where(c_pos, np.where(b_neg, d, c), np.where(a_pos, c, d)))))


def _vpow(lo, hi, k: int):
    """[lo, hi]**k for k >= 2 by the parity cases of pow_int, per lane."""
    if k % 2 == 0:
        mag = np.where(hi > -lo, hi, -lo)
        mig = np.where(lo > 0.0, lo, np.where(hi < 0.0, -hi, 0.0))
        return _pow_dir(_stack(mig, mag), k, _vmul_rows, _vunit)
    nonneg = lo >= 0.0
    up = _pow_dir(_stack(lo, hi), k, _vmul_rows, _vunit)  # [lo^k down, hi^k up]
    if nonneg.all():
        return up
    down = _pow_dir(_stack(-hi, -lo), k, _vmul_rows, _vunit)  # [(-hi)^k down, (-lo)^k up]
    neg = ~nonneg & (hi <= 0.0)
    return np.array((np.where(nonneg, up[0], -down[1]), np.where(neg, -down[0], up[1])))


def _lane_endpoints(x):
    """(lo, hi) of a lane operand: Lanes, Interval, number or point array."""
    if isinstance(x, Lanes):
        return x.lo, x.hi
    if isinstance(x, Interval):
        return np.float64(x.lo), np.float64(x.hi)
    if isinstance(x, (int, float, np.ndarray)):
        x = np.asarray(x, dtype=float)
        return x, x
    return None


class Lanes:
    """Intervals held in lanes: numpy arrays of lower and upper endpoints.

    `+ - * /`, unary minus, `abs` and `pow_int` act lane by lane, and every lane
    equals the Interval operation on the same endpoints bit for bit.
    Operands may be Lanes, Interval, int/float or a float array (point
    lanes); shapes broadcast as in numpy.  Operands keep the scalar code's
    order: `Interval * Lanes` multiplies with the Interval on the left, while
    `float * Lanes`, like `float * Interval`, puts the lanes on the left.
    """

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None  # numpy operands defer to the reflected methods

    def __init__(self, lo, hi=None):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = self.lo if hi is None else np.asarray(hi, dtype=float)

    @classmethod
    def of(cls, intervals) -> "Lanes":
        """One lane per Interval of the sequence."""
        return cls([iv.lo for iv in intervals], [iv.hi for iv in intervals])

    @staticmethod
    def where(cond, a, b) -> "Lanes":
        """Lane-wise choice: a where cond, else b."""
        alo, ahi = _lane_endpoints(a)
        blo, bhi = _lane_endpoints(b)
        return Lanes(np.where(cond, alo, blo), np.where(cond, ahi, bhi))

    def __getitem__(self, key) -> "Lanes":
        return Lanes(self.lo[key], self.hi[key])

    def intersect(self, other) -> "Lanes":
        olo, ohi = _lane_endpoints(other)
        lo = np.where(olo > self.lo, olo, self.lo)
        hi = np.where(ohi < self.hi, ohi, self.hi)
        if np.any(lo > hi):
            raise DomainError("empty intersection")
        return Lanes(lo, hi)

    def hull(self, other) -> "Lanes":
        olo, ohi = _lane_endpoints(other)
        return Lanes(np.where(olo < self.lo, olo, self.lo), np.where(ohi > self.hi, ohi, self.hi))

    # -- arithmetic ---------------------------------------------------------

    def _apply(self, kernel, other, reflected: bool = False):
        o = _lane_endpoints(other)
        if o is None:
            return NotImplemented
        n = max(self.lo.ndim, self.hi.ndim, o[0].ndim, o[1].ndim)
        x, y = _stack(self.lo, self.hi, n), _stack(*o, n)
        with np.errstate(all="ignore"):
            return Lanes(*(kernel(y, x) if reflected else kernel(x, y)))

    def __add__(self, other):
        return self._apply(_vadd, other)

    def __radd__(self, other):
        return self._apply(_vadd, other, reflected=isinstance(other, Interval))

    def __sub__(self, other):
        return self._apply(_vsub, other)

    def __rsub__(self, other):
        return self._apply(_vsub, other, reflected=True)

    def __mul__(self, other):
        return self._apply(_vmul, other)

    def __rmul__(self, other):
        return self._apply(_vmul, other, reflected=isinstance(other, Interval))

    def __truediv__(self, other):
        return self._apply(_vdiv, other)

    def __rtruediv__(self, other):
        return self._apply(_vdiv, other, reflected=True)

    def __neg__(self):
        return Lanes(-self.hi, -self.lo)

    def __abs__(self):
        """Lanes of Interval.__abs__."""
        lo, hi = self.lo, self.hi
        nonneg = lo >= 0.0
        nonpos = ~nonneg & (hi <= 0.0)
        return Lanes(np.where(nonneg, lo, np.where(nonpos, -hi, 0.0)),
                     np.where(nonneg | (~nonpos & (hi > -lo)), hi, -lo))


def lane_fold(acc: Lanes, *terms) -> Lanes:
    """acc + t[:, 0] + u[:, 0] + ... + t[:, 1] + u[:, 1] + ... for terms t, u, ...

    Lane by lane, the K elements acc, t[:, 0], u[:, 0], ..., t[:, 1], ... are
    summed in a pairwise tree of outward-rounded Interval additions: each
    level adds the elements (0, 1), (2, 3), ... of the level below, lower
    index on the left, and an odd last element passes up unchanged: at most
    ceil(log2 K) roundings from an element to the sum.  A term given as
    (lanes, skip) stands as [-0.0, -0.0] where `skip` holds; x + (-0.0) is
    x exactly, so the term drops out there and the tree keeps its shape.
    """
    parts = [(t, None) if isinstance(t, Lanes) else t for t in terms]
    m = len(parts)
    *lanes, cols = np.broadcast_shapes(acc.lo.shape + (1,), acc.hi.shape + (1,),
                                       *(e.shape for t, _ in parts for e in (t.lo, t.hi)))
    s = np.empty((2, *lanes, 1 + m * cols))
    s[0, ..., 0], s[1, ..., 0] = acc.lo, acc.hi
    for i, (t, skip) in enumerate(parts):
        e = _stack(t.lo, t.hi)
        s[..., 1 + i::m] = e if skip is None else np.where(skip, -0.0, e)
    k = s.shape[-1]
    with np.errstate(all="ignore"):
        while k > 1:
            h = k // 2
            s[..., :h] = _vadd(s[..., 0:2 * h:2], s[..., 1:2 * h:2])
            if k % 2:
                s[..., h] = s[..., k - 1]
            k = h + k % 2
    return Lanes(s[0, ..., 0], s[1, ..., 0])


def lane_sum(acc: Interval, *terms: Lanes) -> Interval:
    """acc + t[0] + u[0] + ... + t[1] + u[1] + ... for 1-d lanes t, u, ...,
    added one term at a time, exactly as the loop of Interval additions would.

    The loops are _add_down and _add_up written out: _two_sum, then one ulp
    outward where the rounding error points outward.
    """
    lo, hi = acc.lo, acc.hi
    for v in np.column_stack([t.lo for t in terms]).ravel().tolist():
        s = lo + v
        bb = s - lo
        lo = s if (lo - (s - bb)) + (v - bb) >= 0.0 else _nextafter(s, -_INF)
    for v in np.column_stack([t.hi for t in terms]).ravel().tolist():
        s = hi + v
        bb = s - hi
        hi = s if (hi - (s - bb)) + (v - bb) <= 0.0 else _nextafter(s, _INF)
    return Interval._raw(lo, hi)


# ---------------------------------------------------------------------------
# Certified constants, built once from exact rational series.
# ---------------------------------------------------------------------------

def _atan_inv_bounds(q: int, terms: int):
    """Rational lower/upper bounds of atan(1/q) from the alternating series."""
    x = Fraction(1, q)
    x2 = x * x
    partials = []
    s = Fraction(0)
    p = x
    for k in range(terms):
        term = p / (2 * k + 1)
        s = s - term if k % 2 else s + term
        partials.append(s)
        p *= x2
    # alternating with decreasing terms: value lies between consecutive sums
    return min(partials[-1], partials[-2]), max(partials[-1], partials[-2])


def _ln2_bounds(terms: int):
    """ln 2 = 2*atanh(1/3); positive series plus a geometric tail bound."""
    x = Fraction(1, 3)
    x2 = x * x
    s = Fraction(0)
    p = x
    for k in range(terms):
        s += p / (2 * k + 1)
        p *= x2
    tail = p / ((2 * terms + 1) * (1 - x2))
    return 2 * s, 2 * (s + tail)


def _build_pi() -> Interval:
    lo5, hi5 = _atan_inv_bounds(5, 14)
    lo239, hi239 = _atan_inv_bounds(239, 6)
    return Interval.from_fraction(16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239)


PI = _build_pi()
if not (PI.lo <= math.pi <= PI.hi and PI.width <= 5e-16):  # pragma: no cover
    raise RuntimeError("pi enclosure failed self-validation")
TWO_PI = Interval._raw(_mul_down(PI.lo, 2.0), _mul_up(PI.hi, 2.0))
HALF_PI = Interval._raw(_mul_down(PI.lo, 0.5), _mul_up(PI.hi, 0.5))
LN2 = Interval.from_fraction(*_ln2_bounds(22))
SIXTH = Interval.from_fraction(Fraction(1, 6))

_INV_HALF_PI = 2.0 / math.pi
_INV_LN2 = 1.0 / math.log(2.0)


# ---------------------------------------------------------------------------
# Series machinery.
# ---------------------------------------------------------------------------

# 1/j! as raw (lo, hi) endpoints, j = 0..20; every series reads a slice of it.
_INV_FACT = [(c.lo, c.hi) for c in
             (Interval.from_fraction(Fraction(1, math.factorial(j))) for j in range(21))]
_INV_ODD_FACT = _INV_FACT[1::2]  # 1/(2j+1)!, j = 0..9

# The alternating series sum_j (-1)^j c_j s^j with s = x^2, as coefficient
# lists whose last entry is the first omitted coefficient (see _poly_alt_raw).
_SIN_C = _INV_ODD_FACT          # sin r = r * sum 1/(2j+1)! terms, j < 9
_COS_C = _INV_FACT[0::2]        # cos r = sum 1/(2j)! terms, j < 10
_SINC_C = _INV_ODD_FACT[:9]     # sinc x = sum 1/(2j+1)! terms, j < 8
_R_C = _INV_ODD_FACT[2:]        # R(x) = x^2 * sum 1/(2j+5)! terms, j < 7
# exp r = sum_j r^j / j!, j = 0..13, remainder at 1.5 * r^14/14!
_EXP_COEFFS = [Interval._raw(*c) for c in _INV_FACT[:14]]

# pi/4 plus reduction slop (k * ulp(pi/2) stays below 3e-7 for |x| <= 1e9)
_TRIG_REDUCED_MAX = 0.78545
_TRIG_POINT_MAX = 1e9


def _poly_alt_raw(s_lo: float, s_hi: float, coeffs, mag: float):
    """Raw endpoints of sum_{j<n} (-1)^j c_j s^j + [-rem, rem], n = len(coeffs) - 1.

    s = [s_lo, s_hi] is the square of a number of magnitude <= mag (so
    s_lo >= 0), and rem = c_n mag^(2n) is the first omitted term, which
    bounds the remainder of an alternating series with decreasing terms.
    """
    n = len(coeffs) - 1
    rem = _mul_up(coeffs[n][1], _pow_dir(mag, 2 * n, _mul_up, _unit_up))
    c_lo, c_hi = coeffs[n - 1]
    for j in range(n - 2, -1, -1):
        # t = s * acc, with s >= 0
        if c_lo >= 0.0:
            t_lo = _mul_down(s_lo, c_lo)
            t_hi = _mul_up(s_hi, c_hi)
        elif c_hi <= 0.0:
            t_lo = _mul_down(s_hi, c_lo)
            t_hi = _mul_up(s_lo, c_hi)
        else:
            t_lo = _mul_down(s_hi, c_lo)
            t_hi = _mul_up(s_hi, c_hi)
        b_lo, b_hi = coeffs[j]
        c_lo = _sub_down(b_lo, t_hi)
        c_hi = _sub_up(b_hi, t_lo)
    return _sub_down(c_lo, rem), _add_up(c_hi, rem)


def _reduced(x: float, k: int):
    """r = x - k*(pi/2) as raw endpoints."""
    if k == 0:
        return x, x
    if k > 0:
        return _sub_down(x, _mul_up(float(k), HALF_PI.hi)), _sub_up(x, _mul_down(float(k), HALF_PI.lo))
    return _sub_down(x, _mul_up(float(k), HALF_PI.lo)), _sub_up(x, _mul_down(float(k), HALF_PI.hi))


def _trig_series_raw(r_lo: float, r_hi: float, odd: bool):
    """sin r (odd) or cos r on the reduced range |r| <= pi/4, clamped to [-1, 1]."""
    m = max(-r_lo, r_hi)
    if m > _TRIG_REDUCED_MAX + 1e-9:
        raise AssertionError("sin/cos series argument out of reduced range")
    s_lo = 0.0 if r_lo <= 0.0 <= r_hi else min(_mul_down(r_lo, r_lo), _mul_down(r_hi, r_hi))
    s_hi = _mul_up(m, m)
    lo, hi = _poly_alt_raw(s_lo, s_hi, _SIN_C if odd else _COS_C, m)
    if odd:
        v = Interval._raw(r_lo, r_hi) * Interval._raw(lo, hi)
        lo, hi = v.lo, v.hi
    return max(lo, -1.0), min(hi, 1.0)


def _trig_point_raw(x: float, quadrant: int):
    """sin(x + quadrant * pi/2) as raw endpoints: sin x for 0, cos x for 1."""
    if x == 0.0:
        return float(quadrant), float(quadrant)
    if abs(x) > _TRIG_POINT_MAX:
        return -1.0, 1.0
    k = round(x * _INV_HALF_PI)
    r_lo, r_hi = _reduced(x, k)
    m = (k + quadrant) % 4
    lo, hi = _trig_series_raw(r_lo, r_hi, m % 2 == 0)
    return (lo, hi) if m < 2 else (-hi, -lo)


_TWO_PI_F = 2.0 * math.pi


def _crosses(a_lo: float, a_hi: float, frac: float) -> bool:
    """Does [a_lo, a_hi] possibly contain a point (k + frac) * 2*pi?"""
    k_lo = math.floor(a_lo / _TWO_PI_F - frac)
    k_hi = math.floor(a_hi / _TWO_PI_F - frac) + 1
    if k_hi - k_lo > 4:
        return True
    for k in range(k_lo, k_hi + 1):
        kf = k + frac
        c_lo = _mul_down(TWO_PI.lo, kf) if kf >= 0 else _mul_down(TWO_PI.hi, kf)
        c_hi = _mul_up(TWO_PI.hi, kf) if kf >= 0 else _mul_up(TWO_PI.lo, kf)
        if c_lo <= a_hi and c_hi >= a_lo:
            return True
    return False


def _trig(a: Interval, quadrant: int) -> Interval:
    """Enclosure of sin(x + quadrant * pi/2) over a, clamped to [-1, 1].

    The maxima lie at x = (k + 1/4 - quadrant/4) * 2pi, the minima half a
    period on.
    """
    if a.lo == a.hi:
        return Interval._raw(*_trig_point_raw(a.lo, quadrant))
    if a.hi - a.lo >= 6.3:
        return UNIT
    l1, h1 = _trig_point_raw(a.lo, quadrant)
    l2, h2 = _trig_point_raw(a.hi, quadrant)
    lo = l1 if l1 < l2 else l2
    hi = h1 if h1 > h2 else h2
    shift = 0.25 * quadrant
    if hi < 1.0 and _crosses(a.lo, a.hi, 0.25 - shift):
        hi = 1.0
    if lo > -1.0 and _crosses(a.lo, a.hi, 0.75 - shift):
        lo = -1.0
    return Interval._raw(lo, hi)


def sin(a: Interval) -> Interval:
    """Enclosure of sin over a, clamped to [-1, 1]."""
    return _trig(a, 0)


def cos(a: Interval) -> Interval:
    """Enclosure of cos over a, clamped to [-1, 1]: sin one quadrant on."""
    return _trig(a, 1)


def _exp_point_interval(x: float) -> Interval:
    if x > 709.0:
        raise DomainError("exp argument too large")
    if x < -745.0:
        return Interval._raw(0.0, 5e-324)
    k = round(x * _INV_LN2)
    r = Interval._raw(x, x) - LN2 * k
    m = r.mag
    if m > 0.3566:
        raise AssertionError("exp series argument out of reduced range")
    acc = _EXP_COEFFS[-1]
    for c in reversed(_EXP_COEFFS[:-1]):
        acc = c + r * acc
    rem = _mul_up(1.5 * _INV_FACT[14][1], _pow_dir(m, 14, _mul_up, _unit_up))
    acc = acc + Interval._raw(-rem, rem)
    lo = math.ldexp(acc.lo, k)
    hi = math.ldexp(acc.hi, k)
    if lo != 0.0 and abs(lo) < 1e-300:
        lo = _down(lo)
        hi = _up(hi)
    return Interval._raw(max(lo, 0.0), hi)


def exp(a: Interval) -> Interval:
    """Enclosure of exp over a (monotone increasing)."""
    lo = _exp_point_interval(a.lo)
    hi = _exp_point_interval(a.hi)
    return Interval._raw(lo.lo, hi.hi)


def _log_point_interval(x: float) -> Interval:
    if x <= 0.0:
        raise DomainError("log requires a positive argument")
    m, e2 = math.frexp(x)  # x = m * 2**e2, m in [0.5, 1)
    if m < 0.70710678118654757:
        m *= 2.0
        e2 -= 1
    mi = Interval._raw(m, m)
    u = (mi - 1.0) / (mi + 1.0)
    u2 = u * u
    # log m = 2 * (u + u^3/3 + u^5/5 + ...)
    acc = Interval.from_fraction(Fraction(1, 21))
    for j in range(9, 0, -1):
        acc = Interval.from_fraction(Fraction(1, 2 * j - 1)) + u2 * acc
    um = u.mag
    tail = _mul_up(_pow_dir(um, 23, _mul_up, _unit_up), 1.0 / (23.0 * (1.0 - 0.03)))
    logm = 2.0 * u * acc + Interval._raw(-2.0 * tail, 2.0 * tail)
    return logm + LN2 * e2


def log(a: Interval) -> Interval:
    """Enclosure of the natural log over a (requires a.lo > 0)."""
    if a.lo <= 0.0:
        raise DomainError("log requires a strictly positive interval")
    lo = _log_point_interval(a.lo)
    hi = _log_point_interval(a.hi)
    return Interval._raw(lo.lo, hi.hi)


def sqrt(a: Interval) -> Interval:
    """Enclosure of sqrt over a (requires a.lo >= 0)."""
    if a.lo < 0.0:
        raise DomainError("sqrt requires a nonnegative interval")
    return Interval._raw(_sqrt_down(a.lo), _sqrt_up(a.hi))


# ---------------------------------------------------------------------------
# sin(x)/x and the two cubic remainder kernels.
# ---------------------------------------------------------------------------

_SINC_RANGE = Interval._raw(-0.22, 1.0)


def _sinc_series(a: Interval) -> Interval:
    s = pow_int(a, 2)
    return Interval._raw(*_poly_alt_raw(s.lo, s.hi, _SINC_C, a.mag))


def _sinc_direct(a: Interval) -> Interval:
    return sin(a) / a


def sinc(a: Interval) -> Interval:
    """Enclosure of sin(x)/x extended by 1 at x = 0.

    Series with a certified remainder on |x| <= 1/2, direct evaluation
    outside, hulled across the pieces.
    """
    pieces = []
    if a.lo <= 0.5 and a.hi >= -0.5:
        inner = Interval._raw(max(a.lo, -0.5), min(a.hi, 0.5))
        pieces.append(_sinc_series(inner))
    if a.hi > 0.5:
        pieces.append(_sinc_direct(Interval._raw(max(a.lo, 0.5), a.hi)))
    if a.lo < -0.5:
        pieces.append(_sinc_direct(Interval._raw(a.lo, min(a.hi, -0.5))))
    out = pieces[0]
    for p in pieces[1:]:
        out = hull(out, p)
    return out.intersect(_SINC_RANGE)


_R_RANGE = Interval._raw(0.0, SIXTH.hi)


def _R_point(x: float) -> Interval:
    """Enclosure of R(|x|) at a single point; R(x) = (sin x - x + x^3/6)/x^3."""
    x = abs(x)
    xi = Interval._raw(x, x)
    if x <= 0.5:
        x2 = pow_int(xi, 2)
        poly = Interval._raw(*_poly_alt_raw(x2.lo, x2.hi, _R_C, x))
        return (x2 * poly).intersect(_R_RANGE)
    x3 = pow_int(xi, 3)
    num = sin(xi) - xi + x3 * SIXTH
    return (num / x3).intersect(_R_RANGE)


def remainder_R(a: Interval) -> Interval:
    """Enclosure of R(x) with sin x = x - x^3/6 + x^3 R(x), R(0) = 0.

    R is even, continuous and increasing in |x|, which lets the enclosure
    over an interval be built from the two extreme |x| values.
    """
    lo = _R_point(a.mig)
    hi = _R_point(a.mag)
    return Interval._raw(lo.lo, hi.hi).intersect(_R_RANGE)


def s3_kernel(a: Interval) -> Interval:
    """Enclosure of S3(u) = (u - sin u)/u^3 with S3(0) = 1/6.

    Uses the identity S3(u) = 1/6 - R(u), so S3 is decreasing in |u| and
    takes values in [0, 1/6].
    """
    return (SIXTH - remainder_R(a)).intersect(_R_RANGE)
