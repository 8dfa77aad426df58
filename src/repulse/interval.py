"""Self-contained interval arithmetic with outward rounding.

Endpoints are binary64.  Every operation returns an interval that contains
the exact image of its inputs.  A sum or difference is widened by one ulp
on the side where an error-free transformation shows its rounding error
points outward.  A product, quotient or square root is widened by one ulp
in each direction (IEEE 1788's "valid" mode), since round-to-nearest leaves
it within half an ulp of the exact value; only a zero result is kept, where
it is exact, or on the side of an underflow that the exact sign rules out.
Elementary functions are evaluated by argument reduction plus a truncated
series whose remainder is bounded explicitly, so no correctly-rounded libm
is assumed anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

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
# Directed rounding.
# ---------------------------------------------------------------------------

def _two_sum(a, b):
    """(a + b, its rounding error), on floats or elementwise on arrays."""
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


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


# A zero or NaN result p of a product or quotient: p is exact where a factor
# (the numerator) is 0, with the NaN of 0 * inf taken as 0 (IEEE 1788).
# Otherwise the exact result underflowed and has the sign of p's zero, so p
# steps outward only on the side away from it.

def _zero_down(p: float, exact: bool) -> float:
    if exact:
        return p if p == p else 0.0
    return _down(p) if math.copysign(1.0, p) < 0.0 else p


def _zero_up(p: float, exact: bool) -> float:
    if exact:
        return p if p == p else 0.0
    return _up(p) if math.copysign(1.0, p) > 0.0 else p


def _mul_down(a: float, b: float) -> float:
    p = a * b
    return _down(p) if p and p == p else _zero_down(p, not (a and b))


def _mul_up(a: float, b: float) -> float:
    p = a * b
    return _up(p) if p and p == p else _zero_up(p, not (a and b))


def _mul_raw(a: float, b: float, c: float, d: float):
    """Raw endpoints of [a, b] * [c, d], by the nine sign cases."""
    if a >= 0.0:
        if c >= 0.0:
            return _mul_down(a, c), _mul_up(b, d)
        if d <= 0.0:
            return _mul_down(b, c), _mul_up(a, d)
        return _mul_down(b, c), _mul_up(b, d)
    if b <= 0.0:
        if c >= 0.0:
            return _mul_down(a, d), _mul_up(b, c)
        if d <= 0.0:
            return _mul_down(b, d), _mul_up(a, c)
        return _mul_down(a, d), _mul_up(a, c)
    if c >= 0.0:
        return _mul_down(a, d), _mul_up(b, d)
    if d <= 0.0:
        return _mul_down(b, c), _mul_up(a, c)
    return min(_mul_down(a, d), _mul_down(b, c)), max(_mul_up(a, c), _mul_up(b, d))


def _div_down(a: float, b: float) -> float:
    q = a / b
    return _down(q) if q and q == q else _zero_down(q, not a)


def _div_up(a: float, b: float) -> float:
    q = a / b
    return _up(q) if q and q == q else _zero_up(q, not a)


def _sqrt_down(x: float) -> float:
    s = math.sqrt(x)
    return _down(s) if s else s


def _sqrt_up(x: float) -> float:
    s = math.sqrt(x)
    return _up(s) if s else s


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
        return Interval._raw(*_mul_raw(self.lo, self.hi, o.lo, o.hi))

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

def _pow_dir(x, k: int, mul):
    """x**k for x >= 0 and k >= 1, every product rounded by the directed `mul`
    (_mul_down/_mul_up, or _vmul_rows on stacked lanes); the chain starts from
    its first factor x**(2**j) as computed."""
    acc = None
    while True:
        if k & 1:
            acc = x if acc is None else mul(acc, x)
        k >>= 1
        if not k:
            return acc
        x = mul(x, x)


def pow_int(a, k: int):
    """a**k for a nonnegative integer exponent k; `a` is an Interval or Lanes."""
    if k < 0:
        raise DomainError("pow_int requires a nonnegative exponent")
    if k == 0:
        return Lanes._raw(np.ones_like(a.ends)) if isinstance(a, Lanes) else ONE
    if k == 1:
        return Lanes._raw(a.ends.copy()) if isinstance(a, Lanes) else a
    if isinstance(a, Lanes):
        with np.errstate(all="ignore"):
            return Lanes._raw(_vpow(a.ends, k))
    if k % 2 == 0:
        return Interval._raw(_pow_dir(a.mig, k, _mul_down), _pow_dir(a.mag, k, _mul_up))
    if a.lo >= 0.0:
        return Interval._raw(_pow_dir(a.lo, k, _mul_down), _pow_dir(a.hi, k, _mul_up))
    if a.hi <= 0.0:
        return Interval._raw(-_pow_dir(-a.lo, k, _mul_up), -_pow_dir(-a.hi, k, _mul_down))
    return Interval._raw(-_pow_dir(-a.lo, k, _mul_up), _pow_dir(a.hi, k, _mul_up))


# ---------------------------------------------------------------------------
# Interval lanes: the rational core on numpy endpoint arrays.
#
# A Lanes value is one (2, ...) stack of its endpoints, and an operation
# runs once on the stacks: row 0 rounds down and row 1 up, by one
# np.nextafter.  Each row repeats its scalar twin above operation for
# operation, so a lane's endpoints equal the scalar result bit for bit.
# Branches become masks; every branch is computed on every lane and np.where
# picks.  If every lane of both factors is >= 0 (numerator >= 0, divisor >
# 0), the sign selection would pick [lo * lo, hi * hi] ([lo / hi, hi / lo])
# on every lane, -0.0 included, so it is skipped.  np.where(b < a, b, a)
# keeps Python's min(a, b) tie rule on signed zeros (np.minimum does not).
# Kernels may overflow or divide by zero on lanes whose result is discarded,
# so callers run them inside np.errstate(all="ignore").
# ---------------------------------------------------------------------------

# At index n, for a stack of n + 1 axes: e * sign > 0 where the rounding
# error e points outward, the direction of the outward step, and the rows
# that step up.
_ROUND_SIGN = [np.array([-1.0, 1.0]).reshape((2,) + (1,) * n) for n in range(8)]
_ROUND_TOWARD = [np.array([-_INF, _INF]).reshape((2,) + (1,) * n) for n in range(8)]
_ROW_UP = [np.array([False, True]).reshape((2,) + (1,) * n) for n in range(8)]


def _vround(x, e):
    """The rows of the new array x, stepped in place one ulp outward (row 0
    down, row 1 up) where the rounding error e points outward or is NaN (as
    `_add_down` and `_add_up` read it)."""
    n = x.ndim - 1
    return np.nextafter(x, _ROUND_TOWARD[n], out=x, where=~(e * _ROUND_SIGN[n] <= 0.0))


def _voutward(p, *factors):
    """Lanes of _down/_up, or of _zero_down/_zero_up where p is 0 or NaN, on
    the new array p of products or quotients: stepped in place one ulp
    outward, row 0 down and row 1 up.  A zero of p is exact where one of
    `factors` (both factors, or the numerator) is 0."""
    n = p.ndim - 1
    if np.abs(p).min(initial=_INF) > 0.0:
        return np.nextafter(p, _ROUND_TOWARD[n], out=p)
    zero = ~(np.abs(p) > 0.0)
    exact = zero & reduce(np.logical_or, [f == 0.0 for f in factors])
    p = np.where(exact & (p != p), 0.0, p)
    move = ~zero | (~exact & (np.signbit(p) != _ROW_UP[n]))
    return np.nextafter(p, _ROUND_TOWARD[n], out=p, where=move)


def _vadd(x, y):
    """Stacked _add_down/_add_up: [x0 + y0 down, x1 + y1 up]."""
    s, e = _two_sum(x, y)
    return _vround(s, e)


def _vsub(x, y):
    return _vadd(x, -y[::-1])


def _vmul_rows(x, y):
    """Stacked _mul_down/_mul_up: [x0 * y0 down, x1 * y1 up]."""
    return _voutward(x * y, x, y)


def _vdiv_rows(x, y):
    """Stacked _div_down/_div_up: [x0 / y0 down, x1 / y1 up]."""
    return _voutward(x / y, x)


def _vmul(x, y):
    """[a, b] * [c, d] by the sign cases of _mul_raw, per lane."""
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


def _vpow(x, k: int):
    """[lo, hi]**k for k >= 2 by the parity cases of pow_int, per lane."""
    lo, hi = x
    if k % 2 == 0:
        mag = np.where(hi > -lo, hi, -lo)
        mig = np.where(lo > 0.0, lo, np.where(hi < 0.0, -hi, 0.0))
        return _pow_dir(np.array((mig, mag)), k, _vmul_rows)
    nonneg = lo >= 0.0
    up = _pow_dir(x, k, _vmul_rows)  # [lo^k down, hi^k up]
    if nonneg.all():
        return up
    down = _pow_dir(-x[::-1], k, _vmul_rows)  # [(-hi)^k down, (-lo)^k up]
    neg = ~nonneg & (hi <= 0.0)
    return np.array((np.where(nonneg, up[0], -down[1]), np.where(neg, -down[0], up[1])))


def _lift(x, ndim: int):
    """The endpoint array x with unit lane axes in front, to ndim axes in all."""
    return x if x.ndim >= ndim else x.reshape((2,) + (1,) * (ndim - x.ndim) + x.shape[1:])


def _ends(x, ndim: int = 1):
    """The endpoints of a Lanes, Interval, number or point array, lifted to ndim axes."""
    if isinstance(x, Lanes):
        return _lift(x.ends, ndim)
    if isinstance(x, Interval):
        return _lift(np.array((x.lo, x.hi)), ndim)
    if isinstance(x, (int, float, np.ndarray)):
        return _lift(np.array((x, x), dtype=float), ndim)
    return None


class Lanes:
    """Intervals held in lanes: one (2, ...) endpoint array `ends`, the stack
    the kernel computes on; `lo` and `hi` are views of its rows.

    `+ - * /`, unary minus, `abs` and `pow_int` act lane by lane into a new
    array, and every lane equals the Interval operation on the same endpoints
    bit for bit.  Operands may be Lanes, Interval, int/float or a float array
    (point lanes); shapes broadcast as in numpy.  Operands keep the scalar
    order: `Interval * Lanes` multiplies with the Interval on the left, while
    `float * Lanes`, like `float * Interval`, puts the lanes on the left."""

    __slots__ = ("ends",)
    __array_ufunc__ = None  # numpy operands defer to the reflected methods

    def __init__(self, lo, hi=None):
        self.ends = np.array((lo, lo if hi is None else hi), dtype=float)

    @classmethod
    def _raw(cls, ends) -> "Lanes":
        lanes = object.__new__(cls)
        lanes.ends = ends
        return lanes

    lo = property(lambda self: self.ends[0])
    hi = property(lambda self: self.ends[1])

    @classmethod
    def of(cls, intervals) -> "Lanes":
        """One lane per Interval of the sequence."""
        return cls([iv.lo for iv in intervals], [iv.hi for iv in intervals])

    @staticmethod
    def concat(parts) -> "Lanes":
        """The Lanes of `parts` side by side on the last axis, as one block."""
        return Lanes._raw(np.concatenate([p.ends for p in parts], axis=-1))

    @staticmethod
    def where(cond, a, b) -> "Lanes":
        """Lane-wise choice: a where cond, else b."""
        a = _ends(a, np.ndim(cond) + 1)
        b = _ends(b, a.ndim)
        return Lanes._raw(np.where(cond, _lift(a, b.ndim), b))

    def __getitem__(self, key) -> "Lanes":
        return Lanes._raw(self.ends[(slice(None), *np.index_exp[key])])

    def __setitem__(self, key, value: "Lanes") -> None:
        self.ends[(slice(None), *np.index_exp[key])] = value.ends

    def intersect(self, other) -> "Lanes":
        y = _ends(other, self.ends.ndim)
        x = _lift(self.ends, y.ndim)
        r = _ROUND_SIGN[x.ndim - 1]  # flips row 0: one test for max lo and min hi
        out = np.where(y * r < x * r, y, x)
        if np.any(out[0] > out[1]):
            raise DomainError("empty intersection")
        return Lanes._raw(out)

    def hull(self, other) -> "Lanes":
        y = _ends(other, self.ends.ndim)
        x = _lift(self.ends, y.ndim)
        r = _ROUND_SIGN[x.ndim - 1]  # min lo and max hi
        return Lanes._raw(np.where(y * r > x * r, y, x))

    # -- arithmetic ---------------------------------------------------------

    def _apply(self, kernel, other, reflected: bool = False):
        y = _ends(other, self.ends.ndim)
        if y is None:
            return NotImplemented
        x = _lift(self.ends, y.ndim)
        with np.errstate(all="ignore"):
            return Lanes._raw(kernel(y, x) if reflected else kernel(x, y))

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
        return Lanes._raw(-self.ends[::-1])

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
    *lanes, cols = np.broadcast_shapes(acc.lo.shape + (1,), *(t.lo.shape for t, _ in parts))
    s = np.empty((2, *lanes, 1 + m * cols))
    s[..., 0] = _lift(acc.ends, s.ndim - 1)
    for i, (t, skip) in enumerate(parts):
        s[..., 1 + i::m] = t.ends if skip is None else np.where(skip, -0.0, t.ends)
    k = s.shape[-1]
    with np.errstate(all="ignore"):
        while k > 1:
            h = k // 2
            s[..., :h] = _vadd(s[..., 0:2 * h:2], s[..., 1:2 * h:2])
            if k % 2:
                s[..., h] = s[..., k - 1]
            k = h + k % 2
    return Lanes._raw(s[..., 0])


def lane_sum(acc: Interval, *terms: Lanes) -> Interval:
    """acc + t[0] + u[0] + ... + t[1] + u[1] + ... for 1-d lanes t, u, ...,
    added one term at a time by _add_down and _add_up, exactly as the loop of
    Interval additions would."""
    lo = reduce(_add_down, np.column_stack([t.lo for t in terms]).ravel().tolist(), acc.lo)
    hi = reduce(_add_up, np.column_stack([t.hi for t in terms]).ravel().tolist(), acc.hi)
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

# Series coefficients as raw (lo, hi) endpoints, built once.
_INV_FACT = [(_float_down(f), _float_up(f))  # 1/j!, j = 0..20
             for f in (Fraction(1, math.factorial(j)) for j in range(21))]
_INV_ODD_FACT = _INV_FACT[1::2]  # 1/(2j+1)!, j = 0..9
_LOG_C = [(_float_down(f), _float_up(f))  # 1/(2j+1), j = 0..10
          for f in (Fraction(1, 2 * j + 1) for j in range(11))]

# The alternating series sum_j (-1)^j c_j s^j with s = x^2, as coefficient
# lists whose last entry is the first omitted coefficient (see _alt_raw).
_SIN_C = _INV_ODD_FACT          # sin r = r * sum 1/(2j+1)! terms, j < 9
_COS_C = _INV_FACT[0::2]        # cos r = sum 1/(2j)! terms, j < 10
_SINC_C = _INV_ODD_FACT[:9]     # sinc x = sum 1/(2j+1)! terms, j < 8
_R_C = _INV_ODD_FACT[2:]        # R(x) = x^2 * sum 1/(2j+5)! terms, j < 7

# pi/4 plus reduction slop (k * ulp(pi/2) stays below 3e-7 for |x| <= 1e9)
_TRIG_REDUCED_MAX = 0.78545
_TRIG_POINT_MAX = 1e9


def _horner_raw(x_lo: float, x_hi: float, coeffs, rem: float):
    """Raw endpoints of sum_j c_j x^j + [-rem, rem] over x = [x_lo, x_hi],
    by Horner's rule on the (lo, hi) coefficients c_j."""
    lo, hi = coeffs[-1]
    for c_lo, c_hi in coeffs[-2::-1]:
        t_lo, t_hi = _mul_raw(x_lo, x_hi, lo, hi)
        lo, hi = _add_down(c_lo, t_lo), _add_up(c_hi, t_hi)
    return _sub_down(lo, rem), _add_up(hi, rem)


def _alt_raw(s_lo: float, s_hi: float, coeffs, mag: float):
    """Raw endpoints of sum_{j<n} (-1)^j c_j s^j + [-rem, rem], n = len(coeffs) - 1.

    s = [s_lo, s_hi] is the square of a number of magnitude <= mag (so
    s_lo >= 0), and rem = c_n mag^(2n) is the first omitted term, which
    bounds the remainder of an alternating series with decreasing terms.
    Horner in -s: _mul_down(-a, b) == -_mul_up(a, b), so c + (-s)*acc
    rounds as c - s*acc.
    """
    n = len(coeffs) - 1
    return _horner_raw(-s_hi, -s_lo, coeffs[:n], _mul_up(coeffs[n][1], _pow_dir(mag, 2 * n, _mul_up)))


def _trig_series_raw(r_lo: float, r_hi: float, odd: bool):
    """sin r (odd) or cos r on the reduced range |r| <= pi/4, clamped to [-1, 1]."""
    m = max(-r_lo, r_hi)
    if m > _TRIG_REDUCED_MAX + 1e-9:
        raise AssertionError("sin/cos series argument out of reduced range")
    s_lo = 0.0 if r_lo <= 0.0 <= r_hi else min(_mul_down(r_lo, r_lo), _mul_down(r_hi, r_hi))
    s_hi = _mul_up(m, m)
    lo, hi = _alt_raw(s_lo, s_hi, _SIN_C if odd else _COS_C, m)
    if odd:
        lo, hi = _mul_raw(r_lo, r_hi, lo, hi)
    return max(lo, -1.0), min(hi, 1.0)


def _trig_point_raw(x: float, quadrant: int):
    """sin(x + quadrant * pi/2) as raw endpoints: sin x for 0, cos x for 1."""
    if x == 0.0:
        return float(quadrant), float(quadrant)
    if abs(x) > _TRIG_POINT_MAX:
        return -1.0, 1.0
    k = round(x * _INV_HALF_PI)
    t_lo, t_hi = _mul_raw(float(k), float(k), HALF_PI.lo, HALF_PI.hi)  # r = x - k*(pi/2)
    m = (k + quadrant) % 4
    lo, hi = _trig_series_raw(_sub_down(x, t_hi), _sub_up(x, t_lo), m % 2 == 0)
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
        c_lo, c_hi = _mul_raw(TWO_PI.lo, TWO_PI.hi, kf, kf)
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
    # exp r = sum_j r^j / j!, j = 0..13, remainder at 1.5 * r^14/14!
    rem = _mul_up(1.5 * _INV_FACT[14][1], _pow_dir(m, 14, _mul_up))
    lo, hi = _horner_raw(r.lo, r.hi, _INV_FACT[:14], rem)
    lo = math.ldexp(lo, k)
    hi = math.ldexp(hi, k)
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
    # log m = 2 * sum_j u^(2j+1)/(2j+1): j = 0..10, and the rest below
    # 2 |u|^23/(23 (1 - u^2)) with u^2 <= 0.0295 (|u| <= 0.1716)
    acc = Interval._raw(*_horner_raw(u2.lo, u2.hi, _LOG_C, 0.0))
    tail = _mul_up(_pow_dir(u.mag, 23, _mul_up), 1.0 / (23.0 * (1.0 - 0.03)))
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
    return Interval._raw(*_alt_raw(s.lo, s.hi, _SINC_C, a.mag))


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
        poly = Interval._raw(*_alt_raw(x2.lo, x2.hi, _R_C, x))
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
