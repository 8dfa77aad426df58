"""The repulsive potential family, lattice energies and the optimal spacing.

Everything here is certified interval arithmetic: lattice sums carry
rigorous tail enclosures, and the spacing solver proves its zero unique and
certifies the signs of E' either side of a float root.  The float root is
only a guess that those certified signs check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .interval import (
    ONE as _ONE,
    ZERO as _ZERO,
    Interval,
    Lanes,
    PI,
    cos,
    exp,
    lane_sum,
    pow_int,
    sin,
    sqrt,
)

__all__ = [
    "AmbiguousSignChangeError",
    "PotentialContext",
    "SolveDiagnostics",
    "LatticeEnergyTerms",
    "power_sum_tail",
    "f_alpha",
    "F_alpha",
    "lattice_energy",
    "closed_form_energy_alpha4",
    "energy_derivative",
    "solve_s_alpha",
    "asymptotic_s_pow_alpha",
    "first_order_residual",
]

_UNIT_BOX = Interval(0.0, 1.0)


class AmbiguousSignChangeError(RuntimeError):
    """The spacing solve could not certify the zero of E' on [1, 2] to its tol."""


def _check_alpha(alpha: int) -> int:
    """alpha, a Python or numpy integer that is even and >= 4, as an int."""
    if not isinstance(alpha, (int, np.integer)) or alpha < 4 or alpha % 2:
        raise ValueError(f"alpha must be an even integer >= 4, got {alpha!r}")
    return int(alpha)


# The largest truncation lattice_energy, energy_derivative's ext,
# first_order_residual and the coefficient tables accept.
# lattice_energy(4, 1.5, N) takes about 2 s at N = 10^6, and its enclosure
# only widens past N ~ 10^4 (8.3e-13 wide there, 8.3e-11 at 10^6).
_MAX_TRUNCATION = 10 ** 6


def _check_truncation(N: int, what: str = "lattice_energy requires N") -> None:
    if N < 2:
        raise ValueError(f"{what} >= 2")
    if N > _MAX_TRUNCATION:
        raise ValueError(f"{what} <= {_MAX_TRUNCATION}")


def _check_tol(tol: float) -> None:
    if not tol > 0.0:
        raise ValueError("tol must be positive")


def power_sum_tail(beta: int, k: int) -> Interval:
    """Upper enclosure [0, B] of sum_{n >= k} n^-beta for beta > 1, k > 0.

    B = k^-beta * (beta + k - 1)/(beta - 1), an integral comparison bound.
    """
    if beta <= 1 or k <= 0:
        raise ValueError("power_sum_tail requires beta > 1 and k > 0")
    bound = Interval(beta + k - 1) / (Interval(beta - 1) * pow_int(Interval(k), beta))
    return Interval(0.0, bound.hi)


def f_alpha(alpha: int, x: Interval) -> Interval:
    """Enclosure of 1/(1 + x^alpha) for even alpha."""
    alpha = _check_alpha(alpha)
    return (_ONE / (_ONE + pow_int(x, alpha))).intersect(_UNIT_BOX)


# ---------------------------------------------------------------------------
# Rescaled potential around a certified spacing enclosure.
# ---------------------------------------------------------------------------

@dataclass
class SolveDiagnostics:
    """What one solve_s_alpha run evaluated; not part of the context's value."""

    cover_cells: int = 0  # cells certifying E'(2) > 0 and E' < 0 on [1, t_c]
    lane_batches: int = 0  # lane evaluations of many spacing points at once
    rows_evaluated: int = 0  # spacing points put on lanes
    coarse_terms: int = 0  # terms per row of the cover
    fine_terms: int = 0  # terms per row of the bracket


@dataclass(frozen=True)
class PotentialContext:
    """alpha with certified enclosures of s_alpha and derived quantities."""

    alpha: int
    s_alpha: Interval
    s_pow_alpha: Interval
    F1: Interval
    dF1: Interval
    diagnostics: SolveDiagnostics | None = field(default=None, compare=False, repr=False)

    @classmethod
    def from_spacing(cls, alpha: int, s_alpha: Interval,
                     diagnostics: SolveDiagnostics | None = None) -> "PotentialContext":
        F1 = f_alpha(alpha, s_alpha)
        return cls(alpha, s_alpha, pow_int(s_alpha, alpha), F1, x_dF_alpha(alpha, F1), diagnostics)


def F_alpha(ctx: PotentialContext, x: Interval) -> Interval:
    """Enclosure of F(x) = 1/(1 + s^alpha x^alpha)."""
    return (_ONE / (_ONE + ctx.s_pow_alpha * pow_int(x, ctx.alpha))).intersect(_UNIT_BOX)


def x_dF_alpha(alpha: int, F):
    """x F'(x) = -alpha F(x)(1 - F(x)) from F(x) (an Interval or Lanes)."""
    return -alpha * F * (_ONE - F)


def _g_terms(alpha: int, f):
    """g = f + x f'(x) = f(1 - alpha) + alpha f^2 from f (an Interval, Lanes or float array)."""
    return f * (1.0 - alpha) + alpha * f * f


def _d2_terms(alpha: int, f):
    """f(1 - f)(alpha - 1 - 2 alpha f), the terms of t E''(t)/(2 alpha), from
    a float array f (the float root's Newton steps)."""
    return f * (1.0 - f) * ((alpha - 1.0) - 2.0 * alpha * f)


def _g_integral(Mh: float, f):
    """int_Mh^inf g(tx) dx = -Mh f(t Mh): the antiderivative of g(tx) is x f(tx)."""
    return -Mh * f


def F_deficit_over_x_sq(ctx: PotentialContext, x: Interval, F: Interval) -> Interval:
    """Enclosure of (F(x) - 1)/x^2 = -s^alpha x^(alpha-2) F(x) from F = F(x), valid at 0."""
    return -ctx.s_pow_alpha * pow_int(x, ctx.alpha - 2) * F


# ---------------------------------------------------------------------------
# Lattice energy sums with rigorous tails.
# ---------------------------------------------------------------------------

def _integral_f_tail(alpha: int, A: Interval) -> Interval:
    """Enclosure of int_A^inf du/(1 + u^alpha) for A.lo > 1.

    Expands 1/(1+u^alpha) as an alternating geometric series in u^-alpha and
    integrates term by term; truncation is bounded by the first omitted term.
    """
    acc = _ZERO
    sign = 1.0
    for j in range(1, 16):
        term = _ONE / (Interval(j * alpha - 1) * pow_int(A, j * alpha - 1))
        if sign > 0:
            acc = acc + term
        else:
            acc = acc - term
        sign = -sign
        if term.hi < 1e-40:
            return acc + Interval(-term.hi, term.hi)
    return acc + Interval(-term.hi, term.hi)


def _midpoint_error(alpha: int, t: Interval, Mh: float, c_point, c_int, d: int) -> float:
    """Midpoint-rule error of sum_{n > M} h(tn), Mh = M + 1/2, A = t Mh, where |d^2/dx^2 h(tx)|
    <= c_point t^2 (tx)^-(alpha+2): the first cell's bound plus the integral of the
    rest, (c_point t^2 A^-(alpha+2) + (c_int/d) t A^-(alpha+1))/24, c_int/d = c_point/(alpha+1)."""
    def err(b_point, b_int):  # x / 1 would step one ulp outward, as every quotient does
        return ((b_point + (b_int if d == 1 else b_int / d)) / 24.0).hi

    A = t * Mh
    e = err(c_point * pow_int(t, 2) * (_ONE / pow_int(A, alpha + 2)),
            c_int * t * (_ONE / pow_int(A, alpha + 1)))
    if math.isfinite(e):
        return e
    # t^2 overflowed before it was scaled: the same bounds as c/(t^alpha Mh^(alpha+2))
    # and c/(t^alpha Mh^(alpha+1)), where a t^alpha of inf gives 0
    t_pow = pow_int(t, alpha)
    return err(c_point / (t_pow * pow_int(Interval(Mh), alpha + 2)),
               c_int / (t_pow * pow_int(Interval(Mh), alpha + 1)))


def _coarse_bound(alpha: int, t: Interval, M: int) -> float:
    """Upper bound on sum_{n > M} f_alpha(tn): the power-sum bound or, where t^alpha
    underflows or that bound is larger, the integral bound of a decreasing f,
    sum_{n>0} f(tn) <= (1/t) int_0^inf f <= (1/t)(1 + 1/(alpha - 1))."""
    bound = (alpha / ((alpha - 1) * t)).hi
    t_pow = pow_int(t, alpha)
    if t_pow.lo > 0.0:
        bound = min(bound, (power_sum_tail(alpha, M + 1) / t_pow).hi)
    return bound


def _sum_f_beyond(alpha: int, t: Interval, M: int) -> Interval:
    """Enclosure of sum_{n > M} f_alpha(t n) via the midpoint rule: its integral is
    (1/t) int_{t(M+1/2)}^inf f, and |d^2/dx^2 f(tx)| <= alpha(alpha+1) t^2 (tx)^-(alpha+2)."""
    Mh = M + 0.5
    A = t * Mh
    if A.lo <= 1.5:
        return Interval(0.0, _coarse_bound(alpha, t, M))
    err = _midpoint_error(alpha, t, Mh, alpha * (alpha + 1), alpha, 1)
    out = _integral_f_tail(alpha, A) / t + Interval(-err, err)
    return Interval(max(out.lo, 0.0), out.hi)


def _sum_g_beyond(alpha: int, t: Interval, M: int) -> Interval:
    """Enclosure of sum_{n > M} (f(tn) + tn f'(tn)).

    The midpoint integral is _g_integral; |d^2/dx^2 g(tx)| <= c t^2 (tx)^-(alpha+2)
    with c = alpha(1.5 alpha^2 + 6 alpha + 5).  Where t(M+1/2) <= 1.5, |g| <= (alpha + 1) f.
    """
    Mh = M + 0.5
    A = t * Mh
    if A.lo <= 1.5:
        bound = ((alpha + 1) * Interval(_coarse_bound(alpha, t, M))).hi
        return Interval(-bound, bound)
    c = alpha * (1.5 * alpha * alpha + 6.0 * alpha + 5.0)
    err = _midpoint_error(alpha, t, Mh, c, c, alpha + 1)
    return _g_integral(Mh, f_alpha(alpha, A)) + Interval(-err, err)


# Terms of one lane batch (rows x terms in the spacing solve).  Larger
# batches run faster, but from 2048 up they raised the peak RSS of a process
# that solves and then relaxes by about 0.2 MB (a heap left larger by the
# bigger temporaries); 1024 does not.
_LANE_ELEMENTS = 1024


def _series(terms, start: int, stop: int) -> Interval:
    """sum_{n=start}^{stop} terms(n), added in the order of n; terms maps a
    float array of n to Lanes, called on _LANE_ELEMENTS of them at a time."""
    S = _ZERO
    for lo in range(start, stop + 1, _LANE_ELEMENTS):
        S = lane_sum(S, terms(np.arange(float(lo), float(min(lo + _LANE_ELEMENTS, stop + 1)))))
    return S


@dataclass(frozen=True)
class LatticeEnergyTerms:
    """Head of a lattice energy sum plus a rigorous remainder enclosure."""

    truncation_N: int
    head: Interval
    tail: Interval

    @property
    def total(self) -> Interval:
        return self.head + self.tail


def lattice_energy(alpha: int, t: Interval, N: int = 64) -> LatticeEnergyTerms:
    """Enclosure of sum_{n in Z} t f_alpha(t n), split head (|n| <= N) + tail.

    The remainder is enclosed by summing explicit terms out to 2N and then
    applying the midpoint-rule tail, which keeps the enclosure width near
    the head's rounding noise even at alpha = 4.
    """
    alpha = _check_alpha(alpha)
    if not t.lo > 0.0:
        raise ValueError("lattice_energy requires t > 0")
    _check_truncation(N)

    def f(n):
        return f_alpha(alpha, t * Lanes(n))

    head = t * (1.0 + 2.0 * _series(f, 1, N))
    rem = t * (2.0 * (_series(f, N + 1, 2 * N) + _sum_f_beyond(alpha, t, 2 * N)))
    tail = Interval(max(rem.lo, 0.0), rem.hi)
    return LatticeEnergyTerms(truncation_N=N, head=head, tail=tail)


_SQRT2 = sqrt(Interval(2.0))


def closed_form_energy_alpha4(t: Interval) -> Interval:
    """Closed-form enclosure of the alpha = 4 lattice energy.

    (pi/sqrt 2) * (sinh(pi sqrt2/t) + sin(pi sqrt2/t)) / (cosh(pi sqrt2/t) - cos(pi sqrt2/t)),
    used as an independent oracle for lattice_energy at alpha = 4.
    """
    if not t.lo > 0.0:
        raise ValueError("closed_form_energy_alpha4 requires t > 0")
    x = PI * _SQRT2 / t
    ex = exp(x)
    emx = exp(-x)
    sinh_x = 0.5 * (ex - emx)
    cosh_x = 0.5 * (ex + emx)
    num = sinh_x + sin(x)
    den = cosh_x - cos(x)
    return (PI / _SQRT2) * num / den


class _DerivativeRows:
    """E' at the spacings ts[i] from one lane batch of f_alpha(t n), rows x
    terms; row i is summed, in the term order of the one-row case, only when
    it is read."""

    def __init__(self, alpha: int, ts: list[Interval], ext: int,
                 diag: SolveDiagnostics | None = None):
        self.alpha, self.ts, self.ext = alpha, ts, ext
        t = Lanes([[x.lo] for x in ts], [[x.hi] for x in ts])
        step = max(1, _LANE_ELEMENTS // len(ts))
        ns = (np.arange(lo, min(lo + step, ext + 1), dtype=float) for lo in range(1, ext + 1, step))
        self.batches = [f_alpha(alpha, t * Lanes(n)) for n in ns]
        if diag is not None:
            diag.lane_batches += 1
            diag.rows_evaluated += len(ts)

    def row(self, i: int) -> Interval:
        """E'(t) = 1 + 2 sum_{n>=1} g(tn), g = f(1 - alpha) + alpha f^2."""
        S = _ZERO
        for f in self.batches:
            S = lane_sum(S, _g_terms(self.alpha, f[i]))
        return 1.0 + 2.0 * (S + _sum_g_beyond(self.alpha, self.ts[i], self.ext))


def energy_derivative(alpha: int, t: Interval, *, ext: int = 128) -> Interval:
    """Enclosure of d/dt sum_n t f_alpha(t n) = sum_n (f(tn) + tn f'(tn)).

    The terms n <= ext are summed explicitly before the midpoint tail takes
    over; tighter tails let the spacing solver certify signs close to the
    minimiser.
    """
    alpha = _check_alpha(alpha)
    if not t.lo > 0.5:
        raise ValueError("energy_derivative requires t > 1/2")
    _check_truncation(ext, "energy_derivative requires ext")
    return _DerivativeRows(alpha, [t], ext).row(0)


def first_order_residual(ctx: PotentialContext, N: int = 128) -> Interval:
    """Enclosure of sum_{n in Z} (F(n) + n F'(n)); contains 0 at s_alpha."""
    _check_truncation(N, "first_order_residual requires N")
    alpha = ctx.alpha
    S = _series(lambda n: _g_terms(alpha, F_alpha(ctx, Lanes(n))), 1, N)
    bound = (2.0 * (alpha + 1) * power_sum_tail(alpha, N + 1) / ctx.s_pow_alpha).hi
    return 1.0 + 2.0 * S + Interval(-bound, bound)


# ---------------------------------------------------------------------------
# Certified solve for the optimal spacing.
# ---------------------------------------------------------------------------

_MAX_COVER_CELLS = 256  # to certify E'(2) > 0 and E' < 0 on [1, t_c]


def _sign(d: Interval) -> int:
    return -1 if d.hi < 0.0 else 1 if d.lo > 0.0 else 0


def _t_crit(alpha: int) -> float:
    """A float t_c with (alpha - 1) t_c^alpha >= alpha + 1, as pow_int
    certifies: from t_c on, every term of t E''(t) is >= 0."""
    t = ((alpha + 1) / (alpha - 1)) ** (1.0 / alpha)
    while ((alpha - 1) * pow_int(Interval(t), alpha)).lo < alpha + 1:
        t = float(np.nextafter(t, 2.0))
    return t


# The solve's term-count ladders and the tail widths they aim for: the
# cover of [1, t_c] (coarse) and the bracket around the float root (fine).
# The last rung of each is the cap.
_COARSE_TERMS = (8, 16, 32, 64, 128)
_FINE_TERMS = _COARSE_TERMS + (256, 704)


def _term_count(alpha: int, fine: bool) -> int:
    """Terms n <= M the spacing solve sums explicitly in the cover (coarse)
    or the bracket (fine).

    The fewest M on the ladder whose midpoint tail
    _sum_g_beyond(alpha, 1, M) is at most 1e-12 (coarse) or 1e-18 (fine)
    wide, else the ladder's last.  Any M >= 2 gives a rigorous enclosure; M
    only sets how tight it is.  Both error terms of the tail scale like
    t^-alpha, so its width at t = 1 bounds its width on all of [1, 2].
    """
    ladder, width = (_FINE_TERMS, 1e-18) if fine else (_COARSE_TERMS, 1e-12)
    for M in ladder[:-1]:
        tail = _sum_g_beyond(alpha, _ONE, M)
        if tail.hi - tail.lo <= width:
            return M
    return ladder[-1]


_MAX_FLOAT_STEPS = 100  # bisection alone halves [t_c, 2] to one ulp in 53


def _float_root(alpha: int, lo: float, hi: float, M: int) -> float:
    """A float zero of E' on [lo, hi], where E' is increasing and changes sign.

    E' and E'' are summed in float64 over n <= M, E' with the midpoint
    integral _g_integral beyond M.  A Newton step that leaves the bracket
    is replaced by the solve's cut m = 1 + sqrt((lo - 1)(hi - 1)); the walk
    stops where a step leaves t unmoved, or where m, too, lies outside.
    Nothing here is certified: the solve proves the signs around the result.
    """
    x = np.append(np.arange(1.0, M + 1.0), M + 0.5)
    t = lo
    for _ in range(_MAX_FLOAT_STEPS):
        with np.errstate(over="ignore"):  # (tx)^alpha = inf gives f = 0
            f = 1.0 / (1.0 + (t * x) ** alpha)
        d1 = 1.0 + 2.0 * float(_g_terms(alpha, f[:-1]).sum() + _g_integral(M + 0.5, f[-1]))
        if d1 == 0.0:
            return t
        lo, hi = (t, hi) if d1 < 0.0 else (lo, t)
        d2 = 2.0 * alpha * float(_d2_terms(alpha, f[:-1]).sum()) / t
        step = t - d1 / d2 if d2 > 0.0 else math.nan
        if step == t:
            return t
        if not lo < step < hi:
            step = 1.0 + math.sqrt((lo - 1.0) * (hi - 1.0))
            if not lo < step < hi:
                return t
        t = step
    return t


def solve_s_alpha(alpha: int, tol: float = 1e-12) -> PotentialContext:
    """Certified enclosure, at most tol wide, of the optimal spacing s_alpha:
    the unique zero of E'(t) = d/dt sum_n t f_alpha(tn) on [1, 2].

    What is proved, and where:
    1. Every term of t E''(t) = 2 alpha sum_n f_n(1 - f_n)(alpha - 1 - 2 alpha f_n)
       is >= 0 on [t_c, 2] (_t_crit), and those with n >= 2 are > 0: E' is
       strictly increasing there.
    2. The cover certifies E'(2) > 0 and E' < 0 on cells of [1, t_c]
       (undecided cells are halved): E' has exactly one zero on [1, 2].
    3. The bracket: around a float zero s of E' (_float_root), one lane
       batch evaluates E' at a = max(t_c, s - h) and b = min(2, s + h), for
       h = tol/4 and then, if that does not certify, h = (tol - ulp(s))/2.
       Where it certifies E'(a) < 0 < E'(b) and 0 < b - a <= tol, [a, b]
       holds the zero (the standard verification of an approximate root:
       Rump, "Verification methods", Acta Numerica 19, 2010).
    If neither width certifies, the solve raises AmbiguousSignChangeError:
    a tol below the bracket's resolution (about 5.8e-14 at alpha 4, 2.9e-14
    at 6, 9.4e-15 at 8, 2.2e-15 at 10, and 2 to 6 ulps of s from 12 on)
    exits there.
    """
    alpha = _check_alpha(alpha)
    _check_tol(tol)
    diag = SolveDiagnostics(coarse_terms=_term_count(alpha, False),
                            fine_terms=_term_count(alpha, True))
    lo, hi = _t_crit(alpha), 2.0
    cells = [(Interval(2.0), 1), (Interval(1.0, lo), -1)]  # (cell, sign E' must have)
    while cells:
        diag.cover_cells += len(cells)
        if diag.cover_cells > _MAX_COVER_CELLS:
            raise AmbiguousSignChangeError("cannot certify E'(2) > 0 and E' < 0 on [1, t_c]")
        rows = _DerivativeRows(alpha, [c for c, _ in cells], diag.coarse_terms, diag)
        cells = [(half, want) for i, (c, want) in enumerate(cells) if _sign(rows.row(i)) != want
                 for half in (Interval(c.lo, c.mid), Interval(c.mid, c.hi))]
    s = _float_root(alpha, lo, hi, diag.fine_terms)
    # h = tol/4, then just under tol/2: rounding a and b adds up to an ulp of s to b - a
    for h in (tol / 4, (tol - math.ulp(s)) / 2):
        a, b = max(lo, s - h), min(hi, s + h)
        if not 0.0 < b - a <= tol:
            continue
        rows = _DerivativeRows(alpha, [Interval(a), Interval(b)], diag.fine_terms, diag)
        if _sign(rows.row(0)) < 0 < _sign(rows.row(1)):
            return PotentialContext.from_spacing(alpha, Interval(a, b), diag)
    raise AmbiguousSignChangeError(f"cannot narrow the zero of E' near {s!r} to tol {tol!r}")


def asymptotic_s_pow_alpha(alpha: int) -> tuple[Interval, Interval]:
    """Main term alpha-2+sqrt((alpha-2)^2-3) of s_alpha^alpha and the
    rigorous bound (2 alpha/0.99^2)(alpha+1)^2/(2^(alpha-1)(alpha-1)) on the
    correction, valid for alpha >= 12."""
    alpha = _check_alpha(alpha)
    if alpha < 12:
        raise ValueError("asymptotic form requires alpha >= 12")
    main = (alpha - 2) + sqrt(pow_int(Interval(float(alpha - 2)), 2) - 3.0)
    g = (
        Interval(2 * alpha)
        * Interval(10000)
        / Interval(9801)
        * Interval((alpha + 1) ** 2)
        / (pow_int(Interval(2.0), alpha - 1) * (alpha - 1))
    )
    return main, Interval(0.0, g.hi)
