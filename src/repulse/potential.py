"""The repulsive potential family, lattice energies and the optimal spacing.

Everything here is certified interval arithmetic: lattice sums carry
rigorous tail enclosures, and the spacing solver proves its zero unique and
narrows its enclosure by interval Newton steps and certified signs.
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


def _check_alpha(alpha: int) -> None:
    if not isinstance(alpha, int) or alpha < 4 or alpha % 2:
        raise ValueError(f"alpha must be an even integer >= 4, got {alpha!r}")


# The largest truncation lattice_energy, energy_derivative's ext,
# first_order_residual and the coefficient tables accept.
# lattice_energy(4, 1.5, N) takes about 2 s at N = 10^6, and its enclosure
# only widens past N ~ 10^4 (8.3e-13 wide there, 8.3e-11 at 10^6).
_MAX_TRUNCATION = 10 ** 6


def _check_truncation(N: int) -> None:
    if N < 2:
        raise ValueError("lattice_energy requires N >= 2")
    if N > _MAX_TRUNCATION:
        raise ValueError(f"lattice_energy requires N <= {_MAX_TRUNCATION}")


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
    _check_alpha(alpha)
    return (_ONE / (_ONE + pow_int(x, alpha))).intersect(_UNIT_BOX)


# ---------------------------------------------------------------------------
# Rescaled potential around a certified spacing enclosure.
# ---------------------------------------------------------------------------

@dataclass
class SolveDiagnostics:
    """What one solve_s_alpha run evaluated; not part of the context's value."""

    cover_cells: int = 0  # cells certifying E'(2) > 0 and E' < 0 on [1, t_c]
    newton_steps: int = 0  # interval Newton steps on [t_c, 2]
    bisection_steps: int = 0  # cuts at m where E'' is not certified > 0
    lane_batches: int = 0  # lane evaluations of many spacing points at once
    rows_evaluated: int = 0  # spacing points put on lanes
    coarse_terms: int = 0  # terms per row in the cover and above width 1e-6
    fine_terms: int = 0  # terms per row of the steps below width 1e-6


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
    """g = f + x f'(x) = f(1 - alpha) + alpha f^2 from f (an Interval or Lanes)."""
    return f * (1.0 - alpha) + alpha * f * f


def F_deficit_over_x_sq(ctx: PotentialContext, x: Interval) -> Interval:
    """Enclosure of (F(x) - 1)/x^2 = -s^alpha x^(alpha-2) F(x), valid at 0."""
    return -ctx.s_pow_alpha * pow_int(x, ctx.alpha - 2) * F_alpha(ctx, x)


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


def _sum_f_beyond(alpha: int, t: Interval, M: int) -> Interval:
    """Enclosure of sum_{n > M} f_alpha(t n) via the midpoint rule.

    The midpoint integral equals (1/t) * int_{t(M+1/2)}^inf f, and the rule's
    error is controlled through |d^2/dx^2 f(tx)| <= alpha(alpha+1) t^2 (tx)^-(alpha+2).
    """
    Mh = M + 0.5
    A = t * Mh
    if A.lo <= 1.5:
        # fall back to the coarse power-sum bound or, where t^alpha underflows
        # or that bound is larger, to the integral bound of a decreasing f:
        # sum_{n>0} f(tn) <= (1/t) int_0^inf f <= (1/t)(1 + 1/(alpha - 1))
        bound = (alpha / ((alpha - 1) * t)).hi
        t_pow = pow_int(t, alpha)
        if t_pow.lo > 0.0:
            bound = min(bound, (power_sum_tail(alpha, M + 1) / t_pow).hi)
        return Interval(0.0, bound)
    main = _integral_f_tail(alpha, A) / t
    inv_p2 = _ONE / pow_int(A, alpha + 2)
    inv_p1 = _ONE / pow_int(A, alpha + 1)
    b_point = alpha * (alpha + 1) * pow_int(t, 2) * inv_p2
    b_int = alpha * t * inv_p1
    err = ((b_point + b_int) / 24.0).hi
    if not np.isfinite(err):
        # t^2 overflowed before it was scaled: the same bounds as
        # alpha(alpha+1)/(t^alpha Mh^(alpha+2)) and alpha/(t^alpha Mh^(alpha+1)),
        # where a t^alpha of inf gives 0
        t_pow = pow_int(t, alpha)
        b_point = alpha * (alpha + 1) / (t_pow * pow_int(Interval(Mh), alpha + 2))
        b_int = alpha / (t_pow * pow_int(Interval(Mh), alpha + 1))
        err = ((b_point + b_int) / 24.0).hi
    out = main + Interval(-err, err)
    return Interval(max(out.lo, 0.0), out.hi)


def _sum_g_beyond(alpha: int, t: Interval, M: int) -> Interval:
    """Enclosure of sum_{n > M} (f(tn) + tn f'(tn)).

    The antiderivative of g(x) = f(tx) + tx f'(tx) is x f(tx), so the
    midpoint integral is exactly -(M+1/2) f(t(M+1/2)).
    """
    Mh = M + 0.5
    A = t * Mh
    if A.lo <= 1.5:
        bound = (alpha + 1) * power_sum_tail(alpha, M + 1) / pow_int(t, alpha)
        return Interval(-bound.hi, bound.hi)
    main = -Mh * f_alpha(alpha, A)
    c2 = 1.5 * alpha * alpha + 6.0 * alpha + 5.0
    inv_p2 = _ONE / pow_int(A, alpha + 2)
    inv_p1 = _ONE / pow_int(A, alpha + 1)
    b_point = alpha * c2 * pow_int(t, 2) * inv_p2
    b_int = alpha * c2 * t * inv_p1 / (alpha + 1)
    err = ((b_point + b_int) / 24.0).hi
    return main + Interval(-err, err)


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
    _check_alpha(alpha)
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
    """E' (row) and E'' (second) at the spacings ts[i] from one lane batch of
    f_alpha(t n), rows x terms; row i is summed, in the term order of the
    one-row case, only when it is read."""

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

    def second(self, i: int) -> Interval:
        """E''(t) = (2 alpha/t) sum_{n>=1} f_n(1 - f_n)(alpha - 1 - 2 alpha f_n), t >= 1.

        A term is >= 0 where (tn)^alpha >= (alpha + 1)/(alpha - 1), so at
        every n >= 2, and at most (alpha - 1) (tn)^-alpha: the terms n > ext
        sum to [0, (alpha - 1) t^-alpha power_sum_tail(alpha, ext + 1)].
        """
        a, t = self.alpha, self.ts[i]
        S = _ZERO
        for f in self.batches:
            fi = f[i]
            S = lane_sum(S, fi * (1.0 - fi) * ((a - 1.0) - 2.0 * a * fi))
        tail = (a - 1) * power_sum_tail(a, self.ext + 1) / pow_int(t, a)
        return 2.0 * a * (S + Interval(0.0, tail.hi)) / t


def energy_derivative(alpha: int, t: Interval, *, ext: int = 128) -> Interval:
    """Enclosure of d/dt sum_n t f_alpha(t n) = sum_n (f(tn) + tn f'(tn)).

    The terms n <= ext are summed explicitly before the midpoint tail takes
    over; tighter tails let the spacing solver certify signs close to the
    minimiser.
    """
    _check_alpha(alpha)
    if not t.lo > 0.5:
        raise ValueError("energy_derivative requires t > 1/2")
    if ext < 2:
        raise ValueError("energy_derivative requires ext >= 2")
    if ext > _MAX_TRUNCATION:
        raise ValueError(f"energy_derivative requires ext <= {_MAX_TRUNCATION}")
    return _DerivativeRows(alpha, [t], ext).row(0)


def first_order_residual(ctx: PotentialContext, N: int = 128) -> Interval:
    """Enclosure of sum_{n in Z} (F(n) + n F'(n)); contains 0 at s_alpha."""
    if N < 2:
        raise ValueError("first_order_residual requires N >= 2")
    if N > _MAX_TRUNCATION:
        raise ValueError(f"first_order_residual requires N <= {_MAX_TRUNCATION}")
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
# cover of [1, t_c] and the steps down to width 1e-6 (coarse), then the
# steps below it (fine).  The last rung of each is the cap.
_COARSE_TERMS = (8, 16, 32, 64, 128)
_FINE_TERMS = _COARSE_TERMS + (256, 704)
_FINE_WIDTH = 1e-6


def _term_count(alpha: int, fine: bool) -> int:
    """Terms n <= M the spacing solve sums explicitly in one phase.

    The fewest M on the phase's ladder whose midpoint tail
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


def solve_s_alpha(alpha: int, tol: float = 1e-12) -> PotentialContext:
    """Certified enclosure, at most tol wide, of the optimal spacing s_alpha:
    the unique zero of E'(t) = d/dt sum_n t f_alpha(tn) on [1, 2].

    What is proved, and where:
    1. Every term of t E''(t) is >= 0 on [t_c, 2] (_t_crit,
       _DerivativeRows.second), and those with n >= 2 are > 0: E' is
       strictly increasing there.
    2. The cover certifies E'(2) > 0 and E' < 0 on cells of [1, t_c]
       (undecided cells are halved): E' has exactly one zero on [1, 2].
    3. Each step reads E'(m) and E''(X) from one lane batch.  Where
       E''(X) > 0 the interval Newton step X <- X & (m - E'(m)/E''(X))
       keeps the zero by the mean value theorem (Moore, Kearfott and Cloud
       2009, ch. 8); elsewhere (at large alpha f(2n) underflows and E''(X)
       reaches 0) X is cut at m on the certified sign of E'(m).
    m = 1 + sqrt((lo - 1)(hi - 1)): near 1, E' varies on the scale
    t - 1 ~ 1/alpha, so at large alpha this reaches a box where Newton
    contracts in a few steps; on a narrow X it is the midpoint.  An
    uncertified sign, or an X that stops shrinking above tol, raises
    AmbiguousSignChangeError.
    """
    _check_alpha(alpha)
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
    while hi - lo > tol:
        X, m = Interval(lo, hi), min(max(1.0 + math.sqrt((lo - 1.0) * (hi - 1.0)), lo), hi)
        ext = diag.coarse_terms if hi - lo > _FINE_WIDTH else diag.fine_terms
        rows = _DerivativeRows(alpha, [X, Interval(m)], ext, diag)
        d2, d1 = rows.second(0), rows.row(1)
        if d2.lo > 0.0:
            diag.newton_steps += 1
            step = m - d1 / d2
            new = max(lo, step.lo), min(hi, step.hi)
        else:
            diag.bisection_steps += 1
            new = {-1: (m, hi), 0: (lo, hi), 1: (lo, m)}[_sign(d1)]
        if new == (lo, hi) or new[0] > new[1]:
            raise AmbiguousSignChangeError(f"cannot narrow [{lo!r}, {hi!r}] around the zero of E'")
        lo, hi = new
    return PotentialContext.from_spacing(alpha, Interval(lo, hi), diag)


def asymptotic_s_pow_alpha(alpha: int) -> tuple[Interval, Interval]:
    """Main term alpha-2+sqrt((alpha-2)^2-3) of s_alpha^alpha and the
    rigorous bound (2 alpha/0.99^2)(alpha+1)^2/(2^(alpha-1)(alpha-1)) on the
    correction, valid for alpha >= 12."""
    _check_alpha(alpha)
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
