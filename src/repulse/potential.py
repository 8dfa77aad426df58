"""The repulsive potential family, lattice energies and the optimal spacing.

Everything here is certified interval arithmetic: lattice sums carry
rigorous tail enclosures, and the spacing solver only narrows its bracket
on sign-certified derivative evaluations.
"""

from __future__ import annotations

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
    """The derivative sign pattern on [1, 2] could not be certified unique."""


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

    scan_cells: int = 0  # cells of the scan tree on [1, 2]
    bisection_steps: int = 0  # centre midpoints read
    off_centre_retries: int = 0
    lane_batches: int = 0  # lane evaluations of many spacing points at once
    rows_evaluated: int = 0  # spacing points put on lanes
    rows_used: int = 0  # rows whose sign was read
    coarse_terms: int = 0  # terms per row in the scan and above width 1e-6
    fine_terms: int = 0  # terms per row of the bisection below width 1e-6


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
    """energy_derivative at the spacings ts[i]: lanes of rows x terms.

    The terms of every row are computed at once; row i is summed, in the
    term order of the one-row case, only when row(i) is read.
    """

    def __init__(self, alpha: int, ts: list[Interval], ext: int,
                 diag: SolveDiagnostics | None = None):
        self.alpha, self.ts, self.ext, self.diag = alpha, ts, ext, diag
        t = Lanes([[x.lo] for x in ts], [[x.hi] for x in ts])
        step = max(1, _LANE_ELEMENTS // len(ts))
        self.batches = []
        for start in range(1, ext + 1, step):
            n = Lanes(np.arange(start, min(start + step, ext + 1), dtype=float))
            self.batches.append(_g_terms(alpha, f_alpha(alpha, t * n)))
        if diag is not None:
            diag.lane_batches += 1
            diag.rows_evaluated += len(ts)

    def row(self, i: int) -> Interval:
        if self.diag is not None:
            self.diag.rows_used += 1
        S = _ZERO
        for terms in self.batches:
            S = lane_sum(S, terms[i])
        return 1.0 + 2.0 * (S + _sum_g_beyond(self.alpha, self.ts[i], self.ext))


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

_SPECULATION = 8  # predicted bisection midpoints per lane batch


def _sign(d: Interval) -> int:
    return -1 if d.hi < 0.0 else 1 if d.lo > 0.0 else 0


def _scan_resolution(alpha: int) -> float:
    """Width of the finest scan cell: 2^-ceil(log2 alpha), at most 1/1024.

    Near t = 1 the derivative varies on a scale of 1/alpha, so a coarser
    cell next to 1 stays undecided while the cells after it are negative.
    """
    return 2.0 ** -max(10, (alpha - 1).bit_length())


def _scan_bracket(alpha: int, max_cells: int, ext: int, diag: SolveDiagnostics):
    """Classify derivative signs on [1, 2]; return the unique sign-change cell.

    Subdivides one level of cells per lane batch down to the resolution; a
    valid outcome is a sorted sign pattern -1 ... (0s) ... +1 with a single
    undecided run, whose hull brackets the minimiser.  Also returns
    (centre, derivative midpoint) of the leaves next to the bracket.  Each
    row sums ext terms.
    """
    resolution = _scan_resolution(alpha)
    level = [(1.0, 2.0)]
    out = []
    while level:
        diag.scan_cells += len(level)
        if diag.scan_cells > max_cells:
            raise AmbiguousSignChangeError("scan budget exhausted on [1, 2]")
        rows = _DerivativeRows(alpha, [Interval(lo, hi) for lo, hi in level], ext, diag)
        split = []
        for i, (lo, hi) in enumerate(level):
            d = rows.row(i)
            s = _sign(d)
            if s != 0 or hi - lo <= resolution:
                out.append((lo, hi, s, d.mid))
            else:
                m = 0.5 * (lo + hi)
                split += [(lo, m), (m, hi)]
        level = split
    out.sort()
    signs = [s for (_, _, s, _) in out]
    if -1 not in signs or 1 not in signs:
        raise AmbiguousSignChangeError("no certified sign change of the derivative in [1, 2]")
    if signs != sorted(signs):
        raise AmbiguousSignChangeError("ambiguous sign-change count in [1, 2]")
    below = [leaf for leaf in out if leaf[2] < 0][-1]
    above = next(leaf for leaf in out if leaf[2] > 0)
    if above[0] <= below[1]:
        raise AmbiguousSignChangeError("empty sign-change bracket")
    return below[1], above[0], [(0.5 * (lo + hi), dm) for lo, hi, _, dm in (below, above)]


# The solve's term-count ladders and the tail widths they aim for: the scan
# and the bisection down to width 1e-6 (coarse), then the bisection below it
# (fine).  The last rung of each is the cap.
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


def solve_s_alpha(alpha: int, tol: float = 1e-12, max_cells: int = 1024) -> PotentialContext:
    """Certified enclosure of the optimal spacing s_alpha on [1, 2].

    Verifies a unique derivative sign change by subdivision, then bisects
    on certified signs until the enclosure width is <= tol.  Each lane
    batch evaluates the next midpoints along the path that the secant
    through the nearest evaluated points either side predicts; the walk
    reads them while it stays on that path, so every step is the
    sequential bisection's.  A centre whose sign is undecided is retried
    off centre, one point at a time.

    Each derivative sums the terms n <= M explicitly, M from _term_count:
    the fewest on the ladder 8, 16, ..., 128 whose tail at t = 1 is at
    most 1e-12 wide in the scan and above width 1e-6, and the fewest on
    8, ..., 128, 256, 704 whose tail is at most 1e-18 wide below it.  So
    alpha 4 and 6 sum 128 and 704 terms, alpha >= 22 sums 8 in both, and
    no alpha sums more than 128 and 704.  The diagnostics record both.
    """
    _check_alpha(alpha)
    _check_tol(tol)
    diag = SolveDiagnostics(coarse_terms=_term_count(alpha, False),
                            fine_terms=_term_count(alpha, True))

    def ext_at(width: float) -> int:
        return diag.coarse_terms if width > _FINE_WIDTH else diag.fine_terms

    lo, hi, (below, above) = _scan_bracket(alpha, max_cells, diag.coarse_terms, diag)
    while hi - lo > tol:
        ext = ext_at(hi - lo)
        (t0, d0), (t1, d1) = below, above  # d0 < 0 < d1: their signs are certified
        guess = t0 - d0 * (t1 - t0) / (d1 - d0)
        path = []
        a, b = lo, hi
        while len(path) < _SPECULATION and b - a > tol and ext_at(b - a) == ext:
            m = 0.5 * (a + b)
            path.append((a, b, m))
            a, b = (m, b) if m < guess else (a, m)
        rows = _DerivativeRows(alpha, [Interval(m) for _, _, m in path], ext, diag)
        for i, (a, b, m) in enumerate(path):
            if (a, b) != (lo, hi):
                break  # the walk left the predicted path
            diag.bisection_steps += 1
            d = rows.row(i)
            if _sign(d) == 0:  # an off-centre point also leaves the path
                m, d = _off_centre(alpha, lo, hi, ext, diag)
            if _sign(d) < 0:
                lo, below = m, (m, d.mid)
            else:
                hi, above = m, (m, d.mid)
    return PotentialContext.from_spacing(alpha, Interval(lo, hi), diag)


def _off_centre(alpha: int, lo: float, hi: float, ext: int, diag: SolveDiagnostics):
    """(point, derivative) of the first retry at 3/8, 5/8, 1/4, 3/4 of
    [lo, hi] whose sign is certified, one point at a time."""
    for frac in (0.375, 0.625, 0.25, 0.75):
        m = lo + frac * (hi - lo)
        diag.off_centre_retries += 1
        d = _DerivativeRows(alpha, [Interval(m)], ext, diag).row(0)
        if _sign(d):
            return m, d
    raise AmbiguousSignChangeError(f"cannot certify derivative sign below width {hi - lo:.3e}")


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
