"""The repulsive potential family, lattice energies and the optimal spacing.

Everything here is certified interval arithmetic: lattice sums carry
rigorous tail enclosures, and the spacing solver only narrows its bracket
on sign-certified derivative evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interval import (
    DomainError,
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
    "LatticeEnergyTerms",
    "power_sum_tail",
    "f_alpha",
    "F_alpha",
    "F_alpha_prime",
    "F_alpha_second",
    "lattice_energy",
    "closed_form_energy_alpha4",
    "energy_derivative",
    "solve_s_alpha",
    "asymptotic_s_pow_alpha",
    "first_order_residual",
]

_ONE = Interval(1.0)
_ZERO = Interval(0.0)
_UNIT_BOX = Interval(0.0, 1.0)


class AmbiguousSignChangeError(RuntimeError):
    """The derivative sign pattern on [1, 2] could not be certified unique."""


def _check_alpha(alpha: int) -> None:
    if not isinstance(alpha, int) or alpha < 4 or alpha % 2:
        raise ValueError(f"alpha must be an even integer >= 4, got {alpha!r}")


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

@dataclass(frozen=True)
class PotentialContext:
    """alpha with certified enclosures of s_alpha and derived quantities."""

    alpha: int
    s_alpha: Interval
    s_pow_alpha: Interval
    F1: Interval
    dF1: Interval

    @classmethod
    def from_spacing(cls, alpha: int, s_alpha: Interval) -> "PotentialContext":
        _check_alpha(alpha)
        s_pow = pow_int(s_alpha, alpha)
        F1 = (_ONE / (_ONE + s_pow)).intersect(_UNIT_BOX)
        dF1 = -alpha * F1 * (_ONE - F1)
        return cls(alpha, s_alpha, s_pow, F1, dF1)


def F_alpha(ctx: PotentialContext, x: Interval) -> Interval:
    """Enclosure of F(x) = 1/(1 + s^alpha x^alpha)."""
    return (_ONE / (_ONE + ctx.s_pow_alpha * pow_int(x, ctx.alpha))).intersect(_UNIT_BOX)


def F_alpha_prime(ctx: PotentialContext, x: Interval) -> Interval:
    """Enclosure of F'(x) = -alpha F(x)(1 - F(x))/x; requires 0 not in x."""
    if x.lo <= 0.0 <= x.hi:
        raise DomainError("F' quotient form needs 0 outside x")
    F = F_alpha(ctx, x)
    return -ctx.alpha * F * (_ONE - F) / x


def F_alpha_second(ctx: PotentialContext, x: Interval) -> Interval:
    """Enclosure of F''(x) = alpha F (1-F)(alpha(1-2F)+1)/x^2; 0 not in x."""
    if x.lo <= 0.0 <= x.hi:
        raise DomainError("F'' quotient form needs 0 outside x")
    F = F_alpha(ctx, x)
    return ctx.alpha * F * (_ONE - F) * (ctx.alpha * (_ONE - 2.0 * F) + 1.0) / pow_int(x, 2)


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
        # fall back to the coarse power-sum bound
        bound = power_sum_tail(alpha, M + 1) / pow_int(t, alpha)
        return Interval(0.0, bound.hi)
    main = _integral_f_tail(alpha, A) / t
    inv_p2 = _ONE / pow_int(A, alpha + 2)
    inv_p1 = _ONE / pow_int(A, alpha + 1)
    b_point = alpha * (alpha + 1) * pow_int(t, 2) * inv_p2
    b_int = alpha * t * inv_p1
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
    if N < 2:
        raise ValueError("lattice_energy requires N >= 2")
    S = _ZERO
    for n in range(1, N + 1):
        S = S + f_alpha(alpha, t * n)
    head = t * (1.0 + 2.0 * S)
    ext = _ZERO
    for n in range(N + 1, 2 * N + 1):
        ext = ext + f_alpha(alpha, t * n)
    rem = 2.0 * t * (ext + _sum_f_beyond(alpha, t, 2 * N))
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


_TERMS_PER_BATCH = 1024  # bounds the lane arrays of a long explicit head


def energy_derivative(alpha: int, t: Interval, N: int = 64, ext: int | None = None) -> Interval:
    """Enclosure of d/dt sum_n t f_alpha(t n) = sum_n (f(tn) + tn f'(tn)).

    `ext` extends the explicit summation beyond N before the midpoint tail
    takes over; tighter tails let the spacing solver certify signs close to
    the minimiser.
    """
    _check_alpha(alpha)
    if not t.lo > 0.5:
        raise ValueError("energy_derivative requires t > 1/2")
    if N < 2:
        raise ValueError("energy_derivative requires N >= 2")
    if ext is None:
        ext = 2 * N
    S = _ZERO
    for start in range(1, ext + 1, _TERMS_PER_BATCH):
        n = Lanes(np.arange(start, min(start + _TERMS_PER_BATCH, ext + 1), dtype=float))
        f = f_alpha(alpha, t * n)
        S = lane_sum(S, f * (1.0 - alpha) + alpha * f * f)
    return 1.0 + 2.0 * (S + _sum_g_beyond(alpha, t, ext))


def first_order_residual(ctx: PotentialContext, N: int = 128) -> Interval:
    """Enclosure of sum_{n in Z} (F(n) + n F'(n)); contains 0 at s_alpha."""
    if N < 2:
        raise ValueError("first_order_residual requires N >= 2")
    alpha = ctx.alpha
    S = _ZERO
    for n in range(1, N + 1):
        F = F_alpha(ctx, Interval(float(n)))
        S = S + (F * (1.0 - alpha) + alpha * F * F)
    bound = (2.0 * (alpha + 1) * power_sum_tail(alpha, N + 1) / ctx.s_pow_alpha).hi
    return 1.0 + 2.0 * S + Interval(-bound, bound)


# ---------------------------------------------------------------------------
# Certified solve for the optimal spacing.
# ---------------------------------------------------------------------------

_SCAN_RESOLUTION = 1.0 / 1024.0


def _derivative_sign(alpha: int, lo: float, hi: float, N: int, ext: int) -> int:
    d = energy_derivative(alpha, Interval(lo, hi), N=N, ext=ext)
    if d.hi < 0.0:
        return -1
    if d.lo > 0.0:
        return 1
    return 0


def _scan_bracket(alpha: int, max_cells: int):
    """Classify derivative signs on [1, 2]; return the unique sign-change cell.

    Adaptive subdivision down to width 1/1024; a valid outcome is a sorted
    sign pattern -1 ... (0s) ... +1 with a single undecided run, whose hull
    brackets the minimiser.
    """
    stack = [(1.0, 2.0)]
    out = []
    used = 0
    while stack:
        lo, hi = stack.pop()
        used += 1
        if used > max_cells:
            raise AmbiguousSignChangeError("scan budget exhausted on [1, 2]")
        s = _derivative_sign(alpha, lo, hi, 64, 128)
        if s != 0 or hi - lo <= _SCAN_RESOLUTION:
            out.append((lo, hi, s))
        else:
            m = 0.5 * (lo + hi)
            stack.append((m, hi))
            stack.append((lo, m))
    out.sort()
    signs = [s for (_, _, s) in out]
    if -1 not in signs or 1 not in signs:
        raise AmbiguousSignChangeError("no certified sign change of the derivative in [1, 2]")
    if signs != sorted(signs):
        raise AmbiguousSignChangeError("ambiguous sign-change count in [1, 2]")
    bracket_lo = max(hi for (lo, hi, s) in out if s == -1)
    bracket_hi = min(lo for (lo, hi, s) in out if s == 1)
    if bracket_hi <= bracket_lo:
        raise AmbiguousSignChangeError("empty sign-change bracket")
    return bracket_lo, bracket_hi


def solve_s_alpha(alpha: int, tol: float = 1e-12, max_cells: int = 1024) -> PotentialContext:
    """Certified enclosure of the optimal spacing s_alpha on [1, 2].

    Verifies a unique derivative sign change by adaptive subdivision, then
    bisects on certified signs until the enclosure width is <= tol.
    """
    _check_alpha(alpha)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    lo, hi = _scan_bracket(alpha, max_cells)
    while hi - lo > tol:
        width = hi - lo
        if width > 1e-6:
            N, ext = 64, 128
        else:
            N, ext = 256, 704
        mid = 0.5 * (lo + hi)
        s = _derivative_sign(alpha, mid, mid, N, ext)
        if s == 0:
            # derivative enclosure straddles 0: try an off-center split
            moved = False
            for frac in (0.375, 0.625, 0.25, 0.75):
                mid2 = lo + frac * width
                s2 = _derivative_sign(alpha, mid2, mid2, N, ext)
                if s2 < 0:
                    lo = mid2
                    moved = True
                    break
                if s2 > 0:
                    hi = mid2
                    moved = True
                    break
            if not moved:
                raise AmbiguousSignChangeError(
                    f"cannot certify derivative sign below width {width:.3e}"
                )
            continue
        if s < 0:
            lo = mid
        else:
            hi = mid
    return PotentialContext.from_spacing(alpha, Interval(lo, hi))


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
