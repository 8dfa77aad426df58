"""The band-limited auxiliary function and its Fourier transform.

psi is evaluated through its interpolation series, the terms off the
nearest integer summed on lanes by `_offset_sum`, the offset sum that the
certificates share; psi-hat through the real cosine/sine form.  Both are
truncated with explicit tail enclosures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interval import ONE as _ONE, ZERO as _ZERO
from .interval import Interval, Lanes, PI, _sub_down, cos, lane_fold, lane_sum, pow_int, sin, sinc
from .potential import _MAX_TRUNCATION, F_alpha, PotentialContext, power_sum_tail, x_dF_alpha

__all__ = [
    "AuxCoefficients",
    "build_coefficients",
    "psi",
    "psi_hat",
    "decay_constant",
]


@dataclass(frozen=True)
class AuxCoefficients:
    """Truncated interval tables of F(n), F'(n) with tail bounds.

    Fn[n] encloses F(n) for n = 0..N; dFn[n] encloses F'(n) (dFn[0] = 0).
    tail_F bounds sum_{n>N} F(n), tail_dF bounds sum_{n>N} |F'(n)|, and
    tail_n2F bounds sum_{n>N} n^2 F(n).
    """

    ctx: PotentialContext
    N: int
    Fn: tuple
    dFn: tuple
    tail_F: Interval
    tail_dF: Interval
    tail_n2F: Interval

    def rows(self, start: int = 1):
        """(n, F(n), F'(n)) for n = start..N: a float array and two lane rows."""
        return (np.arange(float(start), self.N + 1.0),
                Lanes.of(self.Fn[start:]), Lanes.of(self.dFn[start:]))


def _check_rows(N: int) -> None:
    if N < 8:
        raise ValueError("need N >= 8 coefficient rows")
    if N > _MAX_TRUNCATION:
        raise ValueError(f"need N <= {_MAX_TRUNCATION} coefficient rows")


def build_coefficients(ctx: PotentialContext, N: int = 256) -> AuxCoefficients:
    _check_rows(N)
    alpha = ctx.alpha
    s_pow = ctx.s_pow_alpha
    n = np.arange(1.0, N + 1.0)
    F = F_alpha(ctx, Lanes(n))
    dF = x_dF_alpha(alpha, F) / n
    Fn = (_ONE, *map(Interval, F.lo.tolist(), F.hi.tolist()))
    dFn = (_ZERO, *map(Interval, dF.lo.tolist(), dF.hi.tolist()))
    tail_F = Interval(0.0, (power_sum_tail(alpha, N + 1) / s_pow).hi)
    tail_dF = Interval(0.0, (alpha * power_sum_tail(alpha + 1, N + 1) / s_pow).hi)
    tail_n2F = Interval(0.0, (power_sum_tail(alpha - 2, N + 1) / s_pow).hi)
    return AuxCoefficients(ctx, N, Fn, dFn, tail_F, tail_dF, tail_n2F)


def _offsets(x: Lanes, eta: np.ndarray, n: np.ndarray):
    """(n == eta, D) for boxes x, each with its eta, and the row n: D is the
    block x - [n, -n], the columns x - n and then x + n; 1.0 stands in for
    x - n at the left-out n = eta."""
    own = n == eta[:, None]
    d = x[:, None] - np.concatenate((n, -n))
    return own, Lanes.where(np.concatenate((own, np.zeros_like(own)), axis=1), 1.0, d)


def _offset_sum(x: Lanes, eta: np.ndarray, rows) -> Lanes:
    """Lanes of offset(x, eta) = sum_{n != eta, |n| <= N} (F(n)/(x-n)^2 + F'(n)/(x-n))
    for boxes x, each with its eta, on the coefficient rows (n, F(n), F'(n)).

    Adds n = 0 (the term 1/x^2, left out at eta = 0), then for n = 1..N the
    two terms at n (left out at n = eta) and the two at -n, with
    F'(-n) = -F'(n).  A left-out term stands as -0.0, and 1/x^2 is taken of
    1.0 where eta = 0, so x may hold 0 there.  One block holds the rows n and
    -n (`_offsets`), so each term is one lane operation over both; the fold
    reads the halves back in the order above.
    """
    n, Fn, dFn = rows
    own, d = _offsets(x, eta, n)
    at0 = eta == 0
    head = Lanes.where(at0, -0.0, _ONE / pow_int(Lanes.where(at0, 1.0, x), 2))
    sq = Lanes.concat((Fn, Fn)) / pow_int(d, 2)
    lin = Lanes.concat((dFn, -dFn)) / d
    N = n.size
    return lane_fold(head, (sq[:, :N], own), (lin[:, :N], own), sq[:, N:], lin[:, N:])


def psi(coeffs: AuxCoefficients, x: Interval) -> Interval:
    """Enclosure of psi(x) from its interpolation series (Cohn and Kumar, JAMS 2007)

        psi(x) = sum_n (F(n) + F'(n)(x - n)) sinc^2(pi(x - n)).

    psi is even, so x reads |x|.  Let eta be the integer nearest its
    midpoint and d = x - eta.  Since sin(pi(x - n)) = +-sin(pi x),

        psi(x) = sinc^2(pi d) (F(eta) + F'(eta) d) + (sin(pi x)/pi)^2 offset(x, eta),

    with offset the `_offset_sum` of the table's rows |n| <= N.  The box must
    lie within |x| <= N // 2 and be narrower than 1, so that x - n holds no 0
    for n != eta; otherwise ValueError.
    """
    N = coeffs.N
    if x.hi - x.lo >= 1.0:
        raise ValueError("psi needs a box narrower than 1")
    x = abs(x)
    mag = x.mag
    if mag > N // 2:
        raise ValueError("evaluation point too far out for the coefficient table")
    eta = round(x.mid)
    d = x - eta
    near = pow_int(sinc(PI * d), 2) * (coeffs.Fn[eta] + coeffs.dFn[eta] * d)
    off = _offset_sum(Lanes([x.lo], [x.hi]), np.array([eta]), coeffs.rows())
    acc = near + pow_int(sin(PI * x) / PI, 2) * Interval(off.lo[0], off.hi[0])
    # the terms |n| > N: |sinc(pi(x +- n))| <= 1/(pi (n - |x|)) for n > |x|;
    # round the worst distance down so the bound stays an overestimate
    dist = Interval(_sub_down(N + 1.0, mag))
    geo = pow_int(PI.lo * dist, 2)
    b = ((2.0 * (1.0 + coeffs.ctx.alpha)) * coeffs.tail_F / geo).hi
    return acc + Interval(-b, b)


def _psi_hat_core(coeffs: AuxCoefficients, xi: Interval) -> Interval:
    """(1-xi) sum_n F(n) cos(2 pi n xi) - (1/2pi) sum_n F'(n) sin(2 pi n xi),
    symmetrised over +-n, for xi inside [0, 1]."""
    Fn, dFn = coeffs.Fn, coeffs.dFn
    two_pi_xi = (2.0 * PI) * xi
    csum = _ZERO
    ssum = _ZERO
    for n in range(1, coeffs.N + 1):
        arg = two_pi_xi * n
        csum = csum + Fn[n] * cos(arg)
        ssum = ssum + dFn[n] * sin(arg)
    tf = coeffs.tail_F.hi
    tdf = coeffs.tail_dF.hi
    cos_part = 1.0 + 2.0 * csum + Interval(-2.0 * tf, 2.0 * tf)
    sin_part = ssum + Interval(-tdf, tdf)
    return (_ONE - xi) * cos_part - sin_part / PI


def psi_hat(coeffs: AuxCoefficients, xi: Interval) -> Interval:
    """Enclosure of the transform of psi; identically 0 for |xi| >= 1."""
    a = abs(xi)
    if a.lo >= 1.0:
        return _ZERO
    inner = Interval(a.lo, min(a.hi, 1.0))
    val = _psi_hat_core(coeffs, inner)
    if a.hi >= 1.0:
        val = Interval(min(val.lo, 0.0), max(val.hi, 0.0))
    return val


def decay_constant(coeffs: AuxCoefficients) -> Interval:
    """Rigorous constant C with |psi(x)| (1 + x^2) <= C for all x.

    C = [sum_n F(n) + sum_n |n F'(n)|]                      (bounds |psi|)
      + [sum_n (1/pi + |n|)^2 F(n) + sum_n (1/pi^2 + n^2) |n F'(n)|]
                                                            (bounds |x^2 psi|).
    """
    n, F, dF = coeffs.rows()
    inv_pi = _ONE / PI
    inv_pi2 = inv_pi * inv_pi
    ndF = abs(n * dF)
    b0 = lane_sum(coeffs.Fn[0] + inv_pi2, 2.0 * (F + ndF))  # from the n = 0 rows of both bounds
    b2 = lane_sum(_ZERO, 2.0 * (pow_int(inv_pi + Lanes(n), 2) * F + (inv_pi2 + Lanes(n * n)) * ndF))
    alpha = coeffs.ctx.alpha
    # n > N: (1/pi+n)^2 <= 4n^2, (1/pi^2+n^2)|nF'| <= 1.2 alpha n^2 F
    tail = (2.0 + 2.0 * alpha) * coeffs.tail_F + (8.0 + 2.4 * alpha) * coeffs.tail_n2F
    c = b0 + b2 + Interval(0.0, tail.hi)
    return Interval(0.0, c.hi)
