"""The band-limited auxiliary function and its Fourier transform.

psi is evaluated through the symmetrised sinc-product expansion (every
summand globally bounded, no poles to cancel) and psi-hat through the
real cosine/sine form, both truncated with explicit tail enclosures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .interval import ONE as _ONE, ZERO as _ZERO
from .interval import Interval, Lanes, PI, _sub_down, cos, lane_sum, pow_int, sin, sinc
from .potential import _MAX_TRUNCATION, F_alpha, PotentialContext, power_sum_tail, x_dF_alpha

__all__ = [
    "AuxCoefficients",
    "build_coefficients",
    "psi",
    "psi_hat",
    "decay_constant",
    "psi_float",
    "psi_hat_float",
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


def psi(coeffs: AuxCoefficients, x: Interval) -> Interval:
    """Enclosure of psi(x) from the sinc-product expansion.

    psi(x) = sum_n F(n) sinc(pi(x-n))^2
           + sum_n n F'(n) sinc(pi(x-n)) sinc(pi(x+n)).
    """
    N = coeffs.N
    mag = x.mag
    if mag > N // 2:
        raise ValueError("evaluation point too far out for the coefficient table")
    Fn, dFn = coeffs.Fn, coeffs.dFn
    acc = Fn[0] * pow_int(sinc(PI * x), 2)
    for n in range(1, N + 1):
        sm = sinc(PI * (x - n))
        sp = sinc(PI * (x + n))
        acc = acc + Fn[n] * (pow_int(sm, 2) + pow_int(sp, 2)) + (2.0 * n) * dFn[n] * (sm * sp)
    # |sinc(pi(x +- n))| <= 1/(pi (n - |x|)) for n > |x|; round the worst
    # distance down so the bound stays an overestimate
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


# ---------------------------------------------------------------------------
# Non-rigorous float paths (corroboration scans).
# ---------------------------------------------------------------------------

def _tables_float(coeffs: AuxCoefficients):
    F = np.array([iv.mid for iv in coeffs.Fn])
    dF = np.array([iv.mid for iv in coeffs.dFn])
    return F, dF


def psi_float(coeffs: AuxCoefficients, xs) -> np.ndarray:
    """Midpoint-coefficient psi on a float grid (not certified)."""
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    F, dF = _tables_float(coeffs)
    ns = np.arange(1, coeffs.N + 1)
    out = np.empty_like(xs)
    chunk = max(1, int(2e6 // (coeffs.N + 1)))
    for i in range(0, len(xs), chunk):
        x = xs[i:i + chunk, None]
        sm = np.sinc(x - ns[None, :])
        sp = np.sinc(x + ns[None, :])
        out[i:i + chunk] = (
            F[0] * np.sinc(x[:, 0]) ** 2
            + (sm * sm + sp * sp) @ F[1:]
            + (sm * sp) @ (2.0 * ns * dF[1:])
        )
    return out


def psi_hat_float(coeffs: AuxCoefficients, xis) -> np.ndarray:
    """Midpoint-coefficient psi_hat on a float grid (not certified)."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    F, dF = _tables_float(coeffs)
    ns = np.arange(1, coeffs.N + 1)
    a = np.abs(xis)
    arg = 2.0 * np.pi * a[:, None] * ns[None, :]
    val = (1.0 - a) * (F[0] + 2.0 * (np.cos(arg) @ F[1:])) - (np.sin(arg) @ dF[1:]) / np.pi
    return np.where(a >= 1.0, 0.0, val)
