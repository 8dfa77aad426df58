"""Reference values and reference evaluations for the tests.

The constants are frozen high-precision oracle values (160-bit evaluation,
1-ulp brackets).  Each is a (lo, hi) float pair bracketing the exact value;
an interval enclosure passes when it contains the whole bracket.

`F_alpha_second` is the F'' enclosure that certify evaluates on lanes:
the quotient form, or the free form on a box that reaches 0.

`pairwise_sum` is the scalar Interval form of `lane_fold`'s tree, and
`lane_fold_sequential` is `lane_fold` as the library computed it before the
tree: one outward-rounded addition per element, in the order of the
elements.  The tree must equal the first bit for bit and stay within a
rounding bound of the second.

`L_scalar` and `offset_sum` are the two terms that psi4_le_F4, eta1 and
eta_ge2 share, written with the scalar Interval kernel one box at a time:
the removable quotient L(x, n) by `certify._removable`'s rule, and the
offset sum of the eta_ge2 head (and of psi) in its element order, summed
by `pairwise_sum` with -0.0 in place of the left-out terms, as `lane_fold`
sums them.  `eta1_scalar` is the eta1 integrand built from these two and
`sum_inv_sq_offset`.  The lane forms must equal them bit for bit.

`derivative_mp` and `second_derivative_mp` are E'(t) and E''(t) of the
lattice energy E(t) = sum_n t f_alpha(tn), summed in mpmath at 40 digits
over n <= 2000 from f = 1/(1 + x^alpha), with a bound on the terms beyond
(see each docstring).  They share no code with the library: they stand in
for the spacing solve's own E' and E'' evaluations.

`solve_s_alpha_sequential` is the spacing solve evaluated one spacing
point at a time: each cover cell, each Newton box and each step's point
on a lane batch of its own, E' by `energy_derivative`.  The solve puts a
level of the cover, or a step's box and point, on one batch, which splits
the terms n differently; that must not move a bit of the enclosure or a
count of the steps.

`pair_terms_loop` is the periodic pair energy and gradient of
`repulse.simulate` written as the direct loop over every image
k = -K..K, as the library computed it before the kernel evaluated only
k = 0..K in blocks of images on reused buffers.  Its powers of r^2 are
`power_chain`: the squarings x^(2^j) for the set bits j of the exponent,
multiplied lowest first, each one IEEE product.  The kernel must equal it
bit for bit.  It is an oracle only below the overflow of the gradient
term: where alpha r^(alpha-1) and (1 + r^alpha)^2 both overflow (large
alpha), its w is inf/inf = NaN, while the kernel gives the term its limit 0.

`bnb_level_by_level` is the branch-and-bound engine as the library ran it
before it evaluated the levels below a small frontier in the same batch:
one level per batch (boxes and midpoints together when they fit in one
chunk).  The engine must give the same status, boxes, max_depth,
min_lower_bound and witness, with no more calls to f.

`psi_float` and `psi_hat_float` are psi and psi-hat from the midpoints of
the coefficient enclosures on float grids, in the symmetrised sinc-product
and cosine/sine forms: uncertified corroboration for grid scans.
"""

import math

import numpy as np

from repulse import certify
from repulse.auxfn import build_coefficients
from repulse.interval import Interval, Lanes, hull, pow_int
from repulse.potential import (
    _FINE_WIDTH,
    _MAX_COVER_CELLS,
    AmbiguousSignChangeError,
    F_alpha,
    _DerivativeRows,
    _sign,
    _t_crit,
    _term_count,
    energy_derivative,
    power_sum_tail,
)

# (pi/sqrt2)(sinh x + sin x)/(cosh x - cos x) at x = pi, 2pi, 3pi,
# i.e. the alpha = 4 lattice energy at spacings sqrt2, sqrt2/2, sqrt2/3.
E4_AT_S4 = (2.0374002319141136, 2.037400231914114)
E4_AT_S4_HALF = (2.2297538213717485, 2.229753821371749)
E4_AT_S4_THIRD = (2.221082959501002, 2.2210829595010027)

SINC_HALF = (0.9588510772084059, 0.958851077208406)      # sin(1/2)/(1/2)
EXP_ONE = (2.718281828459045, 2.7182818284590455)
R_AT_PI = (0.06534548302432888, 0.0653454830243289)      # 1/6 - 1/pi^2
S3_AT_PI = (0.10132118364233776, 0.10132118364233778)    # 1/pi^2

H_PLUS_12 = (19.848857801796104, 19.848857801796107)     # 10 + sqrt(97)
G_BOUND_12 = (0.18369820797506747, 0.1836982079750675)   # (24/0.9801)*169/(2^11*11)
H_PLUS_20 = (35.91647286716891, 35.91647286716892)       # 18 + sqrt(321)

# d/dt sum_n t/(1+(tn)^6) at t = 1, brute-forced over |n| <= 10^4
DERIV6_AT_1_BRUTE = (-1.168143814682701, -1.1681438146827008)


def contains_bracket(iv, bracket) -> bool:
    lo, hi = bracket
    return iv.lo <= lo and hi <= iv.hi


def F_alpha_second(ctx, x):
    """F''(x) for x >= 0: the quotient form alpha F (1-F)(alpha(1-2F)+1)/x^2
    where x.lo > 0, else the free form alpha c x^(alpha-2) F^2 (alpha(1-2F)+1),
    c = s^alpha, as the library evaluates it on lanes."""
    one = Interval(1.0)
    F = F_alpha(ctx, x)
    bracket = ctx.alpha * (one - 2.0 * F) + 1.0
    if x.lo <= 0.0:
        return ctx.alpha * ctx.s_pow_alpha * pow_int(x, ctx.alpha - 2) * pow_int(F, 2) * bracket
    return ctx.alpha * F * (one - F) * bracket / pow_int(x, 2)


def pairwise_sum(items):
    """The Interval sum of `items` in lane_fold's tree: each level adds the
    items (0, 1), (2, 3), ..., the lower index on the left, and an odd last
    item passes up unchanged."""
    items = list(items)
    while len(items) > 1:
        odd = items[-1:] if len(items) % 2 else []
        items = [items[i] + items[i + 1] for i in range(0, len(items) - 1, 2)] + odd
    return items[0]


def lane_fold_sequential(acc, *terms):
    """lane_fold summed one element at a time: acc + t[:, 0] + u[:, 0] + ...
    + t[:, 1] + ..., leaving out a (lanes, skip) term where `skip` holds."""
    parts = [(t, None) if isinstance(t, Lanes) else t for t in terms]
    s = acc
    for j in range(parts[0][0].lo.shape[-1]):
        for t, skip in parts:
            total = s + t[:, j]
            s = total if skip is None else Lanes.where(skip[:, j], s, total)
    return s


def sum_inv_sq_offset(t, N):
    """sum_{n != 0} 1/(n - t)^2 for t within (-1, 1): head |n| <= N plus
    integral sandwich tails, added with outward rounding."""
    one = Interval(1.0)
    terms = [Interval(0.0)]
    for n in range(1, N + 1):
        terms += [one / pow_int(n - t, 2), one / pow_int(n + t, 2)]
    acc = pairwise_sum(terms)
    lo_tail = (one / (N + 1 - t) + one / (N + 1 + t)).lo
    hi_tail = (one / (N - t) + one / (N + t)).hi
    return acc + Interval(lo_tail, hi_tail)


def L_scalar(ctx, x, n, Fx, Fn, dFn):
    """L(x, n) = (F(x) - F(n) - F'(n)(x - n))/(x - n)^2 for one box x and an
    integer n != 0 by `certify._removable`'s rule: the quotient at distance
    >= 0.25 from n, else (1/2) F''(hull(x, n)), intersected with the quotient
    while the box excludes n.  Fx, Fn and dFn enclose F(x), F(n) and F'(n)."""
    below, above = x.lo - n, n - x.hi
    dist = above if above > below else below
    if dist < 0.25:
        near = 0.5 * F_alpha_second(ctx, hull(x, Interval(float(n))))
        if dist <= 0.0:
            return near
    d = x - n
    q = (Fx - Fn - dFn * d) / pow_int(d, 2)
    return q if dist >= 0.25 else near.intersect(q)


def offset_sum(x, eta, coeffs):
    """sum_{n != eta, |n| <= N} (F(n)/(x-n)^2 + F'(n)/(x-n)) for one box x, in
    the order of the eta_ge2 head: 1/x^2 (-0.0 at eta = 0), then for
    n = 1..N the two terms at n (-0.0 at n = eta) and the two at -n, summed
    by `pairwise_sum`."""
    one, skip = Interval(1.0), Interval(-0.0)
    terms = [skip if eta == 0 else one / pow_int(x, 2)]
    for n in range(1, coeffs.N + 1):
        Fn, dFn = coeffs.Fn[n], coeffs.dFn[n]
        d, dm = x - n, x + n
        own = n == eta
        terms += [skip if own else Fn / pow_int(d, 2), skip if own else dFn / d,
                  Fn / pow_int(dm, 2), -(dFn / dm)]
    return pairwise_sum(terms)


def _tables_float(coeffs):
    F = np.array([iv.mid for iv in coeffs.Fn])
    dF = np.array([iv.mid for iv in coeffs.dFn])
    return F, dF


def psi_float(coeffs, xs) -> np.ndarray:
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


def psi_hat_float(coeffs, xis) -> np.ndarray:
    """Midpoint-coefficient psi_hat on a float grid (not certified)."""
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    F, dF = _tables_float(coeffs)
    ns = np.arange(1, coeffs.N + 1)
    a = np.abs(xis)
    arg = 2.0 * np.pi * a[:, None] * ns[None, :]
    val = (1.0 - a) * (F[0] + 2.0 * (np.cos(arg) @ F[1:])) - (np.sin(arg) @ dF[1:]) / np.pi
    return np.where(a >= 1.0, 0.0, val)


def eta1_scalar(ctx, N=64):
    """Scalar eta1 integrand: Interval t -> enclosure of
    L(x, 1) + F(x) sum_{n != 0} 1/(n - t)^2 - offset(x, 1) +- tail, x = 1 + t,
    with tail = 2 (1.4 + 1.19 alpha) sum_{n > 64} n^-(alpha+2) / s^alpha the
    bound on the offset terms |n| > 64 (so N >= 64)."""
    coeffs = build_coefficients(ctx, N)
    alpha = ctx.alpha
    tail = (2.0 * (1.4 + 1.19 * alpha) * power_sum_tail(alpha + 2, 65) / ctx.s_pow_alpha).hi

    def expr(t):
        x = 1.0 + t
        Fx = F_alpha(ctx, x)
        q = L_scalar(ctx, x, 1, Fx, ctx.F1, ctx.dF1)
        return q + Fx * sum_inv_sq_offset(t, N) - offset_sum(x, 1, coeffs) \
            + Interval(-tail, tail)

    return expr


def power_chain(x, m):
    """x**m (m >= 1) as the product of the squarings x**(2**j) over the set
    bits j of m, lowest first, each product one IEEE multiplication."""
    squares = [x]
    while len(squares) < m.bit_length():
        squares.append(squares[-1] * squares[-1])
    factors = [sq for j, sq in enumerate(squares) if m >> j & 1]
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


def pair_terms_loop(x, L, alpha, K):
    """(energy per particle, gradient) over images |k| <= K, one image at a time.

    Valid only while no w is inf/inf, i.e. below the overflow of
    alpha r^(alpha-1) and (1 + r^alpha)^2 (the kernel's limit 0 there)."""
    n = len(x)
    d = x[:, None] - x[None, :]
    energy = 0.0
    grad = np.zeros(n)
    for k in range(-K, K + 1):
        a = d + k * L
        r2 = a * a
        denom = 1.0 + power_chain(r2, alpha // 2)
        f = 1.0 / denom
        if k == 0:
            np.fill_diagonal(f, 0.0)
        energy += float(f.sum())
        w = (-alpha) * a * power_chain(r2, (alpha - 2) // 2) / (denom * denom)
        grad += w.sum(axis=1)
    grad *= 2.0 / n
    return energy / n, grad


_MP_DPS = 40
_MP_TERMS = 2000


def _mp_f(alpha, x):
    return 1 / (1 + x ** alpha)


def derivative_mp(alpha, t):
    """(value, rest): E'(t) = 1 + 2 sum_{n>=1} g(tn), g = f(1 - alpha) + alpha f^2,
    summed over n <= 2000, and a bound on |E'(t) - value|.

    f <= 1/2, so |g| <= (alpha - 1) f <= (alpha - 1) x^-alpha, and the terms
    beyond N sum to at most (alpha - 1) t^-alpha int_N^inf x^-alpha dx =
    t^-alpha N^(1 - alpha) in modulus.
    """
    import mpmath

    with mpmath.workdps(_MP_DPS):
        t = mpmath.mpf(t)
        head = mpmath.fsum((1 - alpha) * f + alpha * f * f
                           for f in (_mp_f(alpha, t * n) for n in range(1, _MP_TERMS + 1)))
        rest = 2 * t ** -alpha * mpmath.mpf(_MP_TERMS) ** (1 - alpha)
        return 1 + 2 * head, rest


def second_derivative_mp(alpha, t):
    """(value, rest): E''(t) = (2 alpha/t) sum_{n>=1} f_n (1 - f_n)(alpha - 1 - 2 alpha f_n)
    summed over n <= 2000, and rest >= E''(t) - value >= 0, for t >= 1.

    For tn >= 2 a term lies in [0, (alpha - 1) f_n] and f_n <= (tn)^-alpha,
    so the terms beyond N sum to [0, t^-alpha N^(1 - alpha)] before the
    factor 2 alpha/t.
    """
    import mpmath

    with mpmath.workdps(_MP_DPS):
        t = mpmath.mpf(t)
        head = mpmath.fsum(f * (1 - f) * (alpha - 1 - 2 * alpha * f)
                           for f in (_mp_f(alpha, t * n) for n in range(1, _MP_TERMS + 1)))
        rest = t ** -alpha * mpmath.mpf(_MP_TERMS) ** (1 - alpha)
        return 2 * alpha * head / t, 2 * alpha * rest / t


def solve_s_alpha_sequential(alpha, tols=(1e-12,)):
    """[(s_alpha enclosure, counts)] by the one-point-at-a-time solve, one
    per tolerance of the decreasing sequence `tols`.

    The steps do not depend on the tolerance, which only says when to stop,
    so one walk serves every tolerance: its result at tol is the first
    enclosure of width <= tol, with the counts made up to there.
    """
    coarse, fine = _term_count(alpha, False), _term_count(alpha, True)
    counts = {"cover_cells": 0, "newton_steps": 0, "bisection_steps": 0}
    lo, hi = _t_crit(alpha), 2.0
    cells = [(Interval(2.0), 1), (Interval(1.0, lo), -1)]
    while cells:
        counts["cover_cells"] += len(cells)
        if counts["cover_cells"] > _MAX_COVER_CELLS:
            raise AmbiguousSignChangeError("cannot certify E'(2) > 0 and E' < 0 on [1, t_c]")
        undecided = []
        for c, want in cells:
            if _sign(energy_derivative(alpha, c, ext=coarse)) != want:
                undecided += [(Interval(c.lo, c.mid), want), (Interval(c.mid, c.hi), want)]
        cells = undecided
    out = []
    for tol in tols:
        while hi - lo > tol:
            m = min(max(1.0 + math.sqrt((lo - 1.0) * (hi - 1.0)), lo), hi)
            ext = coarse if hi - lo > _FINE_WIDTH else fine
            d2 = _DerivativeRows(alpha, [Interval(lo, hi)], ext).second(0)
            d1 = energy_derivative(alpha, Interval(m), ext=ext)
            if d2.lo > 0.0:
                counts["newton_steps"] += 1
                step = m - d1 / d2
                new = max(lo, step.lo), min(hi, step.hi)
            else:
                counts["bisection_steps"] += 1
                new = {-1: (m, hi), 0: (lo, hi), 1: (lo, m)}[_sign(d1)]
            if new == (lo, hi) or new[0] > new[1]:
                raise AmbiguousSignChangeError(
                    f"cannot narrow [{lo!r}, {hi!r}] around the zero of E'")
            lo, hi = new
        out.append((Interval(lo, hi), dict(counts)))
    return out


def bnb_level_by_level(run, f, roots, policy):
    """certify._bnb with one frontier level per batch."""
    policy = policy or certify.BnbPolicy()
    if run.status != certify.VERIFIED:
        return
    if policy.max_depth < 1:
        run.status = certify.INCONCLUSIVE
        return
    lo = np.array([r[0] for r in roots], dtype=float)
    hi = np.array([r[1] for r in roots], dtype=float)
    param = np.array([r[2] if len(r) > 2 else 0 for r in roots], dtype=np.int64)
    depth = 0
    while lo.size:
        room = max(policy.budget - run.boxes, 0)
        cut = lo.size > room
        if cut:
            lo, hi, param = lo[:room], hi[:room], param[:room]
        if lo.size:
            run.max_depth = max(run.max_depth, depth)
        run.boxes += lo.size
        mid = 0.5 * (lo + hi)
        small = 2 * lo.size <= certify._CHUNK
        if small:  # one batch of boxes and midpoints instead of two
            both = certify._evaluate(f, np.concatenate((lo, mid)), np.concatenate((hi, mid)),
                                     np.tile(param, 2))
            v, vm = both[:lo.size], both[lo.size:]
        else:
            v = certify._evaluate(f, lo, hi, param)
        done = v.lo >= 0.0
        run.min_lb = min([run.min_lb, *v.lo[done].tolist()])
        lo, hi, mid, param = lo[~done], hi[~done], mid[~done], param[~done]
        vm = vm[~done] if small else certify._evaluate(f, mid, mid, param)
        bad = np.flatnonzero(vm.hi < 0.0)
        if bad.size:
            run.status = certify.FAILED
            run.witness = float(mid[bad[0]])
            run.min_lb = min(run.min_lb, float(vm.lo[bad[0]]))
            return
        if cut or (lo.size and depth >= policy.max_depth) or np.any(vm.lo < 0.0) \
                or np.any((mid <= lo) | (mid >= hi)):
            run.status = certify.INCONCLUSIVE
            return
        lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
        param = np.repeat(param, 2)
        depth += 1
