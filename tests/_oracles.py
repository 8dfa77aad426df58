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

`offset_sum_two_chain`, `psi4_parts_two_chain`, `eta_ge2_parts_two_chain`,
`inv_sq_offset_sum_two_chain` and `inv_sq_tail_two_chain` are the lane
integrands as the library computed them before one block held the rows n
and -n (and the four tail quotients): one chain of lane operations for the
rows n, another for -n, with -(F'(n)/(x + n)) negated after the quotient,
and F(x) evaluated by each helper that reads it.  `mean_value_two_chain`
is `certify._mean_value` as it was then: head on the midpoints, slope on
the boxes and tail on the boxes, each evaluated on its own.  The block
forms must equal them bit for bit.

`derivative_mp` is E'(t) of the lattice energy E(t) = sum_n t f_alpha(tn),
summed in mpmath at 40 digits over n <= 2000 from f = 1/(1 + x^alpha), with
a bound on the terms beyond (see its docstring; at alpha 4 from the closed
form of E).  It shares no code with the library: it stands in for the
spacing solve's own E' evaluations.

`solve_s_alpha_sequential` is the spacing solve evaluated one spacing
point at a time: each cover cell and each end of the bracket around the
float root on a lane batch of its own, E' by `energy_derivative`.  The
solve puts a level of the cover, or the two ends of one bracket, on one
batch, which splits the terms n differently; that must not move a bit of
the enclosure or a count of the rows.  The float root itself is the
library's (`_float_root`): it is only the guess whose bracket the certified
signs check.

`pair_terms_loop` is the periodic pair energy and gradient of
`repulse.simulate` written as a direct loop over the images k = 0..K, one
image at a time, each image -k read from image k: the energy adds
2 f_k.sum() (f_{-k} = f_k^T holds f_k's values) and the gradient
w_k.sum(axis=1) - w_k.sum(axis=0) (w_{-k} = -w_k^T), in the kernel's
documented order, with a NaN of w (inf * 0 where r^(alpha-2) overflows)
taken as 0.  Its powers of r^2 are `power_chain`: the squarings x^(2^j)
for the set bits j of the exponent, multiplied lowest first, each one IEEE
product.  The kernel, which evaluates the images in blocks on reused
buffers, must equal it bit for bit.  `pair_terms_all_images` is the direct
loop over every image k = -K..K, with the gradient term divided by
(1 + r^alpha)^2: it reads no image from its mirror, holds below the
overflow of that term (where it is inf/inf), and the kernel must stay
within a few roundings of it.

`lbfgs_two_loop` is the L-BFGS direction -H g written as the textbook
two-loop recursion (Nocedal and Wright, Numerical Optimization, 2nd ed.,
Algorithm 7.4) over a list of (s, y) pairs, one vector operation at a
time: no Gram matrix, no triangular inverse.  `relax`'s memory, which
computes the same direction from the compact form, must stay within a
few roundings of it.

`bnb_level_by_level` is the branch-and-bound engine as the library ran it
before it evaluated the levels below a small frontier in the same batch:
one level per batch (boxes and midpoints together when they fit in one
chunk).  The engine must give the same status, boxes, max_depth,
min_lower_bound and witness, with no more calls to f.

`per_lane` adapts a scalar callable Interval -> Interval to the lane
integrand `certify._bnb` takes, one box at a time, so that a scalar test
function or a scalar reference integrand can run through the engine.

`psi_float` and `psi_hat_float` are psi and psi-hat from the midpoints of
the coefficient enclosures on float grids, in the symmetrised sinc-product
and cosine/sine forms: uncertified corroboration for grid scans.
"""

import math
from fractions import Fraction

import numpy as np

from repulse import certify
from repulse.auxfn import build_coefficients
from repulse.interval import Interval, Lanes, hull, lane_fold, pow_int
from repulse.potential import (
    _MAX_COVER_CELLS,
    AmbiguousSignChangeError,
    F_alpha,
    F_deficit_over_x_sq,
    _float_root,
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


def _offsets_two_chain(x, eta, n):
    X = x[:, None]
    own = n == eta[:, None]
    return own, Lanes.where(own, 1.0, X - n), X + n


def offset_sum_two_chain(x, eta, rows):
    n, Fn, dFn = rows
    own, d, dm = _offsets_two_chain(x, eta, n)
    at0 = eta == 0
    one = Interval(1.0)
    head = Lanes.where(at0, -0.0, one / pow_int(Lanes.where(at0, 1.0, x), 2))
    return lane_fold(head, (Fn / pow_int(d, 2), own), (dFn / d, own),
                     Fn / pow_int(dm, 2), -(dFn / dm))


def psi4_parts_two_chain(coeffs):
    """(head, slope, tail) of `certify._psi4_parts`, one chain per sign of n."""
    ctx = coeffs.ctx
    alpha, N = ctx.alpha, coeffs.N
    off = certify._offset_tail(ctx, N)
    n, Fn, dFn = coeffs.rows()
    signed = ((n, dFn), (-n, -dFn))

    def head(x, _param):
        X, FX = x[:, None], F_alpha(ctx, x)[:, None]
        return lane_fold(F_deficit_over_x_sq(ctx, x, F_alpha(ctx, x)),
                         *(certify._L_terms(ctx, X, FX, k, Fn, dFk) for k, dFk in signed))

    def slope(x, _param):
        F = F_alpha(ctx, x)
        X, FX = x[:, None], F[:, None]
        dFX = certify._first_derivative(ctx, x, F_alpha(ctx, x))[:, None]
        at0 = -ctx.s_pow_alpha * pow_int(x, alpha - 3) * F * (alpha * F - 2.0)
        return lane_fold(at0, *(certify._dL_terms(ctx, X, dFX, certify._L_terms(
            ctx, X, FX, k, Fn, dFk), k, dFk) for k, dFk in signed))

    def tail(x, _param):
        return F_alpha(ctx, x) * inv_sq_tail_two_chain(x, N) + Interval(-off, off)

    return head, slope, tail


def eta_ge2_parts_two_chain(coeffs):
    """(head, slope, tail) of `certify._eta_ge2_parts`, one chain per sign of n."""
    b = certify._offset_tail(coeffs.ctx, coeffs.N)
    rows = coeffs.rows()
    n, Fn, dFn = rows

    def slope(x, eta):
        own, d, dm = _offsets_two_chain(x, eta, n)

        def term(d, dF):
            return -2.0 * Fn / pow_int(d, 3) - dF / pow_int(d, 2)

        return -lane_fold(-2.0 / pow_int(x, 3), (term(d, dFn), own), term(dm, -dFn))

    return lambda x, eta: -offset_sum_two_chain(x, eta, rows), slope, \
        lambda x, eta: Interval(-b, b)


def mean_value_two_chain(head, slope, tail):
    def f(x, param):
        wide = np.flatnonzero(x.lo < x.hi)
        m = x.lo.copy()
        m[wide] = 0.5 * (x.lo[wide] + x.hi[wide])
        v = head(Lanes(m), param)
        if wide.size:
            box = x[wide]
            mv = v[wide] + slope(box, param[wide]) * (box - m[wide])
            v.lo[wide], v.hi[wide] = mv.lo, mv.hi
        return v + tail(x, param)
    return f


def inv_sq_tail_two_chain(t, N):
    one = Interval(1.0)
    return Lanes((one / (N + 1 - t) + one / (N + 1 + t)).lo, (one / (N - t) + one / (N + t)).hi)


def inv_sq_offset_sum_two_chain(t, N):
    n = np.arange(1.0, N + 1.0)
    T = t[:, None]
    one = Interval(1.0)
    acc = lane_fold(Lanes(np.zeros_like(t.lo)), one / pow_int(n - T, 2), one / pow_int(T + n, 2))
    return acc + inv_sq_tail_two_chain(t, N)


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


def eta1_scalar(ctx, N):
    """Scalar eta1 integrand: Interval t -> enclosure of
    L(x, 1) + F(x) sum_{n != 0} 1/(n - t)^2 - offset(x, 1) +- tail, x = 1 + t,
    with the offset terms |n| <= N (N >= 10) summed and the rest bounded.

    tail bounds the terms at n and -n for n > N on 0 <= x <= 10: they sum to
    at most (2 F(n) (n/(n-10))^2 + 2 n |F'(n)| n^2/(n^2-100))/n^2, with
    F(n) <= n^-alpha/c and n |F'(n)| <= alpha n^-alpha/c, c = s^alpha;
    both ratios are largest at n = k = N + 1, so tail is
    2 k^2 (k^2 - 100 + alpha (k - 10)^2)/((k - 10)^2 (k^2 - 100)), rounded
    up, times sum_{n >= k} n^-(alpha+2)/c.
    """
    coeffs = build_coefficients(ctx, N)
    alpha, k = ctx.alpha, N + 1
    ratio = Interval.from_fraction(Fraction(2 * k * k * (k * k - 100 + alpha * (k - 10) ** 2),
                                            (k - 10) ** 2 * (k * k - 100)))
    tail = (ratio * power_sum_tail(alpha + 2, k) / ctx.s_pow_alpha).hi

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
    """(energy per particle, gradient) over images |k| <= K, one image
    k = 0..K at a time, image -k read from image k."""
    n = len(x)
    d = x[:, None] - x[None, :]
    for k in range(K + 1):
        a = d + k * L
        r2 = a * a
        f = 1.0 / (1.0 + power_chain(r2, alpha // 2))
        if k == 0:
            np.fill_diagonal(f, 0.0)
        w = power_chain(r2, (alpha - 2) // 2) * f * f * a * (-alpha)
        w[np.isnan(w)] = 0.0    # inf * 0 where r^(alpha-2) overflows
        if k == 0:
            energy, grad = float(f.sum()), w.sum(axis=1)
        else:
            energy += 2.0 * float(f.sum())
            grad = grad + (w.sum(axis=1) - w.sum(axis=0))
    return energy / n, grad * (2.0 / n)


def pair_terms_all_images(x, L, alpha, K):
    """(energy per particle, gradient) over images |k| <= K: the direct loop
    over every image k = -K..K.  Valid only while no w is inf/inf, i.e.
    below the overflow of alpha r^(alpha-1) and (1 + r^alpha)^2."""
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


def lbfgs_two_loop(pairs, g):
    """-H g for the (s, y) pairs, oldest first: H from H_0 = gamma I with
    gamma = s.y / y.y of the newest pair (H_0 = I with no pair), each pair's
    update applied by the two-loop recursion."""
    q = np.array(g, dtype=float)
    alphas = []
    for s, y in reversed(pairs):
        a = float(s @ q) / float(y @ s)
        q = q - a * y
        alphas.append(a)
    if pairs:
        s, y = pairs[-1]
        q = (float(s @ y) / float(y @ y)) * q
    for (s, y), a in zip(pairs, reversed(alphas)):
        b = float(y @ q) / float(y @ s)
        q = q + (a - b) * s
    return -q


_MP_DPS = 40
_MP_TERMS = 2000


def _mp_f(alpha, x):
    return 1 / (1 + x ** alpha)


def derivative_mp(alpha, t):
    """(value, rest): E'(t) = 1 + 2 sum_{n>=1} g(tn), g = f(1 - alpha) + alpha f^2,
    summed over n <= 2000, and a bound on |E'(t) - value|.

    f <= 1/2, so |g| <= (alpha - 1) f <= (alpha - 1) x^-alpha, and the terms
    beyond N sum to at most (alpha - 1) t^-alpha int_N^inf x^-alpha dx =
    t^-alpha N^(1 - alpha) in modulus.  At alpha 4 that bound (6e-11 near
    t = sqrt 2) is too wide for the solve's ends, so E' is the derivative of
    the closed form E(t) = (pi/sqrt2)(sinh x + sin x)/(cosh x - cos x),
    x = pi sqrt2/t: E'(t) = (pi/sqrt2) 2x sinh x sin x/(t (cosh x - cos x)^2),
    exact but for the rounding of 40 digits.
    """
    import mpmath

    with mpmath.workdps(_MP_DPS):
        t = mpmath.mpf(t)
        if alpha == 4:
            x = mpmath.pi * mpmath.sqrt(2) / t
            value = (mpmath.pi / mpmath.sqrt(2)) * 2 * x * mpmath.sinh(x) * mpmath.sin(x) \
                / (t * (mpmath.cosh(x) - mpmath.cos(x)) ** 2)
            return value, mpmath.mpf(10) ** (10 - _MP_DPS)
        head = mpmath.fsum((1 - alpha) * f + alpha * f * f
                           for f in (_mp_f(alpha, t * n) for n in range(1, _MP_TERMS + 1)))
        rest = 2 * t ** -alpha * mpmath.mpf(_MP_TERMS) ** (1 - alpha)
        return 1 + 2 * head, rest


def solve_s_alpha_sequential(alpha, tols=(1e-12,)):
    """[(s_alpha enclosure, counts)] by the one-point-at-a-time solve, one
    per tolerance of `tols`.

    The cover does not depend on the tolerance, so it runs once.  The
    bracket's half-widths tol/4 and (tol - ulp(s))/2 do, so every tolerance walks
    them on its own, each end on a batch of its own, and counts the rows.
    """
    coarse, fine = _term_count(alpha, False), _term_count(alpha, True)
    t_c = _t_crit(alpha)
    cover_cells = 0
    cells = [(Interval(2.0), 1), (Interval(1.0, t_c), -1)]
    while cells:
        cover_cells += len(cells)
        if cover_cells > _MAX_COVER_CELLS:
            raise AmbiguousSignChangeError("cannot certify E'(2) > 0 and E' < 0 on [1, t_c]")
        undecided = []
        for c, want in cells:
            if _sign(energy_derivative(alpha, c, ext=coarse)) != want:
                undecided += [(Interval(c.lo, c.mid), want), (Interval(c.mid, c.hi), want)]
        cells = undecided
    s = _float_root(alpha, t_c, 2.0, fine)
    out = []
    for tol in tols:
        rows = cover_cells
        for h in (tol / 4, (tol - math.ulp(s)) / 2):
            a, b = max(t_c, s - h), min(2.0, s + h)
            if not 0.0 < b - a <= tol:
                continue
            rows += 2
            if (_sign(energy_derivative(alpha, Interval(a), ext=fine)) < 0
                    < _sign(energy_derivative(alpha, Interval(b), ext=fine))):
                break
        else:
            raise AmbiguousSignChangeError(f"cannot narrow the zero of E' near {s!r} to tol {tol!r}")
        out.append((Interval(a, b), {"cover_cells": cover_cells, "rows_evaluated": rows}))
    return out


def per_lane(f):
    """Lane form of a scalar callable Interval -> Interval, one box at a time."""
    def lanes(x, _param):
        vals = [f(Interval(a, b)) for a, b in zip(x.lo.tolist(), x.hi.tolist())]
        return Lanes([v.lo for v in vals], [v.hi for v in vals])
    return lanes


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
