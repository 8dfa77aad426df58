"""Branch-and-bound interval proofs of the positivity inequalities.

Every certificate is produced by sign-certified interval evaluation: a box
is discharged only when the enclosure's lower bound is >= 0 exactly (no
epsilon), infinite sums carry rigorous tails pushed in the unfavorable
direction, and failures attach a point witness with a rigorously negative
enclosure.

Which route proves which piece for which alpha is written once, in the
route table ROUTES at the end of this module; certify_all, the pieces of
certify_psihat_nonneg, the alpha check of every certify_* function and the
`repulse certify --inequality` choices are all read from it.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import json_text
from .auxfn import AuxCoefficients, _offset_sum, _offsets, build_coefficients
from .interval import (
    ONE as _ONE,
    ZERO as _ZERO,
    Interval,
    Lanes,
    PI,
    SIXTH,
    lane_fold,
    lane_sum,
    pow_int,
)
from .potential import (
    F_alpha,
    F_deficit_over_x_sq,
    PotentialContext,
    _check_alpha,
    power_sum_tail,
    solve_s_alpha,
)

__all__ = [
    "BnbPolicy",
    "Certificate",
    "certify_T",
    "certify_T_large",
    "certify_L",
    "certify_L_large",
    "certify_w_inequality",
    "certify_psihat_nonneg",
    "certify_psi4_le_F4",
    "certify_eta0",
    "certify_eta1",
    "certify_eta_ge2",
    "certify_allthestars_large",
    "certify_all",
    "certificates_to_json",
    "Route",
    "ROUTES",
]

VERIFIED = "verified"
FAILED = "failed"
INCONCLUSIVE = "inconclusive"

_CLOSED = "closed-bound evaluation (large alpha)"
_FOUR_OVER_PI_SQ = 4.0 / pow_int(PI, 2)  # L's kernel at pi n, times -n^2

_N = 16  # every certificate sums the rows |n| <= _N and bounds the rest


@dataclass(frozen=True)
class BnbPolicy:
    """Branch-and-bound budget; boxes split by bisecting the widest side."""

    max_depth: int = 48
    budget: int = 10_000_000

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")


@dataclass
class Certificate:
    inequality_id: str
    alpha: int
    domain: str
    status: str
    boxes_processed: int
    max_depth: int
    min_lower_bound: float
    wall_time_ms: int
    witness: float | None
    paper_anchor: str
    policy: BnbPolicy

    def to_json_dict(self) -> dict:
        """The fields in declaration order, policy as a dict; a NaN min_lower_bound is None."""
        d = asdict(self)
        if math.isnan(d["min_lower_bound"]):
            d["min_lower_bound"] = None
        return d


def certificates_to_json(certs) -> str:
    return json_text([c.to_json_dict() for c in certs], indent=2)


# ---------------------------------------------------------------------------
# The generic engine.
# ---------------------------------------------------------------------------

@dataclass
class _Run:
    """Mutable accumulator shared by the pieces of one certificate.

    Pieces are run in order; once one is not verified, `_bnb` evaluates
    nothing more, so a certificate stops at its first open piece.
    """

    boxes: int = 0
    max_depth: int = 0
    min_lb: float = math.inf
    status: str = VERIFIED
    witness: float | None = None
    t0: float = field(default_factory=time.perf_counter)

    def check(self, value: Interval, policy: BnbPolicy | None, at: float = 0.0) -> None:
        """The constant piece value >= 0, as one box: the point `at`, the witness if it fails."""
        _bnb(self, lambda x, _param: Lanes.of([value] * x.lo.size), [(at, at)], policy)

    def absorb(self, c: Certificate) -> None:
        """Merge a finished certificate as a piece evaluated on its own."""
        self.boxes += c.boxes_processed
        self.max_depth = max(self.max_depth, c.max_depth)
        if not math.isnan(c.min_lower_bound):
            self.min_lb = min(self.min_lb, c.min_lower_bound)
        if c.status == FAILED and self.status != FAILED:
            self.status, self.witness = FAILED, c.witness
        elif c.status == INCONCLUSIVE and self.status == VERIFIED:
            self.status = INCONCLUSIVE


# Boxes per lane batch.  A batched f holds a few dozen (boxes x rows)
# arrays at once: with the 16-row head a batch of 64 boxes of the
# psi4_le_F4 mean-value integrand peaks near 0.4 MB (1.7 MB with 64 rows).
_CHUNK = 64


def _evaluate(f, lo: np.ndarray, hi: np.ndarray, param: np.ndarray) -> Lanes:
    """f on the boxes [lo, hi], _CHUNK lanes at a time."""
    x = Lanes(lo, hi)
    parts = [f(x[i:i + _CHUNK], param[i:i + _CHUNK]) for i in range(0, lo.size, _CHUNK)]
    return Lanes.concat(parts) if parts else x


def _halves(lo: np.ndarray, hi: np.ndarray, mid: np.ndarray, param: np.ndarray):
    """(lo, hi, param) of the halves [lo, mid] and [mid, hi] of every box, in order."""
    return np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel(), \
        np.repeat(param, 2)


def _window(f, lo: np.ndarray, hi: np.ndarray, param: np.ndarray, room: int,
            levels: int) -> list[tuple[Lanes, Lanes]]:
    """(boxes, midpoints) of f on a frontier and on the levels below it, in one batch.

    The frontier of L boxes is level 0; level j + 1 holds the `_halves` of
    level j.  The window is k levels deep, k the largest depth of at most
    `levels` such that its 2 L (2^k - 1) box and midpoint lanes fit in one
    _CHUNK and its L (2^k - 1) boxes in `room`; at least the frontier itself.
    """
    n, k = lo.size, 1
    while n and k < levels and 2 * n * (2 ** (k + 1) - 1) <= _CHUNK \
            and n * (2 ** (k + 1) - 1) <= room:
        k += 1
    tree = [(lo, hi, param)]
    for _ in range(k - 1):
        a, b, p = tree[-1]
        tree.append(_halves(a, b, 0.5 * (a + b), p))
    a, b, p = (np.concatenate(level) for level in zip(*tree))
    m = 0.5 * (a + b)
    v = _evaluate(f, np.concatenate((a, m)), np.concatenate((b, m)), np.tile(p, 2))
    ends = np.cumsum([0] + [n << j for j in range(k)])
    return [(v[i:j], v[a.size + i:a.size + j]) for i, j in zip(ends[:-1], ends[1:])]


def _bnb(run: _Run, f, roots, policy: BnbPolicy | None) -> None:
    """Discharge f >= 0 on every root box into `run`, one frontier level at a time.

    `roots` lists boxes (lo, hi) or (lo, hi, param).  f maps Lanes of boxes
    and the array of their roots' params (0 where none is given) to Lanes of
    enclosures.  A level is the whole frontier in left-to-right order: root
    order, then position.  A box is discharged when its enclosure's lower
    bound is >= 0; otherwise f is evaluated at its midpoint and the box is
    bisected there.

    A level of more than _CHUNK / 2 boxes is evaluated on its own: its
    boxes, then the midpoints of those not discharged.  A smaller level
    opens a window (`_window`): one batch evaluates f on its boxes and
    midpoints and on those of the levels below it, as deep as the lanes fit
    in one _CHUNK, the boxes in the budget room left at that level and the
    levels within max_depth.  The walk then reads the window one level at a
    time, in the order above.  Only the boxes the walk reaches are counted
    and read; the boxes and midpoints below a discharged box, or below the
    level where the run stops, are evaluated and never read.  Every lane is
    computed on its own, so this changes no box and no value the run keeps.

    The box tree depends only on f, so a verified run has the same boxes,
    max_depth and min_lower_bound in any evaluation order.  A run that is not
    verified stops at the first level where one of these holds, in this order:

    - a midpoint's enclosure is < 0: `failed`, with the leftmost such
      midpoint as witness and its enclosure's lower bound in min_lb;
    - a midpoint's enclosure holds 0 (lo < 0 <= hi): `inconclusive`.  Both
      halves hold that midpoint, so for an inclusion-isotone f no box below
      could be discharged; for the mean-value form it is a policy;
    - the level did not fit in the budget: `inconclusive`.  No more than
      `budget` boxes are ever counted, counting the run's earlier pieces;
      the level is cut to the boxes that fit.  A window holds no more boxes
      than the room left at its first level, so the cut falls where a
      level-by-level walk puts it, and a run that reaches every box it
      evaluates evaluates no more than `budget`;
    - an undischarged box is at max_depth, or its midpoint does not split
      it: `inconclusive`.

    max_depth < 1 reports `inconclusive` without evaluating anything; this
    is the one place that rule is kept.  A run that is already not verified
    evaluates nothing more.  policy None means the default BnbPolicy().
    """
    policy = policy or BnbPolicy()
    if run.status != VERIFIED:
        return
    if policy.max_depth < 1:
        run.status = INCONCLUSIVE
        return
    lo = np.array([r[0] for r in roots], dtype=float)
    hi = np.array([r[1] for r in roots], dtype=float)
    param = np.array([r[2] if len(r) > 2 else 0 for r in roots], dtype=np.int64)
    depth = 0
    window = []  # the unread levels of the open window
    while lo.size:
        room = max(policy.budget - run.boxes, 0)
        cut = lo.size > room
        if cut:
            lo, hi, param = lo[:room], hi[:room], param[:room]
        if lo.size:
            run.max_depth = max(run.max_depth, depth)
        run.boxes += lo.size
        mid = 0.5 * (lo + hi)
        if not window and 2 * lo.size <= _CHUNK:
            window = _window(f, lo, hi, param, room, policy.max_depth - depth + 1)
            pos = np.arange(lo.size)  # each box's place in its window level
        cached = bool(window)
        if cached:
            v, vm = (w[pos] for w in window.pop(0))
        else:
            v = _evaluate(f, lo, hi, param)
        done = v.lo >= 0.0
        run.min_lb = min([run.min_lb, *v.lo[done].tolist()])
        lo, hi, mid, param = lo[~done], hi[~done], mid[~done], param[~done]
        vm = vm[~done] if cached else _evaluate(f, mid, mid, param)
        bad = np.flatnonzero(vm.hi < 0.0)
        if bad.size:
            run.status = FAILED
            run.witness = float(mid[bad[0]])
            run.min_lb = min(run.min_lb, float(vm.lo[bad[0]]))
            return
        if cut or (lo.size and depth >= policy.max_depth) or np.any(vm.lo < 0.0) \
                or np.any((mid <= lo) | (mid >= hi)):
            run.status = INCONCLUSIVE
            return
        lo, hi, param = _halves(lo, hi, mid, param)
        if cached:
            pos = np.column_stack((2 * pos[~done], 2 * pos[~done] + 1)).ravel()
        depth += 1


def _certificate(run: _Run, alpha: int, domain: str, policy: BnbPolicy | None,
                 inequality_id: str, paper_anchor: str) -> Certificate:
    """The certificate of a finished run; its wall time counts from run.t0."""
    return Certificate(
        inequality_id=inequality_id,
        alpha=alpha,
        domain=domain,
        status=run.status,
        boxes_processed=run.boxes,
        max_depth=run.max_depth,
        min_lower_bound=run.min_lb if math.isfinite(run.min_lb) else math.nan,
        wall_time_ms=int((time.perf_counter() - run.t0) * 1000),
        witness=run.witness,
        paper_anchor=paper_anchor,
        policy=policy or BnbPolicy(),
    )


# ---------------------------------------------------------------------------
# The transform-positivity constants T(alpha) and L(alpha).
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _table(ctx: PotentialContext) -> AuxCoefficients:
    """The coefficient table of ctx at the head _N, built once for the last
    context asked for, so every piece of one `certify_all` run reads one
    table.  A context hashes by its enclosures, not its diagnostics, and the
    table is immutable, so a context equal to the last one shares it."""
    return build_coefficients(ctx, _N)


def _n_pow(n: np.ndarray, k: int, c: float = 1.0) -> Lanes:
    """Lanes enclosing c n^k on the row n of integers, for any row length;
    a float c * n**k is rounded once n^k passes 2^53 (n > 1552 for k = 5)."""
    return c * pow_int(Lanes(n), k)


def _T_value(coeffs: AuxCoefficients) -> Interval:
    """T = (1/2)(1 - 2 sum_{n>=1} F(n)) - (1/pi) sum_{n>=2} |F'(n)|."""
    _, F, dF = coeffs.rows()
    SF = lane_sum(_ZERO, F) + coeffs.tail_F
    SdF = lane_sum(_ZERO, abs(dF[1:])) + coeffs.tail_dF
    return 0.5 * (_ONE - 2.0 * SF) - SdF / PI


def certify_T(ctx: PotentialContext, policy: BnbPolicy | None = None) -> Certificate:
    """Single-constant proof of the transform's positivity on [0, 1/2]."""
    route = _route("T_alpha", True, ctx.alpha)
    run = _Run()
    run.check(_T_value(_table(ctx)), policy)
    return route.certificate(run, ctx.alpha, f"constant check, head N={_N}", policy)


def certify_T_large(alpha: int, policy: BnbPolicy | None = None) -> Certificate:
    """Closed lower bound for T(alpha), valid for large alpha."""
    route = _route("T_alpha", False, alpha)
    run = _Run()
    p2 = pow_int(Interval(2.0), alpha)
    val = 0.5 * (_ONE - _ONE / (alpha - 2)
                 - Interval(2.0) / alpha * (alpha + 1) / (p2 * (alpha - 1))) \
        - (_ONE / PI) * (alpha + 2) / (alpha * 2.0 * p2)
    run.check(val, policy)
    return route.certificate(run, alpha, _CLOSED, policy)


def _L_value(coeffs: AuxCoefficients) -> Interval:
    """L = sum_n n^3 F'(n)(-2/3 + 4R(pi n)) - sum_n 2 n^2 F(n), over Z.

    R is the remainder of sin x = x - x^3/6 + x^3 R(x); sin(pi n) = 0 makes
    the kernel -2/3 + 4R(pi n) exactly -4/(pi n)^2, so each row adds
    -(4/pi^2) n F'(n) - 2 n^2 F(n).
    """
    n, F, dF = coeffs.rows()
    total = 2.0 * lane_sum(_ZERO, -(dF * n * _FOUR_OVER_PI_SQ), -((2.0 * n * n) * F))
    t2 = coeffs.tail_n2F.hi
    return total + Interval(-4.0 * t2, (4.0 * coeffs.ctx.alpha / 3.0) * t2)


def certify_L(ctx: PotentialContext, policy: BnbPolicy | None = None) -> Certificate:
    """Single-constant proof of the transform's positivity on [1/2, 1]: the
    kernel-weighted sum, evaluated directly on its row's alpha."""
    route = _route("L_alpha", True, ctx.alpha)
    run = _Run()
    run.check(_L_value(_table(ctx)), policy)
    return route.certificate(run, ctx.alpha, f"constant check, head N={_N}", policy)


def certify_L_large(alpha: int, policy: BnbPolicy | None = None) -> Certificate:
    """Closed lower bound for L(alpha), valid for large alpha."""
    route = _route("L_alpha", False, alpha)
    run = _Run()
    lead = (_ONE - _ONE / (2 * alpha - 4)) * _FOUR_OVER_PI_SQ  # 2/3 - 4R(pi) = 4/pi^2
    mid = Interval(4.0) * (alpha - 1) / (pow_int(Interval(2.0), alpha - 2)
                                         * (2 * alpha - 5) * (alpha - 3))
    run.check(lead - mid - Interval(2.0) / (alpha - 2), policy)
    return route.certificate(run, alpha, _CLOSED, policy)


# ---------------------------------------------------------------------------
# The alpha = 4 scalar inequality in w, through a Taylor minorant.
# ---------------------------------------------------------------------------

def _w_minorant(c1: Interval):
    """Lanes of P(w^2) on boxes w: the minorant that `certify_w_inequality` discharges."""
    p0 = 2.0 * c1 / 3.0 - 2.0
    p1 = Interval.from_fraction(Fraction(2, 3)) - 2.0 * c1 / 15.0
    p2 = Interval.from_fraction(Fraction(4, 45))

    def minorant(w: Lanes, _param) -> Lanes:
        s = pow_int(w, 2)
        return p0 + s * (p1 - p2 * s)

    return minorant


def certify_w_inequality(ctx: PotentialContext | None = None,
                         policy: BnbPolicy | None = None, *, alpha: int = 4) -> Certificate:
    """8w - 4 sin 2w - 5 w sin^2 w >= 0, certified as f(w) = 4 c1 S3(2w) - 2 sinc(w)^2 >= 0,
    S3(u) = (u - sin u)/u^3.

    With no context the displayed constant 5 is used (c1 = 16/5) and the
    certificate is labelled with `alpha` (an even integer >= 4, else
    ValueError), since the inequality does not depend on it; with an
    alpha = 4 context the constant becomes c1 = 4(1 - F(1)) from its
    enclosure, which is what the transform-positivity reduction consumes.

    On [0, pi/2] f is bounded below by a polynomial.  The series
    S3(u) = 1/6 - u^2/120 + u^4/5040 - ... and
    sinc(w)^2 = (1 - cos 2w)/(2 w^2) = 1 - w^2/3 + 2 w^4/45 - w^6/315 + ...
    alternate, and their terms decrease in size for u <= pi and w <= pi/2:
    the ratio of a term to the one before is at most u^2/20 <= pi^2/20 in
    the first and 4 w^2/12 <= pi^2/12 in the second.  Such a series lies
    between consecutive partial sums, so S3(2w) >= 1/6 - w^2/30 and
    sinc(w)^2 <= 1 - w^2/3 + 2 w^4/45, and f(w) >= P(w^2) with
    P(s) = (2 c1/3 - 2) + s ((2/3 - 2 c1/15) - (4/45) s) (`_w_minorant`).
    P(0) = f(0), so the margin at w = 0 is f's own.  P is discharged by
    branch-and-bound on [0, pi/2].  For w >= pi/2 the scaled form is
    bounded below by (c1 - 2) w - c1/2, checked at w = pi/2 and increasing.
    """
    run = _Run()
    if ctx is None:
        alpha = _check_alpha(alpha)
        route = _route("w_inequality", False)
        c1 = Interval.from_fraction(Fraction(16, 5))
    else:
        route = _route("w_inequality", True, ctx.alpha)
        alpha = ctx.alpha
        c1 = Interval(4.0 * (_ONE - ctx.F1).lo)
    # w >= pi/2 piece: the w^3-scaled form is >= (c1-2) w - c1/2, which
    # increases in w only when c1 > 2, so that slope is certified first
    run.check(c1 - 2.0, policy)
    run.check((c1 - 2.0) * Interval(PI.lo / 2.0) - 0.5 * c1, policy, at=math.pi / 2.0)
    _bnb(run, _w_minorant(c1), [(0.0, (PI / 2.0).hi)], policy)
    return route.certificate(
        run, alpha, "[0, pi/2] branch-and-bound of the Taylor minorant P(w^2) "
        "+ analytic piece for w >= pi/2", policy)


# ---------------------------------------------------------------------------
# Composite transform positivity.
# ---------------------------------------------------------------------------

def _monotone_coefficient_check(coeffs: AuxCoefficients) -> Interval:
    """F(1) - F(n) with the least lower bound over n >= 2 (the first such n),
    which must be certifiably >= 0."""
    d = coeffs.Fn[1] - coeffs.rows(2)[1]
    i = int(np.argmin(d.lo))
    return Interval(d.lo[i], d.hi[i])


def certify_psihat_nonneg(coeffs: AuxCoefficients, policy: BnbPolicy | None = None,
                          computed: dict[str, Certificate] | None = None) -> Certificate:
    """Composite proof that the transform is nonnegative everywhere.

    [0, 1/2] is discharged by the T constant; [1/2, 1] by the L constant
    or by the w-inequality route (with the constant taken from the F(1)
    enclosure and the coefficient monotonicity F(n) <= F(1), n >= 2, that
    the reduction relies on checked first rather than assumed); |xi| >= 1
    is the support condition.  The other pieces are the `part` rows of
    ROUTES at this alpha, each a certificate of its own on `_table(ctx)`.
    `computed` maps an inequality_id to its certificate already made with
    the same context and policy, which is merged instead of recomputed.
    """
    ctx = coeffs.ctx
    computed = computed or {}
    run = _Run()
    parts = [r for r in ROUTES if r.part and ctx.alpha in r.alphas]
    if any(r.inequality_id == "w_inequality" for r in parts):
        run.check(_monotone_coefficient_check(coeffs), policy)
    for route in parts:
        run.absorb(computed.get(route.inequality_id)
                   or route.call(ctx.alpha, ctx, policy))
    return _certificate(run, ctx.alpha,
                        "[0,1/2] via T, [1/2,1] via L or the w route, 0 beyond support",
                        policy, "psihat_nonneg", "transform of psi nonnegative on the whole line")


# ---------------------------------------------------------------------------
# psi_4 <= F_4 on [0, 9] (plus the displayed constant for x >= 9).
# ---------------------------------------------------------------------------

def _removable(x: Lanes, n: np.ndarray, quotient, near) -> Lanes:
    """Lanes of a quotient in d = x - n with a removable singularity at x = n,
    for boxes x (a column) and integers n (a row).

    Boxes at distance >= 0.25 from n use quotient(d); nearer boxes use
    near(hull(x, n)), intersected with the quotient whenever the box still
    excludes n (the hull alone cannot shrink with subdivision right at the
    switchover distance).
    """
    below, above = x.lo - n, n - x.hi
    dist = np.where(above > below, above, below)
    apart = dist > 0.0
    out = quotient(Lanes.where(apart, x - n, 1.0))  # 1.0 stands in where n is in the box
    rows, cols = np.nonzero(dist < 0.25)
    if rows.size:
        v = near(x[rows, 0].hull(n[cols]))
        out[rows, cols] = v.intersect(Lanes.where(apart[rows, cols], out[rows, cols], v))
    return out


def _L_terms(ctx: PotentialContext, x: Lanes, Fx: Lanes, n: np.ndarray, Fn, dFn) -> Lanes:
    """Lanes of L(x, n) = (F(x) - F(n) - F'(n)(x - n))/(x - n)^2 for boxes x
    (a column) and integers n != 0 (a row; a row of -n takes F(n) and -F'(n)).

    Near n the mean-value enclosure (1/2) F''(hull(x, n)) takes over, as
    `_removable` sets out.  Fx encloses F(x); Fn and dFn enclose F(n), F'(n).
    """
    return _removable(x, n, lambda d: (Fx - Fn - dFn * d) / pow_int(d, 2),
                      lambda h: 0.5 * _second_derivative_any(ctx, h))


def _dL_terms(ctx: PotentialContext, x: Lanes, dFx: Lanes, L: Lanes, n: np.ndarray,
              dFn) -> Lanes:
    """Lanes of d/dx L(x, n) = (F'(x) - F'(n) - 2 L(x, n)(x - n))/(x - n)^2
    on the lanes of `_L_terms`, whose output is L; dFx encloses F'(x).

    Near n, d/dx L(x, n) = int_0^1 (1-t) t F'''(n + t(x-n)) dt lies in
    (1/6) F'''(hull(x, n)), which takes over as `_removable` sets out.
    """
    return _removable(x, n, lambda d: (dFx - dFn - 2.0 * L * d) / pow_int(d, 2),
                      lambda h: SIXTH * _third_derivative(ctx, h))


def _first_derivative(ctx: PotentialContext, x: Lanes, F: Lanes) -> Lanes:
    """F' = -alpha c x^(alpha-1) F^2 with c = s^alpha, from F = F(x): a free form,
    valid on any x >= 0."""
    return -ctx.alpha * ctx.s_pow_alpha * pow_int(x, ctx.alpha - 1) * pow_int(F, 2)


def _second_derivative_any(ctx: PotentialContext, x: Lanes) -> Lanes:
    """F'' enclosure valid on any x >= 0: the quotient form on lanes with
    x > 0, the free form on lanes that hold 0.  A form no lane takes is not
    evaluated."""
    F = F_alpha(ctx, x)
    bracket = ctx.alpha * (_ONE - 2.0 * F) + 1.0
    inner = x.lo > 0.0

    def quotient(y: Lanes) -> Lanes:
        return ctx.alpha * F * (_ONE - F) * bracket / pow_int(y, 2)

    if inner.all():
        return quotient(x)
    free = ctx.alpha * ctx.s_pow_alpha * pow_int(x, ctx.alpha - 2) * pow_int(F, 2) * bracket
    if not inner.any():
        return free
    return Lanes.where(inner, quotient(Lanes.where(inner, x, 1.0)), free)


def _third_derivative(ctx: PotentialContext, x: Lanes) -> Lanes:
    """F''' = c x^(alpha-3) F^2 (-alpha^3 (1 - 6F + 6F^2) - 3 alpha^2 (1 - 2F) - 2 alpha)
    with c = s^alpha: a free form, valid on any x >= 0."""
    a = ctx.alpha
    F = F_alpha(ctx, x)
    F2 = pow_int(F, 2)
    bracket = -a ** 3 * (_ONE - 6.0 * F + 6.0 * F2) - 3 * a * a * (_ONE - 2.0 * F) - 2.0 * a
    return ctx.s_pow_alpha * pow_int(x, a - 3) * F2 * bracket


def _mean_value(terms):
    """The f handed to _bnb for an integrand head + tail, in mean-value form.

    On a box X with midpoint m, f(X) = (head(m) + slope(X)(X - m)) + tail(X),
    where slope(X) encloses head' on X and the tail is enclosed on the box,
    not differentiated; on a point box, such as a midpoint that _bnb reads,
    f is the direct head(X) + tail(X).  A direct enclosure of a sum of many
    terms is O(width) too wide, this one O(width^2) (Moore, Kearfott and
    Cloud, Introduction to Interval Analysis, SIAM 2009, ch. 6).

    terms(y, B, param) evaluates all three on one block y of lanes, each
    with its param: the midpoints m in the first B lanes (for a point box,
    the point), then the boxes wider than a point.  It gives the head on
    y[:B], the slope on y[B:] (None when B is all of y) and the tail on
    every lane of y, or one Interval for every lane.
    """
    def f(x: Lanes, param) -> Lanes:
        wide = np.flatnonzero(x.lo < x.hi)
        box, m, B = x[wide], x.lo.copy(), x.lo.size
        m[wide] = 0.5 * (box.lo + box.hi)
        y = Lanes.concat((Lanes(m), box))
        v, slope, tail = terms(y, B, np.concatenate((param, param[wide])))
        if wide.size:
            v[wide] = v[wide] + slope * (box - m[wide])
        if isinstance(tail, Lanes):  # each box's tail: its point, or its box in y
            at = np.arange(B)
            at[wide] = np.arange(B, y.lo.size)
            tail = tail[at]
        return v + tail
    return f


def _sum_3n2F_n3dF(coeffs: AuxCoefficients) -> Interval:
    """Enclosure of sum_{n in Z} (3 n^2 F(n) + n^3 F'(n)).

    By n F'(n) = -alpha F(n)(1 - F(n)), each term is
    n^2 F(n)(3 - alpha + alpha F(n)).  Beyond the head, F(n) <= F(N) < 1/4
    (N >= 8 and s_alpha >= 1), so for alpha >= 4 each term lies in
    [-(alpha - 3) n^2 F(n), 0) and the rows |n| > N in [-2b, 0],
    b = (alpha - 3) tail_n2F.  ValueError if the table's F(N) is not < 1/4.
    """
    if not coeffs.Fn[coeffs.N].hi < 0.25:
        raise ValueError("the one-sided tail needs F(N) < 1/4")
    n, F, dF = coeffs.rows()
    acc = lane_sum(_ZERO, (3.0 * n * n) * F, dF * _n_pow(n, 3))
    b = ((coeffs.ctx.alpha - 3.0) * coeffs.tail_n2F).hi
    return 2.0 * acc + Interval(-2.0 * b, 0.0)


def _psi4_parts(coeffs: AuxCoefficients):
    """The `_mean_value` terms of the integrand sum_{n in Z} L(x, n) on x >= 0,
    at any alpha: `psi4_le_F4` at alpha = 4 and `eta0` on [0, 1/2].

    head sums |n| <= N (N >= 10) as ((L(x, 0) + L(x, 1)) + L(x, -1)) + ...,
    with L(x, 0) = (F(x) - 1)/x^2 = -c x^(alpha-2) F(x), c = s^alpha;
    slope sums the derivatives in the same order, starting from
    d/dx L(x, 0) = -c x^(alpha-3) F(x) (alpha F(x) - 2); tail, the terms
    |n| > N, is F(x) `_inv_sq_tail` minus offset terms (`_offset_tail`).
    F(x) and the terms L(x, n) are evaluated once on the whole block, points
    and boxes, and head, slope and tail read them.  One block holds the rows
    n and -n, with F'(-n) = -F'(n); the fold reads its halves in the order
    above.
    """
    ctx = coeffs.ctx
    alpha, N = ctx.alpha, coeffs.N
    off = _offset_tail(ctx, N)
    n, Fn, dFn = coeffs.rows()
    k = n.size
    ns, Fs, dFs = np.concatenate((n, -n)), Lanes.concat((Fn, Fn)), Lanes.concat((dFn, -dFn))

    def terms(y: Lanes, B: int, _param):
        F = F_alpha(ctx, y)
        L = _L_terms(ctx, y[:, None], F[:, None], ns, Fs, dFs)
        head = lane_fold(F_deficit_over_x_sq(ctx, y[:B], F[:B]), L[:B, :k], L[:B, k:])
        tail = F * _inv_sq_tail(y, N) + Interval(-off, off)
        if B == y.lo.size:
            return head, None, tail
        x, Fx = y[B:], F[B:]
        dL = _dL_terms(ctx, x[:, None], _first_derivative(ctx, x, Fx)[:, None], L[B:], ns, dFs)
        at0 = -ctx.s_pow_alpha * pow_int(x, alpha - 3) * Fx * (alpha * Fx - 2.0)
        return head, lane_fold(at0, dL[:, :k], dL[:, k:]), tail

    return terms


def certify_psi4_le_F4(ctx: PotentialContext, policy: BnbPolicy | None = None) -> Certificate:
    """sum_{n in Z} L4(x, n) >= 0 on [0, 9] by branch-and-bound, in mean-value form.

    The x >= 9 range is discharged by the displayed constant inequality
    -sum(3n^2 F + n^3 F') >= 10/81 + 1/81 + (5/2) F(9), evaluated in
    interval arithmetic (the surrounding hand derivation is trusted).
    """
    alpha = ctx.alpha
    route = _route("psi4_le_F4", True, alpha)
    run = _Run()
    coeffs = _table(ctx)
    far = -_sum_3n2F_n3dF(coeffs) - Interval.from_fraction(Fraction(11, 81)) - 2.5 * coeffs.Fn[9]
    run.check(far, policy, at=9.0)
    _bnb(run, _mean_value(_psi4_parts(coeffs)), [(0.0, 9.0)], policy)
    return route.certificate(
        run, alpha, f"[0, 9] branch-and-bound + displayed constant for x >= 9 (assumption "
        f"recorded), head N={_N}", policy)


# ---------------------------------------------------------------------------
# The three nearest-integer cases of psi <= F away from alpha = 4.
# ---------------------------------------------------------------------------

def certify_eta0(ctx: PotentialContext, policy: BnbPolicy | None = None) -> Certificate:
    """sum_{n in Z} L(x, n) >= 0 on [0, 1/2] by branch-and-bound, which is psi <= F there.

    The sum is the `_psi4_parts` integrand at this alpha, and it equals
    pi^2 (F(x) - psi(x))/sin^2(pi x) (Cohn and Kumar, JAMS 2007).  It is
    enclosed in direct form, head(X) + tail(X), which discharges the root
    in one box where the mean-value form splits it.
    """
    route = _route("eta0", True, ctx.alpha)
    run = _Run()
    terms = _psi4_parts(_table(ctx))

    def direct(x: Lanes, param) -> Lanes:
        head, _, tail = terms(x, x.lo.size, param)
        return head + tail

    _bnb(run, direct, [(0.0, 0.5)], policy)
    return route.certificate(run, ctx.alpha, "[0, 1/2] branch-and-bound of sum_n L(x, n), "
                             f"so psi <= F, head N={_N}", policy)


def _inv_sq_tail(t: Lanes, N: int) -> Lanes:
    """Lanes of sum_{|n| > N} 1/(n - t)^2 for boxes t within (-N, N): the
    integral sandwich 1/(N+1-t) + 1/(N+1+t) <= sum <= 1/(N-t) + 1/(N+t).

    The four quotients are one block of columns, each lower bound's pair
    added in the order written."""
    T = t[:, None]
    q = _ONE / (Lanes.concat((-T, T, -T, T)) + np.array([N + 1.0, N + 1.0, N, N]))
    s = q[:, 0::2] + q[:, 1::2]
    return Lanes(s.lo[:, 0], s.hi[:, 1])


def _inv_sq_offset_sum(t: Lanes, N: int) -> Lanes:
    """Lanes of sum_{n != 0} 1/(n - t)^2 for boxes t within (-1, 1).

    Head |n| <= N, added as ((0 + 1/(1-t)^2) + 1/(1+t)^2) + 1/(2-t)^2 ...,
    plus `_inv_sq_tail`.  One block holds t - n and t + n; (t - n)^2 has
    the bits of (n - t)^2, and the fold reads the halves in the order above.
    """
    n = np.arange(1.0, N + 1.0)
    q = _ONE / pow_int(t[:, None] - np.concatenate((n, -n)), 2)
    acc = lane_fold(Lanes(np.zeros_like(t.lo)), q[:, :N], q[:, N:])
    return acc + _inv_sq_tail(t, N)


def _eta1_integrand(coeffs: AuxCoefficients):
    """Lane form of the eta1 integrand in t = x - 1: the eta_ge2 sum at eta = 1
    with its diagonal term pulled out,

        L(x, 1) + F(x) sum_{n != 0} 1/(n - t)^2 - offset(x, 1) +- tail,

    where L(x, 1) = (F(x) - F(1) - F'(1) t)/t^2 is one lane of `_L_terms`,
    offset(x, 1) is `_offset_sum` at eta = 1 on the table's rows |n| <= N
    (N >= 10) and tail is `_offset_tail`.  Each lane is computed on its own,
    so it equals the scalar evaluation on the same box bit for bit.
    """
    ctx, N = coeffs.ctx, coeffs.N
    tail = _offset_tail(ctx, N)
    rows = coeffs.rows()

    def integrand(t: Lanes, _param) -> Lanes:
        x = 1.0 + t
        Fx = F_alpha(ctx, x)
        q = _L_terms(ctx, x[:, None], Fx[:, None], np.ones(1), ctx.F1, ctx.dF1)[:, 0]
        eta = np.ones(t.lo.shape, dtype=np.int64)
        return q + Fx * _inv_sq_offset_sum(t, N) - _offset_sum(x, eta, rows) \
            + Interval(-tail, tail)

    return integrand


def certify_eta1(ctx: PotentialContext, policy: BnbPolicy | None = None) -> Certificate:
    """Branch-and-bound in t over [-1/2, 1/2] covering 1/2 <= x <= 3/2."""
    route = _route("eta1", True, ctx.alpha)
    run = _Run()
    _bnb(run, _eta1_integrand(_table(ctx)), [(-0.5, 0.5)], policy)
    return route.certificate(run, ctx.alpha, f"t in [-1/2, 1/2] (x = 1 + t), head N={_N}", policy)


def _offset_tail(ctx: PotentialContext, N: int) -> float:
    """B >= sum_{|n| > N} (F(n)/(x-n)^2 + F'(n)/(x-n)) >= 0 on 0 <= x <= 10
    (hand-derived); ValueError unless N >= 10.

    For n >= N + 1 >= 11 the terms at n and -n are positive; by
    F(n) <= n^-alpha/c and |F'(n)| <= alpha n^-(alpha+1)/c, c = s^alpha,
    they sum to at most n^-(alpha+2)/c (2 (n/(n-10))^2 + 2 alpha n^2/(n^2-100)).
    Both ratios fall in n, so with k = N + 1 that is at most
    2 ((k/(k-10))^2 + alpha k^2/(k^2-100)) n^-(alpha+2)/c, the rational
    factor rounded up once.  B sums that over n > N.
    """
    if N < 10:
        raise ValueError(f"the offset tail needs a head of |n| <= N with N >= 10, not N = {N}")
    k = N + 1
    ratio = Interval.from_fraction(2 * (Fraction(k, k - 10) ** 2
                                        + ctx.alpha * Fraction(k * k, k * k - 100)))
    return (ratio * power_sum_tail(ctx.alpha + 2, k) / ctx.s_pow_alpha).hi


def _eta_ge2_parts(coeffs: AuxCoefficients):
    """The `_mean_value` terms of -offset(x, eta) on boxes x >= 1, each with
    its segment's eta as param.

    head is -`_offset_sum` (N >= 10); slope sums d/dx F(n)/(x-n)^2 =
    -2F(n)/(x-n)^3 and d/dx F'(n)/(x-n) = -F'(n)/(x-n)^2 in the same order
    (x - n never holds 0, since n != eta), on one block of the rows n and -n
    as the head does; tail is `_offset_tail`.
    """
    b = _offset_tail(coeffs.ctx, coeffs.N)
    tail = Interval(-b, b)
    rows = coeffs.rows()
    n, Fn, dFn = rows
    k = n.size
    minus_2F, dFs = -2.0 * Lanes.concat((Fn, Fn)), Lanes.concat((dFn, -dFn))

    def terms(y: Lanes, B: int, eta: np.ndarray):
        head = -_offset_sum(y[:B], eta[:B], rows)
        if B == y.lo.size:
            return head, None, tail
        x = y[B:]
        own, d = _offsets(x, eta[B:], n)
        term = minus_2F / pow_int(d, 3) - dFs / pow_int(d, 2)
        return head, -lane_fold(-2.0 / pow_int(x, 3), (term[:, :k], own), term[:, k:]), tail

    return terms


def certify_eta_ge2(ctx: PotentialContext, policy: BnbPolicy | None = None) -> Certificate:
    """x in [1.5, 10] by branch-and-bound, in mean-value form, plus the
    displayed x >= 10 constant.

    Certifies sum_{n != eta(x)} (F(n)/(x-n)^2 + F'(n)/(x-n)) <= 0 on segments
    of constant nearest integer, plus the reduction's side condition
    F(3/2) <= 1/2 (which makes the pulled-out diagonal nonnegative).
    """
    alpha = ctx.alpha
    route = _route("eta_ge2", True, alpha)
    run = _Run()
    coeffs = _table(ctx)
    run.check(0.5 - F_alpha(ctx, Interval(1.5)), policy, at=1.5)
    run.check(_allthestars_small_value(coeffs), policy, at=10.0)
    segments = [(max(1.5, eta - 0.5), min(10.0, eta + 0.5), eta) for eta in range(2, 11)]
    _bnb(run, _mean_value(_eta_ge2_parts(coeffs)), [sg for sg in segments if sg[0] < sg[1]],
         policy)
    return route.certificate(
        run, alpha, "x in [1.5, 10] segmented at half-integers + displayed constant for x >= 10, "
        f"head N={_N}", policy)


def _allthestars_small_value(coeffs: AuxCoefficients) -> Interval:
    """-(displayed x >= 10 constant), which must be >= 0 on the eta_ge2 row's alpha."""
    ctx = coeffs.ctx
    alpha = ctx.alpha
    s3n = _sum_3n2F_n3dF(coeffs)
    n, F, dF = coeffs.rows(2)
    big = lane_sum(_ZERO, abs(F * _n_pow(n, 4, 10.0) + dF * _n_pow(n, 5, 2.0)))
    tail4 = ((10.0 + 2.0 * alpha) * power_sum_tail(alpha - 4, coeffs.N + 1) / ctx.s_pow_alpha).hi
    big = big + Interval(0.0, tail4)
    F1, dF1 = ctx.F1, ctx.dF1
    val = s3n + 16.0 / (100.0 * ctx.s_pow_alpha) + (10.0 * F1 + 2.0 * dF1) / 99.0 \
        + big / 5.0 + Interval(8.0 * alpha + 2.0) / pow_int(Interval(10.0), alpha - 2)
    return -val


def certify_allthestars_large(alpha: int, policy: BnbPolicy | None = None) -> Certificate:
    """Closed chain for the x >= 1.5 far constant, valid for large alpha."""
    route = _route("allthestars_const", False, alpha)
    run = _Run()
    p = pow_int(Interval(2.0), alpha - 4)  # 2^(a-4); 2^(a-2) = 4p
    val = Interval(-1.0) + Interval(7.0) / (2 * alpha - 4) + _ONE / p \
        + (Interval(11.0) / (2 * alpha - 4) - 1.0) / 1.25 \
        + Interval(16.0) / (2.25 * Interval(float(2 * alpha - 5))) \
        + Interval(4.0) / (1.5 * p) \
        + Interval(8.0 * alpha + 2.0) / (4.0 * p)
    run.check(-val, policy)
    return route.certificate(run, alpha, _CLOSED, policy)


# ---------------------------------------------------------------------------
# Orchestration.
# ---------------------------------------------------------------------------

def certify_all(alpha: int, policy: BnbPolicy | None = None,
                ctx: PotentialContext | None = None) -> list[Certificate]:
    """Run the full certificate suite for one alpha.

    psihat_nonneg comes first, then every `listed` row of ROUTES at alpha in
    table order; a listed row that is also a piece of psihat_nonneg (the w
    route with a context) is computed once.  alpha outside the `all` row is a
    ValueError, so every alpha accepted gets a route for every piece of
    psi <= F.  With no ctx, s_alpha is solved at tol 1e-12.  Every piece,
    psihat_nonneg included, reads the one table `_table(ctx)`.  The
    interpolation, support and decay conditions hold by construction and are
    exercised by the property tests rather than certified here.
    """
    _route("all", True, alpha)
    if ctx is None:
        ctx = solve_s_alpha(alpha)
    listed = {r.inequality_id: r.call(alpha, ctx, policy)
              for r in ROUTES if r.listed and alpha in r.alphas}
    psihat = certify_psihat_nonneg(_table(ctx), policy, listed)
    return [psihat, *listed.values()]


# ---------------------------------------------------------------------------
# The route table.
# ---------------------------------------------------------------------------

def _evens(lo: int, hi: int = sys.maxsize) -> range:
    """The even alpha from lo to hi; no hi means up to sys.maxsize - 1, the
    largest even alpha a range holds."""
    return range(lo, hi + 1, 2)


def _describe(alphas: range) -> str:
    if len(alphas) == 1:
        return f"alpha = {alphas.start}"
    return f"even alpha in [{alphas.start}, {alphas[-1]}]"


@dataclass(frozen=True)
class Route:
    """One row of the route table: one way to prove one inequality.

    `cli` is the `repulse certify --inequality` name (None: reached only
    through `all`).  `call(alpha, ctx, policy)` runs the route; ctx is None
    unless `needs_ctx`, i.e. unless the route reads the solved s_alpha.  The
    call names its certify_* function inside a lambda, so that function
    is looked up in this module when the route runs and a rebinding of the
    module attribute (a tracer's span) is seen.  `part` marks the pieces of
    psihat_nonneg; `listed` the certificates that certify_all returns on
    their own.
    """

    cli: str | None
    inequality_id: str
    alphas: range
    needs_ctx: bool
    paper_anchor: str
    call: Callable[..., Certificate | list[Certificate]]
    part: bool = False
    listed: bool = False

    def certificate(self, run: _Run, alpha: int, domain: str,
                    policy: BnbPolicy | None) -> Certificate:
        return _certificate(run, alpha, domain, policy, self.inequality_id, self.paper_anchor)


# Static data: building the table evaluates nothing.  Rows of one name
# have disjoint alpha ranges.
ROUTES = (
    Route("T", "T_alpha", _evens(4, 10), True,
          "T(alpha) = (1/2)(1 - 2*sum F(n)) - (1/pi)*sum_{n>=2}|F'(n)| >= 0",
          lambda a, ctx, p: certify_T(ctx, p), part=True),
    Route("T", "T_alpha", _evens(12), False,
          "(1/2)(1 - 1/(a-2) - (2/a)(a+1)/(2^a(a-1))) - (1/pi)(a+2)/(a 2^(a+1)) >= 0",
          lambda a, ctx, p: certify_T_large(a, p), part=True),
    Route("L", "L_alpha", _evens(6, 10), True,
          "L(alpha) = sum n^3 F'(n)(-2/3+4R(pi n)) - sum 2 n^2 F(n) >= 0",
          lambda a, ctx, p: certify_L(ctx, p), part=True),
    Route("L", "L_alpha", _evens(12), False,
          "(1-1/(2a-4))(2/3-4R(pi)) - 4(a-1)/(2^(a-2)(2a-5)(a-3)) - 2/(a-2) >= 0",
          lambda a, ctx, p: certify_L_large(a, p), part=True),
    Route("w", "w_inequality", _evens(4, 4), True,
          "4(1-F4(1)) S3-form of the half-angle inequality",
          lambda a, ctx, p: certify_w_inequality(ctx, p), part=True, listed=True),
    # the displayed inequality, with the constant 5 in place of 4(1 - F4(1))
    Route("w", "w_inequality", _evens(6), False,
          "8w - 4 sin(2w) - 5 w sin(w)^2 >= 0, via 32 S3(2w) - 5 sinc(w)^2 >= 0",
          lambda a, ctx, p: certify_w_inequality(None, p, alpha=a)),
    Route("psi4", "psi4_le_F4", _evens(4, 4), True,
          "sum_n (F4(x) - F4(n) - F4'(n)(x-n))/(x-n)^2 >= 0",
          lambda a, ctx, p: certify_psi4_le_F4(ctx, p), listed=True),
    Route("eta0", "eta0", _evens(6, 1000), True,
          "sum_n (F(x) - F(n) - F'(n)(x-n))/(x-n)^2 = pi^2 (F(x) - psi(x))/sin^2(pi x) >= 0 "
          "on [0, 1/2]",
          lambda a, ctx, p: certify_eta0(ctx, p), listed=True),
    Route("eta1", "eta1", _evens(6, 1000), True,
          "(F(1+t)-F(1)-tF'(1))/t^2 + F(1+t) sum 1/(n-t)^2 >= "
          "1/(1+t)^2 + F(1)/(2+t)^2 - F'(1)/(2+t) + B(alpha,t)",
          lambda a, ctx, p: certify_eta1(ctx, p), listed=True),
    Route("eta2", "eta_ge2", _evens(6, 14), True,
          "sum_{n != eta(x)} (F(n)/(x-n)^2 + F'(n)/(x-n)) <= 0",
          lambda a, ctx, p: certify_eta_ge2(ctx, p), listed=True),
    Route(None, "allthestars_const", _evens(16), False,
          "-1 + 7/(2a-4) + 2^(4-a) + (11/(2a-4)-1)/1.25 + "
          "16/(2.25(2a-5)) + 4/(1.5 2^(a-4)) <= -(8a+2)/2^(a-2)",
          lambda a, ctx, p: certify_allthestars_large(a, p), listed=True),
    # every piece of the proof; eta0 and eta1 are the pieces with the lowest upper limit
    Route("all", "all", _evens(4, 1000), True,
          "psihat_nonneg and every listed route at alpha",
          lambda a, ctx, p: certify_all(a, policy=p, ctx=ctx)),
)


def _route(inequality_id: str, needs_ctx: bool, alpha: int | None = None) -> Route:
    """The row of inequality_id with or without a context; ValueError if it
    does not cover alpha (no alpha: no check)."""
    route = next(r for r in ROUTES if r.inequality_id == inequality_id
                 and r.needs_ctx == needs_ctx)
    if alpha is not None and alpha not in route.alphas:
        solve = "with" if needs_ctx else "without"
        raise ValueError(f"the {inequality_id} route {solve} a spacing solve covers "
                         f"{_describe(route.alphas)}, not alpha = {alpha}")
    return route


def route_for(cli: str, alpha: int) -> Route:
    """The row that `repulse certify --inequality cli` runs at alpha;
    ValueError when no row of that name covers alpha."""
    rows = [r for r in ROUTES if r.cli == cli]
    for r in rows:
        if alpha in r.alphas:
            return r
    covers = " and ".join(_describe(r.alphas) for r in rows) or "nothing"
    raise ValueError(f"--inequality {cli} covers {covers}, not alpha = {alpha}")
