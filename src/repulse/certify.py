"""Branch-and-bound interval proofs of the positivity inequalities.

Every certificate is produced by sign-certified interval evaluation: a box
is discharged only when the enclosure's lower bound is >= 0 exactly (no
epsilon), infinite sums carry rigorous tails pushed in the unfavorable
direction, and failures attach a point witness with a rigorously negative
enclosure.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .auxfn import AuxCoefficients, build_coefficients
from .interval import (
    Interval,
    Lanes,
    PI,
    PI_SQ,
    lane_fold,
    pow_int,
    remainder_R,
    s3_kernel,
    sinc,
)
from .potential import (
    F_alpha,
    F_deficit_over_x_sq,
    PotentialContext,
    power_sum_tail,
    solve_s_alpha,
)

__all__ = [
    "BnbPolicy",
    "Certificate",
    "prove_nonneg",
    "certify_T",
    "certify_T_large",
    "certify_L",
    "certify_L_large",
    "certify_w_inequality",
    "certify_psihat_nonneg",
    "mean_value_L_term",
    "certify_psi4_le_F4",
    "certify_eta0",
    "certify_eta1",
    "certify_eta_ge2",
    "certify_allthestars_large",
    "certify_all",
    "certificates_to_json",
]

VERIFIED = "verified"
FAILED = "failed"
INCONCLUSIVE = "inconclusive"

_ONE = Interval(1.0)
_ZERO = Interval(0.0)
_TWO_THIRDS = Interval.from_fraction(Fraction(2, 3))

_SMALL_ALPHA_T = (4, 6, 8, 10)
_SMALL_ALPHA_L = (6, 8, 10)


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

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED

    def to_json_dict(self) -> dict:
        mlb = self.min_lower_bound
        return {
            "inequality_id": self.inequality_id,
            "alpha": self.alpha,
            "domain": self.domain,
            "status": self.status,
            "boxes_processed": self.boxes_processed,
            "max_depth": self.max_depth,
            "min_lower_bound": None if math.isnan(mlb) else mlb,
            "wall_time_ms": self.wall_time_ms,
            "witness": self.witness,
            "paper_anchor": self.paper_anchor,
            "policy": {"max_depth": self.policy.max_depth, "budget": self.policy.budget},
        }


def certificates_to_json(certs) -> str:
    return json.dumps([c.to_json_dict() for c in certs], indent=2)


# ---------------------------------------------------------------------------
# The generic engine.
# ---------------------------------------------------------------------------

@dataclass
class _Run:
    """Mutable accumulator shared by the pieces of one certificate."""

    boxes: int = 0
    max_depth: int = 0
    min_lb: float = math.inf
    status: str = VERIFIED
    witness: float | None = None

    def merge_value(self, v: Interval, at: float) -> bool:
        """Account a direct (non-subdivided) evaluation; True if discharged."""
        self.boxes += 1
        if v.lo >= 0.0:
            self.min_lb = min(self.min_lb, v.lo)
            return True
        if v.hi < 0.0:
            self.status = FAILED
            self.witness = at
            self.min_lb = min(self.min_lb, v.lo)
        elif self.status == VERIFIED:
            self.status = INCONCLUSIVE
        return False


# Boxes per lane batch.  A batched f holds a few dozen (boxes x terms)
# arrays at once: with 64 terms a batch of 64 boxes peaks near 0.8 MB, and
# 128 boxes double that for about an eighth less time.
_CHUNK = 64


def _evaluate(f, lo: np.ndarray, hi: np.ndarray, param: np.ndarray) -> Lanes:
    """f on the boxes [lo, hi], _CHUNK lanes at a time."""
    parts = [f(Lanes(lo[i:i + _CHUNK], hi[i:i + _CHUNK]), param[i:i + _CHUNK])
             for i in range(0, lo.size, _CHUNK)]
    if not parts:
        return Lanes(lo, hi)
    return Lanes(np.concatenate([p.lo for p in parts]), np.concatenate([p.hi for p in parts]))


def _per_lane(f):
    """Lane form of a scalar callable Interval -> Interval, one box at a time."""
    def lanes(x: Lanes, _param) -> Lanes:
        vals = [f(Interval(a, b)) for a, b in zip(x.lo.tolist(), x.hi.tolist())]
        return Lanes([v.lo for v in vals], [v.hi for v in vals])
    return lanes


def _bnb(run: _Run, f, roots, policy: BnbPolicy) -> None:
    """Discharge f >= 0 on every root box into `run`, one frontier level at a time.

    `roots` lists boxes (lo, hi) or (lo, hi, param).  f maps Lanes of boxes
    and the array of their roots' params (0 where none is given) to Lanes of
    enclosures; `_per_lane` adapts a scalar callable.  A level is the whole
    frontier in left-to-right order: root order, then position.  A box is
    discharged when its enclosure's lower bound is >= 0; otherwise f is
    evaluated at its midpoint and the box is bisected there.  A level of at
    most _CHUNK / 2 boxes is evaluated in one batch with all its midpoints,
    so f may also be evaluated at midpoints of boxes that are discharged;
    those values are ignored.  Every lane is computed on its own, so this
    changes no box and no value the run keeps.

    The box tree depends only on f, so a verified run has the same boxes,
    max_depth and min_lower_bound in any evaluation order.  A run that is not
    verified stops at the first level where one of these holds, in this order:

    - a midpoint's enclosure is < 0: `failed`, with the leftmost such
      midpoint as witness and its enclosure's lower bound in min_lb;
    - the level did not fit in the budget: `inconclusive`.  No more than
      `budget` boxes are ever evaluated, counting the run's earlier pieces;
      the level is cut to the boxes that fit;
    - an undischarged box is at max_depth, or its midpoint does not split
      it: `inconclusive`.

    max_depth < 1 reports `inconclusive` without evaluating anything.
    """
    if policy.max_depth < 1:
        run.status = INCONCLUSIVE
        return
    lo = np.array([r[0] for r in roots], dtype=float)
    hi = np.array([r[1] for r in roots], dtype=float)
    param = np.array([r[2] if len(r) > 2 else 0 for r in roots], dtype=np.int64)
    depth = 0
    while lo.size and run.status != FAILED:
        room = max(policy.budget - run.boxes, 0)
        cut = lo.size > room
        if cut:
            lo, hi, param = lo[:room], hi[:room], param[:room]
        if lo.size:
            run.max_depth = max(run.max_depth, depth)
        run.boxes += lo.size
        mid = 0.5 * (lo + hi)
        small = 2 * lo.size <= _CHUNK
        if small:  # one batch of boxes and midpoints instead of two
            both = _evaluate(f, np.concatenate((lo, mid)), np.concatenate((hi, mid)),
                             np.tile(param, 2))
            v, vm = both[:lo.size], both[lo.size:]
        else:
            v = _evaluate(f, lo, hi, param)
        done = v.lo >= 0.0
        run.min_lb = min([run.min_lb, *v.lo[done].tolist()])
        lo, hi, mid, param = lo[~done], hi[~done], mid[~done], param[~done]
        vm = vm[~done] if small else _evaluate(f, mid, mid, param)
        bad = np.flatnonzero(vm.hi < 0.0)
        if bad.size:
            run.status = FAILED
            run.witness = float(mid[bad[0]])
            run.min_lb = min(run.min_lb, float(vm.lo[bad[0]]))
            return
        if cut or (lo.size and depth >= policy.max_depth) or np.any((mid <= lo) | (mid >= hi)):
            run.status = INCONCLUSIVE
            return
        lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
        param = np.repeat(param, 2)
        depth += 1


def _finish(run: _Run, *, inequality_id: str, alpha: int, domain: str,
            paper_anchor: str, policy: BnbPolicy, t0: float) -> Certificate:
    return Certificate(
        inequality_id=inequality_id,
        alpha=alpha,
        domain=domain,
        status=run.status,
        boxes_processed=run.boxes,
        max_depth=run.max_depth,
        min_lower_bound=run.min_lb if math.isfinite(run.min_lb) else math.nan,
        wall_time_ms=int((time.perf_counter() - t0) * 1000),
        witness=run.witness,
        paper_anchor=paper_anchor,
        policy=policy,
    )


def prove_nonneg(f, domain: Interval, policy: BnbPolicy | None = None, *,
                 inequality_id: str = "custom", alpha: int = 0,
                 domain_desc: str | None = None, paper_anchor: str = "") -> Certificate:
    """Certify f(x) >= 0 on the domain by branch-and-bound subdivision."""
    policy = policy or BnbPolicy()
    t0 = time.perf_counter()
    run = _Run()
    _bnb(run, _per_lane(f), [(domain.lo, domain.hi)], policy)
    return _finish(
        run,
        inequality_id=inequality_id,
        alpha=alpha,
        domain=domain_desc or f"[{domain.lo!r}, {domain.hi!r}]",
        paper_anchor=paper_anchor,
        policy=policy,
        t0=t0,
    )


def _constant_certificate(value: Interval, *, inequality_id: str, alpha: int,
                          domain: str, paper_anchor: str,
                          policy: BnbPolicy | None = None) -> Certificate:
    policy = policy or BnbPolicy()
    t0 = time.perf_counter()
    run = _Run()
    if policy.max_depth < 1:
        run.status = INCONCLUSIVE
    else:
        run.merge_value(value, at=0.0)
    return _finish(run, inequality_id=inequality_id, alpha=alpha, domain=domain,
                   paper_anchor=paper_anchor, policy=policy, t0=t0)


# ---------------------------------------------------------------------------
# The transform-positivity constants T(alpha) and L(alpha).
# ---------------------------------------------------------------------------

def _T_value(coeffs: AuxCoefficients) -> Interval:
    """T = (1/2)(1 - 2 sum_{n>=1} F(n)) - (1/pi) sum_{n>=2} |F'(n)|."""
    SF = _ZERO
    SdF = _ZERO
    for n in range(1, coeffs.N + 1):
        SF = SF + coeffs.Fn[n]
        if n >= 2:
            SdF = SdF + abs(coeffs.dFn[n])
    SF = SF + coeffs.tail_F
    SdF = SdF + coeffs.tail_dF
    return 0.5 * (_ONE - 2.0 * SF) - SdF / PI


def certify_T(ctx: PotentialContext, N: int = 64,
              policy: BnbPolicy | None = None) -> Certificate:
    """Single-constant proof of the transform's positivity on [0, 1/2]."""
    if ctx.alpha not in _SMALL_ALPHA_T:
        raise ValueError("interval route for T covers alpha in {4, 6, 8, 10}")
    coeffs = build_coefficients(ctx, N)
    return _constant_certificate(
        _T_value(coeffs),
        inequality_id="T_alpha",
        alpha=ctx.alpha,
        domain=f"constant check, head N={N}",
        paper_anchor="T(alpha) = (1/2)(1 - 2*sum F(n)) - (1/pi)*sum_{n>=2}|F'(n)| >= 0",
        policy=policy,
    )


def certify_T_large(alpha: int, policy: BnbPolicy | None = None) -> Certificate:
    """Closed lower bound for T(alpha), valid for alpha >= 12."""
    if alpha < 12 or alpha % 2:
        raise ValueError("closed T bound requires even alpha >= 12")
    p2 = pow_int(Interval(2.0), alpha)
    val = 0.5 * (_ONE - _ONE / (alpha - 2)
                 - Interval(2.0) / alpha * (alpha + 1) / (p2 * (alpha - 1))) \
        - (_ONE / PI) * (alpha + 2) / (alpha * 2.0 * p2)
    return _constant_certificate(
        val,
        inequality_id="T_alpha",
        alpha=alpha,
        domain="closed-bound evaluation (large alpha)",
        paper_anchor="(1/2)(1 - 1/(a-2) - (2/a)(a+1)/(2^a(a-1))) - (1/pi)(a+2)/(a 2^(a+1)) >= 0",
        policy=policy,
    )


def _L_value(coeffs: AuxCoefficients) -> Interval:
    """L = sum_n n^3 F'(n)(-2/3 + 4R(pi n)) - sum_n 2 n^2 F(n), over Z."""
    acc = _ZERO
    for n in range(1, coeffs.N + 1):
        kern = 4.0 * remainder_R(PI * n) - _TWO_THIRDS
        acc = acc + float(n) ** 3 * coeffs.dFn[n] * kern - (2.0 * n * n) * coeffs.Fn[n]
    total = 2.0 * acc
    t2 = coeffs.tail_n2F.hi
    return total + Interval(-4.0 * t2, (4.0 * coeffs.ctx.alpha / 3.0) * t2)


def certify_L(ctx: PotentialContext, N: int = 64,
              policy: BnbPolicy | None = None) -> Certificate:
    """Single-constant proof of the transform's positivity on [1/2, 1].

    alpha in {6, 8, 10} evaluates the kernel-weighted sum directly;
    alpha >= 12 takes the closed lower-bound route.
    """
    if ctx.alpha >= 12:
        return certify_L_large(ctx.alpha, policy)
    if ctx.alpha not in _SMALL_ALPHA_L:
        raise ValueError("the L route needs alpha >= 6 (alpha = 4 goes through the w inequality)")
    coeffs = build_coefficients(ctx, N)
    return _constant_certificate(
        _L_value(coeffs),
        inequality_id="L_alpha",
        alpha=ctx.alpha,
        domain=f"constant check, head N={N}",
        paper_anchor="L(alpha) = sum n^3 F'(n)(-2/3+4R(pi n)) - sum 2 n^2 F(n) >= 0",
        policy=policy,
    )


def certify_L_large(alpha: int, policy: BnbPolicy | None = None) -> Certificate:
    """Closed lower bound for L(alpha), valid for alpha >= 12."""
    if alpha < 12 or alpha % 2:
        raise ValueError("closed L bound requires even alpha >= 12")
    r_pi = remainder_R(PI)
    lead = (_ONE - _ONE / (2 * alpha - 4)) * (_TWO_THIRDS - 4.0 * r_pi)
    mid = Interval(4.0) * (alpha - 1) / (pow_int(Interval(2.0), alpha - 2)
                                         * (2 * alpha - 5) * (alpha - 3))
    val = lead - mid - Interval(2.0) / (alpha - 2)
    return _constant_certificate(
        val,
        inequality_id="L_alpha",
        alpha=alpha,
        domain="closed-bound evaluation (large alpha)",
        paper_anchor="(1-1/(2a-4))(2/3-4R(pi)) - 4(a-1)/(2^(a-2)(2a-5)(a-3)) - 2/(a-2) >= 0",
        policy=policy,
    )


# ---------------------------------------------------------------------------
# The alpha = 4 scalar inequality in w (cancellation-free kernel form).
# ---------------------------------------------------------------------------

def certify_w_inequality(ctx: PotentialContext | None = None,
                         policy: BnbPolicy | None = None) -> Certificate:
    """8w - 4 sin 2w - 5 w sin^2 w >= 0, certified as c*S3(2w) - 2 sinc(w)^2 >= 0.

    With no context the displayed constant 5 is used (c = 64/5); with an
    alpha = 4 context the constant becomes 4*(1 - F(1)) from its enclosure,
    which is what the transform-positivity reduction actually consumes.
    Covers [0, pi/2] by branch-and-bound; for w >= pi/2 the scaled form is
    bounded below by (c1 - 2) w - c1/2, checked at w = pi/2 and increasing.
    """
    policy = policy or BnbPolicy()
    t0 = time.perf_counter()
    if ctx is None:
        c1 = Interval.from_fraction(Fraction(16, 5))
        tag = "8w - 4 sin(2w) - 5 w sin(w)^2 >= 0, via 32 S3(2w) - 5 sinc(w)^2 >= 0"
    else:
        if ctx.alpha != 4:
            raise ValueError("the w inequality is the alpha = 4 route")
        c1 = Interval(4.0 * (_ONE - ctx.F1).lo)
        tag = "4(1-F4(1)) S3-form of the half-angle inequality"
    four_c1 = 4.0 * c1

    def f(w: Interval) -> Interval:
        return four_c1 * s3_kernel(2.0 * w) - 2.0 * pow_int(sinc(w), 2)

    run = _Run()
    if policy.max_depth < 1:
        run.status = INCONCLUSIVE
    else:
        # w >= pi/2 piece: the w^3-scaled form is >= (c1-2) w - c1/2, which
        # increases in w only when c1 > 2, so that slope is certified first
        slope_ok = run.merge_value(c1 - 2.0, at=0.0)
        tail_val = (c1 - 2.0) * Interval(PI.lo / 2.0) - 0.5 * c1
        if slope_ok and run.merge_value(tail_val, at=math.pi / 2.0):
            _bnb(run, _per_lane(f), [(0.0, (PI / 2.0).hi)], policy)
    return _finish(
        run,
        inequality_id="w_inequality",
        alpha=4,
        domain="[0, pi/2] branch-and-bound + analytic piece for w >= pi/2",
        paper_anchor=tag,
        policy=policy,
        t0=t0,
    )


# ---------------------------------------------------------------------------
# Composite transform positivity.
# ---------------------------------------------------------------------------

def _combine(parts, *, inequality_id: str, alpha: int, domain: str,
             paper_anchor: str, policy: BnbPolicy, t0: float) -> Certificate:
    status = VERIFIED
    if any(p.status == FAILED for p in parts):
        status = FAILED
    elif any(p.status == INCONCLUSIVE for p in parts):
        status = INCONCLUSIVE
    witness = next((p.witness for p in parts if p.status == FAILED), None)
    lbs = [p.min_lower_bound for p in parts if not math.isnan(p.min_lower_bound)]
    return Certificate(
        inequality_id=inequality_id,
        alpha=alpha,
        domain=domain,
        status=status,
        boxes_processed=sum(p.boxes_processed for p in parts),
        max_depth=max((p.max_depth for p in parts), default=0),
        min_lower_bound=min(lbs) if lbs else math.nan,
        wall_time_ms=int((time.perf_counter() - t0) * 1000),
        witness=witness,
        paper_anchor=paper_anchor,
        policy=policy,
    )


def _monotone_coefficient_check(coeffs: AuxCoefficients) -> Interval:
    """min over n >= 2 of F(1) - F(n), which must be certifiably >= 0."""
    worst = Interval(1.0)
    F1 = coeffs.Fn[1]
    for n in range(2, coeffs.N + 1):
        d = F1 - coeffs.Fn[n]
        if d.lo < worst.lo:
            worst = d
    return worst


def certify_psihat_nonneg(coeffs: AuxCoefficients,
                          policy: BnbPolicy | None = None) -> Certificate:
    """Composite proof that the transform is nonnegative everywhere.

    [0, 1/2] is discharged by the T constant; [1/2, 1] by the L constant
    (alpha >= 6) or the w-inequality route (alpha = 4, with the constant
    taken from the F(1) enclosure and the coefficient monotonicity checked
    rather than assumed); |xi| >= 1 is the support condition.
    """
    policy = policy or BnbPolicy()
    t0 = time.perf_counter()
    ctx = coeffs.ctx
    alpha = ctx.alpha
    parts = []
    if alpha in _SMALL_ALPHA_T:
        parts.append(certify_T(ctx, coeffs.N, policy))
    else:
        parts.append(certify_T_large(alpha, policy))
    if alpha == 4:
        parts.append(certify_w_inequality(ctx, policy))
        parts.append(_constant_certificate(
            _monotone_coefficient_check(coeffs),
            inequality_id="w_inequality", alpha=4,
            domain="reduction side condition: F(n) <= F(1) for n >= 2",
            paper_anchor="1 - F4(n) >= 1 - F4(1) for n >= 1",
            policy=policy))
    elif alpha in _SMALL_ALPHA_L:
        parts.append(certify_L(ctx, coeffs.N, policy))
    else:
        parts.append(certify_L_large(alpha, policy))
    return _combine(
        parts,
        inequality_id="psihat_nonneg",
        alpha=alpha,
        domain="[0,1/2] via T, [1/2,1] via L or the w route, 0 beyond support",
        paper_anchor="transform of psi nonnegative on the whole line",
        policy=policy,
        t0=t0,
    )


# ---------------------------------------------------------------------------
# psi_4 <= F_4 on [0, 9] (plus the displayed constant for x >= 9).
# ---------------------------------------------------------------------------

def mean_value_L_term(ctx: PotentialContext, x: Interval, n: int) -> Interval:
    """Enclosure of L(x, n) = (F(x) - F(n) - F'(n)(x - n))/(x - n)^2.

    n = 0 uses the exact closed form (F(x) - 1)/x^2 = -s^a x^(a-2) F(x);
    n >= 1 is one lane of `_L_terms`.
    """
    if n == 0:
        return F_deficit_over_x_sq(ctx, x)
    nf = float(n)
    Fn = F_alpha(ctx, Interval(nf))
    dFn = -ctx.alpha * Fn * (_ONE - Fn) / nf
    xl = Lanes([[x.lo]], [[x.hi]])
    t = _L_terms(ctx, xl, F_alpha(ctx, xl), np.array([nf]), Fn, dFn)
    return Interval._raw(t.lo.item(), t.hi.item())


def _L_terms(ctx: PotentialContext, x: Lanes, Fx: Lanes, n: np.ndarray, Fn, dFn) -> Lanes:
    """Lanes of L(x, n) for boxes x (a column) and integers n >= 1 (a row).

    Boxes at distance >= 0.25 from n use the quotient; nearer boxes use the
    mean-value enclosure (1/2) F''(hull(x, n)), intersected with the
    quotient whenever the box still excludes n (the hull alone cannot
    shrink with subdivision right at the switchover distance).  Fx encloses
    F(x); Fn and dFn enclose F(n) and F'(n).
    """
    below, above = x.lo - n, n - x.hi
    dist = np.where(above > below, above, below)
    apart = dist > 0.0
    d = Lanes.where(apart, x - n, 1.0)  # 1.0 stands in where n is in the box
    out = (Fx - Fn - dFn * d) / pow_int(d, 2)
    rows, cols = np.nonzero(dist < 0.25)
    if rows.size:
        q = out[rows, cols]
        h = Lanes(x.lo[rows, 0], x.hi[rows, 0]).hull(n[cols])
        near = 0.5 * _second_derivative_any(ctx, h)
        near = near.intersect(Lanes.where(apart[rows, cols], q, near))
        out.lo[rows, cols] = near.lo
        out.hi[rows, cols] = near.hi
    return out


def _second_derivative_any(ctx: PotentialContext, x: Lanes) -> Lanes:
    """F'' enclosure valid on any x >= 0 (free form on lanes that hold 0)."""
    F = F_alpha(ctx, x)
    bracket = ctx.alpha * (_ONE - 2.0 * F) + 1.0
    free = ctx.alpha * ctx.s_pow_alpha * pow_int(x, ctx.alpha - 2) * pow_int(F, 2) * bracket
    inner = x.lo > 0.0
    if not inner.any():
        return free
    quotient = ctx.alpha * F * (_ONE - F) * bracket / pow_int(Lanes.where(inner, x, 1.0), 2)
    return Lanes.where(inner, quotient, free)


def _sum_3n2F_n3dF(coeffs: AuxCoefficients) -> Interval:
    """Enclosure of sum_{n in Z} (3 n^2 F(n) + n^3 F'(n))."""
    acc = _ZERO
    for n in range(1, coeffs.N + 1):
        acc = acc + (3.0 * n * n) * coeffs.Fn[n] + float(n) ** 3 * coeffs.dFn[n]
    b = ((3.0 + coeffs.ctx.alpha) * coeffs.tail_n2F).hi
    return 2.0 * acc + Interval(-2.0 * b, 2.0 * b)


def certify_psi4_le_F4(ctx: PotentialContext | None = None, N: int = 64,
                       policy: BnbPolicy | None = None) -> Certificate:
    """sum_{n in Z} L4(x, n) >= 0 on [0, 9] by branch-and-bound.

    The x >= 9 range is discharged by the displayed constant inequality
    -sum(3n^2 F + n^3 F') >= 10/81 + 1/81 + (5/2) F(9), evaluated in
    interval arithmetic (the surrounding hand derivation is trusted).
    """
    policy = policy or BnbPolicy()
    t0 = time.perf_counter()
    if ctx is None:
        ctx = solve_s_alpha(4)
    if ctx.alpha != 4:
        raise ValueError("this route is specific to alpha = 4")
    if N < 16:
        raise ValueError("need N >= 16 for the tail bounds")
    coeffs = build_coefficients(ctx, N)
    Fn, dFn = coeffs.Fn, coeffs.dFn
    alpha = 4
    tail_lo = ((8.0 + 4.0 * alpha) * power_sum_tail(alpha + 2, N + 1) / ctx.s_pow_alpha).hi
    geo = (power_sum_tail(2, N - 8) + power_sum_tail(2, N + 1)).hi

    n = np.arange(1.0, N + 1.0)
    Fn_row, dFn_row = Lanes.of(Fn[1:]), Lanes.of(dFn[1:])

    def lsum(x: Lanes, _param) -> Lanes:
        Fx = F_alpha(ctx, x)
        acc = F_deficit_over_x_sq(ctx, x)
        X, FX = x[:, None], Fx[:, None]
        minus = _L_terms(ctx, X, FX, n, Fn_row, dFn_row)
        dm = X + n
        plus = (FX - Fn_row + dFn_row * dm) / pow_int(dm, 2)
        acc = lane_fold(acc, minus, plus)  # ((acc + L(x, 1)) + L(x, -1)) + L(x, 2) ...
        tail_hi = (Fx * geo + tail_lo).hi
        return acc + Lanes(-tail_lo, tail_hi)

    run = _Run()
    if policy.max_depth < 1:
        run.status = INCONCLUSIVE
    else:
        far = -_sum_3n2F_n3dF(coeffs) - Interval.from_fraction(Fraction(11, 81)) \
            - 2.5 * Fn[9]
        if run.merge_value(far, at=9.0):
            _bnb(run, lsum, [(0.0, 9.0)], policy)
    return _finish(
        run,
        inequality_id="psi4_le_F4",
        alpha=4,
        domain="[0, 9] branch-and-bound + displayed constant for x >= 9 (assumption recorded)",
        paper_anchor="sum_n (F4(x) - F4(n) - F4'(n)(x-n))/(x-n)^2 >= 0",
        policy=policy,
        t0=t0,
    )


# ---------------------------------------------------------------------------
# The three nearest-integer cases of psi <= F for alpha >= 6.
# ---------------------------------------------------------------------------

def certify_eta0(ctx: PotentialContext, N: int = 64,
                 policy: BnbPolicy | None = None) -> Certificate:
    """Constant check covering 0 <= x <= 1/2 of psi <= F.

    4(F(1/2) - 1) + sum_{n!=0}(F(1/2) - F(n))/n^2 >= sum_{n!=0} n F'(n)/(1/4 - n^2),
    with the side condition F(1/2) >= 2/alpha that the reduction uses.
    """
    alpha = ctx.alpha
    if alpha >= 12:
        rhs = Interval(4.0 * alpha) / (3.0 * alpha - 6.0) \
            + Interval(float(alpha + 1)) / (pow_int(Interval(2.0), alpha) * (alpha - 1))
        lhs = Interval.from_fraction(Fraction(-4, 100)) \
            + Interval.from_fraction(Fraction(94, 100)) * PI_SQ / 3.0
        return _constant_certificate(
            lhs - rhs, inequality_id="eta0", alpha=alpha,
            domain="closed-bound evaluation (large alpha)",
            paper_anchor="-0.04 + 0.94 pi^2/3 >= 4a/(3a-6) + 2^-a (a+1)/(a-1)",
            policy=policy)
    if alpha not in _SMALL_ALPHA_L:
        raise ValueError("eta0 interval route covers alpha in {6, 8, 10}")
    policy = policy or BnbPolicy()
    t0 = time.perf_counter()
    coeffs = build_coefficients(ctx, N)
    F_half = F_alpha(ctx, Interval(0.5))
    lhs = 4.0 * (F_half - 1.0) + F_half * PI_SQ / 3.0
    s = _ZERO
    r = _ZERO
    for n in range(1, N + 1):
        s = s + coeffs.Fn[n] / (n * n)
        r = r + (n * coeffs.dFn[n]) / (0.25 - n * n)
    tail_q = (power_sum_tail(alpha + 2, N + 1) / ctx.s_pow_alpha).hi
    lhs = lhs - 2.0 * (s + Interval(0.0, tail_q))
    rhs = 2.0 * (r + Interval(0.0, (16.0 * alpha / 15.0) * tail_q))
    side = F_half - Interval(2.0) / alpha
    parts = [
        _constant_certificate(lhs - rhs, inequality_id="eta0", alpha=alpha,
                              domain=f"constant check, head N={N}",
                              paper_anchor="4(F(1/2)-1) + sum (F(1/2)-F(n))/n^2 "
                                           ">= sum n F'(n)/(1/4-n^2)",
                              policy=policy),
        _constant_certificate(side, inequality_id="eta0", alpha=alpha,
                              domain="reduction side condition F(1/2) >= 2/alpha",
                              paper_anchor="F(1/2) >= 2/alpha",
                              policy=policy),
    ]
    return _combine(parts, inequality_id="eta0", alpha=alpha,
                    domain=f"constant check + side condition, head N={N}",
                    paper_anchor="4(F(1/2)-1) + sum (F(1/2)-F(n))/n^2 >= sum n F'(n)/(1/4-n^2)",
                    policy=policy, t0=t0)


def _inv_sq_offset_sum(t: Lanes, N: int) -> Lanes:
    """Lanes of sum_{n != 0} 1/(n - t)^2 for boxes t within (-1, 1).

    Head |n| <= N, added as ((0 + 1/(1-t)^2) + 1/(1+t)^2) + 1/(2-t)^2 ...,
    plus the integral sandwich tails 1/(N+1-t) + 1/(N+1+t) <= tail <=
    1/(N-t) + 1/(N+t).
    """
    n = np.arange(1.0, N + 1.0)
    T = t[:, None]
    acc = lane_fold(Lanes(np.zeros_like(t.lo)), _ONE / pow_int(n - T, 2), _ONE / pow_int(T + n, 2))
    lo_tail = (_ONE / (N + 1 - t) + _ONE / (N + 1 + t)).lo
    hi_tail = (_ONE / (N - t) + _ONE / (N + t)).hi
    return acc + Lanes(lo_tail, hi_tail)


def _eta1_integrand(ctx: PotentialContext, N: int):
    """Lane form of the eta1 integrand, lhs - rhs as a function of t = x - 1.

    The removable-singularity quotient (F(1+t)-F(1)-tF'(1))/t^2 is enclosed
    by the mean-value form (1/2) F''(hull(1, x)), intersected with the
    direct quotient on boxes that exclude t = 0 (the hull alone cannot
    shrink with the box).  Every sum adds its terms in the order of the
    loop over n, so each lane equals the scalar evaluation on the same box
    bit for bit.
    """
    alpha = ctx.alpha
    coeffs = build_coefficients(ctx, N)
    F1, dF1 = ctx.F1, ctx.dF1
    tail_B = ((32.0 + 8.0 * alpha) * power_sum_tail(alpha + 1, N + 1) / ctx.s_pow_alpha).hi
    n = np.arange(2.0, N + 1.0)  # the B sum over n >= 2 on both sides
    Fn_row, dFn_row = Lanes.of(coeffs.Fn[2:]), Lanes.of(coeffs.dFn[2:])

    def integrand(t: Lanes, _param) -> Lanes:
        x = 1.0 + t
        Fx = F_alpha(ctx, x)
        apart = (t.lo > 0.0) | (t.hi < 0.0)
        d = Lanes.where(apart, t, 1.0)  # 1.0 stands in where t = 0 is in the box
        q = 0.5 * _second_derivative_any(ctx, x.hull(1.0))
        q = q.intersect(Lanes.where(apart, (Fx - F1 - d * dF1) / pow_int(d, 2), q))
        lhs = q + Fx * _inv_sq_offset_sum(t, N)
        rhs = _ONE / pow_int(x, 2) + F1 / pow_int(2.0 + t, 2) - dF1 / (2.0 + t)
        X = x[:, None]
        dl, dm = X - n, X + n
        B = lane_fold(Lanes(np.zeros_like(t.lo)), Fn_row / pow_int(dl, 2), dFn_row / dl,
                      Fn_row / pow_int(dm, 2), -(dFn_row / dm))
        rhs = rhs + B + Interval(-tail_B, tail_B)
        return lhs - rhs

    return integrand


def certify_eta1(ctx: PotentialContext, N: int = 64,
                 policy: BnbPolicy | None = None) -> Certificate:
    """Branch-and-bound in t over [-1/2, 1/2] covering 1/2 <= x <= 3/2."""
    alpha = ctx.alpha
    if not 6 <= alpha <= 1000:
        raise ValueError("eta1 route requires even alpha in [6, 1000]")
    policy = policy or BnbPolicy()
    t0 = time.perf_counter()
    run = _Run()
    _bnb(run, _eta1_integrand(ctx, N), [(-0.5, 0.5)], policy)
    return _finish(
        run,
        inequality_id="eta1",
        alpha=alpha,
        domain="t in [-1/2, 1/2] (x = 1 + t)",
        paper_anchor="(F(1+t)-F(1)-tF'(1))/t^2 + F(1+t) sum 1/(n-t)^2 >= "
                     "1/(1+t)^2 + F(1)/(2+t)^2 - F'(1)/(2+t) + B(alpha,t)",
        policy=policy,
        t0=t0,
    )


def certify_eta_ge2(ctx: PotentialContext, N: int = 64,
                    policy: BnbPolicy | None = None) -> Certificate:
    """x in [1.5, 10] by branch-and-bound plus the displayed x >= 10 constant.

    Certifies sum_{n != eta(x)} (F(n)/(x-n)^2 + F'(n)/(x-n)) <= 0 on segments
    of constant nearest integer, plus the reduction's side condition
    F(3/2) < 1/2 (which makes the pulled-out diagonal nonnegative).
    """
    alpha = ctx.alpha
    if alpha not in (6, 8, 10, 12, 14):
        raise ValueError("eta>=2 interval route covers alpha in {6, ..., 14}")
    policy = policy or BnbPolicy()
    t0 = time.perf_counter()
    coeffs = build_coefficients(ctx, N)
    Fn, dFn = coeffs.Fn, coeffs.dFn
    tail = (2.0 * (1.4 + 1.19 * alpha) * power_sum_tail(alpha + 2, N + 1)
            / ctx.s_pow_alpha).hi

    n = np.arange(1.0, N + 1.0)
    Fn_row, dFn_row = Lanes.of(Fn[1:]), Lanes.of(dFn[1:])

    def segment_sum(x: Lanes, eta: np.ndarray) -> Lanes:
        """-(sum_{n != eta} ...) on boxes x, each with its segment's eta."""
        acc = _ONE / pow_int(x, 2)  # n = 0
        X = x[:, None]
        own = n == eta[:, None]
        d = Lanes.where(own, 1.0, X - n)  # 1.0 stands in for the left-out n = eta
        left = Fn_row / pow_int(d, 2)
        left_d = dFn_row / d
        dm = X + n
        right = Fn_row / pow_int(dm, 2)
        right_d = dFn_row / dm
        acc = lane_fold(acc, (left, own), (left_d, own), right, -right_d)
        return -(acc + Interval(-tail, tail))

    run = _Run()
    if policy.max_depth < 1:
        run.status = INCONCLUSIVE
    else:
        side = 0.5 - F_alpha(ctx, Interval(1.5))
        if run.merge_value(side, at=1.5):
            const_ok = run.merge_value(_allthestars_small_value(coeffs), at=10.0)
            if const_ok:
                segments = [(max(1.5, eta - 0.5), min(10.0, eta + 0.5), eta)
                            for eta in range(2, 11)]
                _bnb(run, segment_sum, [sg for sg in segments if sg[0] < sg[1]], policy)
    return _finish(
        run,
        inequality_id="eta_ge2",
        alpha=alpha,
        domain="x in [1.5, 10] segmented at half-integers + displayed constant for x >= 10",
        paper_anchor="sum_{n != eta(x)} (F(n)/(x-n)^2 + F'(n)/(x-n)) <= 0",
        policy=policy,
        t0=t0,
    )


def _allthestars_small_value(coeffs: AuxCoefficients) -> Interval:
    """-(displayed x >= 10 constant), which must be >= 0 for 6 <= alpha <= 14."""
    ctx = coeffs.ctx
    alpha = ctx.alpha
    N = coeffs.N
    s3n = _sum_3n2F_n3dF(coeffs)
    big = _ZERO
    for n in range(2, N + 1):
        inner = (10.0 * float(n) ** 4) * coeffs.Fn[n] + (2.0 * float(n) ** 5) * coeffs.dFn[n]
        big = big + abs(inner)
    tail4 = ((10.0 + 2.0 * alpha) * power_sum_tail(alpha - 4, N + 1) / ctx.s_pow_alpha).hi
    big = big + Interval(0.0, tail4)
    F1, dF1 = ctx.F1, ctx.dF1
    val = s3n + 16.0 / (100.0 * ctx.s_pow_alpha) + (10.0 * F1 + 2.0 * dF1) / 99.0 \
        + big / 5.0 + Interval(8.0 * alpha + 2.0) / pow_int(Interval(10.0), alpha - 2)
    return -val


def certify_allthestars_large(alpha: int, policy: BnbPolicy | None = None) -> Certificate:
    """Closed chain for the x >= 1.5 far constant, valid for alpha >= 16."""
    if alpha < 16 or alpha % 2:
        raise ValueError("closed far-constant bound requires even alpha >= 16")
    p = pow_int(Interval(2.0), alpha - 4)  # 2^(a-4); 2^(a-2) = 4p
    val = Interval(-1.0) + Interval(7.0) / (2 * alpha - 4) + _ONE / p \
        + (Interval(11.0) / (2 * alpha - 4) - 1.0) / 1.25 \
        + Interval(16.0) / (2.25 * Interval(float(2 * alpha - 5))) \
        + Interval(4.0) / (1.5 * p) \
        + Interval(8.0 * alpha + 2.0) / (4.0 * p)
    return _constant_certificate(
        -val,
        inequality_id="allthestars_const",
        alpha=alpha,
        domain="closed-bound evaluation (large alpha)",
        paper_anchor="-1 + 7/(2a-4) + 2^(4-a) + (11/(2a-4)-1)/1.25 + "
                     "16/(2.25(2a-5)) + 4/(1.5 2^(a-4)) <= -(8a+2)/2^(a-2)",
        policy=policy,
    )


# ---------------------------------------------------------------------------
# Orchestration.
# ---------------------------------------------------------------------------

def certify_all(alpha: int, tol: float = 1e-12, N: int = 64,
                policy: BnbPolicy | None = None,
                ctx: PotentialContext | None = None) -> list[Certificate]:
    """Run the full certificate suite for one alpha.

    The interpolation, support and decay conditions hold by construction and
    are exercised by the property tests rather than certified here.
    """
    if alpha % 2 or alpha < 4:
        raise ValueError("certificates require an even alpha >= 4")
    if alpha > 14:
        if ctx is not None:
            raise ValueError("large-alpha routes do not consume a context")
        return [
            certify_T_large(alpha, policy),
            certify_L_large(alpha, policy),
            certify_allthestars_large(alpha, policy),
        ]
    policy = policy or BnbPolicy()
    if ctx is None:
        ctx = solve_s_alpha(alpha, tol)
    coeffs = build_coefficients(ctx, N)
    certs = [certify_psihat_nonneg(coeffs, policy)]
    if alpha == 4:
        certs.append(certify_w_inequality(ctx, policy))
        certs.append(certify_psi4_le_F4(ctx, N, policy))
    else:
        certs.append(certify_eta0(ctx, N, policy))
        certs.append(certify_eta1(ctx, N, policy))
        certs.append(certify_eta_ge2(ctx, N, policy))
    return certs
