"""Particle relaxation on a periodic cell and cluster statistics.

Plain float numerics (numpy): the rigorous side of the project lives in
the interval modules, this one reproduces the clustered ground states
experimentally and cross-checks them against the certified lattice sums.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._lbfgs import Memory

__all__ = [
    "Configuration",
    "ClusterReport",
    "default_image_cutoff",
    "periodic_energy",
    "periodic_gradient",
    "relax",
    "detect_clusters",
    "theorem_configuration",
    "export",
]


@dataclass(frozen=True)
class Configuration:
    """A finite multiset of particle positions on the periodic cell [0, L)."""

    positions: np.ndarray
    L: float
    alpha: int
    rho: float
    seed: int | None
    energy_per_particle: float
    converged: bool
    grad_norm: float

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float)
        if not (math.isfinite(self.L) and self.L > 0.0):
            raise ValueError("L must be finite and positive")
        if p.ndim != 1 or not np.all(np.isfinite(p)):
            raise ValueError("positions must be a finite 1-D array")
        if not np.all(np.diff(p) >= 0.0):
            raise ValueError("positions must be a sorted 1-D array")
        if len(p) and (p[0] < 0.0 or p[-1] >= self.L):
            raise ValueError("positions must lie in [0, L)")

    @property
    def count(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class ClusterReport:
    clusters: list
    mean_spacing: float | None
    spacing_cv: float | None
    count_histogram: dict


def default_image_cutoff(L: float) -> int:
    """ceil(12/L) + 2 periodic images; the pair tail beyond is negligible."""
    return math.ceil(12.0 / L) + 2


def _image_cutoff(image_cutoff: int | None, L: float) -> int:
    if image_cutoff is None:
        return default_image_cutoff(L)
    if image_cutoff < 1:
        raise ValueError("image_cutoff must be >= 1")
    return image_cutoff


def _power(x: np.ndarray, m: int, spare: np.ndarray) -> np.ndarray:
    """x**m (m >= 1) into x's buffer by binary powering, in `interval._pow_dir`'s
    order: the chain starts from its first factor x**(2**j).  Every step is
    one np.multiply, an IEEE product whose bits do not depend on which SIMD
    loop numpy dispatches to (numpy's power ufunc gives different bits under
    its baseline, AVX2 and AVX-512 loops).  `spare`, a buffer of x's shape,
    is overwritten when m is not a power of two."""
    acc = None
    while True:
        if m & 1:
            acc = x if acc is None else np.multiply(acc, x, out=acc)
        m >>= 1
        if not m:
            return acc
        x = np.multiply(x, x, out=spare if x is acc else x)


# Elements of one block of images in `_PairKernel`'s two working buffers.
# The acceptance-7 cells (n <= 48, K = 3) evaluate all four images in one
# block; the figure cells (n = 240 and 300) one image per block, so the
# buffers add little to a relaxation's peak memory.
_BLOCK_ELEMENTS = 1 << 14

# Elements of `_PairKernel`'s (K + 1, n, n) stack of f at most (512 MB of
# floats).  The largest cell of the acceptance runs (n = 300, K = 3) holds
# 360,000.
_STACK_ELEMENTS = 1 << 26


class _PairKernel:
    """Pair energy per particle and its gradient for n particles on a cell
    of length L, over the images |k| <= K, on buffers reused from call to
    call.

    Only images k = 0..K are evaluated.  With d = x_i - x_j, image -k is
    the negated transpose of image k, so f_{-k} = f_k^T holds f_k's values
    and the gradient terms w_{-k} = -w_k^T; image -k's total is image k's
    total, and its row sums are minus image k's column sums.

    Blocks.  The images are evaluated in blocks of b = K + 1 images or as
    many as fit in `_BLOCK_ELEMENTS` (at least one), each numpy call acting
    on a whole (b, n, n) block.  The energy is (T_0 + 2 T_1 + ... + 2 T_K)/n,
    added left to right, with T_k the sum of f_k in the order of its
    `sum()`.  The gradient is (2/n)(R_0 + (R_1 - C_1) + ... + (R_K - C_K)),
    added left to right, with R_k and C_k the row and column sums of
    w_k = (((r^(alpha-2) f_k) f_k) a) (-alpha), a = d + k L, in the order
    of its `sum(axis=1)` and `sum(axis=0)`.

    Reuse.  `_fill` computes the (K + 1, n, n) stack of f = 1/(1 + r^alpha)
    at the given positions, with image 0's diagonal (each particle with
    itself) set to 0, and `_energy` and `_gradient` both read it.  Every
    call of the kernel fills it afresh.  `relax` calls `_fill`, `_energy`
    and `_gradient` itself, inside one `_errstate()`, and takes the gradient
    at an accepted trial from the stack that trial's energy filled.

    Powers.  r^alpha and r^(alpha-2) are chains of IEEE products (`_power`),
    so the results do not depend on the SIMD loops numpy dispatches to.

    Overflow.  Where r^(alpha-2) overflows (at large alpha), r^alpha does
    too and f is 0, so r^(alpha-2) f is inf 0 = NaN, while the term is below
    alpha/r^(alpha+1) < alpha/(r^3 DBL_MAX): a NaN from inf 0 is 0.
    Positions are finite, so w has no other NaN.
    """

    def __init__(self, n: int, L: float, alpha: int, K: int):
        if not (isinstance(alpha, (int, np.integer)) and alpha >= 4 and alpha % 2 == 0):
            raise ValueError("alpha must be an even integer >= 4")
        if (K + 1) * n * n > _STACK_ELEMENTS:
            raise ValueError(f"the pair kernel of n = {n} particles on a cell of length {L!r} "
                             f"needs more than {_STACK_ELEMENTS} elements")
        self.L, self.alpha, self.K = L, alpha, K
        b = min(K + 1, max(1, _BLOCK_ELEMENTS // (n * n)))
        self._blocks = [(k, min(k + b, K + 1)) for k in range(0, K + 1, b)]
        with _errstate():   # offsets past DBL_MAX are inf: see Overflow
            self._kL = (np.arange(K + 1) * L)[:, None, None]
        self._d = np.empty((n, n))
        self._f = np.empty((K + 1, n, n))       # f = 1/(1 + r^alpha), image k at [k]
        self._a, self._b = np.empty((b, n, n)), np.empty((b, n, n))
        self._rows, self._cols = np.empty((K + 1, n)), np.zeros((K + 1, n))  # cols[0] stays 0

    def __call__(self, x: np.ndarray, want_energy: bool, want_grad: bool):
        """(energy or None, gradient or None) at positions x."""
        with _errstate():
            self._fill(x)
            return (self._energy() if want_energy else None,
                    self._gradient() if want_grad else None)

    def _images(self, k0: int, k1: int, out: np.ndarray) -> np.ndarray:
        """d + k L for the images k0 <= k < k1, in out's first k1 - k0 images."""
        return np.add(self._d, self._kL[k0:k1], out=out[:k1 - k0])

    def _fill(self, x: np.ndarray) -> None:
        np.subtract(x[:, None], x[None, :], out=self._d)
        for k0, k1 in self._blocks:
            r2 = self._images(k0, k1, self._a)
            np.multiply(r2, r2, out=r2)
            f = self._f[k0:k1]
            np.add(_power(r2, self.alpha // 2, f), 1.0, out=f)
            np.divide(1.0, f, out=f)
        np.fill_diagonal(self._f[0], 0.0)

    def _energy(self) -> float:
        K, n = self.K, len(self._d)
        totals = np.add.reduce(self._f.reshape(K + 1, n * n), axis=1).tolist()
        energy = totals[0]
        for t in totals[1:]:    # not sum(): from Python 3.12 it compensates
            energy += 2.0 * t
        return energy / n

    def _gradient(self) -> np.ndarray:
        m, n = (self.alpha - 2) // 2, len(self._d)     # r^(alpha-2) = (r^2)^m
        rows, cols = self._rows, self._cols
        for k0, k1 in self._blocks:
            a = self._images(k0, k1, self._a)
            w = _power(np.multiply(a, a, out=self._b[:k1 - k0]), m, a)
            if m & (m - 1):     # the power took a's buffer as its spare
                self._images(k0, k1, a)
            f = self._f[k0:k1]
            for factor in (f, f, a, -self.alpha):
                np.multiply(w, factor, out=w)
            if np.isnan(np.add.reduce(w, axis=2, out=rows[k0:k1])).any():
                w[np.isnan(w)] = 0.0        # inf 0: see Overflow
                np.add.reduce(w, axis=2, out=rows[k0:k1])
            j = int(k0 == 0)    # image 0 is its own mirror
            np.add.reduce(w[j:], axis=1, out=cols[k0 + j:k1])
        np.subtract(rows, cols, out=rows)
        return np.multiply(np.add.accumulate(rows, axis=0)[-1], 2.0 / n)


def _errstate():
    """The floating-point state the pair kernel runs in: see its Overflow."""
    return np.errstate(over="ignore", invalid="ignore")


def periodic_energy(cfg: Configuration, image_cutoff: int | None = None) -> float:
    """Ordered-pair energy per particle over the cell, self-images included.

    (1/count) sum over i, j, |k| <= K with (i, k) != (j, 0) of
    f_alpha(|x_i - x_j + k L|); includes each particle's interaction with
    its own periodic images so that the clustered lattice reproduces the
    infinite-line per-particle energy exactly as the cutoff grows.
    """
    e, _ = _cell_kernel(cfg, image_cutoff)(cfg.positions, True, False)
    return e


def periodic_gradient(cfg: Configuration, image_cutoff: int | None = None) -> np.ndarray:
    _, g = _cell_kernel(cfg, image_cutoff)(cfg.positions, False, True)
    return g


def _cell_kernel(cfg: Configuration, image_cutoff: int | None) -> _PairKernel:
    """The pair kernel of cfg's cell, after the checks both periodic sums share."""
    if cfg.count < 1:
        raise ValueError("the configuration has no particles")
    return _PairKernel(cfg.count, cfg.L, cfg.alpha, _image_cutoff(image_cutoff, cfg.L))


def _as_configuration(x, pair_terms: _PairKernel, seed, converged,
                      grad_norm) -> Configuration:
    L, alpha = pair_terms.L, pair_terms.alpha
    xs = np.sort(np.mod(x, L), kind="stable")
    e, _ = pair_terms(xs, True, False)
    return Configuration(
        positions=xs,
        L=float(L),
        alpha=alpha,
        rho=len(xs) / L,
        seed=seed,
        energy_per_particle=e,
        converged=converged,
        grad_norm=grad_norm,
    )


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> list:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64), as ints."""
    n = operator.index(seed)        # TypeError for a non-integral seed
    if n < 0:
        raise ValueError("expected non-negative integer")
    entropy = [n & _M32]            # little-endian 32-bit words, [0] for 0
    while n >> 32:
        n >>= 32
        entropy.append(n & _M32)
    h = 0x43B0D7E5

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for word in entropy[4:]:
        for j in range(4):
            pool[j] = mix(pool[j], hashmix(word))
    h, words = 0x8B51F9DD, []
    for i in range(8):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        words.append(v ^ v >> 16)
    return [words[j] | words[j + 1] << 32 for j in range(0, 8, 2)]


def _uniform_start(seed: int, L: float, count: int) -> np.ndarray:
    """np.random.default_rng(seed).uniform(0.0, L, count), bit for bit.

    The stream written out, so that a relaxation does not load
    numpy.random (about 5 MB of peak RSS): SeedSequence seeds PCG64 (a
    128-bit LCG, O'Neill 2014), each XSL-RR output gives 53 bits of a
    double in [0, 1), and uniform scales it as low + (high - low) * u.
    """
    s0, s1, i0, i1 = _seed_state(seed)
    inc = (i0 << 64 | i1) << 1 & _M128 | 1
    state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _M128
    low, high, out = 0.0, L, []
    for _ in range(count):
        state = (state * _PCG64_MULT + inc) & _M128
        v, rot = (state >> 64 ^ state) & _M64, state >> 122
        v = (v >> rot | v << (-rot & 63)) & _M64
        out.append(low + (high - low) * ((v >> 11) * 2.0**-53))
    return np.array(out, dtype=float)


def relax(alpha: int, rho: float, L: float, seed: int = 0, iters: int = 20000,
          gtol: float = 1e-8, image_cutoff: int | None = None) -> Configuration:
    """Limited-memory BFGS descent (`_lbfgs.Memory`) with Armijo backtracking.

    Starts from the uniform positions numpy's default_rng(seed).uniform(0,
    L, count) draws, reproduced bit for bit by `_uniform_start` so that a
    run does not load numpy.random.  Each step goes along the L-BFGS
    direction d of the last `_lbfgs.MEMORY` steps (-g at the start): the
    first trial of the first step is t = 0.05 L / count and of every later
    step t = 1, capped so that no particle moves more than a quarter cell,
    and t is halved, at most 60 times, until the energy falls by at least
    1e-4 t |g.d|.  Accepted steps never increase the energy.  The descent
    stops at the energy's resolution floor: when no trial is accepted, or
    when an accepted step leaves the gradient as it was, so that the next
    step would repeat it.  Sets `converged = False` when the gradient
    max-norm still exceeds gtol (finite, >= 0) after `iters` accepted steps
    or at that floor.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not (math.isfinite(gtol) and gtol >= 0.0):
        raise ValueError("gtol must be finite and >= 0")
    if not (math.isfinite(L) and math.isfinite(rho * L)):
        raise ValueError("L and rho * L must be finite")
    count = int(round(rho * L))
    if count < 1:
        raise ValueError("density and cell length give no particles")
    K = _image_cutoff(image_cutoff, L)
    pair_terms = _PairKernel(count, L, alpha, K)
    x = _uniform_start(seed, L, count)
    with _errstate():
        pair_terms._fill(x)
        E, g = pair_terms._energy(), pair_terms._gradient()
        gnorm = float(np.abs(g).max()) if count > 1 else 0.0
        converged = gnorm <= gtol
        memory, t0 = Memory(count), 0.05 * L / count
        for _ in range(0 if converged else iters):
            d, gd = memory.direction(g)
            t = min(t0, 0.25 * L / float(np.abs(d).max()))
            t0 = 1.0
            for _ in range(60):
                xn = np.mod(x + t * d, L)
                pair_terms._fill(xn)
                En = pair_terms._energy()
                if En <= E + 1e-4 * t * gd:
                    break
                t *= 0.5
            else:
                break  # at the resolution floor; energy can no longer decrease
            gn = pair_terms._gradient()     # at xn, from the stack its energy filled
            if not memory.push(t, d, gn, g) and np.array_equal(gn, g):
                break  # the next step would repeat this one
            x, E, g = xn, En, gn
            gnorm = float(np.abs(g).max())
            if gnorm <= gtol:
                converged = True
                break
    return _as_configuration(x, pair_terms, seed, converged, gnorm)


def detect_clusters(cfg: Configuration, gap_threshold: float) -> ClusterReport:
    """Single-linkage split at circular gaps exceeding the threshold."""
    if not gap_threshold > 0.0:
        raise ValueError("gap_threshold must be positive")
    x = cfg.positions
    n = len(x)
    L = cfg.L
    if n == 0:
        return ClusterReport([], None, None, {})
    gaps = np.empty(n)
    gaps[:-1] = np.diff(x)
    gaps[-1] = x[0] + L - x[-1]
    breaks = np.nonzero(gaps > gap_threshold)[0]
    if len(breaks) == 0:
        center = _circular_mean(x, L)
        return ClusterReport([(center, n)], None, None, {n: 1})
    start = (breaks[0] + 1) % n
    y = np.concatenate([x[start:], x[:start] + L])  # ascending, break-first
    ygaps = np.diff(y)
    cuts = np.nonzero(ygaps > gap_threshold)[0]
    bounds = [0, *(cuts + 1), n]
    clusters = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        pts = y[a:b]
        clusters.append((float(np.mean(pts)) % L, int(b - a)))
    clusters.sort()
    k = len(clusters)
    centers = np.array([c for c, _ in clusters])
    cgaps = np.empty(k)
    if k > 1:
        cgaps[:-1] = np.diff(centers)
        cgaps[-1] = centers[0] + L - centers[-1]
        mean_spacing = float(np.mean(cgaps))
        # the spread of the gaps in units of their mean: the squares of gaps
        # near 1e299 overflow
        cv = float(np.std(cgaps / mean_spacing)) if mean_spacing > 0 else None
    else:
        mean_spacing = None
        cv = None
    hist: dict = {}
    for _, c in clusters:
        hist[c] = hist.get(c, 0) + 1
    return ClusterReport(clusters, mean_spacing, cv, hist)


def _circular_mean(x: np.ndarray, L: float) -> float:
    ang = x * (2.0 * np.pi / L)
    m = math.atan2(float(np.mean(np.sin(ang))), float(np.mean(np.cos(ang))))
    return (m * L / (2.0 * np.pi)) % L


def theorem_configuration(alpha: int, n_per_cluster: int, m_clusters: int,
                          s_alpha: float | None = None,
                          image_cutoff: int | None = None) -> Configuration:
    """n particles at each point of the optimal-spacing lattice, m sites."""
    if not (isinstance(n_per_cluster, (int, np.integer)) and n_per_cluster >= 1
            and isinstance(m_clusters, (int, np.integer)) and m_clusters >= 2):
        raise ValueError("need integers n_per_cluster >= 1 and m_clusters >= 2")
    if s_alpha is None:
        from .potential import solve_s_alpha

        s_alpha = solve_s_alpha(alpha).s_alpha.mid
    elif not (math.isfinite(s_alpha) and s_alpha > 0.0):
        raise ValueError("s_alpha must be finite and positive")
    L = float(m_clusters) * float(s_alpha)
    if not math.isfinite(L):
        raise ValueError("the cell m_clusters * s_alpha must be finite")
    pos = np.repeat(np.arange(m_clusters) * s_alpha, n_per_cluster)
    K = _image_cutoff(image_cutoff, L)
    e, _ = _PairKernel(len(pos), L, alpha, K)(pos, True, False)
    return Configuration(
        positions=pos,
        L=L,
        alpha=alpha,
        rho=n_per_cluster / s_alpha,
        seed=None,
        energy_per_particle=e,
        converged=True,
        grad_norm=0.0,
    )


# ---------------------------------------------------------------------------
# Figure-style output.
# ---------------------------------------------------------------------------

def export(cfg: Configuration, report: ClusterReport, path_csv, path_svg) -> None:
    """CSV of raw positions plus an SVG in the dot-per-cluster style."""
    with open(path_csv, "w") as fh:
        fh.write("position\n")
        for p in cfg.positions:
            fh.write("%.17g\n" % p)
    with open(path_svg, "w") as fh:
        fh.write(_render_svg(cfg, report))


def _render_svg(cfg: Configuration, report: ClusterReport) -> str:
    L = cfg.L if cfg.L > 0 else 1.0
    half = L / 2.0
    height = L / 7.5  # keeps the 900 x 120 frame isotropic
    tick = height / 16.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="900" height="120" '
        f'viewBox="{-half:.6g} {-height / 2.0:.6g} {L:.6g} {height:.6g}">',
        f'<line x1="{-half:.6g}" y1="0" x2="{half:.6g}" y2="0" '
        f'stroke="black" stroke-width="{tick / 4.0:.6g}"/>',
    ]
    # a tick every 5, or where that would put more than 21 in the frame, at
    # the least of 1, 2 or 5 times a power of ten that keeps them to 21
    step = 5
    if L > 100.0:
        e = 10 ** math.floor(math.log10(L / 20.0))
        step = next(m * e for m in (1, 2, 5, 10) if 20 * m * e >= L)
    t = step * math.ceil(-half / step)
    while t <= half:
        parts.append(
            f'<line x1="{t:.6g}" y1="{-tick:.6g}" x2="{t:.6g}" y2="{tick:.6g}" '
            f'stroke="black" stroke-width="{tick / 4.0:.6g}"/>'
        )
        parts.append(
            f'<text x="{t:.6g}" y="{3.2 * tick:.6g}" font-size="{2.2 * tick:.6g}" '
            f'text-anchor="middle">{t:.6g}</text>'
        )
        t += step
    for center, cnt in report.clusters:
        cx = (center + half) % L - half
        r = 0.1 * math.sqrt(cnt)
        parts.append(f'<circle cx="{cx:.6g}" cy="0" r="{r:.6g}" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
