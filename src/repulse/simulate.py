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


def _power(base: np.ndarray, m: int, out: np.ndarray) -> np.ndarray:
    """base ** m into out, through the ufunc that `ndarray ** m` dispatches to."""
    if m == 2:
        return np.square(base, out=out)
    return np.power(base, m, out=out)


# Elements of one block of images in `_PairKernel`'s two working buffers.
# The acceptance-7 cells (n <= 48, K = 3) evaluate all four images in one
# block; the figure cells (n = 240 and 300) one image per block, so the
# buffers add little to a relaxation's peak memory.
_BLOCK_ELEMENTS = 1 << 14

# Elements of `_PairKernel`'s (K + 1, n, n) stack of 1 + r^alpha at most
# (512 MB of floats).  The largest cell of the acceptance runs (n = 300,
# K = 3) holds 360,000.
_STACK_ELEMENTS = 1 << 26


class _PairKernel:
    """Pair energy per particle and its gradient for n particles on a cell
    of length L, over the images |k| <= K, on buffers reused from call to
    call.

    Only images k = 0..K are evaluated: with d = x_i - x_j, image -k is
    exactly the negated transpose of image k (negation commutes with
    round-to-nearest), so f_{-k} = f_k^T and w_{-k} = -w_k^T.

    Blocks.  The images are evaluated in blocks of b = K + 1 images or as
    many as fit in `_BLOCK_ELEMENTS` (at least one), each numpy call acting
    on a whole (b, n, n) block.  Every element gets the operations of a
    direct per-image loop in the same order, so each element is the same.
    Each image total is a sum along the contiguous last axes of a block (the
    whole image for f, each of its rows for w), read for the -k images from
    a contiguous transposed copy; each adds in the order of the per-image
    `sum()` or `sum(axis=1)`.  The image totals are then accumulated over
    k = -K..K one at a time, as that loop does: the results equal it bit for
    bit.

    Reuse.  The kernel keeps the (K + 1, n, n) stack of 1 + r^alpha and the
    positions it was computed at.  Every energy call recomputes it; a
    gradient-only call reads it when its positions equal those (as relax's
    gradient at its accepted trial does) and recomputes it otherwise.  Equal
    positions give equal r^2, so a read stack is the stack a fresh kernel
    would compute.

    Overflow.  Where both alpha r^(alpha-1) and (1 + r^alpha)^2 overflow
    (at large alpha), the gradient term alpha r^(alpha-1)/(1 + r^alpha)^2
    evaluates to inf/inf, while it is below alpha/r^(alpha+1) <=
    alpha^2/(r^2 DBL_MAX); such lanes take their limit, 0.  Every other lane
    is unchanged.
    """

    def __init__(self, n: int, L: float, alpha: int, K: int):
        if (K + 1) * n * n > _STACK_ELEMENTS:
            raise ValueError(f"the pair kernel of n = {n} particles on a cell of length {L!r} "
                             f"needs more than {_STACK_ELEMENTS} elements")
        self.L, self.alpha, self.K = L, alpha, K
        b = min(K + 1, max(1, _BLOCK_ELEMENTS // (n * n)))
        self._blocks = [(k, min(k + b, K + 1)) for k in range(0, K + 1, b)]
        self._kL = (np.arange(K + 1) * L)[:, None, None]
        self._d = np.empty((n, n))
        self._den = np.empty((K + 1, n, n))     # 1 + r^alpha, image k at [k]
        self._at = np.full(n, np.nan)           # the positions _den holds
        self._a, self._b = np.empty((b, n, n)), np.empty((b, n, n))
        self._rows, self._cols = np.empty((K + 1, n)), np.empty((K + 1, n))

    def __call__(self, x: np.ndarray, want_energy: bool, want_grad: bool):
        """(energy or None, gradient or None) at positions x."""
        with np.errstate(over="ignore", invalid="ignore"):
            if want_energy or not np.array_equal(x, self._at):
                self._fill(x)
            return (self._energy() if want_energy else None,
                    self._gradient() if want_grad else None)

    def _images(self, k0: int, k1: int) -> np.ndarray:
        """d + k L for the images k0 <= k < k1, in the first working buffer."""
        return np.add(self._d, self._kL[k0:k1], out=self._a[:k1 - k0])

    def _fill(self, x: np.ndarray) -> None:
        np.subtract(x[:, None], x[None, :], out=self._d)
        np.copyto(self._at, x)
        for k0, k1 in self._blocks:
            r2 = self._images(k0, k1)
            np.multiply(r2, r2, out=r2)
            den = self._den[k0:k1]
            _power(r2, self.alpha // 2, den)
            np.add(den, 1.0, out=den)

    def _energy(self) -> float:
        n = len(self._d)
        pos, neg = [], []       # image totals for k >= 0 and for -k, k >= 1
        for k0, k1 in self._blocks:
            b, j = k1 - k0, int(k0 == 0)     # image 0 is its own mirror
            f = np.divide(1.0, self._den[k0:k1], out=self._a[:b])
            if j:
                np.fill_diagonal(f[0], 0.0)
            pos += f.reshape(b, n * n).sum(axis=1).tolist()
            ft = self._b[:b - j]
            np.copyto(ft, f[j:].transpose(0, 2, 1))
            neg += ft.reshape(b - j, n * n).sum(axis=1).tolist()
        energy = 0.0
        for e in neg[::-1] + pos:   # not sum(): from Python 3.12 it compensates
            energy += e
        return energy / n

    def _gradient(self) -> np.ndarray:
        alpha, K, n = self.alpha, self.K, len(self._d)
        rows, cols = self._rows, self._cols     # row sums of w_k and of w_k^T
        for k0, k1 in self._blocks:
            b, j = k1 - k0, int(k0 == 0)
            a = self._images(k0, k1)
            w = np.multiply(a, -alpha, out=self._b[:b])
            np.multiply(a, a, out=a)
            if alpha > 4:                       # r^2 itself at alpha = 4
                _power(a, (alpha - 2) // 2, a)
            np.multiply(w, a, out=w)
            den = self._den[k0:k1]
            np.divide(w, np.multiply(den, den, out=a), out=w)
            if np.isnan(np.sum(w, axis=2, out=rows[k0:k1])).any():
                w[np.isnan(w) & np.isinf(a)] = 0.0      # inf/inf: see Overflow
                np.sum(w, axis=2, out=rows[k0:k1])
            wt = a[:b - j]
            np.copyto(wt, w[j:].transpose(0, 2, 1))
            np.sum(wt, axis=2, out=cols[k0 + j:k1])
        grad = np.zeros(n)
        for k in range(K, 0, -1):       # image -k adds -(w_k^T row sums)
            grad -= cols[k]
        for k in range(K + 1):
            grad += rows[k]
        grad *= 2.0 / n
        return grad


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
    order = np.argsort(x, kind="stable")
    xs = np.mod(x[order], L)
    xs.sort(kind="stable")
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
    """Gradient descent with Barzilai-Borwein steps and Armijo backtracking.

    Starts from the uniform positions numpy's default_rng(seed).uniform(0,
    L, count) draws, reproduced bit for bit by `_uniform_start` so that a
    run does not load numpy.random; accepted steps never increase the
    energy; sets `converged = False` when the gradient max-norm still
    exceeds gtol (finite, >= 0) after `iters` accepted steps.
    """
    if alpha % 2 or alpha < 4:
        raise ValueError("alpha must be an even integer >= 4")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if not (math.isfinite(gtol) and gtol >= 0.0):
        raise ValueError("gtol must be finite and >= 0")
    count = int(round(rho * L))
    if count < 1:
        raise ValueError("density and cell length give no particles")
    K = _image_cutoff(image_cutoff, L)
    pair_terms = _PairKernel(count, L, alpha, K)
    x = _uniform_start(seed, L, count)
    E, g = pair_terms(x, True, True)
    step = 0.05 * L / count
    gnorm = float(np.max(np.abs(g))) if count > 1 else 0.0
    converged = gnorm <= gtol
    for _ in range(iters):
        if converged or count == 1:
            converged = True
            break
        gg = float(g @ g)
        t = step
        accepted = False
        for _ in range(60):
            xn = np.mod(x - t * g, L)
            En, _ = pair_terms(xn, True, False)
            if En <= E - 1e-4 * t * gg:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break  # at the resolution floor; energy can no longer decrease
        _, gn = pair_terms(xn, False, True)
        s = -t * g
        y = gn - g
        sy = float(s @ y)
        step = float(s @ s) / sy if sy > 1e-300 else t * 2.0
        x, E, g = xn, En, gn
        gnorm = float(np.max(np.abs(g)))
        # cap the next trial so no particle moves more than a quarter cell
        if gnorm > 0.0:
            step = min(max(step, 1e-14), 0.25 * L / gnorm)
        if gnorm <= gtol:
            converged = True
            break
    return _as_configuration(x, pair_terms, seed, converged, gnorm)


def detect_clusters(cfg: Configuration, gap_threshold: float) -> ClusterReport:
    """Single-linkage split at circular gaps exceeding the threshold."""
    if gap_threshold <= 0.0:
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
        cv = float(np.std(cgaps) / mean_spacing) if mean_spacing > 0 else None
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
    if n_per_cluster < 1 or m_clusters < 2:
        raise ValueError("need n_per_cluster >= 1 and m_clusters >= 2")
    if s_alpha is None:
        from .potential import solve_s_alpha

        s_alpha = solve_s_alpha(alpha).s_alpha.mid
    L = m_clusters * s_alpha
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
    t = 5 * math.ceil(-half / 5.0)
    while t <= half:
        parts.append(
            f'<line x1="{t:.6g}" y1="{-tick:.6g}" x2="{t:.6g}" y2="{tick:.6g}" '
            f'stroke="black" stroke-width="{tick / 4.0:.6g}"/>'
        )
        parts.append(
            f'<text x="{t:.6g}" y="{3.2 * tick:.6g}" font-size="{2.2 * tick:.6g}" '
            f'text-anchor="middle">{t}</text>'
        )
        t += 5
    for center, cnt in report.clusters:
        cx = (center + half) % L - half
        r = 0.1 * math.sqrt(cnt)
        parts.append(f'<circle cx="{cx:.6g}" cy="0" r="{r:.6g}" fill="black"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
