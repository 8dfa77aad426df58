"""Periodic-cell relaxation, cluster detection and exports."""

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from repulse import simulate as sim
from repulse.interval import Interval
from repulse.potential import lattice_energy

from _oracles import pair_terms_loop, power_chain


def _config(positions, L, alpha):
    p = np.sort(np.asarray(positions, dtype=float))
    return sim.Configuration(
        positions=p, L=L, alpha=alpha, rho=len(p) / L, seed=None,
        energy_per_particle=0.0, converged=True, grad_norm=0.0)


def test_two_particle_energy_dominant_pair():
    L = 60.0
    cfg = _config([0.0, 30.0], L, 4)
    e = sim.periodic_energy(cfg, 4)
    f_half = 1.0 / (1.0 + 30.0 ** 4)
    assert abs(e - 2.0 * f_half) < f_half


def test_translation_invariance():
    # invariant up to the image-window boundary: wrapped pairs see the
    # k-shell window shifted by one period, which perturbs only f at ~KL
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 30, 40)
    a = sim.periodic_energy(_config(x, 30.0, 4), 3)
    b = sim.periodic_energy(_config((x + 7.0) % 30.0, 30.0, 4), 3)
    assert abs(a - b) < 1e-8
    a32 = sim.periodic_energy(_config(x, 30.0, 4), 32)
    b32 = sim.periodic_energy(_config((x + 7.0) % 30.0, 30.0, 4), 32)
    assert abs(a32 - b32) < 1e-12


def test_theorem_configuration_shape(ctx4):
    s4 = ctx4.s_alpha.mid
    cfg = sim.theorem_configuration(4, 1, 8, s_alpha=s4)
    assert cfg.count == 8
    gaps = np.diff(cfg.positions)
    assert np.allclose(gaps, s4)
    cfg3 = sim.theorem_configuration(4, 3, 8, s_alpha=s4)
    assert cfg3.count == 24


def test_theorem_energy_matches_lattice_sum(ctx4):
    # per-particle periodic energy relates to the lattice sum through
    # E/rho + f(0)/rho = sum_n t f(tn) at t = spacing
    s4 = ctx4.s_alpha.mid
    for n in (1, 3):
        cfg = sim.theorem_configuration(4, n, 8, s_alpha=s4, image_cutoff=64)
        lhs = cfg.energy_per_particle / cfg.rho + 1.0 / cfg.rho
        lat = lattice_energy(4, Interval(s4), 64).total
        assert abs(lhs - lat.mid) < 1e-7


def test_theorem_perturbation_probe(ctx4):
    th = sim.theorem_configuration(4, 2, 8, s_alpha=ctx4.s_alpha.mid, image_cutoff=16)
    base = sim.periodic_energy(th, 16)
    for i in range(th.count):
        for dx in (0.05, -0.05):
            p = th.positions.copy()
            p[i] = (p[i] + dx) % th.L
            probe = _config(p, th.L, 4)
            assert sim.periodic_energy(probe, 16) >= base


def test_relax_two_particles_antipodal():
    cfg = sim.relax(4, 0.02, 100.0, seed=1, iters=10000, gtol=1e-12)
    assert cfg.count == 2
    sep = cfg.positions[1] - cfg.positions[0]
    assert abs(sep - 50.0) < 0.5
    assert cfg.converged


def test_relax_density_bookkeeping():
    cfg = sim.relax(4, 1.5, 10.0, seed=2, iters=50)
    assert cfg.count == 15
    assert int(round(cfg.rho * cfg.L)) == 15
    assert np.all(np.diff(cfg.positions) >= 0)
    assert cfg.positions[0] >= 0.0 and cfg.positions[-1] < cfg.L


def test_relax_seed_determinism():
    a = sim.relax(4, 2.0, 6.0, seed=9, iters=400)
    b = sim.relax(4, 2.0, 6.0, seed=9, iters=400)
    assert np.array_equal(a.positions, b.positions)
    assert a.energy_per_particle == b.energy_per_particle


def test_relax_energy_never_increases():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 6.0, 12)
    start = sim.periodic_energy(_config(x, 6.0, 4), 4)
    cfg = sim.relax(4, 2.0, 6.0, seed=4, iters=2000)
    assert cfg.energy_per_particle <= start


def test_detect_clusters_lattice(ctx4):
    # s_4 rounded to 40 fractional bits: every site k s4 (k <= 8) is then an
    # exact float, so the cluster gaps are exactly equal whatever the low
    # bits of the solved enclosure
    s4 = math.ldexp(round(math.ldexp(ctx4.s_alpha.mid, 40)), -40)
    cfg = sim.theorem_configuration(4, 3, 8, s_alpha=s4)
    rep = sim.detect_clusters(cfg, s4 / 2.0)
    assert len(rep.clusters) == 8
    assert all(c == 3 for _, c in rep.clusters)
    assert abs(rep.mean_spacing - s4) < 1e-12
    assert rep.spacing_cv == 0.0
    assert rep.count_histogram == {3: 8}


def test_detect_clusters_threshold_splits_everything():
    cfg = _config(np.arange(10) * 1.0, 10.0, 4)
    rep = sim.detect_clusters(cfg, 0.5)
    assert len(rep.clusters) == 10
    assert all(c == 1 for _, c in rep.clusters)


def test_detect_clusters_single_cluster():
    cfg = _config([5.0, 5.01, 5.02], 10.0, 4)
    rep = sim.detect_clusters(cfg, 1.0)
    assert len(rep.clusters) == 1
    assert rep.mean_spacing is None and rep.spacing_cv is None


def test_detect_clusters_wraparound():
    cfg = _config([0.05, 9.95, 5.0], 10.0, 4)
    rep = sim.detect_clusters(cfg, 1.0)
    assert len(rep.clusters) == 2
    counts = sorted(c for _, c in rep.clusters)
    assert counts == [1, 2]
    # the wrapped pair's center sits at the seam
    cluster2 = next(c for c, n in rep.clusters if n == 2)
    assert min(cluster2, 10.0 - cluster2) < 0.1


def test_export_roundtrip(tmp_path, ctx4):
    cfg = sim.theorem_configuration(4, 2, 6, s_alpha=ctx4.s_alpha.mid)
    rep = sim.detect_clusters(cfg, 0.7)
    csv = tmp_path / "pos.csv"
    svg = tmp_path / "pos.svg"
    sim.export(cfg, rep, csv, svg)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "position"
    parsed = np.array([float(s) for s in lines[1:]])
    assert np.array_equal(parsed, cfg.positions)
    body = svg.read_text()
    assert body.count("<circle") == len(rep.clusters)
    assert 'width="900"' in body and 'height="120"' in body


def test_export_empty_configuration(tmp_path):
    cfg = _config([], 10.0, 4)
    rep = sim.detect_clusters(cfg, 1.0)
    csv = tmp_path / "empty.csv"
    svg = tmp_path / "empty.svg"
    sim.export(cfg, rep, csv, svg)
    assert csv.read_text() == "position\n"
    body = svg.read_text()
    assert "<svg" in body and "<circle" not in body


def test_periodic_sums_reject_empty_configuration():
    cfg = _config([], 10.0, 4)
    for fn in (sim.periodic_energy, sim.periodic_gradient):
        with pytest.raises(ValueError, match="no particles"):
            fn(cfg)


def test_configuration_rejects_non_finite_positions_and_bad_L():
    # NaN fails both range comparisons, so one NaN position used to pass
    # and make periodic_energy return nan
    nan, inf = float("nan"), float("inf")
    for positions in ([nan], [inf], [-inf], [1.0, nan], [nan, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            _config(positions, 10.0, 4)
    for L in (nan, inf, -inf, 0.0, -10.0):
        for positions in ([], [1.0]):
            with pytest.raises(ValueError, match="L must be finite and positive"):
                sim.Configuration(np.array(positions), L, 4, 1.0, None, 0.0, True, 0.0)
    assert np.isfinite(sim.periodic_energy(_config([1.0], 10.0, 4)))


def test_relax_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sim.relax(5, 1.0, 10.0)
    with pytest.raises(ValueError):
        sim.relax(4, 1.0, 10.0, iters=0)
    for gtol in (math.nan, -1.0, math.inf, -math.inf):
        with pytest.raises(ValueError, match="gtol must be finite and >= 0"):
            sim.relax(4, 1.0, 12.0, iters=50, gtol=gtol)
    for rho, L in ((1e300, 1e300), (1.0, math.inf), (math.nan, 10.0)):
        with pytest.raises(ValueError, match="must be finite"):
            sim.relax(4, rho, L)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        sim.relax(4, 1.0, 10.0, seed=-1)       # default_rng's seed errors
    for seed in (1.5, 2.0, None):
        with pytest.raises(TypeError):
            sim.relax(4, 1.0, 10.0, seed=seed)
    with pytest.raises(ValueError):
        sim.periodic_energy(_config([1.0], 10.0, 4), 0)
    for cutoff in (0, -1):
        with pytest.raises(ValueError, match="image_cutoff must be >= 1"):
            sim.relax(4, 1.0, 10.0, image_cutoff=cutoff)
        with pytest.raises(ValueError, match="image_cutoff must be >= 1"):
            sim.theorem_configuration(4, 1, 8, s_alpha=1.5, image_cutoff=cutoff)
        with pytest.raises(ValueError, match="image_cutoff must be >= 1"):
            sim.periodic_gradient(_config([1.0, 4.0], 10.0, 4), cutoff)
        with pytest.raises(ValueError, match="image_cutoff must be >= 1"):
            sim.periodic_energy(_config([1.0, 4.0], 10.0, 4), cutoff)


def test_uniform_start_equals_default_rng():
    # seeds of one to seven 32-bit words (more than four run SeedSequence's
    # second mixing loop), and counts up to the figure cells
    for seed in [*range(300), 2**32 - 1, 2**32, 2**63, 2**64 + 5, 10**30, 2**200 + 7]:
        for L in (1.0, 16.97, 30.0):
            for count in (1, 2, 48, 300):
                want = np.random.default_rng(seed).uniform(0.0, L, count)
                assert sim._uniform_start(seed, L, count).tobytes() == want.tobytes(), \
                    (seed, L, count)


def _bits(energy, grad):
    return energy.hex(), grad.tobytes()


def test_pair_kernel_matches_image_loop():
    # images k = 0..K with -k by exact transposition, on reused buffers,
    # against the direct loop over k = -K..K, bit for bit: alpha 4..12 runs
    # the product chains of r^2 to the powers 1..6, as alpha/2 and (alpha-2)/2,
    # with and without the spare buffer
    rng = np.random.default_rng(20261018)
    sizes = (1, 2, 3, 5, 8, 13, 24, 36, 48, 61, 97, 128, 160, 199, 240, 300, 320)
    for i, n in enumerate(sizes):
        for alpha in (4, 6, 8, 10, 12):
            K = 1 + (i + alpha) % 5
            L = float(rng.choice([0.3, 1.0, 4.2, 16.97, 30.0, 100.0]) * rng.uniform(0.8, 1.25))
            x = rng.uniform(0.0, L, n)
            if alpha == 8:  # coincident particles, as in the theorem lattice
                x = np.repeat(np.arange((n + 1) // 2) * (L / ((n + 1) // 2)), 2)[:n]
            kernel = sim._PairKernel(n, L, alpha, K)
            kernel(rng.uniform(0.0, L, n), True, True)  # buffers hold stale values
            want = _bits(*pair_terms_loop(x, L, alpha, K))
            assert _bits(*kernel(x, True, True)) == want, (n, alpha, K, L)
            energy, no_grad = kernel(x, True, False)
            no_energy, grad = kernel(x, False, True)
            assert no_grad is None and no_energy is None
            assert _bits(energy, grad) == want, (n, alpha, K, L)


def _block_edge_cases():
    """(n, K, images per block) around the block budget: the largest n whose
    four images (K = 3) fit in one block and the next n, then blocks of
    three and of two with a partial last block, and one image per block."""
    edge = math.isqrt(sim._BLOCK_ELEMENTS // 4)
    pair = math.isqrt(sim._BLOCK_ELEMENTS // 2)
    return [(edge, 3, [4]), (edge + 1, 3, [3, 1]), (edge + 1, 4, [3, 2]),
            (pair, 4, [2, 2, 1]), (pair + 1, 2, [1, 1, 1])]


@pytest.mark.parametrize("n, K, blocks", _block_edge_cases())
def test_pair_kernel_matches_image_loop_at_block_edges(n, K, blocks):
    rng = np.random.default_rng(n * 10 + K)
    L = 16.97
    for alpha in (4, 6):
        kernel = sim._PairKernel(n, L, alpha, K)
        assert [k1 - k0 for k0, k1 in kernel._blocks] == blocks
        x = rng.uniform(0.0, L, n)
        assert _bits(*kernel(x, True, True)) == _bits(*pair_terms_loop(x, L, alpha, K))


def test_pair_kernel_gradient_elsewhere_is_computed_afresh():
    # the gradient reads the stored 1 + r^alpha only at the positions of the
    # last energy call: a new array, or that array mutated in place, recomputes
    rng = np.random.default_rng(16)
    n, L, K = 36, 16.97, 3
    for alpha in (4, 6):
        def fresh(p):
            return sim._PairKernel(n, L, alpha, K)(p, False, True)[1].tobytes()

        kernel = sim._PairKernel(n, L, alpha, K)
        x, y = rng.uniform(0.0, L, n), rng.uniform(0.0, L, n)
        kernel(x, True, False)
        assert kernel(y, False, True)[1].tobytes() == fresh(y)
        kernel(x, True, False)
        x[5] = (x[5] + 0.3) % L
        assert kernel(x, False, True)[1].tobytes() == fresh(x)
        kernel(x, True, False)
        assert kernel(x.copy(), False, True)[1].tobytes() == fresh(x)


def test_power_chain_bits_and_range():
    # each power is the written-out chain of IEEE squarings, in x's buffer;
    # inf where the exact power overflows and 0 where it underflows, never
    # NaN, and no RuntimeWarning under the kernel's floating-point state
    r2 = [0.0, 5e-324, 1e-160, 1.0, 1e154, 1e155, math.inf]
    tiny, huge = Fraction(2) ** -1075, Fraction(2) ** 1024
    for m in (2, 3, 4, 5, 75, 500):
        x, spare = np.array(r2), np.full(len(r2), np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with sim._errstate():
                got = sim._power(x, m, spare)
        assert got is x
        assert got.tobytes() == np.array([power_chain(v, m) for v in r2]).tobytes(), m
        for v, p in zip(r2, got.tolist()):
            assert not math.isnan(p), (v, m)
            exact = Fraction(v) ** m if math.isfinite(v) else huge
            if exact >= huge:
                assert p == math.inf, (v, m)
            elif exact <= tiny:
                assert p == 0.0, (v, m)
            elif exact >= Fraction(2) ** -1022:     # normal: a few roundings off
                assert abs(Fraction(p) / exact - 1) <= Fraction(m.bit_length() * 2, 2**53), (v, m)


# x86-64-v2, the baseline numpy's x86-64 wheels build for: with only these
# features enabled numpy dispatches to none of its AVX2 or AVX-512 loops
_X86_64_BASELINE = "SSE SSE2 SSE3 SSSE3 SSE41 POPCNT SSE42"

_DISPATCH_PROBE = """
import hashlib, json, sys
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from repulse import simulate as sim
enabled = set(sys.argv[1].split())
out = {"dispatched": [t for t in __cpu_dispatch__ if __cpu_features__.get(t) and t not in enabled]}
for alpha, rho, L, seed, iters in json.loads(sys.argv[2]):
    cfg = sim.relax(alpha, rho, L, seed=seed, iters=iters)
    out[str(seed)] = [hashlib.sha256(cfg.positions.tobytes()).hexdigest(), cfg.energy_per_particle.hex()]
print(json.dumps(out))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the SIMD dispatch levels named are x86-64's")
def test_relax_bits_do_not_depend_on_simd_dispatch():
    # alpha 6 (n = 36 and the n = 300 figure cell) and alpha 8 relaxed with
    # numpy held to the x86-64 baseline give the positions and energies of
    # this process, whatever loops numpy dispatches to here
    runs = [c[:5] for c in _RELAX_RECORD if c[0] >= 6 and c[6] != 48]
    assert [(c[0], c[3]) for c in runs] == [(6, 11), (6, 1), (8, 3)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(sim.__file__)))
    env = dict(os.environ, NPY_ENABLE_CPU_FEATURES=_X86_64_BASELINE,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _DISPATCH_PROBE, _X86_64_BASELINE, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout)
    assert got.pop("dispatched") == []
    for alpha, rho, L, seed, iters in runs:
        cfg = sim.relax(alpha, rho, L, seed=seed, iters=iters)
        want = [hashlib.sha256(cfg.positions.tobytes()).hexdigest(), cfg.energy_per_particle.hex()]
        assert got[str(seed)] == want, (alpha, seed)


@pytest.mark.parametrize("alpha", [150, 200, 1000])
def test_relax_converges_where_the_gradient_overflows(alpha):
    # alpha r^(alpha-1) and (1 + r^alpha)^2 both overflow at these alpha;
    # the gradient term takes its limit 0 there, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = sim.relax(alpha, 1.0, 40.0, seed=0)
        grad = sim.periodic_gradient(cfg)
    assert cfg.converged and math.isfinite(cfg.grad_norm) and cfg.grad_norm <= 1e-8
    assert np.all(np.isfinite(grad))


# relax outputs recorded from the per-image loop before the kernel was
# rewritten: alpha, rho, L, seed, iters, gtol, count, SHA-256 of the final
# positions' bytes, energy per particle, converged, gradient max-norm.
# Acceptance-7 inputs (n per site on 12 sites), both acceptance-8 figure
# inputs, an alpha-8 case and the two-particle antipodal case.  Recorded on
# x86-64 with numpy 2.4; the alpha >= 6 rows again after the powers became
# chains of IEEE products (`simulate._power`), which no SIMD dispatch changes.
_RELAX_RECORD = [
    (4, 1.41421356237297, 16.970562748478642, 0, 30000, 1e-08, 24, "80dcbbd0b46c02471689cff7769fbb45af09e00dbe92cb6c13540911678a014c", "0x1.185d999c84f7bp+1", True, "0x1.8fe687ad10f2ap-28"),
    (4, 2.82842712474594, 16.970562748478642, 7, 30000, 1e-08, 48, "65abc3b5f85de539b9972950a8eb542921e6c43efcc17677f8b4e61f5269d33d", "0x1.38738d0f71e69p+2", True, "0x1.2d1e4d9b80f3dp-27"),
    (6, 2.1286185248356144, 16.91237747861851, 11, 30000, 1e-08, 36, "4e1f22d6b33b5c7390ce6f42eae8d432172dd56e4b490938d32019c28327e4c8", "0x1.90f3692424447p+1", True, "0x1.4c09b2aa7e0c3p-27"),
    (6, 2.8381580331141527, 16.91237747861851, 19, 30000, 1e-08, 48, "4c3bbc7680efe983f8f6a92a486fd89929f4739825bc5544769976759dceda7b", "0x1.2d6271ca76cf1p+2", True, "0x1.18d9a9a86c62ep-27"),
    (4, 8.0, 30.0, 0, 20000, 1e-08, 240, "b661c05f89503b0b578aabbadc9b08c8b0ba86de9a2019d418c44ab3b07dfbe3", "0x1.f6d76d74ce7eap+3", True, "0x1.4ea70d0cb14c2p-27"),
    (6, 10.0, 30.0, 1, 20000, 1e-08, 300, "1b633ca51d8439eb7cd6add145817356d470ef33465638fb9492ba1db42e4f77", "0x1.0ecfb94ab60b8p+4", True, "0x1.5421d929a993dp-27"),
    (8, 2.0, 12.0, 3, 5000, 1e-08, 24, "54d5e85ddb5db53033632200cc22ff445a84c7bc3373133f1fd5538ffd5dbe8d", "0x1.2c9954349d4edp+1", True, "0x1.02553be304652p-27"),
    (4, 0.02, 100.0, 1, 10000, 1e-12, 2, "4c062145aee1866ed231f7d7527971635406ac0a551b751b18ba750e0c39b26f", "0x1.738aef64b6fbep-22", True, "0x1.ba2dbe65a0000p-55"),
]


@pytest.mark.parametrize("case", _RELAX_RECORD, ids=lambda c: f"a{c[0]}-n{c[6]}-seed{c[3]}")
def test_relax_parity_with_recorded_trajectories(case):
    alpha, rho, L, seed, iters, gtol, count, digest, energy, converged, gnorm = case
    cfg = sim.relax(alpha, rho, L, seed=seed, iters=iters, gtol=gtol)
    assert cfg.count == count
    assert hashlib.sha256(cfg.positions.tobytes()).hexdigest() == digest
    assert cfg.energy_per_particle.hex() == energy
    assert cfg.converged is converged
    assert cfg.grad_norm.hex() == gnorm
