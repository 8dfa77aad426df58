"""Acceptance-7 seed sweep: every seed the benchmark may draw converges.

The `salpha-simulate` benchmark draws its acceptance-7 relaxation seeds
from 0..199 (alpha 4 and 6, n = 2, 3, 4 particles per site on 12 sites)
and counts a run that fails to converge, or that ends more than 1e-9
below the theorem configuration's energy, as a failed job.  This script
relaxes all 1,200 of them as that benchmark does, then the two
acceptance-8 figure cells, and exits 1 if any run fails its check.

It also reports, without gating on them, the work done (the calls to the
pair kernel's `_fill` and `_gradient`, counted here) and how many of the
1,200 runs end within 1e-9 of the theorem configuration's energy, the
clustered ground state itself rather than a state above it.  It is too
slow for Tier-1 (about 4.5 s); CI runs it as its own step, with a
RuntimeWarning from the pair kernel as an error:

    PYTHONPATH=src python -W error::RuntimeWarning tests/acceptance7_sweep.py
"""

import sys
import time

from repulse import simulate as sim
from repulse.potential import solve_s_alpha

SEEDS = range(200)
SITES = 12
ENERGY_SLACK = 1e-9


def count_calls(cls, names) -> dict:
    """Wrap the methods `names` of cls so that each call is counted; the
    counts, by name, are in the dict returned."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(self, *args, _method=getattr(cls, name), _name=name):
            counts[_name] += 1
            return _method(self, *args)
        setattr(cls, name, counted)
    return counts


def main() -> int:
    t0 = time.perf_counter()
    spacing = {a: solve_s_alpha(a, 1e-12).s_alpha.mid for a in (4, 6)}
    calls = count_calls(sim._PairKernel, ("_fill", "_gradient"))
    failures = []
    runs = hits = 0
    for a, s in spacing.items():
        for n in (2, 3, 4):
            base = sim.theorem_configuration(a, n, SITES, s_alpha=s).energy_per_particle
            for seed in SEEDS:
                cfg = sim.relax(a, n / s, SITES * s, seed=seed, iters=30000)
                runs += 1
                hits += abs(cfg.energy_per_particle - base) <= ENERGY_SLACK
                if not (cfg.converged and cfg.energy_per_particle >= base - ENERGY_SLACK):
                    failures.append(f"alpha {a}, n {n}, seed {seed}: converged {cfg.converged}, "
                                    f"energy {cfg.energy_per_particle!r} vs lattice {base!r}")
    for a, rho, seed in ((4, 8.0, 0), (6, 10.0, 1)):
        s = spacing[a]
        cfg = sim.relax(a, rho, 30.0, seed=seed)
        rep = sim.detect_clusters(cfg, s / 2.0)
        k = len(rep.clusters)
        runs += 1
        if not (cfg.converged and (a != 4 or 19 <= k <= 23) and rep.mean_spacing is not None
                and abs(rep.mean_spacing / s - 1.0) <= 0.10):
            failures.append(f"figure cell alpha {a}: converged {cfg.converged}, {k} clusters, "
                            f"mean spacing {rep.mean_spacing!r} vs {s!r}")
    for line in failures:
        print("FAIL", line)
    print(f"pair kernel calls: {calls['_fill']} _fill, {calls['_gradient']} _gradient")
    print(f"{hits}/{len(SEEDS) * 6} acceptance-7 runs within {ENERGY_SLACK:g} of the theorem energy")
    print(f"{runs - len(failures)}/{runs} runs passed, {time.perf_counter() - t0:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
