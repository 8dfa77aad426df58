"""Lane kernel against scalar kernel on 100,000 boxes per operation.

For `*`, `/` and `pow_int`, every lane of a Lanes operation must equal the
scalar Interval operation on the same endpoints, bit for bit (NaN taken as
one pattern).  The boxes mix points and intervals at scales 2^-60..2^60,
at scales from the subnormals to the largest float, and at the edge values
+-0, the smallest subnormal and normal, magnitudes whose products underflow
to 0 or overflow to inf, the largest float and +-inf.  On a sample of boxes
with finite endpoints, edges included, every result must also contain the
exact rational result at each corner.  Not part of Tier-1; CI runs it as
its own step:

    PYTHONPATH=src python tests/rounding_differential.py

It prints the count checked and the wall time, and exits 1 on any differing
bit or missed exact value.
"""

import math
import random
import sys
import time
from fractions import Fraction

import numpy as np

from repulse.interval import Interval, Lanes, pow_int

POINTS = 100_000
SAMPLE = 2_000
POW_KS = (2, 3, 4, 5, 7, 16, 41, 704)
EDGES = [0.0, 5e-324, 1e-323, sys.float_info.min, 1e-300, 1e-290, 1e-160, 1 / 3, 0.5, 1.0, 3.0,
         1e150, 1e290, 1e300, sys.float_info.max, math.inf]


def _value(rng):
    u = rng.random()
    if u < 0.2:
        v = rng.choice(EDGES)
        v = rng.choice((v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)))
    else:
        v = rng.uniform(0.5, 1.0) * 2.0 ** (rng.randint(-60, 60) if u < 0.6 else rng.randint(-1074, 1023))
    return -v if rng.random() < 0.5 else v


def _boxes(rng, count):
    out = []
    while len(out) < count:
        a = _value(rng)
        b = a if rng.random() < 0.3 else _value(rng)
        lo, hi = min(a, b), max(a, b)
        if lo != math.inf and hi != -math.inf:
            out.append(Interval._raw(lo, hi))
    return out


def _bits(values):
    a = np.array(values, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.view(np.int64)


def _differing(lanes, scalar):
    lo = _bits([v.lo for v in scalar])
    hi = _bits([v.hi for v in scalar])
    return np.flatnonzero((_bits(lanes.lo) != lo) | (_bits(lanes.hi) != hi)).tolist()


def _misses(results, corners):
    """Indices whose result misses the exact value at some corner."""
    bad = []
    for i, (v, exact) in enumerate(zip(results, corners)):
        if not all(v.lo <= r <= v.hi for r in exact):  # float against Fraction compares exactly
            bad.append(i)
    return bad


def _finite(box):
    return math.isfinite(box.lo) and math.isfinite(box.hi)


def main() -> int:
    t0 = time.perf_counter()
    rng = random.Random(20261020)
    xs, ys = _boxes(rng, POINTS), _boxes(rng, POINTS)
    divisors = [y for y in _boxes(rng, 2 * POINTS) if y.lo > 0.0 or y.hi < 0.0][:POINTS]
    failures = []
    checked = 0
    for name, left, right, op in (("mul", xs, ys, lambda x, y: x * y),
                                  ("div", xs, divisors, lambda x, y: x / y)):
        scalar = [op(x, y) for x, y in zip(left, right)]
        bad = _differing(op(Lanes.of(left), Lanes.of(right)), scalar)
        sample = [i for i in range(SAMPLE) if _finite(left[i]) and _finite(right[i])]
        corners = [[op(Fraction(a), Fraction(b)) for a in (left[i].lo, left[i].hi)
                    for b in (right[i].lo, right[i].hi)] for i in sample]
        missed = _misses([scalar[i] for i in sample], corners)
        failures += [(name, "bits", left[i], right[i]) for i in bad[:5]]
        failures += [(name, "exact", left[sample[i]], right[sample[i]]) for i in missed[:5]]
        checked += len(scalar)
    per_k = POINTS // len(POW_KS)
    for j, k in enumerate(POW_KS):
        part = xs[j * per_k:(j + 1) * per_k]
        scalar = [pow_int(x, k) for x in part]
        bad = _differing(pow_int(Lanes.of(part), k), scalar)
        sample = [i for i in range(SAMPLE // len(POW_KS)) if _finite(part[i])]
        corners = [[Fraction(part[i].lo) ** k, Fraction(part[i].hi) ** k] for i in sample]
        missed = _misses([scalar[i] for i in sample], corners)
        failures += [(f"pow_int {k}", "bits", part[i]) for i in bad[:5]]
        failures += [(f"pow_int {k}", "exact", part[sample[i]]) for i in missed[:5]]
        checked += len(scalar)
    for f in failures:
        print("FAIL", *f)
    print(f"{checked} lane results against the scalar kernel, {len(failures)} failures, "
          f"{time.perf_counter() - t0:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
