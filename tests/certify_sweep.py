"""certify_all at every even alpha from 4 to 1000, in one process.

Every certificate must be verified.  The script writes one JSON line per
certificate to certify-sweep.out (alpha, inequality_id, status,
boxes_processed, max_depth and the bits of min_lower_bound), so that two
checkouts can be compared line by line; it prints the total boxes and the
wall time, solves included, and exits 1 if any certificate is not
verified.  It is too slow for Tier-1 (about 30 s); CI runs it as its own
step:

    PYTHONPATH=src python tests/certify_sweep.py
"""

import json
import sys
import time

from repulse.certify import VERIFIED, certify_all

ALPHAS = range(4, 1001, 2)
OUT = "certify-sweep.out"


def main() -> int:
    t0 = time.perf_counter()
    boxes = 0
    failures = []
    with open(OUT, "w") as out:
        for a in ALPHAS:
            for c in certify_all(a):
                boxes += c.boxes_processed
                if c.status != VERIFIED:
                    failures.append(f"alpha {a}, {c.inequality_id}: {c.status}")
                out.write(json.dumps({
                    "alpha": a, "inequality_id": c.inequality_id, "status": c.status,
                    "boxes_processed": c.boxes_processed, "max_depth": c.max_depth,
                    "min_lower_bound": c.min_lower_bound.hex()}) + "\n")
    for line in failures:
        print("FAIL", line)
    print(f"{len(ALPHAS)} alphas, {boxes} boxes, {time.perf_counter() - t0:.1f} s, "
          f"{len(failures)} not verified")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
