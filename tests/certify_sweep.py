"""certify_all at every even alpha from 4 to 1000, in one process.

Every certificate must be verified.  The script writes one JSON line per
certificate to certify-sweep.out (alpha, inequality_id, status,
boxes_processed, max_depth and the bits of min_lower_bound), so that two
checkouts can be compared line by line; it prints the total boxes and the
wall time, solves included.  It exits 1 if any certificate is not verified,
or if the box tree moved: the SHA-256 of the lines without min_lower_bound
(a change that only tightens an enclosure may move that), each the JSON of
the other fields and a newline, differs from BOX_TREE, recorded for 1995
certificates in 17838 boxes.  A change that
moves the tree on purpose records the new digest here.  It takes about
4.5 s on a 2-core x86-64 VM and is not part of Tier-1; CI runs it as its
own step:

    PYTHONPATH=src python tests/certify_sweep.py
"""

import hashlib
import json
import sys
import time

from repulse.certify import VERIFIED, certify_all

ALPHAS = range(4, 1001, 2)
OUT = "certify-sweep.out"
BOX_TREE = "fcf8bdab8e92b0ffa50212e787d3e07a0c2363062353b127547be6e8a68a08b1"


def main() -> int:
    t0 = time.perf_counter()
    boxes = 0
    failures = []
    tree = hashlib.sha256()
    with open(OUT, "w") as out:
        for a in ALPHAS:
            for c in certify_all(a):
                boxes += c.boxes_processed
                if c.status != VERIFIED:
                    failures.append(f"alpha {a}, {c.inequality_id}: {c.status}")
                line = {"alpha": a, "inequality_id": c.inequality_id, "status": c.status,
                        "boxes_processed": c.boxes_processed, "max_depth": c.max_depth}
                tree.update((json.dumps(line) + "\n").encode())
                out.write(json.dumps({**line, "min_lower_bound": c.min_lower_bound.hex()}) + "\n")
    for line in failures:
        print("FAIL", line)
    moved = tree.hexdigest() != BOX_TREE
    if moved:
        print(f"FAIL box tree {tree.hexdigest()}, recorded {BOX_TREE}")
    print(f"{len(ALPHAS)} alphas, {boxes} boxes, {time.perf_counter() - t0:.1f} s, "
          f"{len(failures)} not verified")
    return 1 if failures or moved else 0


if __name__ == "__main__":
    sys.exit(main())
