"""Record perfbench/reference.json from the current program.

Usage (from the root of a checkout): python3 perfbench/record_reference.py

The reference holds, for the inputs the benchmark uses, each certified
``s_alpha`` enclosure at tol 1e-12 and, per alpha, the certificates that
``certify --inequality all`` returns with their ``boxes_processed``,
``max_depth`` and ``min_lower_bound``. The benchmark checks every enclosure
against it (two true enclosures always overlap) and every certificate id
set; box counts are compared only as drift in the traced output. Record it
once, from a commit whose certificates are trusted, and commit the file.
"""

from __future__ import annotations

import json
import os
import sys

from run import CERTIFY_ALPHAS, REFERENCE, SALPHA_ALPHAS, SRC, TOL
from worker import import_program, run_jobs


def main() -> int:
    import_program(SRC, ["repulse.cli", "repulse.certify"])
    ref = {"tol": float(TOL), "salpha": {}, "certify": {}}
    results, _ = run_jobs([["salpha", "--alpha", str(a), "--tol", TOL] for a in SALPHA_ALPHAS])
    for a, res in zip(SALPHA_ALPHAS, results):
        out = json.loads(res["stdout"])
        ref["salpha"][str(a)] = [out["s_lo"], out["s_hi"]]
    results, _ = run_jobs([["certify", "--alpha", str(a), "--inequality", "all", "--tol", TOL]
                           for a in CERTIFY_ALPHAS])
    for a, res in zip(CERTIFY_ALPHAS, results):
        if res["code"] != 0:
            raise SystemExit(f"certify --alpha {a} exited {res['code']}")
        ref["certify"][str(a)] = {
            c["inequality_id"]: {k: c[k] for k in ("boxes_processed", "max_depth", "min_lower_bound")}
            for c in json.loads(res["stdout"])
        }
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(REFERENCE)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
