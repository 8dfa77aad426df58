"""Time-to-certificate benchmark for repulse.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Each pass runs all jobs of the workload through ``repulse.cli.main`` in one
fresh interpreter (``perfbench/worker.py``); no job input repeats inside an
interpreter, so a cache that outlives one call cannot show a gain that
separate CLI calls would not see. Passes repeat, one at a time (a closed loop
with one client), until ``--seconds`` have been measured; at least one pass
always runs. Every job's output is checked.

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` it reports the per-layer metrics of one traced pass (spans
installed by ``perfbench/tracer.py``), the interval microbenchmark and the
tracing overhead against one untraced pass. The line before it is a JSON
record of the environment, the passes and any failed checks.

``perfbench/README.md`` gives the reasons for each workload and metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH_DIR, "worker.py")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")

TOL = "1e-12"
RUN_DEADLINE_S = 170.0  # the whole run must end within 180 s
SETUP_SPAWNS = 10  # import-only interpreters, half before the passes and half after
SIM_SEED_POOL = 200  # acceptance-7 relaxations converge for every seed below this
SIM_SEEDS_PER_PASS = 16
ENERGY_SLACK = 1e-9  # acceptance 7: relaxed energy >= theorem energy - 1e-9

WORKLOAD_MODULES = {
    "certify": ["repulse.cli", "repulse.certify"],
    "salpha-simulate": ["repulse.cli", "repulse.simulate"],
}
CERTIFY_ALPHAS = (4, 6, 8, 10, 12, 14)
SALPHA_ALPHAS = tuple(range(4, 41, 2))
CERTIFICATE_IDS = ("psihat_nonneg", "w_inequality", "psi4_le_F4", "eta0", "eta1", "eta_ge2")
INTERVAL_OPS = ("add", "mul", "div", "pow_int", "sinc")

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("cli.job_p50_s", "s"),
    ("cli.main.s", "s"),
    ("cli.self_s", "s"),
    ("interval.calls", "count"),
    *[(f"interval.{op}.ops_per_s", "1/s") for op in INTERVAL_OPS],
    ("potential.solve_s_alpha.s", "s"),
    ("potential.solve_s_alpha.calls", "count"),
    ("potential.energy_derivative.s", "s"),
    ("potential.energy_derivative.calls", "count"),
    ("potential.lattice_energy.s", "s"),
    ("auxfn.build_coefficients.s", "s"),
    ("auxfn.build_coefficients.calls", "count"),
    *[(f"certify.{cid}.{key}", unit) for cid in CERTIFICATE_IDS
      for key, unit in (("s", "s"), ("boxes", "count"), ("boxes_per_s", "1/s"))],
    ("certify.boxes", "count"),
    ("certify.self_s", "s"),
    ("certify.drift.boxes", "count"),
    ("certify.drift.max_depth", "count"),
    ("certify.drift.min_lower_bound", "count"),
    ("simulate.relax.s", "s"),
    ("simulate.relax.calls", "count"),
    ("simulate.detect_clusters.s", "s"),
    ("simulate.export.s", "s"),
    ("trace.overhead_s", "s"),
]


# ---------------------------------------------------------------------------
# Jobs: CLI argument lists plus what each one's output is checked against.
# ---------------------------------------------------------------------------

def _spacing(ref: dict, alpha: int) -> float:
    lo, hi = ref["salpha"][str(alpha)]
    return 0.5 * (lo + hi)


def make_jobs(workload: str, rng: random.Random, ref: dict, out_dir: str) -> list[dict]:
    """One pass's jobs in seeded order; the seed also picks the simulate seeds.

    Files the jobs write go to `out_dir`.
    """
    if workload not in WORKLOAD_MODULES:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = []
    if workload == "certify":
        for a in CERTIFY_ALPHAS:
            jobs.append({"kind": "certify", "alpha": a,
                         "argv": ["certify", "--alpha", str(a), "--inequality", "all", "--tol", TOL]})
    else:
        for a in SALPHA_ALPHAS:
            jobs.append({"kind": "salpha", "alpha": a,
                         "argv": ["salpha", "--alpha", str(a), "--tol", TOL]})
        for seed in rng.sample(range(SIM_SEED_POOL), SIM_SEEDS_PER_PASS):
            for a in (4, 6):
                s = _spacing(ref, a)
                for n in (2, 3, 4):  # acceptance 7: n per site on 12 lattice sites
                    jobs.append({"kind": "ground_state", "alpha": a, "n": n, "s": s, "argv": [
                        "simulate", "--alpha", str(a), "--rho", repr(n / s), "--length", repr(12 * s),
                        "--seed", str(seed), "--iters", "30000", "--gap-threshold", repr(s / 2)]})
        for a, rho, seed in ((4, 8.0, 0), (6, 10.0, 1)):  # acceptance 8, with figure export
            s = _spacing(ref, a)
            stem = os.path.join(out_dir, f"a{a}")
            jobs.append({"kind": "figure", "alpha": a, "s": s, "csv": stem + ".csv",
                         "svg": stem + ".svg", "argv": [
                             "simulate", "--alpha", str(a), "--rho", repr(rho), "--length", "30",
                             "--seed", str(seed), "--gap-threshold", repr(s / 2),
                             "--csv", stem + ".csv", "--svg", stem + ".svg"]})
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# Output checks.
# ---------------------------------------------------------------------------

class Checker:
    def __init__(self, ref: dict):
        self.ref = ref
        self._theorem = {}

    def theorem_energy(self, alpha: int, n: int, s: float) -> float:
        """Energy per particle of the n-per-site lattice, from the program under test."""
        key = (alpha, n, s)
        if key not in self._theorem:
            if SRC not in sys.path:
                sys.path.insert(0, SRC)
            from repulse.simulate import theorem_configuration

            self._theorem[key] = theorem_configuration(alpha, n, 12, s_alpha=s).energy_per_particle
        return self._theorem[key]

    def check(self, job: dict, res: dict) -> str | None:
        """None if the job's output is right, else the reason it is not."""
        if res["code"] != 0:
            return f"exit code {res['code']} (expected 0): {res['stderr'][-300:]}"
        try:
            return getattr(self, "_check_" + job["kind"])(job, json.loads(res["stdout"]))
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed output: {exc!r}"

    def _check_certify(self, job, certs):
        want = self.ref["certify"][str(job["alpha"])]
        got = sorted(c["inequality_id"] for c in certs)
        if got != sorted(want):
            return f"certificate ids {got} != {sorted(want)}"
        bad = [c["inequality_id"] for c in certs
               if c["status"] != "verified" or c["alpha"] != job["alpha"]]
        return f"not verified: {bad}" if bad else None

    def _check_salpha(self, job, out):
        ref_lo, ref_hi = self.ref["salpha"][str(job["alpha"])]
        if out["alpha"] != job["alpha"]:
            return "wrong alpha"
        if not out["s_hi"] - out["s_lo"] <= float(TOL):
            return f"enclosure width {out['s_hi'] - out['s_lo']!r} > {TOL}"
        if not (out["s_lo"] <= ref_hi and ref_lo <= out["s_hi"]):
            return "enclosure misses the reference enclosure"
        return None if out["energy_lo"] <= out["energy_hi"] else "empty energy enclosure"

    def _check_ground_state(self, job, out):
        base = self.theorem_energy(job["alpha"], job["n"], job["s"])
        if not out["energy_per_particle"] >= base - ENERGY_SLACK:
            return f"relaxed energy {out['energy_per_particle']!r} below lattice {base!r}"
        return None

    def _check_figure(self, job, out):
        # acceptance 8: cluster statistics of the fixed figure-scale inputs
        k = out["cluster_count"]
        if job["alpha"] == 4 and not 19 <= k <= 23:
            return f"{k} clusters, expected 19..23"
        if out["mean_spacing"] is None or abs(out["mean_spacing"] / job["s"] - 1.0) > 0.10:
            return f"mean spacing {out['mean_spacing']!r} not within 10% of {job['s']!r}"
        with open(job["csv"]) as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != out["count"] or not os.path.getsize(job["svg"]):
            return "exported CSV/SVG incomplete"
        return None


# ---------------------------------------------------------------------------
# Interpreters.
# ---------------------------------------------------------------------------

class Deadline(Exception):
    pass


def spawn(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run the worker on `spec`; return its report and its set-up time."""
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise Deadline()
    spec = dict(spec, src=SRC)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(spec)], capture_output=True,
                              text=True, timeout=remaining, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise Deadline() from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    return report, report["ready_monotonic"] - t_spawn


def run_pass(workload, rng, ref, checker, deadline, trace=False) -> dict:
    out_dir = tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT)
    jobs = make_jobs(workload, rng, ref, out_dir)
    try:
        report, setup = spawn({"mode": "pass", "modules": WORKLOAD_MODULES[workload],
                               "jobs": [j["argv"] for j in jobs], "trace": trace}, deadline)
        failures = [(j["argv"], why) for j, r in zip(jobs, report["jobs"])
                    if (why := checker.check(j, r)) is not None]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return {"jobs": jobs, "report": report, "setup_s": setup, "failures": failures}


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

def end_to_end_metrics(passes: list[dict], setups: list[float]) -> dict:
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["report"]["wall_s"] for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(p["report"]["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _certificates(p: dict):
    for job, res in zip(p["jobs"], p["report"]["jobs"]):
        if job["kind"] == "certify" and res["code"] is not None:
            try:
                yield from json.loads(res["stdout"])
            except json.JSONDecodeError:
                pass


def per_layer_metrics(untraced: dict, traced: dict, ops_per_s: dict, ref: dict) -> dict:
    trace = traced["report"]["trace"]
    spans = trace["spans"]

    def span(name, key="s"):
        return spans.get(name, {}).get(key, 0)

    values = {
        "cli.job_p50_s": statistics.median(r["s"] for r in untraced["report"]["jobs"]),
        "cli.main.s": span("cli.main"),
        "cli.self_s": trace["layer_self_s"].get("cli", 0.0),
        "interval.calls": trace["interval_calls"],
        "certify.self_s": trace["layer_self_s"].get("certify", 0.0),
        "trace.overhead_s": traced["report"]["wall_s"] - untraced["report"]["wall_s"],
    }
    for op in INTERVAL_OPS:
        values[f"interval.{op}.ops_per_s"] = ops_per_s[op]
    for name in ("potential.solve_s_alpha", "potential.energy_derivative",
                 "auxfn.build_coefficients", "simulate.relax"):
        values[name + ".s"] = span(name)
        values[name + ".calls"] = span(name, "calls")
    for name in ("potential.lattice_energy", "simulate.detect_clusters", "simulate.export"):
        values[name + ".s"] = span(name)

    boxes = dict.fromkeys(CERTIFICATE_IDS, 0)
    drift = {"boxes": 0, "max_depth": 0, "min_lower_bound": 0}
    for c in _certificates(traced):
        boxes[c["inequality_id"]] = boxes.get(c["inequality_id"], 0) + c["boxes_processed"]
        want = ref["certify"].get(str(c["alpha"]), {}).get(c["inequality_id"])
        if want is not None:
            drift["boxes"] += c["boxes_processed"] - want["boxes_processed"]
            drift["max_depth"] += c["max_depth"] - want["max_depth"]
            drift["min_lower_bound"] += c["min_lower_bound"] != want["min_lower_bound"]
    for cid in CERTIFICATE_IDS:
        s = trace["certificate_s"].get(cid, 0.0)
        values[f"certify.{cid}.s"] = s
        values[f"certify.{cid}.boxes"] = boxes[cid]
        values[f"certify.{cid}.boxes_per_s"] = boxes[cid] / s if s > 0 else 0.0
    values["certify.boxes"] = sum(boxes.values())
    for key, v in drift.items():
        values[f"certify.drift.{key}"] = v
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "repulse")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict | None, dict]:
    """Run the passes; return the result line and the detail record."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    rng = random.Random(seed)
    checker = Checker(ref)
    detail = {"workload": workload, "trace": trace, "environment": environment(seed)}
    passes = []
    try:
        if trace:
            untraced = run_pass(workload, rng, ref, checker, deadline)
            traced = run_pass(workload, rng, ref, checker, deadline, trace=True)
            passes = [untraced, traced]
            micro, _ = spawn({"mode": "micro", "modules": ["repulse.interval"], "seed": seed},
                             deadline)
            metrics = per_layer_metrics(untraced, traced, micro["ops_per_s"], ref)
            detail["trace"] = traced["report"]["trace"]
        else:
            setup_spec = {"mode": "setup", "modules": WORKLOAD_MODULES[workload]}
            setups = [spawn(setup_spec, deadline)[1] for _ in range(SETUP_SPAWNS // 2)]
            t0 = time.monotonic()
            while not passes or time.monotonic() - t0 < seconds:
                passes.append(run_pass(workload, rng, ref, checker, deadline))
            setups += [spawn(setup_spec, deadline)[1] for _ in range(SETUP_SPAWNS // 2)]
            setups += [p["setup_s"] for p in passes]
            metrics = end_to_end_metrics(passes, setups)
            detail["setup_samples_s"] = setups
    except Deadline:
        detail["error"] = f"run deadline of {RUN_DEADLINE_S} s reached"
        metrics = None
    attempted = sum(len(p["jobs"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    detail["passes"] = [{"jobs": len(p["jobs"]), "wall_s": p["report"]["wall_s"],
                         "setup_s": p["setup_s"], "peak_rss_mb": p["report"]["peak_rss_mb"],
                         "job_s": [r["s"] for r in p["report"]["jobs"]]} for p in passes]
    detail["failures"] = failures
    if metrics is None:
        return None, detail
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOAD_MODULES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repulse", "__init__.py")):
        print(f"error: no program source at {SRC}/repulse", file=sys.stderr)
        return 2
    result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    if result is None:
        print(f"error: {detail.get('error')}", file=sys.stderr)
        return 1
    for m in result["metrics"].values():
        if not math.isfinite(m["value"]):
            print("error: non-finite metric", file=sys.stderr)
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
