"""Fast self-check of the benchmark: BENCHMARK.json, the result schema and
the metric names, the job generator and the tracer. Runs no program job.

Usage (from the root of a checkout): python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import sys
import time
import types

import run
from tracer import Tracer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, sorted(spec)
    assert spec["paths"] == [os.path.basename(run.BENCH_DIR)], spec["paths"]
    assert spec["command"] == ["python3", "perfbench/run.py"], spec["command"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_MODULES)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25, m
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("lower", "higher"), m
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(set(names)) == len(names), "a name is used twice"
    for _, unit in run.END_TO_END + run.PER_LAYER:
        assert UNIT.fullmatch(unit), unit
    return spec


def check_jobs(ref: dict) -> None:
    for workload in run.WORKLOAD_MODULES:
        a = run.make_jobs(workload, random.Random(7), ref, "out")
        b = run.make_jobs(workload, random.Random(7), ref, "out")
        assert [j["argv"] for j in a] == [j["argv"] for j in b], "seed must fix the inputs"
        argvs = [tuple(j["argv"]) for j in a]
        assert len(set(argvs)) == len(argvs), f"{workload}: a job input repeats in one pass"
        assert not any("--threads" in argv for argv in argvs)


def _fake_pass(jobs: list[dict], wall: float, trace: dict | None = None) -> dict:
    report = {"wall_s": wall, "peak_rss_mb": 40.0,
              "jobs": [{"code": 0, "s": wall / len(jobs), "stdout": "[]"} for _ in jobs]}
    if trace is not None:
        report["trace"] = trace
    return {"jobs": jobs, "report": report, "setup_s": 0.2, "failures": []}


def check_result_schema(spec: dict, ref: dict) -> None:
    jobs = run.make_jobs("certify", random.Random(1), ref, "out")
    passes = [_fake_pass(jobs, 16.0), _fake_pass(jobs, 17.0)]
    e2e = run.end_to_end_metrics(passes, [0.2, 0.21, 0.19])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    trace = {"spans": {"cli.main": {"s": 17.0, "self_s": 0.01, "calls": 5}},
             "layer_self_s": {"cli": 0.01, "certify": 15.0},
             "certificate_s": {"eta_ge2": 14.0}, "interval_calls": 10}
    layer = run.per_layer_metrics(passes[0], _fake_pass(jobs, 18.0, trace),
                                  dict.fromkeys(run.INTERVAL_OPS, 1e6), ref)
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    for metrics in (e2e, layer):
        line = json.loads(json.dumps({"correct": True, "attempted": 5, "failed": 0,
                                      "metrics": metrics}))
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        for m in line["metrics"].values():
            assert set(m) == {"value", "unit"} and math.isfinite(m["value"]), m


def check_tracer() -> None:
    """Spans on a two-layer stand-in package: self time and certificate attribution."""
    pkg = types.ModuleType("fakepkg")
    interval = types.ModuleType("fakepkg.interval")
    certify = types.ModuleType("fakepkg.certify")
    exec("__all__ = ['twice']\ndef twice(x):\n    return 2 * x\n", interval.__dict__)
    exec("import time\nfrom types import SimpleNamespace\n"
         "__all__ = ['certify_part', 'certify_all']\n"
         "def certify_part():\n    time.sleep(0.02)\n"
         "    return SimpleNamespace(inequality_id='part')\n"
         "def certify_all():\n    certify_part()\n    time.sleep(0.01)\n"
         "    return [certify_part(), twice(1)]\n", certify.__dict__)
    certify.twice = interval.twice
    modules = {"fakepkg": pkg, "fakepkg.interval": interval, "fakepkg.certify": certify}
    sys.modules.update(modules)
    try:
        tracer = Tracer()
        tracer.install("fakepkg")
        certify.certify_all()
        report = tracer.report()
    finally:
        for name in modules:
            del sys.modules[name]
    spans = report["spans"]
    assert report["interval_calls"] == 1
    assert spans["certify.certify_part"]["calls"] == 2
    all_ = spans["certify.certify_all"]
    assert 0.05 <= all_["s"] and 0.005 <= all_["self_s"] < all_["s"] - 0.03
    assert report["certificate_s"]["part"] >= 0.04


def main() -> int:
    if not __debug__:
        raise SystemExit("the self-check is made of asserts: run it without -O")
    t0 = time.perf_counter()
    with open(run.REFERENCE) as fh:
        ref = json.load(fh)
    spec = check_benchmark_json()
    check_jobs(ref)
    check_result_schema(spec, ref)
    check_tracer()
    print(f"perfbench self-check passed in {time.perf_counter() - t0:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
