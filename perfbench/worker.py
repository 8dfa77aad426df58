"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the program's source directory, the modules to import
(the set-up being timed), and a mode:

- ``setup``: import and report when the imports finished;
- ``pass``: run each job through ``repulse.cli.main`` in this interpreter,
  optionally under the tracer, and report each job's exit code, output and
  wall time;
- ``micro``: the seeded interval-primitive microbenchmark.

The report is one JSON object on standard output. ``ready_monotonic`` is
``time.monotonic()`` once the imports are done; CLOCK_MONOTONIC is shared by
all processes on Linux, so the parent subtracts its spawn time from it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import operator
import os
import random
import resource
import statistics
import sys
import time


def import_program(src: str, modules: list[str]) -> None:
    sys.path.insert(0, src)
    for name in modules:
        importlib.import_module(name)
    pkg = sys.modules["repulse"]
    if not os.path.abspath(pkg.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"repulse imported from {pkg.__file__}, not from {src}")


def run_jobs(jobs: list[list[str]]) -> tuple[list[dict], float]:
    cli = sys.modules["repulse.cli"]
    results = []
    t_start = time.perf_counter()
    for argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a crashing job is a failed job; keep going
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        results.append({"argv": argv, "code": code, "s": time.perf_counter() - t0,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})
    return results, time.perf_counter() - t_start


def _ops_per_s(op, cases, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in cases:
            op(*args)
        times.append(time.perf_counter() - t0)
    return len(cases) / statistics.median(times)


def _micro(seed: int) -> dict:
    """Interval primitives on cases drawn like the acceptance-9 soundness fuzz."""
    from repulse.interval import Interval, pow_int, sinc

    rng = random.Random(seed)

    def scaled():
        return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-6, 6)

    def nonzero():
        y = 0.0
        while y == 0.0:
            y = scaled()
        return y

    n = 20_000
    pairs = [(Interval(scaled()), Interval(nonzero())) for _ in range(n)]
    powers = [(Interval(scaled()), rng.randint(0, 12)) for _ in range(n)]
    sincs = [(Interval(rng.uniform(-80.0, 80.0)),) for _ in range(n // 8)]
    return {
        "add": _ops_per_s(operator.add, pairs),
        "mul": _ops_per_s(operator.mul, pairs),
        "div": _ops_per_s(operator.truediv, pairs),
        "pow_int": _ops_per_s(pow_int, powers),
        "sinc": _ops_per_s(sinc, sincs),
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    import_program(spec["src"], spec["modules"])
    report = {"ready_monotonic": time.monotonic()}
    mode = spec["mode"]
    if mode == "pass":
        tracer = None
        if spec.get("trace"):
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        report["jobs"], report["wall_s"] = run_jobs(spec["jobs"])
        if tracer is not None:
            report["trace"] = tracer.report()
    elif mode == "micro":
        report["ops_per_s"] = _micro(spec["seed"])
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
