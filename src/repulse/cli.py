"""Command-line front end: reproducible runs with machine-readable output.

Exit codes: 0 success / all verified, 1 a certificate failed, 2 usage or
precondition error, 3 solver ambiguity, 4 inconclusive certificates,
5 simulation non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import math
import os
import sys

from . import __version__, json_text
from .interval import Interval
from .potential import (
    AmbiguousSignChangeError,
    _check_tol,
    _check_truncation,
    lattice_energy,
    solve_s_alpha,
)

EXIT_OK = 0
EXIT_CERT_FAILED = 1
EXIT_USAGE = 2
EXIT_AMBIGUOUS = 3
EXIT_INCONCLUSIVE = 4
EXIT_NONCONVERGED = 5


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


class _Manifest:
    """Captures one command run; written alongside the first output file."""

    def __init__(self, command: str, parameters: dict):
        clean = {
            k: v for k, v in parameters.items()
            if v is not None and isinstance(v, (str, int, float, bool))
        }
        self.data = {
            "command": command,
            "parameters": clean,
            "versions": {"repulse": __version__},
            "outputs": [],
            "started": _utc_now(),
            "finished": None,
        }

    def add_output(self, path: str) -> None:
        self.data["outputs"].append(str(path))

    def write(self) -> None:
        if not self.data["outputs"]:
            return
        self.data["finished"] = _utc_now()
        path = self.data["outputs"][0] + ".manifest.json"
        with open(path, "w") as fh:
            fh.write(json_text(self.data, indent=2) + "\n")


def _even_alpha(value: str) -> int:
    alpha = int(value)
    if alpha < 4 or alpha % 2:
        raise argparse.ArgumentTypeError("alpha must be an even integer >= 4")
    return alpha


class _Inequalities:
    """The --inequality choices: the names of certify.ROUTES, in table order.

    Read only when a certify command is parsed or --help lists them (the
    option has a metavar, so building the parser does not), so that the
    other commands do not load the certify module: about 1.5 MB of peak
    RSS and 20 ms of import with bytecode caching off.
    """

    def __iter__(self):
        from .certify import ROUTES

        return iter(dict.fromkeys(r.cli for r in ROUTES if r.cli))

    def __contains__(self, name) -> bool:
        return name in iter(self)


def _emit(obj) -> None:
    sys.stdout.write(json_text(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def _cmd_salpha(args) -> int:
    _check_truncation(args.trunc)  # before the solve, as certify checks its route
    ctx = solve_s_alpha(args.alpha, args.tol)
    total = lattice_energy(args.alpha, ctx.s_alpha, args.trunc).total
    _emit({
        "alpha": args.alpha,
        "s_lo": ctx.s_alpha.lo,
        "s_hi": ctx.s_alpha.hi,
        "s_pow_alpha_lo": ctx.s_pow_alpha.lo,
        "s_pow_alpha_hi": ctx.s_pow_alpha.hi,
        "energy_lo": total.lo,
        "energy_hi": total.hi,
        "diagnostics": dataclasses.asdict(ctx.diagnostics),
    })
    return EXIT_OK


def _cmd_energy(args) -> int:
    terms = lattice_energy(args.alpha, Interval(args.t), args.trunc)
    total = terms.total
    _emit({
        "alpha": args.alpha,
        "t": args.t,
        "truncation_N": terms.truncation_N,
        "energy_lo": total.lo,
        "energy_hi": total.hi,
    })
    return EXIT_OK


def _aux_coeffs(alpha: int, tol: float, n_coeffs: int):
    from .auxfn import _check_rows, build_coefficients

    _check_rows(n_coeffs)  # before the solve, as certify checks its route
    return build_coefficients(solve_s_alpha(alpha, tol), n_coeffs)


def _cmd_psi(args) -> int:
    from .auxfn import psi

    v = psi(_aux_coeffs(args.alpha, args.tol, args.coeffs), Interval(args.x))
    _emit({"alpha": args.alpha, "x": args.x, "psi_lo": v.lo, "psi_hi": v.hi})
    return EXIT_OK


def _cmd_psihat(args) -> int:
    from .auxfn import psi_hat

    v = psi_hat(_aux_coeffs(args.alpha, args.tol, args.coeffs), Interval(args.xi))
    _emit({"alpha": args.alpha, "xi": args.xi, "psi_hat_lo": v.lo, "psi_hat_hi": v.hi})
    return EXIT_OK


def _cmd_certify(args) -> int:
    from . import certify as cert

    _check_tol(args.tol)  # on every route, also those that make no solve
    policy = cert.BnbPolicy(max_depth=args.max_depth, budget=args.budget)
    route = cert.route_for(args.inequality, args.alpha)
    ctx = solve_s_alpha(args.alpha, args.tol) if route.needs_ctx else None
    certs = route.call(args.alpha, ctx, policy)
    if not isinstance(certs, list):
        certs = [certs]
    payload = cert.certificates_to_json(certs)
    if args.out:
        manifest = _Manifest("certify", vars(args))
        with open(args.out, "w") as fh:
            fh.write(payload)
            fh.write("\n")
        manifest.add_output(args.out)
        manifest.write()
    else:
        sys.stdout.write(payload + "\n")
    statuses = [c.status for c in certs]
    if any(s == cert.FAILED for s in statuses):
        return EXIT_CERT_FAILED
    if any(s == cert.INCONCLUSIVE for s in statuses):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from . import simulate as sim

    seed = args.seed
    env_seed = os.environ.get("REPULSE_SEED")
    if env_seed is not None:
        seed = int(env_seed)
    if not (math.isfinite(args.length) and args.length > 0.0):
        raise ValueError("--length must be positive and finite")
    if not math.isfinite(args.rho):
        raise ValueError("--rho must be finite")
    if args.gap_threshold is not None and not args.gap_threshold > 0.0:
        raise ValueError("--gap-threshold must be positive")
    target = args.rho * args.length
    count = int(round(target))
    if abs(target - count) > 1e-9:
        print(f"warning: rho*length = {target!r} rounded to {count} particles",
              file=sys.stderr)
    if abs(target - count) > 0.5:
        raise ValueError("rho*length is not within 0.5 of an integer")
    cfg = sim.relax(args.alpha, count / args.length, args.length,
                    seed=seed, iters=args.iters, gtol=args.gtol)
    gap = args.gap_threshold
    if gap is None:
        gap = 0.5 * solve_s_alpha(args.alpha, 1e-9).s_alpha.mid
    report = sim.detect_clusters(cfg, gap)
    manifest = _Manifest("simulate", dict(vars(args), seed=seed))
    if args.csv or args.svg:
        csv_path = args.csv or (args.svg + ".csv")
        svg_path = args.svg or (args.csv + ".svg")
        sim.export(cfg, report, csv_path, svg_path)
        manifest.add_output(csv_path)
        manifest.add_output(svg_path)
    _emit({
        "alpha": args.alpha,
        "rho": cfg.rho,
        "length": cfg.L,
        "seed": seed,
        "count": cfg.count,
        "cluster_count": len(report.clusters),
        "mean_spacing": report.mean_spacing,
        "spacing_cv": report.spacing_cv,
        "energy_per_particle": cfg.energy_per_particle,
        "converged": cfg.converged,
        "grad_norm": cfg.grad_norm,
    })
    manifest.write()
    return EXIT_OK if cfg.converged else EXIT_NONCONVERGED


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repulse",
        description="certified spacing, positivity certificates and clustered "
                    "ground-state simulation for 1/(1+x^alpha) potentials",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("salpha", help="certified enclosure of the optimal spacing")
    sp.add_argument("--alpha", type=_even_alpha, required=True)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--trunc", type=int, default=64)
    sp.set_defaults(func=_cmd_salpha)

    sp = sub.add_parser("energy", help="lattice energy enclosure at spacing t")
    sp.add_argument("--alpha", type=_even_alpha, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--trunc", type=int, default=64)
    sp.set_defaults(func=_cmd_energy)

    sp = sub.add_parser("psi", help="auxiliary function enclosure at x")
    sp.add_argument("--alpha", type=_even_alpha, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--coeffs", type=int, default=256)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.set_defaults(func=_cmd_psi)

    sp = sub.add_parser("psihat", help="transform enclosure at xi")
    sp.add_argument("--alpha", type=_even_alpha, required=True)
    sp.add_argument("--xi", type=float, required=True)
    sp.add_argument("--coeffs", type=int, default=256)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.set_defaults(func=_cmd_psihat)

    sp = sub.add_parser("certify", help="run inequality certificates")
    sp.add_argument("--alpha", type=_even_alpha, required=True)
    sp.add_argument("--inequality", required=True, choices=_Inequalities(), metavar="NAME",
                    help="route name: %(choices)s")
    sp.add_argument("--max-depth", type=int, default=48)
    sp.add_argument("--budget", type=int, default=10_000_000)
    sp.add_argument("--tol", type=float, default=1e-12,
                    help="width of the s_alpha enclosure; checked on every route, "
                         "but rows without a spacing solve do not read it")
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("simulate", help="relax a random configuration and report clusters")
    sp.add_argument("--alpha", type=_even_alpha, required=True)
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--length", type=float, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--iters", type=int, default=20000)
    sp.add_argument("--gtol", type=float, default=1e-8)
    sp.add_argument("--gap-threshold", type=float, default=None)
    sp.add_argument("--csv", type=str, default=None)
    sp.add_argument("--svg", type=str, default=None)
    sp.set_defaults(func=_cmd_simulate)
    return p


def main(argv=None) -> int:
    """Run one command; invalid input (ValueError, OSError) exits 2 and an
    uncertifiable sign change 3, each with one `error:` line on stderr."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except AmbiguousSignChangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
