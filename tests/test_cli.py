"""Command-line interface: outputs, exit codes, manifests, determinism."""

import dataclasses
import json
import os
import platform
import subprocess
import sys
import time

import numpy as np
import pytest

import repulse
from repulse import certify, cli
from repulse.certify import ROUTES
from repulse.cli import main
from repulse.potential import asymptotic_s_pow_alpha, solve_s_alpha


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_salpha_alpha4(capsys):
    code, out = _run(capsys, "salpha", "--alpha", "4", "--tol", "1e-12")
    assert code == 0
    d = json.loads(out)
    assert d["s_lo"] <= 1.4142135623730950 <= d["s_hi"]
    assert d["s_hi"] - d["s_lo"] <= 1e-12
    assert d["energy_lo"] < d["energy_hi"]


def test_salpha_alpha12_bracket(capsys):
    code, out = _run(capsys, "salpha", "--alpha", "12", "--tol", "1e-10")
    assert code == 0
    d = json.loads(out)
    assert 19.0 <= d["s_pow_alpha_lo"] and d["s_pow_alpha_hi"] <= 21.0


@pytest.mark.parametrize("alpha", [1122, 4000])
def test_salpha_large_alpha(capsys, alpha):
    # a scan with cells of 1/1024 failed for every alpha >= 1122
    code, out = _run(capsys, "salpha", "--alpha", str(alpha), "--tol", "1e-12")
    assert code == 0
    d = json.loads(out)
    assert 1.0 < d["s_lo"] and d["s_hi"] - d["s_lo"] <= 1e-12
    main, g = asymptotic_s_pow_alpha(alpha)
    assert d["s_pow_alpha_lo"] <= main.hi + g.hi and main.lo - g.hi <= d["s_pow_alpha_hi"]


def test_certify_w_is_labelled_with_the_alpha_asked_for(capsys):
    code, out = _run(capsys, "certify", "--alpha", "6", "--inequality", "w")
    assert code == 0
    (c,) = json.loads(out)
    assert (c["inequality_id"], c["alpha"], c["status"]) == ("w_inequality", 6, "verified")


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_energy_overflow_prints_null_not_infinity(capsys):
    # at the largest float the exact energy, t (1 + 2 sum f(t n)), exceeds
    # every float, so the enclosure's upper end is inf
    code, out = _run(capsys, "energy", "--alpha", "4", "--t", "1.7976931348623157e308")
    assert code == 0
    d = _strict_json(out)
    assert d["energy_lo"] >= 1e308 and d["energy_hi"] is None


@pytest.mark.parametrize("t", ["1e200", "1e300", "8.98846567431158e307", "1.79e308"])
def test_energy_at_huge_spacing_is_finite(capsys, t):
    # the midpoint tail's error term once formed t^2 before scaling it, and
    # the tail once formed 2t, which overflows from t = 2^1023 on
    code, out = _run(capsys, "energy", "--alpha", "4", "--t", t)
    assert code == 0
    d = _strict_json(out)
    assert d["energy_hi"] is not None and d["energy_lo"] <= float(t) <= d["energy_hi"]


def test_energy_at_vanishing_spacing(capsys):
    # t^4 underflows to 0 here; as t -> 0 the energy tends to pi/sqrt(2)
    code, out = _run(capsys, "energy", "--alpha", "4", "--t", "1e-100")
    assert code == 0
    d = _strict_json(out)
    assert d["energy_lo"] <= 2.2214414690791831 <= d["energy_hi"]


def test_salpha_rejects_odd(capsys):
    code = main(["salpha", "--alpha", "7"])
    capsys.readouterr()
    assert code == 2


def test_energy_command(capsys):
    code, out = _run(capsys, "energy", "--alpha", "4", "--t", "1.5")
    assert code == 0
    d = json.loads(out)
    assert d["energy_lo"] <= d["energy_hi"]


def test_psi_and_psihat_commands(capsys):
    code, out = _run(capsys, "psi", "--alpha", "4", "--x", "1.0",
                     "--coeffs", "64", "--tol", "1e-9")
    assert code == 0
    d = json.loads(out)
    assert d["psi_lo"] <= 0.2 <= d["psi_hi"]
    code, out = _run(capsys, "psihat", "--alpha", "4", "--xi", "1.5",
                     "--coeffs", "64", "--tol", "1e-9")
    assert code == 0
    d = json.loads(out)
    assert d["psi_hat_lo"] == 0.0 and d["psi_hat_hi"] == 0.0


def test_certify_file_output_and_manifest(tmp_path, capsys):
    out_path = tmp_path / "certs.json"
    code = main(["certify", "--alpha", "6", "--inequality", "L",
                 "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    certs = json.loads(out_path.read_text())
    assert certs[0]["status"] == "verified"
    manifest = json.loads((tmp_path / "certs.json.manifest.json").read_text())
    assert manifest["command"] == "certify"
    assert manifest["outputs"] == [str(out_path)]
    assert manifest["versions"] == {"repulse": repulse.__version__,
                                    "python": platform.python_version(),
                                    "numpy": np.__version__}
    assert manifest["finished"] is not None


def test_certify_determinism_excluding_wall_time(tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        p = tmp_path / f"{tag}.json"
        assert main(["certify", "--alpha", "6", "--inequality", "T",
                     "--out", str(p)]) == 0
        paths.append(p)
    capsys.readouterr()
    docs = [json.loads(p.read_text()) for p in paths]
    for d in docs:
        for c in d:
            c.pop("wall_time_ms")
    assert json.dumps(docs[0]) == json.dumps(docs[1])


def test_certify_all_alpha12(tmp_path, capsys):
    out_path = tmp_path / "all12.json"
    code = main(["certify", "--alpha", "12", "--inequality", "all",
                 "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    certs = json.loads(out_path.read_text())
    assert all(c["status"] == "verified" for c in certs)
    ids = {c["inequality_id"] for c in certs}
    assert {"psihat_nonneg", "eta0", "eta1", "eta_ge2"} <= ids


def test_certify_zero_depth_inconclusive(capsys):
    code = main(["certify", "--alpha", "6", "--inequality", "T",
                 "--max-depth", "0"])
    capsys.readouterr()
    assert code == 4


def test_certify_zero_depth_inconclusive_on_eta0(capsys):
    code = main(["certify", "--alpha", "12", "--inequality", "eta0",
                 "--max-depth", "0"])
    certs = json.loads(capsys.readouterr().out)
    assert code == 4
    assert [c["status"] for c in certs] == ["inconclusive"]


def test_certify_eta2_at_a_loose_tol_stops_inconclusive(capsys):
    # the wide s_alpha enclosure leaves a midpoint whose enclosure holds 0,
    # so the run can never verify; it stops at that level, in a dozen boxes
    code = main(["certify", "--alpha", "6", "--inequality", "eta2", "--tol", "1e-2"])
    certs = json.loads(capsys.readouterr().out)
    assert code == 4
    assert [(c["status"], c["witness"], c["boxes_processed"]) for c in certs] == \
        [("inconclusive", None, 11)]


def test_certify_usage_error_for_L_at_alpha4(capsys):
    code = main(["certify", "--alpha", "4", "--inequality", "L"])
    capsys.readouterr()
    assert code == 2


def _count_solves(monkeypatch):
    """Make every spacing solve of the CLI and of certify append its alpha."""
    solves = []
    real = cli.solve_s_alpha

    def counting(alpha, *args, **kwargs):
        solves.append(alpha)
        return real(alpha, *args, **kwargs)

    monkeypatch.setattr(cli, "solve_s_alpha", counting)
    monkeypatch.setattr(certify, "solve_s_alpha", counting)
    return solves


def _just_outside():
    """(--inequality name, alpha) for each even alpha >= 4 next to a row's
    range that no row of that name covers."""
    cases = []
    for name in dict.fromkeys(r.cli for r in ROUTES if r.cli):
        rows = [r for r in ROUTES if r.cli == name]
        edges = {a for r in rows for a in (r.alphas.start - 2, r.alphas[-1] + 2)}
        cases += [(name, a) for a in sorted(edges)
                  if 4 <= a <= 10_000 and not any(a in r.alphas for r in rows)]
    return cases


def test_just_outside_cases_follow_the_route_table():
    assert set(_just_outside()) == {
        ("L", 4), ("psi4", 6), ("eta0", 4), ("eta0", 1002), ("eta1", 4), ("eta1", 1002),
        ("eta2", 4), ("eta2", 16), ("all", 1002)}


@pytest.mark.parametrize("name, alpha", _just_outside())
def test_certify_out_of_range_exits_2_before_solving(capsys, monkeypatch, name, alpha):
    solves = _count_solves(monkeypatch)
    code = main(["certify", "--alpha", str(alpha), "--inequality", name])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""
    assert solves == []


def test_certify_above_the_open_rows_names_their_limit(capsys, monkeypatch):
    # the open-ended rows are ranges that stop at sys.maxsize
    solves = _count_solves(monkeypatch)
    code = main(["certify", "--alpha", str(10 ** 20), "--inequality", "L"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"even alpha in [12, {sys.maxsize - 1}], not alpha = {10 ** 20}" in captured.err
    assert captured.out == "" and solves == []


@pytest.mark.parametrize("argv, message", [
    ("salpha --alpha 4 --trunc 1", "lattice_energy requires N >= 2"),
    ("psi --alpha 4 --x 1 --coeffs 1", "need N >= 8 coefficient rows"),
    ("psihat --alpha 4 --xi 0.5 --coeffs 7", "need N >= 8 coefficient rows"),
    ("energy --alpha 4 --t 1.5 --trunc 100000000000000000000",
     "lattice_energy requires N <= 1000000"),
    ("salpha --alpha 4 --trunc 100000000000000000000", "lattice_energy requires N <= 1000000"),
    ("psi --alpha 4 --x 1 --coeffs 100000000000", "need N <= 1000000 coefficient rows"),
])
def test_bad_truncation_exits_2_before_solving(capsys, monkeypatch, argv, message):
    solves = _count_solves(monkeypatch)
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert solves == []


@pytest.mark.parametrize("name, alpha, inequality_id", [
    (r.cli, r.alphas.start, r.inequality_id) for r in ROUTES if r.cli and not r.needs_ctx])
def test_context_free_routes_make_no_solve(capsys, monkeypatch, name, alpha, inequality_id):
    solves = _count_solves(monkeypatch)
    code = main(["certify", "--alpha", str(alpha), "--inequality", name])
    certs = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["inequality_id"] for c in certs] == [inequality_id]
    assert solves == []


def test_certify_all_alpha16_covers_x_below_1_5(capsys, monkeypatch):
    solves = _count_solves(monkeypatch)
    code = main(["certify", "--alpha", "16", "--inequality", "all"])
    certs = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["inequality_id"] for c in certs] == [
        "psihat_nonneg", "eta0", "eta1", "allthestars_const"]
    assert solves == [16]


def test_other_commands_do_not_load_certify():
    # the --inequality choices are read from certify.ROUTES only when needed
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys; from repulse.cli import main; "
            "main(['energy', '--alpha', '4', '--t', '1.5']); "
            "print('repulse.certify' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.splitlines()[-1] == "False"


def test_simulate_does_not_load_numpy_random():
    # relax draws its start without numpy.random; a numpy that imports it
    # with numpy itself (1.x) gives no such saving to check
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import sys, numpy; eager = 'numpy.random' in sys.modules; "
            "from repulse.cli import main; "
            "code = main(['simulate', '--alpha', '4', '--rho', '1', '--length', '8', "
            "'--seed', '3', '--iters', '200']); "
            "print(code, eager, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    code, eager, loaded = out.splitlines()[-1].split()
    assert code == "0"
    if eager == "True":
        pytest.skip("this numpy imports numpy.random at import")
    assert loaded == "False"


@pytest.mark.parametrize("alpha", [4, 40])
def test_salpha_prints_the_solve_diagnostics(capsys, alpha):
    code, out = _run(capsys, "salpha", "--alpha", str(alpha))
    assert code == 0
    d = json.loads(out)
    assert list(d)[-1] == "diagnostics"
    assert d["diagnostics"] == dataclasses.asdict(solve_s_alpha(alpha, 1e-12).diagnostics)


def test_certify_bad_budget_is_usage_error(capsys):
    code = main(["certify", "--alpha", "6", "--inequality", "T", "--budget", "0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_simulate_summary_and_outputs(tmp_path, capsys):
    csv = tmp_path / "run.csv"
    svg = tmp_path / "run.svg"
    code, out = _run(capsys, "simulate", "--alpha", "4", "--rho", "0.02",
                     "--length", "100", "--seed", "1", "--iters", "8000",
                     "--csv", str(csv), "--svg", str(svg))
    assert code == 0
    d = json.loads(out)
    assert d["count"] == 2
    assert d["cluster_count"] == 2
    assert abs(d["mean_spacing"] - 50.0) < 1.0
    assert csv.exists() and svg.exists()
    assert (tmp_path / "run.csv.manifest.json").exists()


def test_simulate_data_files_reproducible(tmp_path, capsys):
    blobs = []
    for tag in ("x", "y"):
        csv = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        code = main(["simulate", "--alpha", "4", "--rho", "1.0",
                     "--length", "8", "--seed", "5", "--iters", "500",
                     "--csv", str(csv), "--svg", str(svg)])
        capsys.readouterr()
        assert code == 0
        blobs.append((csv.read_bytes(), svg.read_bytes()))
    assert blobs[0] == blobs[1]


def test_simulate_env_seed_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPULSE_SEED", "5")
    code, out = _run(capsys, "simulate", "--alpha", "4", "--rho", "1.0",
                     "--length", "8", "--seed", "1", "--iters", "500")
    assert code == 0
    assert json.loads(out)["seed"] == 5


def test_simulate_rho_not_near_integer(capsys):
    code = main(["simulate", "--alpha", "4", "--rho", "0.526",
                 "--length", "10", "--seed", "0", "--iters", "4000"])
    err = capsys.readouterr().err
    assert code == 0  # 5.26 rounds to 5 with a warning
    assert "rounded" in err


@pytest.mark.parametrize("flag, value", [
    ("--length", "0"), ("--iters", "0"), ("--rho", "-1"),
    ("--length", "inf"), ("--rho", "nan"), ("--gap-threshold", "0"),
    ("--gtol", "nan"), ("--gtol", "-1"), ("--gtol", "inf"),
    ("--seed", "-1"),
])
def test_simulate_bad_input_is_usage_error(capsys, flag, value):
    argv = {"--alpha": "4", "--rho": "1.0", "--length": "8", "--iters": "10"}
    argv[flag] = value
    code = main(["simulate", *(s for kv in argv.items() for s in kv)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.out == ""


# sizes that a run cannot reach: each must be refused before any work
_OVERSIZED = (
    "energy --alpha 4 --t 1.5 --trunc 100000000000000000000",
    "salpha --alpha 4 --trunc 100000000000000000000",
    "psi --alpha 4 --x 1 --coeffs 100000000000",
    "simulate --alpha 4 --rho 1e300 --length 1e-300",
    "simulate --alpha 4 --rho 1e300 --length 1e300",
)


@pytest.mark.parametrize("argv", [
    "energy --alpha 4 --t 0",
    "energy --alpha 4 --t nan",
    "salpha --alpha 4 --trunc 1",
    "salpha --alpha 4 --tol 0",
    "salpha --alpha 4 --tol nan",
    "psi --alpha 4 --x 1000",
    "psi --alpha 4 --x 1 --coeffs 4",
    "psihat --alpha 4 --xi nan",
    "certify --alpha 12 --inequality T --out {missing}/x.json",
    "certify --alpha 16 --inequality T --tol -5",
    "certify --alpha 16 --inequality T --tol nan",
    "simulate --alpha 4 --rho 1 --length 8 --iters 10 --csv {missing}/x.csv",
    *_OVERSIZED,
])
def test_invalid_input_exits_2_with_one_error_line(tmp_path, capsys, argv):
    code = main(argv.format(missing=tmp_path / "no-such-dir").split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_salpha_below_the_solve_floor_exits_3_with_one_error_line(capsys):
    # at alpha 4 the enclosure stops narrowing near 6e-14, far above 1e-17
    code = main(["salpha", "--alpha", "4", "--tol", "1e-17"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("argv", _OVERSIZED)
def test_oversized_arguments_exit_2_at_once(capsys, argv):
    start = time.perf_counter()
    assert main(argv.split()) == 2
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()


# The text of `repulse --help`, of each `repulse <command> --help`, of an
# unknown command and of missing or invalid arguments, at 80 columns: argv ->
# (exit code, stdout, stderr).  A run builds the parser of the command it
# names only; none of these may change by that.  The wording is argparse's
# of Python 3.10 and 3.11.
_USAGE = "usage: repulse [-h] {salpha,energy,psi,psihat,certify,simulate} ...\n"
_CERTIFY_USAGE = """\
usage: repulse certify [-h] --alpha ALPHA --inequality NAME
                       [--max-depth MAX_DEPTH] [--budget BUDGET] [--tol TOL]
                       [--out OUT]
"""
_SIMULATE_USAGE = """\
usage: repulse simulate [-h] --alpha ALPHA --rho RHO --length LENGTH
                        [--seed SEED] [--iters ITERS] [--gtol GTOL]
                        [--gap-threshold GAP_THRESHOLD] [--csv CSV]
                        [--svg SVG]
"""
_SALPHA_USAGE = "usage: repulse salpha [-h] --alpha ALPHA [--tol TOL] [--trunc TRUNC]\n"
_CLI_TEXT = {
    ("--help",): (0, _USAGE + """
certified spacing, positivity certificates and clustered ground-state
simulation for 1/(1+x^alpha) potentials

positional arguments:
  {salpha,energy,psi,psihat,certify,simulate}
    salpha              certified enclosure of the optimal spacing
    energy              lattice energy enclosure at spacing t
    psi                 auxiliary function enclosure at x
    psihat              transform enclosure at xi
    certify             run inequality certificates
    simulate            relax a random configuration and report clusters

options:
  -h, --help            show this help message and exit
""", ""),
    ("salpha", "--help"): (0, _SALPHA_USAGE + """
options:
  -h, --help     show this help message and exit
  --alpha ALPHA
  --tol TOL
  --trunc TRUNC
""", ""),
    ("energy", "--help"): (0, """\
usage: repulse energy [-h] --alpha ALPHA --t T [--trunc TRUNC]

options:
  -h, --help     show this help message and exit
  --alpha ALPHA
  --t T
  --trunc TRUNC
""", ""),
    ("psi", "--help"): (0, """\
usage: repulse psi [-h] --alpha ALPHA --x X [--coeffs COEFFS] [--tol TOL]

options:
  -h, --help       show this help message and exit
  --alpha ALPHA
  --x X
  --coeffs COEFFS
  --tol TOL
""", ""),
    ("psihat", "--help"): (0, """\
usage: repulse psihat [-h] --alpha ALPHA --xi XI [--coeffs COEFFS] [--tol TOL]

options:
  -h, --help       show this help message and exit
  --alpha ALPHA
  --xi XI
  --coeffs COEFFS
  --tol TOL
""", ""),
    ("certify", "--help"): (0, _CERTIFY_USAGE + """
options:
  -h, --help            show this help message and exit
  --alpha ALPHA
  --inequality NAME     route name: T, L, w, psi4, eta0, eta1, eta2, all
  --max-depth MAX_DEPTH
  --budget BUDGET
  --tol TOL             width of the s_alpha enclosure; checked on every
                        route, but rows without a spacing solve do not read it
  --out OUT
""", ""),
    ("simulate", "--help"): (0, _SIMULATE_USAGE + """
options:
  -h, --help            show this help message and exit
  --alpha ALPHA
  --rho RHO
  --length LENGTH
  --seed SEED
  --iters ITERS
  --gtol GTOL
  --gap-threshold GAP_THRESHOLD
  --csv CSV
  --svg SVG
""", ""),
    (): (2, "", _USAGE + "repulse: error: the following arguments are required: command\n"),
    ("bogus",): (2, "", _USAGE + "repulse: error: argument command: invalid choice: 'bogus' "
                 "(choose from 'salpha', 'energy', 'psi', 'psihat', 'certify', 'simulate')\n"),
    ("certify", "--alpha", "4"): (2, "", _CERTIFY_USAGE + "repulse certify: error: the "
                                  "following arguments are required: --inequality\n"),
    ("simulate",): (2, "", _SIMULATE_USAGE + "repulse simulate: error: the following "
                    "arguments are required: --alpha, --rho, --length\n"),
    ("salpha", "--alpha", "3"): (2, "", _SALPHA_USAGE + "repulse salpha: error: argument "
                                 "--alpha: alpha must be an even integer >= 4\n"),
}


@pytest.mark.parametrize("argv", list(_CLI_TEXT), ids=" ".join)
def test_help_usage_and_errors_keep_their_text(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert (code, out, err) == _CLI_TEXT[argv]


def test_a_run_builds_the_parser_of_its_command_only(capsys, monkeypatch):
    built = []
    build = cli._build_parser

    def recorded(command=None):
        parser = build(command)
        built.append(sorted(parser._subparsers._group_actions[0].choices))
        return parser

    monkeypatch.setattr(cli, "_build_parser", recorded)
    main(["energy", "--alpha", "4", "--t", "1.5"])
    main(["--help"])
    main(["bogus"])
    every = sorted(cli._COMMANDS)
    assert built == [["energy"], every, every]
