"""Command-line front end: tube generation, energy evaluation, per-cell
reports, reduced-energy sweeps, stability ensembles, fracture thresholds, and
the machine-readable verification suite.

All file outputs are written atomically (temp file plus rename) and rendered
deterministically: floats carry 17 significant digits, JSON keys are sorted,
and no timestamps are embedded, so identical (argv, seed) runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__, acceptance, cells, cellspec, fracture, geometry, potentials, pxyz, reduced, stability
from .energy import bond_graph, total_energy
from .errors import InvalidParameterError, NanolabError, PxyzFormatError, VerificationFailureError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


def _emit(text: str, out: str | None) -> None:
    if out:
        pxyz.write_text(out, text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    _emit(json.dumps(_sanitize(payload), sort_keys=True, indent=2, allow_nan=False) + "\n", out)


def _emit_csv(header, columns, out: str | None) -> None:
    """CSV of the column blocks side by side (see pxyz.format_table)."""
    _emit(",".join(header) + "\n" + pxyz.format_table(columns, ","), out)


def _read_tube(args) -> geometry.Nanotube:
    return pxyz.read_pxyz(args.infile, ell=args.ell, m=args.m)


def _int_list(option: str, text: str):
    """The integers of the comma-separated list text of option; refuses an empty or non-integer item."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise InvalidParameterError(f"{option} must be comma-separated integers, got {text!r}") from None


def cmd_generate(args) -> int:
    geom = geometry.solve_family(args.ell, args.mu, args.lambda1, args.lambda2)
    tube = geometry.build_nanotube(geom, args.m)
    pxyz.write_pxyz(args.out, tube)
    return EXIT_OK


def cmd_energy(args) -> int:
    pots = potentials.load(args.pots)
    tube = _read_tube(args)
    graph = bond_graph(tube)
    degrees = graph.degrees()
    _emit_json(
        {
            "energy": total_energy(tube, pots, graph),
            "n_bonds": graph.n_bonds,
            "n_angles": graph.n_angles,
            "max_degree": int(np.max(degrees)) if len(degrees) else 0,
            "n_atoms": tube.n,
            "period": tube.period,
            "potentials": pots.name,
        },
        args.out,
    )
    return EXIT_OK


def cmd_cells(args) -> int:
    pots = potentials.load(args.pots)
    tube = _read_tube(args)
    unwrapped = cells.gather_cells(tube)
    bonds = cells.cell_bond_lengths(unwrapped)
    broken = np.argwhere(bonds >= potentials.BOND_CUTOFF)
    if len(broken):
        i, j, k, b = broken[0]
        print(
            f"nanolab: cell ({i + 1}, {j}, {k}) bond b{b + 1} has length {bonds[i, j, k, b]:.6g}, at or beyond "
            f"the bond cutoff {potentials.BOND_CUTOFF}: either the labels are inconsistent with the file "
            f"(pass --ell and --m matching it), the period L={tube.period!r} does not match the atoms, "
            "or atoms are displaced",
            file=sys.stderr,
        )
        return EXIT_USAGE
    summ = cells.cell_summary(tube, pots, unwrapped)
    header = (
        ["i", "j", "k"]
        + [f"b{t}" for t in range(1, 9)]
        + [f"phi{t}" for t in range(1, 11)]
        + ["theta_l", "theta_r", "theta_l_dual", "theta_r_dual", "delta"]
    )
    _emit_csv(header, [summ[key] for key in ("centers", "bonds", "angles", "theta", "delta")], args.out)
    return EXIT_OK


def _parse_grid(text: str, mu_us: float):
    """The --mu-grid points a:b:steps: finite ends and steps >= 1, with a == b
    when steps is 1.  Raises InvalidParameterError otherwise."""
    if not text:
        return np.linspace(mu_us - 0.02, mu_us + 0.02, 9)
    parts = text.split(":")
    try:
        a, b, steps = float(parts[0]), float(parts[1]), int(parts[2])
        valid = len(parts) == 3 and np.isfinite([a, b]).all() and (steps > 1 or (steps == 1 and a == b))
    except (ValueError, IndexError):
        valid = False
    if not valid:
        raise InvalidParameterError(
            f"--mu-grid must be a:b:steps with finite a, b and steps >= 1 (a == b for one step), got {text!r}"
        )
    return np.linspace(a, b, steps)


def cmd_reduced(args) -> int:
    pots = potentials.load(args.pots)
    refs = reduced.reference_angles(args.ell, pots)
    grid = _parse_grid(args.mu_grid, refs.mu_us)
    fams, sol = reduced.family_minima(grid, args.ell, pots, m=args.m)
    evals = np.linalg.eigvalsh(sol.envelope_hessian())
    minima = [[fam.mu, fam.lambda1, fam.lambda2, fam.alpha, fam.geometry.rho, fam.energy] for fam in fams]
    # inner variables (lambda, alpha1, alpha2) pinned at a bound of the search box
    n_pinned = 3 - np.sum(sol.free, axis=1)
    header = ["mu", "lambda1", "lambda2", "alpha", "rho", "emin", "hess_eig1", "hess_eig2", "hess_eig3", "n_pinned"]
    _emit_csv(header, [np.array(minima, dtype=float), evals, n_pinned], args.out)
    return EXIT_OK


def cmd_stability(args) -> int:
    pots = potentials.load(args.pots)
    refs = reduced.reference_angles(args.ell, pots)
    spec = stability.PerturbationSpec(eta=args.eta, seed=args.seed, count=args.count, mode=args.mode)
    rep = stability.stability_trial(refs.mu_us + args.mu_offset, args.ell, args.m, spec, pots)
    failures = rep.pop("failures")
    rep["failure_trials"] = [f["trial"] for f in failures]
    if args.dump_counterexample and failures:
        for f in failures:
            tube = geometry.Nanotube(f["positions"], (refs.mu_us + args.mu_offset) * args.m, args.ell, args.m)
            pxyz.write_pxyz(f"{args.dump_counterexample}.trial{f['trial']}.pxyz", tube)
    rep["mu_us"] = refs.mu_us
    _emit_json(rep, args.out)
    return EXIT_OK if rep["n_failures"] == 0 else EXIT_VERIFICATION


def cmd_fracture(args) -> int:
    pots = potentials.load(args.pots)
    scaling = fracture.fracture_scaling(args.ell, _int_list("--m-list", args.m_list), pots, window=args.window)
    if args.out_csv:
        rows = scaling["rows"]
        columns = [[r["m"] for r in rows], [[r["mu_frac"], r["offset_sqrt_m"]] for r in rows]]
        _emit_csv(["m", "mu_frac", "offset_sqrt_m"], columns, args.out_csv)
    payload = {
        "ell": scaling["ell"],
        "slope": scaling["slope"],
        "prefactor": scaling["prefactor"],
        "mu_us": scaling["rows"][0]["mu_us"],
        "rows": [
            {k: r[k] for k in ("m", "mu_frac", "offset", "offset_sqrt_m")} for r in scaling["rows"]
        ],
        "newton_iterations": scaling["newton_iterations"],
        "max_kkt_residual": scaling["max_kkt_residual"],
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_verify_cell(args) -> int:
    pots = potentials.load(args.pots)
    ells = _int_list("--ell", args.ell)
    # one kink cell per ell for both checks; an ell below 16 makes
    # cell_convexity raise before tilde_derivative_signs runs
    cells = [cellspec.kink_cell(ell, pots) if ell >= 16 else None for ell in ells]
    checks = {
        "kernel": acceptance.kernel_dimensions(None, 0),
        "convexity": acceptance.cell_convexity(ells, 0, r=args.r, pots=pots, cells=cells),
    }
    signs = cellspec.tilde_derivative_signs(ells, pots, cells)
    checks["tilde_derivatives"] = {
        "passed": all(r["bond_grad_residual"] <= 1e-10 for r in signs["rows"]),
        "scaling_slope": signs["scaling_slope"],
        "rows": [{k: v for k, v in r.items() if k != "angle_grad"} for r in signs["rows"]],
    }
    passed = all(c["passed"] for c in checks.values())
    _emit_json({"checks": checks, "passed": passed}, args.out)
    return EXIT_OK if passed else EXIT_VERIFICATION


def cmd_verify_all(args) -> int:
    if args.seed < 0:
        raise InvalidParameterError(f"--seed must be nonnegative, got {args.seed}")
    checks = {
        key: check(quick if args.quick else full, args.seed) for _, key, check, quick, full in acceptance.CHECKS
    }
    passed = all(c["passed"] for c in checks.values())
    report = {"passed": passed, "quick": args.quick, "seed": args.seed, "version": __version__, "checks": checks}
    _emit_json(report, args.out)
    return EXIT_OK if passed else EXIT_VERIFICATION


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built on the first call in a process and shared
    by every later one: parse_args keeps nothing between calls, and each call
    returns a new namespace."""
    parser = _Parser(prog="nanolab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nanolab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pots(p):
        p.add_argument("--pots", default="soft", help="preset (soft, stiff) or JSON {name, k2, k3, cutoff_lo, cutoff_hi}")

    p = sub.add_parser("generate", help="build a family tube and write PXYZ")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--lambda1", type=float, required=True)
    p.add_argument("--lambda2", type=float, required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("energy", help="configurational energy of a PXYZ file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    add_pots(p)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("cells", help="per-cell bond/angle/defect CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    add_pots(p)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_cells)

    p = sub.add_parser("reduced", help="reduced-energy sweep over a mu grid")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--mu-grid", default="", help="a:b:steps (default mu_us +/- 0.02, 9 steps)")
    add_pots(p)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_reduced)

    p = sub.add_parser("stability", help="seeded perturbation ensemble against the optimal tube")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mu-offset", type=float, default=0.0)
    p.add_argument("--eta", type=float, default=1e-3)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="uniform-ball", choices=stability.MODES)
    p.add_argument("--dump-counterexample", default=None, help="PXYZ path prefix for failing samples")
    add_pots(p)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("fracture", help="cleavage thresholds and their m-scaling")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m-list", default="4,8,16,32,64")
    p.add_argument("--window", type=float, default=0.12)
    add_pots(p)
    p.add_argument("--out-csv", default=None)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_fracture)

    p = sub.add_parser("verify-cell", help="kernel dimensions and cell convexity checks")
    p.add_argument("--ell", default="16,32,64", help="comma-separated ell values")
    p.add_argument("--r", type=float, default=0.9)
    add_pots(p)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_verify_cell)

    p = sub.add_parser("verify-all", help="run the acceptance battery")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PxyzFormatError as exc:
        line = f" (line {exc.line_number})" if exc.line_number else ""
        print(f"nanolab: malformed PXYZ{line}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationFailureError as exc:
        print(f"nanolab: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except NanolabError as exc:
        print(f"nanolab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"nanolab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
