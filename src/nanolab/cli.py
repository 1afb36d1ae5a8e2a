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
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__, cells, cellspec, fracture, geometry, potentials, pxyz, reduced, stability
from .energy import bond_graph, family_energy, total_energy
from .errors import NanolabError, PxyzFormatError, VerificationFailureError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(x) -> str:
    return format(float(x), ".17g")


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


def _write_text(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(payload: dict, out: str | None) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    text = json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n"
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _emit_csv(header, rows, out: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (float, np.floating)) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _load_pots(args) -> potentials.PotentialSet:
    spec = getattr(args, "config", None) or getattr(args, "pots", None) or "soft"
    return potentials.load(spec)


def _read_tube(args) -> geometry.Nanotube:
    return pxyz.read_pxyz(args.infile, ell=args.ell, m=args.m)


def _int_list(text: str):
    return [int(v) for v in text.split(",") if v]


def cmd_generate(args) -> int:
    geom = geometry.solve_family(args.ell, args.mu, args.lambda1, args.lambda2)
    tube = geometry.build_nanotube(geom, args.m)
    pxyz.write_pxyz(args.out, tube)
    return EXIT_OK


def cmd_energy(args) -> int:
    pots = _load_pots(args)
    tube = _read_tube(args)
    graph = bond_graph(tube, cutoff=pots.cutoff)
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
    pots = _load_pots(args)
    tube = _read_tube(args)
    probe = cells.cell_bond_lengths(cells.gather_cells(tube))
    if float(np.max(probe)) >= pots.cutoff:
        print(
            "nanolab: cell labels are inconsistent with the bond structure; "
            "pass --ell and --m matching the file",
            file=sys.stderr,
        )
        return EXIT_USAGE
    summ = cells.cell_summary(tube, pots)
    header = (
        ["i", "j", "k"]
        + [f"b{t}" for t in range(1, 9)]
        + [f"phi{t}" for t in range(1, 11)]
        + ["theta_l", "theta_r", "theta_l_dual", "theta_r_dual", "delta"]
    )
    rows = []
    for idx, (ci, cj, ck) in enumerate(summ["centers"]):
        rows.append(
            [int(ci), int(cj), int(ck)]
            + [float(v) for v in summ["bonds"][idx]]
            + [float(v) for v in summ["angles"][idx]]
            + [float(v) for v in summ["theta"][idx]]
            + [float(summ["delta"][idx])]
        )
    _emit_csv(header, rows, args.out)
    return EXIT_OK


def _parse_grid(text: str, mu_us: float):
    if not text:
        return np.linspace(mu_us - 0.02, mu_us + 0.02, 9)
    a, b, steps = text.split(":")
    return np.linspace(float(a), float(b), int(steps))


def cmd_reduced(args) -> int:
    pots = _load_pots(args)
    refs = reduced.reference_angles(args.ell, pots)
    grid = _parse_grid(args.mu_grid, refs.mu_us)
    g = geometry.gamma(args.ell)
    rows = []
    for mu in grid:
        fam = reduced.minimize_family(float(mu), args.ell, pots, m=args.m)
        hess = reduced.reduced_hessian(float(mu), g, g, pots)
        evals = np.linalg.eigvalsh(hess)
        rows.append(
            [
                float(mu),
                fam.lambda1,
                fam.lambda2,
                fam.alpha,
                fam.geometry.rho,
                fam.energy,
                float(evals[0]),
                float(evals[1]),
                float(evals[2]),
            ]
        )
    header = ["mu", "lambda1", "lambda2", "alpha", "rho", "emin", "hess_eig1", "hess_eig2", "hess_eig3"]
    _emit_csv(header, rows, args.out)
    return EXIT_OK


def cmd_stability(args) -> int:
    pots = _load_pots(args)
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
    pots = _load_pots(args)
    scaling = fracture.fracture_scaling(args.ell, _int_list(args.m_list), pots, window=args.window)
    if args.out_csv:
        rows = [[r["m"], r["mu_frac"], r["offset_sqrt_m"]] for r in scaling["rows"]]
        _emit_csv(["m", "mu_frac", "offset_sqrt_m"], rows, args.out_csv)
    payload = {
        "ell": scaling["ell"],
        "slope": scaling["slope"],
        "prefactor": scaling["prefactor"],
        "mu_us": scaling["rows"][0]["mu_us"],
        "rows": [
            {k: r[k] for k in ("m", "mu_frac", "offset", "offset_sqrt_m")} for r in scaling["rows"]
        ],
    }
    _emit_json(payload, args.out)
    return EXIT_OK


def cmd_verify_cell(args) -> int:
    pots = _load_pots(args)
    report = {"checks": {}}
    ok = True
    kern = cellspec.t_jacobian_kernel()
    kern_ok = (
        kern["kernel_dim"] == 11
        and kern["kernel_dim_angles"] == 17
        and kern["max_principal_angle"] < 1e-4
    )
    ok &= kern_ok
    report["checks"]["kernel"] = {
        "passed": bool(kern_ok),
        "kernel_dim": kern["kernel_dim"],
        "kernel_dim_angles": kern["kernel_dim_angles"],
        "max_principal_angle": kern["max_principal_angle"],
    }
    ells = _int_list(args.ell)
    convexity = []
    try:
        for ell in ells:
            rep = cellspec.cell_hessian_convexity(ell, pots, r=args.r)
            convexity.append(rep)
    except VerificationFailureError as exc:
        report["checks"]["convexity"] = {"passed": False, "error": str(exc)}
        ok = False
    else:
        conv_ok = all(r["c_good"] > 0 and r["c_weak"] > 0 and r["c_kink"] > 0 for r in convexity)
        entry = {"passed": bool(conv_ok), "rows": convexity}
        if len(convexity) > 1:
            arr = np.array([(r["ell"], r["c_weak"]) for r in convexity])
            slope = float(np.polyfit(np.log(arr[:, 0]), np.log(arr[:, 1]), 1)[0])
            entry["c_weak_scaling_slope"] = slope
            conv_ok = conv_ok and abs(slope + 2.0) <= 0.3
            entry["passed"] = bool(conv_ok)
        ok &= conv_ok
        report["checks"]["convexity"] = entry
    signs = cellspec.tilde_derivative_signs([ell for ell in ells if ell >= 16], pots)
    signs_ok = all(r["bond_grad_residual"] <= 1e-10 for r in signs["rows"])
    ok &= signs_ok
    report["checks"]["tilde_derivatives"] = {
        "passed": bool(signs_ok),
        "scaling_slope": signs["scaling_slope"],
        "rows": [{k: v for k, v in r.items() if k != "angle_grad"} for r in signs["rows"]],
    }
    report["passed"] = bool(ok)
    _emit_json(report, args.out)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _verify_all(quick: bool, seed: int) -> dict:
    pots_soft = potentials.default_soft()
    pots_stiff = potentials.default_stiff()
    checks = {}

    rep_soft = potentials.validate(pots_soft)
    rep_stiff = potentials.validate(pots_stiff)
    checks["potentials"] = {
        "passed": rep_soft.passed and rep_stiff.passed,
        "soft": rep_soft.summary(),
        "stiff": rep_stiff.summary(),
    }

    rng = np.random.default_rng(seed)
    tuples = 5 if quick else 10
    worst = 0.0
    for _ in range(tuples):
        ell = int(rng.integers(5, 13))
        mu = float(rng.uniform(2.7, 3.05))
        lo = 0.9 + 1e-6
        hi1 = min(1.1, mu / 2 - 0.2) - 1e-6
        l1 = float(rng.uniform(lo, hi1))
        l2 = float(rng.uniform(max(lo, mu / 2 - l1 + 1e-3), 1.1 - 1e-6))
        m = int(rng.integers(1, 4))
        geom = geometry.solve_family(ell, mu, l1, l2)
        tube = geometry.build_nanotube(geom, m)
        diff = abs(total_energy(tube, pots_soft) - family_energy(geom, m, pots_soft))
        worst = max(worst, diff / (1e-9 * tube.n))
    checks["closed_form_identity"] = {"passed": worst <= 1.0, "worst_rel_to_tol": worst}

    ba, bg, baa, bgg, bag = reduced.beta_derivatives(2 * np.pi / 3, np.pi)
    beta_ok = abs(ba + 2) < 1e-8 and abs(bg) < 1e-8 and abs(bgg + np.sqrt(3) / 2) < 1e-8
    checks["beta_anchors"] = {"passed": bool(beta_ok), "d_alpha": ba, "d_gamma": bg, "d2_gamma": bgg}

    anchor_ok = True
    for pots in (pots_soft, pots_stiff):
        val, (lam, a1, a2) = reduced.reduced_energy(3.0, np.pi, np.pi, pots)
        anchor_ok &= abs(val + 3.0) < 1e-9 and abs(lam - 1.0) < 1e-9 and abs(a1 - 2 * np.pi / 3) < 1e-9
    checks["reduced_anchor"] = {"passed": bool(anchor_ok)}

    order_ok = True
    for ell in (10, 20) if quick else (10, 20, 40):
        refs = reduced.reference_angles(ell, pots_soft)
        order_ok &= refs.alpha_ch < refs.alpha_us < refs.alpha_ru
    fit_ells = np.array([16, 32, 64] if quick else [16, 32, 64, 128], dtype=float)
    gaps = np.array([2 * np.pi / 3 - reduced.reference_angles(int(l), pots_soft).alpha_us for l in fit_ells])
    slope = float(np.polyfit(np.log(fit_ells), np.log(gaps), 1)[0])
    checks["reference_angles"] = {"passed": bool(order_ok and abs(slope + 2) <= 0.2), "slope": slope}

    hrep = reduced.verify_reduced_hessian(32 if quick else 64, pots_soft)
    checks["reduced_hessian"] = {
        "passed": bool(hrep["positive_definite"] and hrep["anchor_ok"]),
        "anchor_ratio": hrep["anchor_ratio"],
        "eigenvalues": hrep["eigenvalues"],
    }

    ell, m = 12, 2 if quick else 4
    refs = reduced.reference_angles(ell, pots_soft)
    fam = reduced.minimize_family(refs.mu_us, ell, pots_soft, m=m)
    base = geometry.build_nanotube(fam.geometry, m)
    n_samples = 10 if quick else 100
    worst_dec = 0.0
    worst_excess = -np.inf
    chat = np.inf
    target = 4 * m * (2 * ell - 2) * np.pi
    spec = stability.PerturbationSpec(eta=1e-3, seed=seed + 1, count=n_samples)
    band = stability.BondBand(base, spec.eta)
    for trial in range(n_samples):
        tube, graph, _ = stability.sample_perturbation(base, spec, trial=trial, band=band)
        dec = abs(total_energy(tube, pots_soft, graph) - cells.total_cell_energy(tube, pots_soft))
        worst_dec = max(worst_dec, dec / (1e-9 * tube.n))
        summ = cells.cell_summary(tube, pots_soft)
        excess = cells.angle_sum(tube) - target
        dsum = float(np.sum(summ["delta"]))
        if dsum > 1e-14:
            worst_excess = max(worst_excess, excess / dsum)
    base_excess = abs(cells.angle_sum(base) - target)
    checks["cell_decomposition"] = {"passed": worst_dec <= 1.0, "worst_rel_to_tol": worst_dec}
    checks["angle_sum"] = {
        "passed": bool(base_excess <= 1e-8),
        "unperturbed_residual": base_excess,
        "excess_over_delta_max": worst_excess,
    }

    count = 50 if quick else 1000
    stab_ok = True
    min_gaps = {}
    for off in (0.0, 0.01):
        rep = stability.stability_trial(
            refs.mu_us + off,
            ell,
            m,
            stability.PerturbationSpec(eta=1e-3, seed=seed, count=count),
            pots_soft,
            collect_ratios=False,
        )
        stab_ok &= rep["n_failures"] == 0 and rep["min_gap"] > 0.0
        min_gaps[str(off)] = rep["min_gap"]
    checks["stability"] = {"passed": bool(stab_ok), "min_gaps": min_gaps, "count": count}

    spec_ell, spec_m = (8, 2) if quick else (12, 4)
    sfam = reduced.minimize_family(
        reduced.reference_angles(spec_ell, pots_soft).mu_us + 0.01, spec_ell, pots_soft, m=spec_m
    )
    stube = geometry.build_nanotube(sfam.geometry, spec_m)
    nrep = stability.null_space_report(stube, pots_soft)
    checks["hessian_null_space"] = {
        "passed": bool(
            nrep["n_near_null"] == 4 and nrep["rest_positive"] and nrep["max_principal_angle"] < 1e-3
        ),
        "n_near_null": nrep["n_near_null"],
        "max_principal_angle": nrep["max_principal_angle"],
    }

    kern = cellspec.t_jacobian_kernel()
    checks["kernel_dimensions"] = {
        "passed": bool(
            kern["kernel_dim"] == 11 and kern["kernel_dim_angles"] == 17 and kern["max_principal_angle"] < 1e-4
        ),
        "kernel_dim": kern["kernel_dim"],
        "kernel_dim_angles": kern["kernel_dim_angles"],
    }

    conv_ells = [16] if quick else [16, 32, 64]
    conv_rows = [cellspec.cell_hessian_convexity(e, pots_soft) for e in conv_ells]
    conv_ok = all(r["c_good"] > 0 and r["c_weak"] > 0 and r["c_kink"] > 0 for r in conv_rows)
    entry = {"passed": bool(conv_ok), "rows": conv_rows}
    if len(conv_rows) > 1:
        arr = np.array([(r["ell"], r["c_weak"]) for r in conv_rows])
        cw_slope = float(np.polyfit(np.log(arr[:, 0]), np.log(arr[:, 1]), 1)[0])
        entry["c_weak_scaling_slope"] = cw_slope
        conv_ok = conv_ok and abs(cw_slope + 2.0) <= 0.3
        entry["passed"] = bool(conv_ok)
    checks["cell_convexity"] = entry

    ct = fracture.build_cleaved(12, 16, reduced.reference_angles(12, pots_soft).mu_us + 0.1, pots_soft)
    ident = abs(ct.energy - ct.base_energy - 4 * ct.ell)
    frac_ok = ct.fully_cleaved and ident <= 1e-10 * ct.tube.n
    m_list = [4, 16] if quick else [4, 8, 16, 32, 64]
    scaling = fracture.fracture_scaling(12, m_list, pots_soft)
    if len(m_list) > 2:
        frac_ok = frac_ok and abs(scaling["slope"] + 0.5) <= 0.1
    checks["fracture"] = {
        "passed": bool(frac_ok),
        "bond_deficit": ct.bond_deficit,
        "identity_residual": ident,
        "slope": scaling["slope"],
        "angle_release": ct.energy - ct.measured_energy,
    }

    trend_ok = True
    for pots, sign in ((pots_soft, 1.0), (pots_stiff, -1.0)):
        mp = reduced.minimizer_properties(16, pots, window=0.01, n_grid=7)
        trend_ok &= np.sign(mp["drho_dmu_at_mu_us"]) == sign and mp["radius_trend_ok"]
    checks["radius_trend"] = {"passed": bool(trend_ok)}

    passed = all(c["passed"] for c in checks.values())
    return {"passed": passed, "quick": quick, "seed": seed, "version": __version__, "checks": checks}


def cmd_verify_all(args) -> int:
    report = _verify_all(args.quick, args.seed)
    _emit_json(report, args.out)
    return EXIT_OK if report["passed"] else EXIT_VERIFICATION


def build_parser() -> _Parser:
    parser = _Parser(prog="nanolab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nanolab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pots(p):
        p.add_argument("--pots", default="soft", help="potential preset (soft, stiff) or JSON file")
        p.add_argument("--config", default=None, help="JSON potential file (alias for --pots)")

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
    except FileNotFoundError as exc:
        print(f"nanolab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
