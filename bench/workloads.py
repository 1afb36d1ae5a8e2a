"""The four benchmark workloads and their output oracles.

Each workload has a ``setup(rng, workdir)`` that draws its inputs from the
seeded generator and writes any input files, and a ``run(state, checks)``
that performs one repetition of the measured work and records, in
``checks``, one verdict per checked operation and the bytes of every ``-o``
file written.  ``exact_calls(state)`` gives the call counts the
traced run must see, which checks the tracer itself.

README.md says why these four and which layer each one measures.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from nanolab import cli, geometry, potentials, pxyz, reduced, stability
from nanolab.energy import family_energy


class Checks:
    """Verdicts and -o file contents of the checked operations of one repetition."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.verdicts: list[tuple[str, bool, str]] = []
        self.outputs: dict[str, bytes] = {}

    def check(self, name: str, func) -> None:
        """Run func() -> (ok, detail); an exception counts as a failure."""
        try:
            ok, detail = func()
        except Exception as exc:  # a raised error is a failed operation
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        self.verdicts.append((name, bool(ok), detail))

    def command(self, name: str, argv: list[str], out_name: str, verdict) -> None:
        """Run one nanolab command with ``-o outdir/out_name`` and check it.

        The command must exit 0 and write the file, whose bytes are kept, and
        verdict(file_bytes) -> (ok, detail) must hold.
        """

        def op():
            path = self.outdir / out_name
            # cli.main is looked up at call time so traced runs see the wrapper
            rc = cli.main([*argv, "-o", str(path)])
            if not path.is_file():
                return False, f"rc={rc}, no output written"
            self.outputs[out_name] = data = path.read_bytes()
            ok, detail = verdict(data)
            return rc == 0 and ok, f"rc={rc} {detail}"

        self.check(name, op)

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [v for v in self.verdicts if not v[1]]


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode())))


# --- ensemble ---------------------------------------------------------------

ENSEMBLE = {"ell": 12, "m": 4, "mu_offset": 0.01, "eta": 1e-3, "count": 1000}


def ensemble_setup(rng, workdir: Path) -> dict:
    return {"seed": int(rng.integers(0, 2**31 - 1))}


def ensemble_run(state: dict, checks: Checks) -> None:
    cfg = ENSEMBLE
    state.pop("rejections", None)
    argv = ["stability", "--ell", str(cfg["ell"]), "--m", str(cfg["m"]), "--mu-offset", repr(cfg["mu_offset"]),
            "--eta", repr(cfg["eta"]), "--count", str(cfg["count"]), "--seed", str(state["seed"])]

    def verdict(data):
        rep = json.loads(data)
        state["rejections"] = rep["rejections"]
        ok = rep["n_failures"] == 0 and rep["evaluated"] == cfg["count"] and rep["min_gap"] > 0.0
        return ok, f"n_failures={rep['n_failures']} evaluated={rep['evaluated']} min_gap={rep['min_gap']}"

    checks.command("ensemble.stability", argv, "stability.json", verdict)


def ensemble_exact_calls(state: dict) -> dict:
    # one base graph plus one graph per accepted or rejected draw
    if "rejections" not in state:
        return {}  # the command failed; its check says so
    return {"energy.bond_graph": ENSEMBLE["count"] + state["rejections"] + 1}


# --- spectrum ---------------------------------------------------------------

# (ell, m, offset stratum): each tube's mu - mu_us is drawn from its own
# quarter of [0, 0.02).  At n = 384 the two softest modes (about 0.012) sit
# just below null_space_report's near-null threshold (1e-6 of the largest
# eigenvalue) for offsets under about 0.0095 and just above it beyond, so a
# free draw made the verdict depend on the seed.  The largest tube takes the
# lowest quarter, the demanding case, so that misclassification shows in
# every run.
SPECTRUM_TUBES = [(12, 4, (0.015, 0.02)), (12, 4, (0.01, 0.015)), (16, 4, (0.005, 0.01)), (24, 4, (0.0, 0.005))]


def spectrum_setup(rng, workdir: Path) -> dict:
    pots = potentials.default_soft()
    tubes = []
    for ell, m, (lo, hi) in SPECTRUM_TUBES:
        mu = reduced.reference_angles(ell, pots).mu_us + float(rng.uniform(lo, hi))
        fam = reduced.minimize_family(mu, ell, pots, m=m)
        tubes.append(geometry.build_nanotube(fam.geometry, m))
    return {"pots": pots, "tubes": tubes}


def spectrum_run(state: dict, checks: Checks) -> None:
    for tube in state["tubes"]:

        def op(tube=tube):
            rep = stability.null_space_report(tube, state["pots"])
            ok = (
                len(rep["eigenvalues"]) == 3 * tube.n
                and rep["n_near_null"] == 4
                and rep["n_negative"] == 0
                and rep["rest_positive"]
                and rep["max_principal_angle"] < 1e-3
            )
            return ok, (f"n={tube.n} near_null={rep['n_near_null']} negative={rep['n_negative']} "
                        f"angle={rep['max_principal_angle']}")

        checks.check(f"spectrum.n{tube.n}", op)


def spectrum_exact_calls(state: dict) -> dict:
    # hessian_spectrum: one gradient at the base point plus two per coordinate
    return {"energy.gradient": sum(6 * t.n + 1 for t in state["tubes"])}


# --- sweep ------------------------------------------------------------------

SWEEP = {"reduced_ell": 64, "grid": "2.96:3.02:61", "fracture_ell": 12, "m_list": "4,8,16,32,64,128,256",
         "cell_ells": "16,32,64"}
# A single grid point at which the reduced Newton solve does not converge at
# the commit this benchmark was written for (OptimizationFailureError: the
# 1e-12 gradient tolerance is not reached in 200 iterations).  Seeded grids hit
# such isolated points in about one seed of five, which cut the sweep short and
# made its work depend on the seed; the grid above is fixed instead, and this
# probe keeps the defect visible in every run until the solver is fixed.
NEWTON_PROBE_MU = "2.990860220598413"


def sweep_setup(rng, workdir: Path) -> dict:
    # fixed inputs: see NEWTON_PROBE_MU
    return {"mu_us": reduced.reference_angles(SWEEP["reduced_ell"], potentials.default_soft()).mu_us}


def sweep_run(state: dict, checks: Checks) -> None:
    def reduced_verdict(grid):
        def verdict(data):
            rows = _csv_rows(data)
            # compressed tubes well below mu_us are legitimately indefinite, so
            # positivity is required only from mu_us up
            bad = [r["mu"] for r in rows if float(r["mu"]) >= state["mu_us"] and not float(r["hess_eig1"]) > 0.0]
            finite = all(math.isfinite(float(v)) for r in rows for v in r.values())
            ok = len(rows) == int(grid.rsplit(":", 1)[1]) and not bad and finite
            return ok, f"rows={len(rows)} nonpositive_at_mu={bad[:3]} finite={finite}"

        return verdict

    def fracture_verdict(data):
        slope = json.loads(data)["slope"]
        return abs(slope + 0.5) <= 0.1, f"slope={slope}"

    ell = str(SWEEP["reduced_ell"])
    probe = f"{NEWTON_PROBE_MU}:{NEWTON_PROBE_MU}:1"
    checks.command("sweep.reduced", ["reduced", "--ell", ell, "--mu-grid", SWEEP["grid"]], "reduced.csv",
                   reduced_verdict(SWEEP["grid"]))
    checks.command("sweep.fracture", ["fracture", "--ell", str(SWEEP["fracture_ell"]), "--m-list", SWEEP["m_list"]],
                   "fracture.json", fracture_verdict)
    checks.command("sweep.verify_cell", ["verify-cell", "--ell", SWEEP["cell_ells"]], "verify_cell.json",
                   lambda data: (json.loads(data)["passed"], ""))
    checks.command("sweep.newton_probe", ["reduced", "--ell", ell, "--mu-grid", probe], "newton_probe.csv",
                   reduced_verdict(probe))


# --- bigtube ----------------------------------------------------------------

BIGTUBE_SIZES = [(48, 16), (96, 32)]  # n = 3072 and 12288
# The moved copy's axial shift, in periods.  The grid pair search bins an
# unwrapped tube differently in each period-long interval of (-2L, 2L): a
# shift in [L, 2L) still finds every bond, negative shifts lose up to all of
# them (and the energy command then does a fraction of the work), and one in
# (0, L) loses a few.  A draw over all of (-2L, 2L) made the verdict and the
# work depend on the seed; this interval, clear of the edges where binning
# flips, fails the same way for every seed at nearly the full work.
SHIFT_PERIODS = (0.1, 0.9)


def bigtube_setup(rng, workdir: Path) -> dict:
    pots = potentials.default_soft()
    sizes = []
    for ell, m in BIGTUBE_SIZES:
        mu = reduced.reference_angles(ell, pots).mu_us + float(rng.uniform(0.0, 0.02))
        geom = reduced.minimize_family(mu, ell, pots, m=m).geometry
        tube = geometry.build_nanotube(geom, m)
        x, y, z = tube.positions.T
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        moved = tube.with_positions(np.column_stack([
            x + float(rng.uniform(*SHIFT_PERIODS)) * tube.period,
            math.cos(phi) * y - math.sin(phi) * z,
            math.sin(phi) * y + math.cos(phi) * z,
        ]))
        path = workdir / f"moved_{ell}x{m}.pxyz"
        pxyz.write_pxyz(path, moved)
        sizes.append({"ell": ell, "m": m, "geom": geom, "moved": path, "energy": family_energy(geom, m, pots)})
    return {"sizes": sizes}


def bigtube_run(state: dict, checks: Checks) -> None:
    for size in state["sizes"]:
        ell, m, geom = size["ell"], size["m"], size["geom"]
        n = 4 * m * ell
        tag = f"{ell}x{m}"
        wrapped = f"wrapped_{tag}.pxyz"

        def header_verdict(data):
            head = data.split(b"\n", 1)[0].split()
            return int(head[0]) == n, f"header={head}"

        def energy_verdict(data):
            rep = json.loads(data)
            err = abs(rep["energy"] - size["energy"])
            ok = rep["n_bonds"] == 6 * m * ell and err <= 1e-9 * n
            return ok, f"n_bonds={rep['n_bonds']} expected={6 * m * ell} energy_error={err:.3e}"

        def cells_verdict(data):
            rows = len(_csv_rows(data))
            return rows == 2 * m * ell, f"rows={rows} expected={2 * m * ell}"

        family = [repr(float(v)) for v in (geom.mu, geom.lambda1, geom.lambda2)]
        checks.command(f"bigtube.generate.{tag}", ["generate", "--ell", str(ell), "--m", str(m), "--mu", family[0],
                       "--lambda1", family[1], "--lambda2", family[2]], wrapped, header_verdict)
        for kind, infile in (("wrapped", checks.outdir / wrapped), ("moved", size["moved"])):
            label = ["--in", str(infile), "--ell", str(ell), "--m", str(m)]
            checks.command(f"bigtube.energy.{kind}.{tag}", ["energy", *label], f"energy_{kind}_{tag}.json",
                           energy_verdict)
            checks.command(f"bigtube.cells.{kind}.{tag}", ["cells", *label], f"cells_{kind}_{tag}.csv", cells_verdict)


WORKLOADS = {
    "ensemble": (ensemble_setup, ensemble_run, ensemble_exact_calls),
    "spectrum": (spectrum_setup, spectrum_run, spectrum_exact_calls),
    "sweep": (sweep_setup, sweep_run, lambda state: {}),
    "bigtube": (bigtube_setup, bigtube_run, lambda state: {}),
}
