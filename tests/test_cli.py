import contextlib
import ctypes
import io
import json
import os
import resource
import subprocess
import sys
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nanolab import acceptance, cells, cellspec, cli, potentials, pxyz, reduced
from nanolab.cli import main
from nanolab.energy import family_energy
from nanolab.geometry import Nanotube, axial_rotations, build_nanotube, solve_family


def run(args):
    return main(args)


def test_generate_then_energy_matches_closed_form(tmp_path, pots_soft):
    tube_path = str(tmp_path / "t.pxyz")
    out_path = str(tmp_path / "e.json")
    assert run(["generate", "--ell", "8", "--m", "2", "--mu", "3", "--lambda1", "1", "--lambda2", "1", "-o", tube_path]) == 0
    assert run(["energy", "--in", tube_path, "--ell", "8", "--m", "2", "--pots", "soft", "-o", out_path]) == 0
    rep = json.loads(open(out_path).read())
    expect = family_energy(solve_family(8, 3.0, 1.0, 1.0), 2, pots_soft)
    assert rep["energy"] == pytest.approx(expect, abs=1e-9)
    assert rep["n_bonds"] == 96
    assert rep["max_degree"] == 3
    assert rep["schema_version"] == 1


def test_energy_accepts_json_potentials(tmp_path):
    tube_path = str(tmp_path / "t.pxyz")
    pots_path = str(tmp_path / "p.json")
    (tmp_path / "p.json").write_text(json.dumps({"name": "x", "k2": 400.0, "k3": 400.0}))
    run(["generate", "--ell", "6", "--m", "1", "--mu", "2.9", "--lambda1", "1", "--lambda2", "1", "-o", tube_path])
    out = str(tmp_path / "e.json")
    assert run(["energy", "--in", tube_path, "--ell", "6", "--m", "1", "--pots", pots_path, "-o", out]) == 0
    assert json.loads(open(out).read())["potentials"] == "x"


def test_cells_csv_shape(tmp_path):
    tube_path = str(tmp_path / "t.pxyz")
    run(["generate", "--ell", "6", "--m", "2", "--mu", "2.95", "--lambda1", "1.0", "--lambda2", "1.0", "-o", tube_path])
    out = str(tmp_path / "c.csv")
    assert run(["cells", "--in", tube_path, "--ell", "6", "--m", "2", "-o", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 1 + 2 * 2 * 6
    header = lines[0].split(",")
    assert header[:3] == ["i", "j", "k"]
    assert header[-1] == "delta"
    assert len(header) == 3 + 8 + 10 + 4 + 1


def test_reduced_csv(tmp_path):
    out = str(tmp_path / "r.csv")
    assert run(["reduced", "--ell", "16", "--mu-grid", "2.98:3.0:3", "-o", out]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 4
    assert lines[0].split(",")[0] == "mu"
    row = [float(v) for v in lines[1].split(",")]
    assert len(row) == 10
    assert row[6] > 0.0  # positive-definite reduced Hessian along the sweep
    assert lines[1].split(",")[9] == "0"  # no inner variable pinned at the box


@pytest.mark.parametrize(
    "args, counts",
    [
        (["--ell", "12", "--pots", "stiff", "--mu-grid", "2.70:3.09:79"], {"0": 59, "2": 20}),
        (["--ell", "64", "--mu-grid", "2.96:3.02:61"], {"0": 61}),
    ],
    ids=["stiff-12", "soft-64"],
)
def test_reduced_marks_pinned_rows(tmp_path, args, counts):
    # stiff ell = 12 far below mu_us puts both alphas on ALPHA_LO; the CSV,
    # not stderr, says so
    code, err, text = _run_quietly(tmp_path, ["reduced", *args])
    assert (code, err) == (0, "")
    lines = text.splitlines()
    assert lines[0].split(",")[-1] == "n_pinned"
    pinned = [line.split(",")[-1] for line in lines[1:]]
    assert {v: pinned.count(v) for v in set(pinned)} == counts


def test_reduced_default_grid_spans_mu_us(tmp_path):
    # without --mu-grid the sweep takes nine points from mu_us - 0.02 to mu_us + 0.02
    out = tmp_path / "r.csv"
    assert run(["reduced", "--ell", "12", "-o", str(out)]) == 0
    mu = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    mu_us = reduced.reference_angles(12, potentials.load("soft")).mu_us
    assert mu == np.linspace(mu_us - 0.02, mu_us + 0.02, 9).tolist()


@pytest.mark.parametrize("m", ["0", "-2"])
def test_reduced_rejects_m_below_one(tmp_path, capsys, m):
    out = tmp_path / "r.csv"
    assert run(["reduced", "--ell", "12", "--m", m, "--mu-grid", "2.95:2.96:2", "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"nanolab: m must be at least 1, got {m}\n"
    assert not out.exists()


def test_stability_command(tmp_path):
    out = str(tmp_path / "s.json")
    code = run(
        ["stability", "--ell", "8", "--m", "2", "--count", "10", "--seed", "5", "--eta", "1e-3", "-o", out]
    )
    assert code == 0
    rep = json.loads(open(out).read())
    assert rep["n_failures"] == 0
    assert rep["min_gap"] > 0.0
    assert "failure_trials" in rep


def test_stability_report_says_passed_and_pinned(tmp_path):
    # far below mu_us the stiff base tube's two alphas sit on the box bound
    # ALPHA_LO and two samples lower the energy: the report says both, stderr
    # stays empty, and the exit code follows passed
    argv = ["stability", "--ell", "12", "--m", "2", "--count", "20", "--pots", "stiff", "--mu-offset"]
    code, err, text = _run_quietly(tmp_path, [*argv, "-0.2"])
    rep = json.loads(text)
    assert (code, err) == (2, "")
    assert (rep["passed"], rep["n_pinned"], rep["n_failures"]) == (False, 2, 2)
    code, err, text = _run_quietly(tmp_path, [*argv, "0.01"])
    rep = json.loads(text)
    assert (code, err) == (0, "")
    assert (rep["passed"], rep["n_pinned"], rep["n_failures"]) == (True, 0, 0)


def test_stability_dumps_each_counterexample(tmp_path):
    # the two failing samples of the stiff (12, 2) tube far below mu_us are
    # written one file each, at the report's period; energy reads each back
    # below the base energy, the lower one by the report's min_gap
    prefix = tmp_path / "ce"
    out = tmp_path / "s.json"
    argv = ["stability", "--ell", "12", "--m", "2", "--pots", "stiff", "--mu-offset", "-0.2", "--count", "20"]
    assert run([*argv, "--dump-counterexample", str(prefix), "-o", str(out)]) == 2
    rep = json.loads(out.read_text())
    assert rep["failure_trials"] == [8, 19]
    assert {p.name for p in tmp_path.iterdir()} == {"s.json"} | {f"ce.trial{t}.pxyz" for t in rep["failure_trials"]}
    gaps = []
    for trial in rep["failure_trials"]:
        path = tmp_path / f"ce.trial{trial}.pxyz"
        assert float(path.read_text().split("\n", 1)[0].split()[1]) == rep["mu"] * rep["m"]
        energy_out = tmp_path / "e.json"
        assert run(["energy", "--in", str(path), "--ell", "12", "--m", "2", "--pots", "stiff", "-o", str(energy_out)]) == 0
        gaps.append(json.loads(energy_out.read_text())["energy"] - rep["base_energy"])
    assert max(gaps) <= 0.0 and min(gaps) == rep["min_gap"]


def test_stability_deterministic_bytes(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["stability", "--ell", "8", "--m", "2", "--count", "8", "--seed", "11", "-o"]
    assert run(args + [a]) == 0
    assert run(args + [b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_fracture_command(tmp_path):
    out_json = str(tmp_path / "f.json")
    out_csv = str(tmp_path / "f.csv")
    assert run(["fracture", "--ell", "12", "--m-list", "4,16", "-o", out_json, "--out-csv", out_csv]) == 0
    rep = json.loads(open(out_json).read())
    assert rep["slope"] == pytest.approx(-0.5, abs=0.05)
    lines = open(out_csv).read().splitlines()
    assert lines[0] == "m,mu_frac,offset_sqrt_m"
    assert len(lines) == 3


def test_verify_cell_command(tmp_path):
    out = str(tmp_path / "vc.json")
    assert run(["verify-cell", "--ell", "16,32", "--pots", "soft", "--r", "0.9", "-o", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["passed"]
    assert rep["checks"]["kernel"]["kernel_dim"] == 11
    # the same checks as the verify-all rows, not a copy of them
    assert rep["checks"]["kernel"] == acceptance.kernel_dimensions(None, 0)
    assert rep["checks"]["convexity"] == acceptance.cell_convexity([16, 32], 0, r=0.9)


def test_verify_cell_repeated_ell_fits_no_slope(tmp_path):
    # one distinct ell gives no abscissa to fit a scaling slope over: the
    # report is that of the one-ell case, each row checked on its own
    out = str(tmp_path / "vc.json")
    assert run(["verify-cell", "--ell", "16,16", "-o", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["passed"]
    assert "c_weak_scaling_slope" not in rep["checks"]["convexity"]
    assert rep["checks"]["tilde_derivatives"]["scaling_slope"] is None
    assert [r["ell"] for r in rep["checks"]["convexity"]["rows"]] == [16, 16]


def test_verify_cell_reports_every_failing_convexity_row(tmp_path, capsys):
    # a pair potential this weak leaves both bounds negative at every ell: the
    # report lists each row and fits no slope over the negative c_weak
    pots, out = tmp_path / "weak.json", tmp_path / "vc.json"
    pots.write_text('{"k2": 1e-3}')
    assert run(["verify-cell", "--ell", "16,32", "--pots", str(pots), "-o", str(out)]) == 2
    assert capsys.readouterr().err == ""
    rep = json.loads(out.read_text(), parse_constant=_refuse_constant)
    convexity = rep["checks"]["convexity"]
    assert not rep["passed"] and not convexity["passed"]
    assert [row["ell"] for row in convexity["rows"]] == [16, 32]
    assert all(row["c_good"] < 0 and row["c_weak"] < 0 for row in convexity["rows"])
    assert convexity["c_weak_scaling_slope"] is None


def test_verify_cell_reports_every_failing_tilde_row(tmp_path, capsys, monkeypatch):
    # angle entries of the wrong sign fail the check row by row, and the mean
    # angle entry, no longer negative, gives no slope
    real = cellspec.tilde_gradient
    monkeypatch.setattr(cellspec, "tilde_gradient", lambda y, pots: np.abs(real(y, pots)))
    out = tmp_path / "vc.json"
    assert run(["verify-cell", "--ell", "16,32", "-o", str(out)]) == 2
    assert capsys.readouterr().err == ""
    rep = json.loads(out.read_text(), parse_constant=_refuse_constant)
    tilde = rep["checks"]["tilde_derivatives"]
    assert not rep["passed"] and not tilde["passed"]
    assert tilde["scaling_slope"] is None
    assert [row["ell"] for row in tilde["rows"]] == [16, 32]


def test_malformed_pxyz_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pxyz"
    bad.write_text("2 6.0\n0 0 0\n1 2\n")
    assert run(["energy", "--in", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err


@pytest.mark.parametrize("grid", ["2.9:3.0:0", "2.9:3.0", "3.0:2.9:-1", "nan:3.0:5", "2.9:inf:5", "2.9:3.0:1", "2.9:3.0:x"])
def test_reduced_rejects_invalid_mu_grid(tmp_path, capsys, grid):
    out = tmp_path / "r.csv"
    assert run(["reduced", "--ell", "12", "--mu-grid", grid, "-o", str(out)]) == 1
    assert "--mu-grid" in capsys.readouterr().err
    assert not out.exists()


def test_reduced_refuses_a_grid_outside_the_family_domain_in_one_line(tmp_path, capsys):
    # the batched solve runs before solve_family refuses mu, and adds
    # nothing to the one-line refusal
    out = tmp_path / "r.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["reduced", "--ell", "12", "--mu-grid", "1:2:3", "-o", str(out)]) == 1
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "nanolab: mu=1.0 outside (2.6, 3.1)\n"
    assert not out.exists()


def test_a_refused_family_member_names_its_period(tmp_path, capsys):
    # the minimizer at a period well below mu_us has lambda1 below 0.9; the
    # one-line refusal names that period, for a grid point and for an offset
    out = tmp_path / "o"
    assert run(["reduced", "--ell", "12", "--mu-grid", "2.62:2.7:3", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nanolab: mu=2.62: lambda1=") and err.endswith(" outside (0.9, 1.1)\n")
    assert err.count("\n") == 1
    mu = reduced.reference_angles(12, potentials.load("soft")).mu_us + -0.3
    assert run(["stability", "--ell", "12", "--m", "2", "--mu-offset", "-0.3", "--count", "3", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"nanolab: mu={mu!r}: lambda1=") and err.endswith(" outside (0.9, 1.1)\n")
    assert err.count("\n") == 1
    assert not out.exists()


def test_reduced_single_point_grid(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["reduced", "--ell", "12", "--mu-grid", "2.99:2.99:1", "-o", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2 and float(rows[1].split(",")[0]) == 2.99


def test_underscore_in_pxyz_exit_code(tmp_path, capsys):
    # float() reads 0_2 as 2.0: without the grammar check this file has an energy
    bad = tmp_path / "bad.pxyz"
    bad.write_text("4 6.0\n0 0 0\n0_2 0 0\n0 1 0\n0 0 1\n")
    assert run(["energy", "--in", str(bad)]) == 1
    assert "line 3" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert run(["frobnicate"]) == 1
    assert run(["generate", "--ell", "8"]) == 1
    assert run(["stability", "--ell", "8", "--m", "2", "--mode", "nope"]) == 1


def test_invalid_parameters_exit_one(tmp_path, capsys):
    assert run(
        ["generate", "--ell", "8", "--m", "1", "--mu", "3.5", "--lambda1", "1", "--lambda2", "1", "-o", str(tmp_path / "x.pxyz")]
    ) == 1
    assert "mu" in capsys.readouterr().err


def test_missing_file_exit_one():
    assert run(["energy", "--in", "/nonexistent/t.pxyz"]) == 1


@pytest.mark.parametrize("flag", ["--in", "--pots", "-o"])
def test_directory_in_place_of_a_file_exits_one(tmp_path, capsys, flag):
    # reading a directory as the tube or the potentials, or replacing it with
    # the report, is an OSError; it ends in one line and leaves no temp file
    tube_path = str(tmp_path / "t.pxyz")
    run(["generate", "--ell", "6", "--m", "1", "--mu", "2.9", "--lambda1", "1", "--lambda2", "1", "-o", tube_path])
    target = tmp_path / "d"
    target.mkdir()
    args = {"--in": tube_path, "--pots": "soft", "-o": str(tmp_path / "e.json")}
    args[flag] = str(target)
    assert run(["energy"] + [v for item in args.items() for v in item]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nanolab: ") and "Is a directory" in err and len(err.splitlines()) == 1
    # the line names the file the user gave, never the temp file
    assert repr(str(target)) in err and ".tmp" not in err
    assert not list(tmp_path.glob("*.tmp")) and not list(target.iterdir())


def test_missing_output_directory_exits_one(tmp_path, capsys):
    target = str(tmp_path / "missing" / "t.pxyz")
    assert run(["generate", "--ell", "6", "--m", "1", "--mu", "2.9", "--lambda1", "1", "--lambda2", "1", "-o", target]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nanolab: ") and "No such file or directory" in err and len(err.splitlines()) == 1
    assert repr(target) in err and ".tmp" not in err
    assert list(tmp_path.iterdir()) == []


def test_cells_guard_against_wrong_labels(tmp_path, capsys):
    tube_path = str(tmp_path / "t.pxyz")
    run(["generate", "--ell", "6", "--m", "2", "--mu", "2.95", "--lambda1", "1", "--lambda2", "1", "-o", tube_path])
    # omitting --m makes the inferred labels inconsistent; the command refuses
    assert run(["cells", "--in", tube_path]) == 1
    assert "inconsistent" in capsys.readouterr().err


@pytest.mark.parametrize(
    "moved, ell, m, want",
    [
        (True, 12, 4, "cell (1, 0, 0) bond b4 has length 1.73176, "),
        (False, 6, 8, "cell (1, 0, 0) bond b1 has length 6.75264, "),
    ],
    ids=["displaced-atom", "wrong-ell"],
)
def test_cells_names_the_first_broken_bond(tmp_path, capsys, pots_soft, moved, ell, m, want):
    # a displaced atom and labels that do not match the file both break a cell
    # bond; the message names the first such bond and both causes
    from nanolab.reduced import minimize_family, reference_angles

    tube = build_nanotube(minimize_family(reference_angles(12, pots_soft).mu_us + 0.01, 12, pots_soft, m=4).geometry, 4)
    pos = tube.positions.copy()
    if moved:
        pos[1] = pos[0]
    path = str(tmp_path / "t.pxyz")
    pxyz.write_pxyz(path, tube.with_positions(pos))
    out = tmp_path / "c.csv"
    assert run(["cells", "--in", path, "--ell", str(ell), "--m", str(m), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nanolab: " + want) and len(err.splitlines()) == 1
    assert "at or beyond the bond cutoff 1.1" in err and "--ell and --m" in err and "atoms are displaced" in err
    assert not out.exists()


def test_energy_of_tube_written_one_period_back(tmp_path, pots_soft):
    from nanolab.geometry import build_nanotube
    from nanolab.pxyz import write_pxyz
    from nanolab.reduced import minimize_family, reference_angles

    fam = minimize_family(reference_angles(12, pots_soft).mu_us, 12, pots_soft, m=4)
    tube = build_nanotube(fam.geometry, 4)
    moved = tube.with_positions(tube.positions - [tube.period, 0.0, 0.0])
    path, out = str(tmp_path / "moved.pxyz"), str(tmp_path / "e.json")
    write_pxyz(path, moved)
    assert run(["energy", "--in", path, "--ell", "12", "--m", "4", "-o", out]) == 0
    rep = json.loads(open(out).read())
    assert rep["n_bonds"] == 288
    assert rep["energy"] == pytest.approx(family_energy(fam.geometry, 4, pots_soft), abs=1e-9 * tube.n)


def test_non_finite_row_exit_code(tmp_path, capsys):
    bad = tmp_path / "nan.pxyz"
    bad.write_text("4 6.0\n0 0 0\n1 0 0\nnan 0 0\n3 0 0\n")
    assert run(["energy", "--in", str(bad)]) == 1
    assert "line 4" in capsys.readouterr().err


def test_header_undercounting_atoms_exit_code(tmp_path, capsys):
    # 64 atoms of an (8, 2) tube under a header that claims 60
    tube_path = tmp_path / "t.pxyz"
    run(["generate", "--ell", "8", "--m", "2", "--mu", "3", "--lambda1", "1", "--lambda2", "1", "-o", str(tube_path)])
    lines = tube_path.read_text().splitlines()
    tube_path.write_text("\n".join(["60 6"] + lines[1:]) + "\n")
    assert run(["energy", "--in", str(tube_path)]) == 1
    assert "line 62" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, word",
    [(["--eta", "nan", "--count", "2"], "eta"), (["--count", "0"], "count"), (["--eta", "-1", "--count", "2"], "eta")],
)
def test_stability_rejects_invalid_spec(tmp_path, capsys, flags, word):
    out = tmp_path / "s.json"
    assert run(["stability", "--ell", "12", "--m", "4", *flags, "-o", str(out)]) == 1
    assert word in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["stability", "--ell", "12", "--m", "2", "--count", "5", "--seed", "-1"], "seed"),
        (["verify-all", "--quick", "--seed", "-1"], "--seed"),
    ],
    ids=["stability", "verify-all"],
)
def test_negative_seed_is_refused_in_one_line(tmp_path, capsys, argv, option):
    # numpy's seeding refused it with a ValueError and a traceback
    out = tmp_path / "out.json"
    assert run([*argv, "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"nanolab: {option} must be nonnegative, got -1\n"
    assert not out.exists()


def test_stability_rejects_zero_eta(tmp_path, capsys):
    # every sample would be the base tube: no gap to report
    out = tmp_path / "s.json"
    assert run(["stability", "--ell", "12", "--m", "4", "--eta", "0", "--count", "3", "-o", str(out)]) == 1
    assert "eta" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eta,count", [("1e-300", "3"), ("1e-9", "50")])
def test_stability_refuses_eta_below_roundoff(tmp_path, capsys, eta, count):
    # the gaps are round-off of either sign: no verdict, not false failures
    out = tmp_path / "s.json"
    assert run(["stability", "--ell", "12", "--m", "2", "--eta", eta, "--count", count, "-o", str(out)]) == 1
    assert "eta" in capsys.readouterr().err
    assert not out.exists()


def test_stability_refuses_samples_that_do_not_move(tmp_path, capsys):
    # at eta = 5e-324 the clipped gaussian draws round to no displacement, so
    # every gap is exactly 0: inside the round-off floor, and checks nothing
    out = tmp_path / "s.json"
    argv = ["stability", "--ell", "12", "--m", "2", "--eta", "5e-324", "--count", "3", "--mode", "gaussian-clipped"]
    assert run([*argv, "-o", str(out)]) == 1
    assert "3 samples have |energy gap| <=" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("offset", ["nan", "inf", "-inf"])
def test_stability_rejects_non_finite_mu(tmp_path, capsys, offset):
    out = tmp_path / "s.json"
    assert run(["stability", "--ell", "12", "--m", "2", f"--mu-offset={offset}", "--count", "3", "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"nanolab: mu must be finite, got {offset}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, option",
    [(["verify-cell", "--ell", ""], "--ell"), (["verify-cell", "--ell", ","], "--ell"),
     (["fracture", "--ell", "12", "--m-list", "4,,8"], "--m-list")],
    ids=["empty", "comma", "empty-item"],
)
def test_list_options_reject_empty_items(tmp_path, capsys, argv, option):
    # an empty list would check nothing and still pass
    out = tmp_path / "o.json"
    assert run([*argv, "-o", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"nanolab: {option} must be comma-separated integers, got ")
    assert not out.exists()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "--in", "{tube}", "--ell", "6", "--m", "2"],
        ["stability", "--ell", "8", "--m", "2", "--count", "6"],
        # no sample's symmetry defect exceeds 1e-14: the gap ratios are undefined
        ["stability", "--ell", "12", "--m", "2", "--eta", "5e-9", "--count", "20"],
        ["fracture", "--ell", "12", "--m-list", "4,16"],
        # one ell: the scaling slope is undefined
        ["verify-cell", "--ell", "16"],
        ["verify-all", "--quick"],
    ],
    ids=["energy", "stability", "stability-no-ratios", "fracture", "verify-cell-one-ell", "verify-all-quick"],
)
def test_json_reports_are_strict(tmp_path, argv):
    tube = str(tmp_path / "t.pxyz")
    run(["generate", "--ell", "6", "--m", "2", "--mu", "2.95", "--lambda1", "1", "--lambda2", "1", "-o", tube])
    out = tmp_path / "r.json"
    assert run([arg.replace("{tube}", tube) for arg in argv] + ["-o", str(out)]) == 0
    json.loads(out.read_text(), parse_constant=_refuse_constant)


def test_stability_report_is_byte_identical_without_graph_rebuilds(tmp_path, capsys):
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for path in paths:
        assert run(["stability", "--ell", "8", "--m", "2", "--count", "6", "--seed", "3", "-o", path]) == 0
    assert capsys.readouterr().out == ""
    first, second = (open(p, "rb").read() for p in paths)
    assert first == second
    assert "graph_rebuilds" not in json.loads(first)


def test_stability_refuses_an_eta_the_period_cannot_hold(tmp_path, capsys):
    # (12, 1) has L = mu_us, about 2.98: a bond can change its axial image
    # once 2*eta exceeds L - 2*cutoff
    out = tmp_path / "s.json"
    assert run(["stability", "--ell", "12", "--m", "1", "--eta", "0.4", "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nanolab: eta=0.4 is too large for the period L=") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("m_list", ["4", "4,4"])
def test_fracture_rejects_single_m(tmp_path, capsys, m_list):
    out = tmp_path / "f.json"
    assert run(["fracture", "--ell", "12", "--m-list", m_list, "-o", str(out)]) == 1
    assert "distinct m" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("window", ["nan", "inf", "0", "-0.1"])
def test_fracture_rejects_window_not_finite_and_positive(tmp_path, capsys, window):
    out = tmp_path / "f.json"
    assert run(["fracture", "--ell", "12", "--window", window, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nanolab: window must be finite and positive") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["cells", "energy"])
def test_unlabelled_atom_count_must_be_a_multiple_of_four(tmp_path, capsys, command):
    path = tmp_path / "t.pxyz"
    path.write_text("6 3.0\n" + "".join(f"{0.5 * a} {a % 2} 0\n" for a in range(6)))
    out = tmp_path / "out"
    assert run([command, "--in", str(path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == "nanolab: malformed PXYZ (line 1): atom count 6 is not a multiple of 4\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["cells", "energy"])
def test_labels_below_one_exit_one(tmp_path, capsys, command):
    # 4 * (-12) * (-4) is the atom count of the file, so only the sign of the
    # labels is wrong
    tube_path = str(tmp_path / "t.pxyz")
    run(["generate", "--ell", "12", "--m", "4", "--mu", "2.95", "--lambda1", "1", "--lambda2", "1", "-o", tube_path])
    out = tmp_path / "out"
    assert run([command, "--in", tube_path, "--ell", "-12", "--m", "-4", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "nanolab: ell and m must be at least 1, got ell=-12, m=-4\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["cells", "energy"])
@pytest.mark.parametrize("given", [["--ell", "12"], ["--m", "4"]], ids=["ell-only", "m-only"])
def test_half_given_labels_are_refused(tmp_path, capsys, command, given):
    # the reader dropped a lone --ell or --m and labelled the tube (n/4, 1):
    # cells then blamed a right --ell, energy ignored it
    tube_path = str(tmp_path / "t.pxyz")
    run(["generate", "--ell", "12", "--m", "4", "--mu", "2.95", "--lambda1", "1", "--lambda2", "1", "-o", tube_path])
    out = tmp_path / "out"
    assert run([command, "--in", tube_path, *given, "-o", str(out)]) == 1
    ell, m = ("12", "None") if given[0] == "--ell" else ("None", "4")
    assert capsys.readouterr().err == f"nanolab: --ell and --m must be given together, got ell={ell}, m={m}\n"
    assert not out.exists()


def test_fracture_report_carries_solver_diagnostics(tmp_path, capsys):
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    for path in paths:
        assert run(["fracture", "--ell", "12", "--m-list", "4,16,64", "-o", path]) == 0
    assert capsys.readouterr().out == ""
    first, second = (open(p, "rb").read() for p in paths)
    assert first == second
    rep = json.loads(first)
    assert rep["newton_iterations"] > 0
    assert 0.0 <= rep["max_kkt_residual"] <= 1e-12


def test_verify_cell_builds_each_kink_cell_once(tmp_path, monkeypatch):
    # one reference-angle solve per ell and one angle-sum concavity scan per
    # command, shared by the convexity and tilde-derivative checks
    counts = {"reference_angles": 0, "angle_sum_concavity": 0}
    for name in counts:

        def counted(*args, _name=name, _real=getattr(cellspec, name), **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(cellspec, name, counted)
    assert run(["verify-cell", "--ell", "16,32,64", "-o", str(tmp_path / "v.json")]) == 0
    assert counts == {"reference_angles": 3, "angle_sum_concavity": 1}


def test_verify_cell_rejects_small_ell(tmp_path, capsys):
    assert run(["verify-cell", "--ell", "16,8", "-o", str(tmp_path / "v.json")]) == 1
    assert "ell must be at least 16, got 8" in capsys.readouterr().err


def test_cells_gathers_once(tmp_path, monkeypatch):
    tube_path = str(tmp_path / "t.pxyz")
    run(["generate", "--ell", "6", "--m", "2", "--mu", "2.95", "--lambda1", "1", "--lambda2", "1", "-o", tube_path])
    calls = []
    real = cells._gather_slots
    monkeypatch.setattr(cells, "_gather_slots", lambda *a, **k: calls.append(1) or real(*a, **k))
    assert run(["cells", "--in", tube_path, "--ell", "6", "--m", "2", "-o", str(tmp_path / "c.csv")]) == 0
    assert len(calls) == 1


def test_energy_rejects_coincident_atoms(tmp_path, capsys):
    # atom 1 moved onto atom 0 makes a zero-length bond, so the angles at atom
    # 0 that use it are undefined
    tube = build_nanotube(solve_family(6, 2.9, 1.0, 1.0), 1)
    pos = tube.positions.copy()
    pos[1] = pos[0]
    path = str(tmp_path / "t.pxyz")
    pxyz.write_pxyz(path, tube.with_positions(pos))
    assert run(["energy", "--in", path, "--ell", "6", "--m", "1", "-o", str(tmp_path / "e.json")]) == 1
    assert capsys.readouterr().err == "nanolab: zero-length bond leg\n"
    assert not (tmp_path / "e.json").exists()


def test_energy_rejects_axial_coordinates_far_beyond_the_period(tmp_path, capsys):
    # 1.5 is 1.5e300 periods of 1e-300 from the origin: the image shifts do
    # not fit an int64, and the energy came out arbitrary with exit 0
    path = tmp_path / "t.pxyz"
    path.write_text("4 1e-300\n0 0 0\n0.5 0.5 0\n1 0 0\n1.5 0.5 0\n")
    out = tmp_path / "e.json"
    assert run(["energy", "--in", str(path), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nanolab: ") and "period L=1e-300" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "text, word",
    [
        ("{", "not valid JSON"),
        ("[400.0]", "must be an object"),
        ('{"k_2": 300.0}', "unknown potential keys ['k_2']"),
        ('{"k2": "300"}', "k2 must be a finite number"),
        ('{"k3": NaN}', "k3 must be a finite number"),
        ('{"cutoff_lo": 1.08, "cutoff_hi": 1.06}', "0 < lo < hi <= 1.1, got 1.08, 1.06"),
        ('{"cutoff_hi": 1.2}', "0 < lo < hi <= 1.1, got 1.05, 1.2"),
    ],
    ids=["malformed", "not-object", "unknown-key", "not-number", "not-finite", "knots-reversed", "beyond-cutoff"],
)
def test_energy_rejects_invalid_potential_json(tmp_path, capsys, text, word):
    tube_path = str(tmp_path / "t.pxyz")
    run(["generate", "--ell", "6", "--m", "1", "--mu", "2.9", "--lambda1", "1", "--lambda2", "1", "-o", tube_path])
    (tmp_path / "p.json").write_text(text)
    out = tmp_path / "e.json"
    assert run(["energy", "--in", tube_path, "--pots", str(tmp_path / "p.json"), "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("nanolab: ") and word in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "text, word",
    [
        ("4 5e-324\n0 0 0\n0.5 0.5 0\n1 0 0\n1.5 0.5 0\n", "period L=5e-324"),
        ("4 3\n0 1e300 0\n0.5 -1e300 0\n1 0 0\n1.5 0.5 0\n", "below 2**510"),
    ],
    ids=["tiny-period", "huge-y"],
)
def test_cells_and_energy_refuse_out_of_range_positions_alike(tmp_path, capsys, text, word):
    # cells walked such files into numpy overflow warnings and then blamed the
    # labels; both commands refuse them with the same line and no warning
    path = tmp_path / "t.pxyz"
    path.write_text(text)
    errs = []
    for command in ("cells", "energy"):
        out = tmp_path / f"{command}.out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--in", str(path), "-o", str(out)]) == 1
        errs.append(capsys.readouterr().err)
        assert not out.exists()
    assert errs[0] == errs[1]
    assert errs[0].startswith("nanolab: ") and word in errs[0] and len(errs[0].splitlines()) == 1


@pytest.mark.parametrize(
    "doc, failed",
    [
        ('{"k2": 400, "k3": 0}', "angle-minimum-points, angle-curvature-at-min"),
        ('{"k2": -1}', "pair-minimum-unique, pair-curvature-at-one, pair-range"),
    ],
    ids=["flat-angle", "negative-k2"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["reduced", "--ell", "12", "--mu-grid", "2.97:3.0:3"],
        ["stability", "--ell", "8", "--m", "2", "--count", "10"],
        ["fracture", "--ell", "12", "--m-list", "4,16"],
    ],
    ids=["reduced", "stability", "fracture"],
)
def test_potential_files_failing_validation_are_refused(tmp_path, capsys, doc, failed, argv):
    # with the flat angle potential, reduced wrote an arbitrary alpha and
    # exited 0; with k2 = -1 the commands failed on unrelated errors
    (tmp_path / "p.json").write_text(doc)
    out = tmp_path / "r.out"
    assert run([*argv, "--pots", str(tmp_path / "p.json"), "-o", str(out)]) == 1
    assert capsys.readouterr().err == f"nanolab: potential set 'custom' fails the checks {failed}\n"
    assert not out.exists()


@pytest.mark.parametrize("k3", [600, 800, 1000, 2000, 1e5])
def test_stiffer_angle_potentials_are_accepted(tmp_path, capsys, k3):
    # the angle checks had absolute tolerances, and the rounding of
    # v3(a) - v3(2 pi - a) grows with k3: these sets were refused
    (tmp_path / "p.json").write_text(json.dumps({"k3": k3}))
    out = tmp_path / "r.csv"
    assert run(["reduced", "--ell", "12", "--mu-grid", "2.97:3.0:3", "--pots", str(tmp_path / "p.json"), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) == 3 and np.min(rows[:, 6:9]) >= 23.0


@pytest.mark.parametrize(
    "doc, code",
    [('{"k2": 1e300}', 1), ('{"k2": 1e20}', 1), ('{"k3": -1e300}', 1), ('{"k2": 1e6}', 0), ('{"k3": 1e4}', 0)],
    ids=["k2-1e300", "k2-1e20", "k3-minus-1e300", "k2-1e6", "k3-1e4"],
)
def test_absurd_stiffness_scale_is_refused(tmp_path, capsys, doc, code):
    # with k2 = 1e300 reduced exited 0 with emin 1.18e270 and a Hessian
    # eigenvalue of -7.4e283
    (tmp_path / "p.json").write_text(doc)
    out = tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["reduced", "--ell", "12", "--mu-grid", "2.97:3.0:3", "--pots", str(tmp_path / "p.json"), "-o", str(out)]
        assert run(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err == "nanolab: potential set 'custom' fails the checks stiffness-scale\n"
        assert not out.exists()
    else:
        assert err == "" and np.all(np.loadtxt(out, delimiter=",", skiprows=1)[:, 6:9] > 0.0)


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main builds its parser once per process; a second round of the same
    # commands, in another order, gives what the first round gave
    tube = str(tmp_path / "t.pxyz")
    assert run(["generate", "--ell", "6", "--m", "2", "--mu", "2.95", "--lambda1", "1", "--lambda2", "1", "-o", tube]) == 0
    (tmp_path / "bad.json").write_text('{"k2": -1}')
    commands = {
        "usage": ["energy", "--ell", "6"],
        "version": ["--version"],
        "help": ["--help"],
        "bad-pots": ["reduced", "--ell", "12", "--pots", str(tmp_path / "bad.json")],
        "energy": ["energy", "--in", tube, "--ell", "6", "--m", "2", "--pots", "stiff", "-o", "OUT"],
        "cells": ["cells", "--in", tube, "--ell", "6", "--m", "2", "-o", "OUT"],
        "reduced": ["reduced", "--ell", "12", "--mu-grid", "2.97:3.0:3"],
    }
    capsys.readouterr()
    rounds = []
    for number, names in enumerate([list(commands), ["cells", "help", "reduced", "usage", "energy", "bad-pots", "version"]]):
        got = {}
        for name in names:
            out = tmp_path / f"{name}.{number}"
            code = run([str(out) if a == "OUT" else a for a in commands[name]])
            captured = capsys.readouterr()
            got[name] = (code, captured.out, captured.err, out.read_bytes() if out.exists() else None)
        rounds.append(got)
    assert rounds[0] == rounds[1]
    codes = {name: result[0] for name, result in rounds[0].items()}
    assert codes == {"usage": 1, "version": 0, "help": 0, "bad-pots": 1, "energy": 0, "cells": 0, "reduced": 0}
    assert rounds[0]["help"][1].startswith("usage: nanolab") and rounds[0]["reduced"][1].startswith("mu,")


@lru_cache(maxsize=None)
def _family_tube(preset, ell, m):
    from nanolab.reduced import minimize_family, reference_angles

    pots = potentials.load(preset)
    return build_nanotube(minimize_family(reference_angles(ell, pots).mu_us + 0.005, ell, pots, m=m).geometry, m)


def _run_quietly(workdir, argv):
    """main(argv) with warnings as errors: (exit code, stderr, -o text or None)."""
    out = workdir / "out"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([*argv, "-o", str(out)])
    return code, err.getvalue(), out.read_text() if out.exists() else None


def _input_argv(command, path, ell, m, preset):
    """energy's or cells' argv; only energy takes a potential."""
    argv = [command, "--in", str(path), "--ell", str(ell), "--m", str(m)]
    return argv + ["--pots", preset] if command == "energy" else argv


def _same_report(command, got, want):
    """Two energy reports or two cells tables of family tubes, equal to round-off."""
    if command == "energy":
        got, want = json.loads(got), json.loads(want)
        assert abs(got.pop("energy") - want.pop("energy")) <= 1e-12 * abs(want["n_bonds"])
        assert got == want
    else:
        got, want = (np.loadtxt(io.StringIO(t), delimiter=",", skiprows=1, ndmin=2) for t in (got, want))
        # the cells of a family tube are all alike, so a relabelled tube's
        # rows match the clean copy's in any order
        assert got.shape == want.shape and np.max(np.abs(got[:, 3:] - want[:, 3:])) <= 1e-9


DEFECTS = ("none", "tiny-period", "huge-period", "huge-coordinate", "coincident-atoms", "wrong-labels")


@settings(max_examples=120, deadline=None)
@given(
    preset=st.sampled_from(["soft", "stiff"]),
    ell=st.sampled_from([4, 6, 8]),
    m=st.integers(1, 3),
    a=st.integers(0, 7),
    b=st.integers(0, 2),
    turn=st.floats(0.0, 2.0 * np.pi),
    shift=st.floats(-2.0, 2.0),
    seed=st.integers(0, 2**32 - 1),
    defect=st.sampled_from(DEFECTS),
    tiny=st.floats(5e-324, 2.2, exclude_max=True),
    huge=st.floats(1e3, 1.7e308),
    big=st.floats(2.0**510, 1.7e308),
    labels=st.tuples(st.integers(1, 24), st.integers(1, 6)),
)
@example(preset="soft", ell=6, m=2, a=1, b=1, turn=1.0, shift=0.5, seed=0, defect="tiny-period",
         tiny=2.0, huge=1e3, big=2.0**510, labels=(1, 1))
@example(preset="soft", ell=6, m=2, a=0, b=0, turn=0.0, shift=0.0, seed=0, defect="wrong-labels",
         tiny=1.0, huge=1e3, big=2.0**510, labels=(12, 1))
def test_energy_and_cells_give_the_clean_result_or_name_the_defect(
    tmp_path_factory, preset, ell, m, a, b, turn, shift, seed, defect, tiny, huge, big, labels
):
    # a family tube relabelled by the Z_ell x Z_m action, rotated about its
    # axis and moved by -2 ... 2 periods, rigidly and atom by atom, with one
    # planted defect: energy --in and cells --in either give the clean copy's
    # result or exit 1 with one stderr line that names the defect.  A huge
    # period makes the file an open cluster of the same atoms: cells refuses
    # it, and energy reports that cluster's energy.
    from oracle import bond_graph_brute, total_energy_einsum

    workdir = tmp_path_factory.mktemp("cli-inputs")
    tube = _family_tube(preset, ell, m)
    rng = np.random.default_rng(seed)
    a, b, L = a % ell, b % m, tube.period
    image = tube.positions.reshape(m, ell, 4, 3) @ axial_rotations(2.0 * np.pi * a / ell).T
    pos = np.roll(image + [b * tube.geometry.mu, 0.0, 0.0], (b, a), axis=(0, 1)).reshape(-1, 3)
    pos = pos @ axial_rotations(turn).T
    pos[:, 0] += (shift + rng.integers(-2, 3, tube.n)) * L
    e, mm = ell, m
    if defect == "tiny-period":
        L = tiny
    elif defect == "huge-period":
        L = huge
    elif defect == "huge-coordinate":
        pos[rng.integers(tube.n), rng.integers(3)] = big * rng.choice([-1.0, 1.0])
    elif defect == "coincident-atoms":
        i, j = rng.choice(tube.n, 2, replace=False)
        pos[j] = pos[i] + [rng.integers(-2, 3) * L, 0.0, 0.0]
    elif defect == "wrong-labels":
        assume(labels != (ell, m))
        e, mm = labels
    clean_path, path = workdir / "clean.pxyz", workdir / "t.pxyz"
    pxyz.write_pxyz(clean_path, tube)
    pxyz.write_pxyz(path, Nanotube(pos, L, tube.ell, tube.m))
    for command in ("energy", "cells"):
        clean = _run_quietly(workdir, _input_argv(command, clean_path, ell, m, preset))
        assert clean[:2] == (0, "")
        code, err, report = _run_quietly(workdir, _input_argv(command, path, e, mm, preset))
        refused = {
            "tiny-period": "period L=",
            "huge-coordinate": "coordinates below 2**510",
            "coincident-atoms": "zero-length bond leg" if command == "energy" else "atoms are displaced",
            "huge-period": None if command == "energy" else "period L=",
            "wrong-labels": f"inconsistent with ell={e}, m={mm}" if 4 * e * mm != tube.n else
            (None if command == "energy" else "pass --ell and --m"),
        }.get(defect)
        if refused:
            assert code == 1 and report is None
            assert err.startswith("nanolab: ") and len(err.splitlines()) == 1 and refused in err
        elif defect == "huge-period":
            assert (code, err) == (0, "")
            graph = bond_graph_brute(Nanotube(pos, L, ell, m))
            got = json.loads(report)["energy"]
            assert abs(got - total_energy_einsum(Nanotube(pos, L, ell, m), potentials.load(preset), graph)) <= 1e-9
        else:
            assert (code, err) == (0, "")
            _same_report(command, report, clean[2])


def _minor_faults_of_a_fresh_process(argv) -> int:
    """Minor page faults of `python -m nanolab.cli argv` run as a child."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    subprocess.run([sys.executable, "-m", "nanolab.cli", *argv], env=env, check=True, capture_output=True)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="libc has no mallopt")
def test_fresh_ensemble_process_keeps_freed_memory_mapped():
    # 990 more samples of a fresh nanolab stability process cost about 660
    # minor faults; with the allocator's default thresholds every chunk's
    # temporaries were unmapped and faulted in again, about 24 400 faults
    argv = ["stability", "--ell", "12", "--m", "4", "--mu-offset", "0.01"]
    many = _minor_faults_of_a_fresh_process([*argv, "--count", "1000"])
    few = _minor_faults_of_a_fresh_process([*argv, "--count", "10"])
    assert many - few < 5000


def test_only_the_process_entry_sets_the_allocator(monkeypatch, capsys):
    # main() with argv None runs as the process entry and keeps freed memory
    # mapped; an in-process main([...]) leaves the caller's allocator alone
    calls = []
    monkeypatch.setattr(cli, "_keep_freed_memory_mapped", lambda: calls.append(1))
    assert run(["--version"]) == 0 and calls == []
    monkeypatch.setattr(sys, "argv", ["nanolab", "--version"])
    assert main() == 0 and calls == [1]
