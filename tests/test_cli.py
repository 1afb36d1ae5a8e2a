import json

import numpy as np
import pytest

from nanolab import acceptance, cells, cellspec, pxyz
from nanolab.cli import main
from nanolab.energy import family_energy
from nanolab.geometry import build_nanotube, solve_family


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


@pytest.mark.filterwarnings("ignore::nanolab.errors.BoundaryWarning")
@pytest.mark.parametrize(
    "args, counts",
    [
        (["--ell", "12", "--pots", "stiff", "--mu-grid", "2.70:3.09:79"], {"0": 59, "2": 20}),
        (["--ell", "64", "--mu-grid", "2.96:3.02:61"], {"0": 61}),
    ],
    ids=["stiff-12", "soft-64"],
)
def test_reduced_marks_pinned_rows(tmp_path, args, counts):
    # stiff ell = 12 far below mu_us puts both alphas on ALPHA_LO
    out = tmp_path / "r.csv"
    assert run(["reduced", *args, "-o", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[-1] == "n_pinned"
    pinned = [line.split(",")[-1] for line in lines[1:]]
    assert {v: pinned.count(v) for v in set(pinned)} == counts


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
def test_labels_below_one_exit_one(tmp_path, capsys, command):
    # 4 * (-12) * (-4) is the atom count of the file, so only the sign of the
    # labels is wrong
    tube_path = str(tmp_path / "t.pxyz")
    run(["generate", "--ell", "12", "--m", "4", "--mu", "2.95", "--lambda1", "1", "--lambda2", "1", "-o", tube_path])
    out = tmp_path / "out"
    assert run([command, "--in", tube_path, "--ell", "-12", "--m", "-4", "-o", str(out)]) == 1
    assert capsys.readouterr().err == "nanolab: ell and m must be at least 1, got ell=-12, m=-4\n"
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
    real = cells.gather_cells
    monkeypatch.setattr(cells, "gather_cells", lambda *a, **k: calls.append(1) or real(*a, **k))
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
