"""Acceptance battery: every row of nanolab.acceptance.CHECKS runs at its full
size and prints one PASS/FAIL line (run pytest with -s to see them inline),
next to the two independent oracles and the determinism of `verify-all`."""

import json
import time

import numpy as np

from nanolab import acceptance, fracture, reduced
from nanolab.cli import main as cli_main

TP = 2.0 * np.pi / 3.0
SEEDS = {1: 101, 6: 2024, 7: 42, 13: 2024}
GATES = {1: 1.0, 7: 120.0}  # wall-clock seconds of the row call
# test names that differ from the report key, kept from when each criterion
# had a test function of its own
NAMES = {
    2: "beta_derivative_anchors",
    3: "reduced_energy_anchor",
    4: "reference_angle_ordering_and_scaling",
    5: "reduced_hessian_anchor",
    7: "stability_monte_carlo",
    10: "cell_convexity_scaling",
}


def _report(num: int, ok: bool, desc: str) -> bool:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {desc}")
    return ok


def _criterion_test(number, key, check, full):
    def test():
        t0 = time.perf_counter()
        entry = check(full, SEEDS.get(number, 0))
        elapsed = time.perf_counter() - t0
        ok = entry["passed"] and elapsed < GATES.get(number, np.inf)
        assert _report(number, ok, f"{key} ({elapsed:.2f}s)"), entry

    return test


# one test per row, at its full size
for _number, _key, _check, _, _full in acceptance.CHECKS:
    globals()[f"test_criterion_{_number:02d}_{NAMES.get(_number, _key)}"] = _criterion_test(
        _number, _key, _check, _full
    )


def test_criterion_02_beta_finite_differences():
    h = 1e-4
    fd_da = (reduced.beta(TP + h, np.pi) - reduced.beta(TP - h, np.pi)) / (2 * h)
    fd_dg = (reduced.beta(TP, np.pi + h) - reduced.beta(TP, np.pi - h)) / (2 * h)
    fd_dgg = (reduced.beta(TP, np.pi + h) - 2 * reduced.beta(TP, np.pi) + reduced.beta(TP, np.pi - h)) / h**2
    ok = abs(fd_da + 2.0) <= 1e-5 and abs(fd_dg) <= 1e-5 and abs(fd_dgg + np.sqrt(3) / 2) <= 1e-5
    assert _report(2, ok, f"central differences of beta ({fd_da:.8f}, {fd_dg:.2e}, {fd_dgg:.8f})")


def test_criterion_11_fracture_root():
    from scipy.optimize import brentq

    soft = acceptance.SOFT
    mu_us = reduced.reference_angles(12, soft).mu_us
    e0 = reduced.minimize_family(mu_us, 12, soft, m=4).energy

    def crossing(mu):
        return reduced.minimize_family(mu, 12, soft, m=4).energy - e0 - 48.0

    root = brentq(crossing, mu_us + 1e-6, min(mu_us + 0.12, 3.1 - 1e-9), xtol=1e-10)
    err = abs(fracture.fracture_scaling(12, [4, 8], soft)["rows"][0]["mu_frac"] - root)
    assert _report(11, err <= 1e-5, f"m=4 threshold matches the brentq root of the crossing ({err:.1e})")


def test_criterion_14_determinism(tmp_path):
    a = str(tmp_path / "va1.json")
    b = str(tmp_path / "va2.json")
    code1 = cli_main(["verify-all", "--quick", "--seed", "0", "-o", a])
    code2 = cli_main(["verify-all", "--quick", "--seed", "0", "-o", b])
    same = open(a, "rb").read() == open(b, "rb").read()
    ok = code1 == 0 and code2 == 0 and same
    assert _report(14, ok, "verify-all --quick exits 0 and reports are byte-identical")
    rep = json.loads(open(a).read())
    assert rep["passed"]
    assert sorted(rep["checks"]) == sorted(key for _, key, *_ in acceptance.CHECKS)
    # report-only keys of criterion 08: the null modes' Bloch blocks and the
    # Cauchy-Born ratio
    null_space = rep["checks"]["hessian_null_space"]
    assert null_space["null_blocks"] == [[-1, 0, 1], [0, 0, 2], [1, 0, 1]]
    assert abs(null_space["acoustic_ratio"] - 1.0) <= 1e-4
