import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanolab.errors import PxyzFormatError
from nanolab.geometry import build_nanotube, solve_family
from nanolab.pxyz import read_pxyz, write_pxyz


def test_roundtrip_bit_exact(tmp_path):
    tube = build_nanotube(solve_family(7, 2.93, 1.02, 0.97), 2)
    path = tmp_path / "t.pxyz"
    write_pxyz(str(path), tube)
    back = read_pxyz(str(path), ell=7, m=2)
    assert back.period == tube.period
    assert np.array_equal(back.positions, tube.positions)


def test_header_format(tmp_path):
    tube = build_nanotube(solve_family(5, 2.9, 1.0, 1.0), 1)
    path = tmp_path / "t.pxyz"
    write_pxyz(str(path), tube)
    first = path.read_text().splitlines()[0].split()
    assert first[0] == "20"
    assert float(first[1]) == tube.period


@pytest.mark.parametrize(
    "content,line",
    [
        ("", 1),
        ("abc def\n", 1),
        ("4\n", 1),
        ("2 6.0\n0 0 0\n", 3),
        ("2 6.0\n0 0 0\n1 2\n", 3),
        ("2 6.0\n0 0 0\n1 2 x\n", 3),
        ("2 -1.0\n0 0 0\n1 2 3\n", 1),
        ("4 nan\n0 0 0\n1 0 0\n2 0 0\n3 0 0\n", 1),
        ("4 inf\n0 0 0\n1 0 0\n2 0 0\n3 0 0\n", 1),
        ("2 6.0\n0 0 0\n1 nan 3\n", 3),
        ("2 6.0\n-inf 0 0\n1 2 x\n", 2),
        ("2 6.0\n0 0 0\n1 2 3\n4 5 6\n", 4),
        ("2 6.0\n0 0 0\n1 2 3\n\n \n4 5 6\n\n", 6),
    ],
)
def test_malformed_inputs_carry_line_numbers(tmp_path, content, line):
    path = tmp_path / "bad.pxyz"
    path.write_text(content)
    with pytest.raises(PxyzFormatError) as err:
        read_pxyz(str(path))
    assert err.value.line_number == line


def test_shape_consistency_check(tmp_path):
    path = tmp_path / "t.pxyz"
    path.write_text("8 6.0\n" + "\n".join(["0 0 0"] * 8) + "\n")
    with pytest.raises(PxyzFormatError):
        read_pxyz(str(path), ell=5, m=1)
    tube = read_pxyz(str(path))
    assert tube.n == 8


def test_trailing_blank_lines_accepted(tmp_path):
    path = tmp_path / "t.pxyz"
    path.write_text("4 6.0\n" + "\n".join(["0 0 0"] * 4) + "\n\n  \n")
    assert read_pxyz(str(path)).n == 4


@settings(max_examples=25)
@given(
    ell=st.integers(4, 12),
    m=st.integers(1, 3),
    mu=st.floats(2.7, 3.05),
    lambda1=st.floats(0.92, 1.08),
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from([0.0, 1e-300, 1e-8, 1.0, 1e6]),
)
def test_roundtrip_bit_exact_on_drawn_tubes(tmp_path_factory, ell, m, mu, lambda1, seed, scale):
    # family tubes moved by anything from subnormal to huge displacements,
    # negative zeros included: every coordinate and the period come back to the bit
    tube = build_nanotube(solve_family(ell, mu, lambda1, max(0.901, mu / 2 - lambda1 + 1e-3)), m)
    rng = np.random.default_rng(seed)
    pos = tube.positions + scale * rng.standard_normal(tube.positions.shape)
    pos[rng.uniform(size=pos.shape) < 0.05] = -0.0
    tube = tube.with_positions(pos)
    path = str(tmp_path_factory.getbasetemp() / "drawn.pxyz")
    write_pxyz(path, tube)
    back = read_pxyz(path, ell=ell, m=m)
    assert back.positions.tobytes() == tube.positions.tobytes()
    assert np.float64(back.period).tobytes() == np.float64(tube.period).tobytes()
