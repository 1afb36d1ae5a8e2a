import numpy as np
import pytest

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
