import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracle import format_rows, pxyz_text, read_pxyz_lines

from nanolab.errors import PxyzFormatError
from nanolab.geometry import Nanotube, build_nanotube, solve_family
from nanolab.pxyz import format_table, read_pxyz, write_pxyz, write_text

# doubles whose text is easy to get wrong
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL))


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
        ("2 6.0\n0_2 0 0\n1 2 3\n", 2),
        ("2 6.0\n0 0 0\n1 2 3e1_0\n", 3),
        ("4_0 6.0\n0 0 0\n1 2 3\n", 1),
        ("4 6_0.0\n0 0 0\n1 0 0\n2 0 0\n3 0 0\n", 1),
        ("2 6.0\n0 0 0\n1 \uff12 3\n", 3),
        ("2 6.0\n0 0 0\n\u0661 2 3\n", 3),
        ("\u0664 6.0\n0 0 0\n1 0 0\n2 0 0\n3 0 0\n", 1),
        ("2 6.0\n0\u20030 0\n1 2 3\n", 2),
        ("2 6.0\n0 0 0\u2028\n1 2 3\n", 2),
        ("2 6.0\n0 0 0\n1 2 3\n\u00a0\n", 4),
        ("4 3.0\n0 0 0\f1 1 1\n2 2 2\n3 3 3\n", 2),
        ("4 3.0\n0\x1f0 0\n1 1 1\n2 2 2\n3 3 3\n", 2),
        ("4 3.0\n0 0 0\n1 1 1\n2 2 2\v\n3 3 3\n", 4),
        ("4 3.0\n0 0 0\n1 1 1\x1e2 2 2\n3 3 3\n", 3),
        ("4 3.0\x1c0 0 0\n1 1 1\n2 2 2\n3 3 3\n", 1),
    ],
)
def test_characters_outside_number_grammar_rejected(tmp_path, content, line):
    # float() and int() take Unicode digits and spaces and read 0_2 as 2;
    # str.splitlines() and str.split() break lines or fields at \v, \f and \x1c-\x1f
    path = tmp_path / "bad.pxyz"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(PxyzFormatError) as err:
        read_pxyz(str(path))
    assert err.value.line_number == line


def test_undecodable_bytes_rejected_with_line(tmp_path):
    path = tmp_path / "bad.pxyz"
    path.write_bytes(b"2 6.0\n0 0 0\n1 2 \xff3\n")
    with pytest.raises(PxyzFormatError) as err:
        read_pxyz(str(path))
    assert err.value.line_number == 3


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
        ("2 6.0\n0 0 0\n1 2 3 4\n", 3),
        ("2 6.0\n0 0 0\n1 inf 3\n", 3),
        ("3 6.0\n0 0 x\n1 2\n0 0 0\n", 2),
        ("3 6.0\n0 0 0\n1 2 3 4\n0 nan 0\n", 3),
        ("3 6.0\n0 0 0\n0 inf 0\n1 2\n", 3),
    ],
)
def test_malformed_inputs_carry_line_numbers(tmp_path, content, line):
    path = tmp_path / "bad.pxyz"
    path.write_text(content)
    with pytest.raises(PxyzFormatError) as err:
        read_pxyz(str(path))
    assert err.value.line_number == line
    with pytest.raises(PxyzFormatError) as want:
        read_pxyz_lines(str(path))
    assert (str(err.value), err.value.line_number) == (str(want.value), want.value.line_number)


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
    # negative zeros included: the file equals the per-coordinate oracle's
    # (scale 0 writes a family tube, whose values repeat cell to cell), and
    # every coordinate and the period come back to the bit
    tube = build_nanotube(solve_family(ell, mu, lambda1, max(0.901, mu / 2 - lambda1 + 1e-3)), m)
    rng = np.random.default_rng(seed)
    pos = tube.positions + scale * rng.standard_normal(tube.positions.shape)
    pos[rng.uniform(size=pos.shape) < 0.05] = -0.0
    tube = tube.with_positions(pos)
    path = str(tmp_path_factory.getbasetemp() / "drawn.pxyz")
    write_pxyz(path, tube)
    with open(path, "rb") as fh:
        assert fh.read() == pxyz_text(tube).encode()
    back = read_pxyz(path, ell=ell, m=m)
    assert back.positions.tobytes() == tube.positions.tobytes()
    assert np.float64(back.period).tobytes() == np.float64(tube.period).tobytes()


@st.composite
def column_blocks(draw):
    """1 to 4 blocks of the same row count: int64 label blocks and float
    blocks, each of shape (rows,) or (rows, k)."""
    rows = draw(st.integers(0, 12))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        shape = (rows,) if draw(st.booleans()) else (rows, draw(st.integers(1, 4)))
        if draw(st.booleans()):
            blocks.append(draw(arrays(np.int64, shape, elements=st.integers(-(2**63), 2**63 - 1))))
        else:
            blocks.append(draw(arrays(np.float64, shape, elements=FLOATS)))
    return blocks


def per_value_text(blocks, sep):
    rows = [sum((b.reshape(len(b), -1)[r].tolist() for b in blocks), []) for r in range(len(blocks[0]))]
    return format_rows(rows, sep)


@settings(max_examples=60)
@given(blocks=column_blocks(), sep=st.sampled_from([",", " "]))
def test_table_bytes_equal_per_value_oracle(blocks, sep):
    assert format_table(blocks, sep) == per_value_text(blocks, sep)


# values whose text is easy to get wrong, with pairs that == or a sort by
# value would merge: 0.0 and -0.0, and two NaN payloads
POOL = {
    "f": np.concatenate((
        [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 0.1],
        np.array([0x7FF8000000000000, 0x7FF8000000000001], dtype=np.int64).view(np.float64),
    )),
    "i": np.array([-(2**63), 2**63 - 1, -1, 0, 1]),
}


@st.composite
def pooled_blocks(draw):
    """1 to 4 blocks of up to 40 rows, each drawn from a pool of at most 4
    values: long tables are mostly repeats, short ones mostly distinct."""
    rows = draw(st.one_of(st.integers(0, 3), st.integers(4, 40)))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        shape = (rows,) if draw(st.booleans()) else (rows, draw(st.integers(1, 4)))
        values = POOL[draw(st.sampled_from("fi"))]
        pool = values[draw(st.lists(st.integers(0, len(values) - 1), min_size=1, max_size=4, unique=True))]
        blocks.append(pool[draw(arrays(np.intp, shape, elements=st.integers(0, len(pool) - 1)))])
    return blocks


@settings(max_examples=60)
@given(blocks=pooled_blocks(), sep=st.sampled_from([",", " "]))
def test_pooled_table_bytes_equal_per_value_oracle(blocks, sep):
    # both paths of format_table: each distinct value formatted once, and the
    # whole table in one % operation
    assert format_table(blocks, sep) == per_value_text(blocks, sep)


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_written_file_mode_follows_umask_or_replaced_file(tmp_path):
    new, kept = tmp_path / "new.csv", tmp_path / "kept.csv"
    kept.write_text("old\n")
    kept.chmod(0o640)
    umask = os.umask(0o022)
    try:
        write_text(new, "a\n")
        write_text(kept, "b\n")
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640 and kept.read_text() == "b\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "new.csv"]


@settings(max_examples=25)
@given(
    ell=st.integers(1, 6),
    m=st.integers(1, 3),
    data=st.data(),
    period=st.one_of(st.floats(min_value=5e-324, max_value=1e308), st.sampled_from([6.0, 1e-300])),
)
def test_write_pxyz_bytes_equal_oracle(tmp_path_factory, ell, m, data, period):
    # the oracle formats one coordinate at a time; on a finite file the
    # line-by-line reader returns the same bits as read_pxyz
    pos = data.draw(arrays(np.float64, (4 * ell * m, 3), elements=FLOATS))
    tube = Nanotube(pos, period, ell, m)
    path = tmp_path_factory.getbasetemp() / "oracle.pxyz"
    write_pxyz(str(path), tube)
    assert path.read_bytes() == pxyz_text(tube).encode()
    if np.isfinite(pos).all():
        back, want = read_pxyz(str(path), ell, m), read_pxyz_lines(str(path), ell, m)
        assert back.positions.tobytes() == want.positions.tobytes() == pos.tobytes()
        assert back.period == want.period == period


DEFECTS = {
    "two fields": "{} {}",
    "four fields": "{} {} 0 1",
    "unparseable": "{} 0x1p3 {}",
    "nan": "{} nan {}",
    "inf": "-inf {} {}",
}


@settings(max_examples=30)
@given(
    cells=st.integers(250, 400),
    seed=st.integers(0, 2**31 - 1),
    kinds=st.lists(st.sampled_from(sorted(DEFECTS)), min_size=1, max_size=2, unique=True),
    data=st.data(),
)
def test_planted_defect_reported_like_oracle(tmp_path_factory, cells, seed, kinds, data):
    # n >= 1000 coordinate lines with one defect, or an earlier defect of one
    # kind before a later one of another: the first in file order is reported
    n = 4 * cells
    rng = np.random.default_rng(seed)
    lines = format_rows(rng.standard_normal((n, 3)).tolist(), " ").splitlines()
    where = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=len(kinds), max_size=len(kinds), unique=True)))
    for row, kind in zip(where, kinds):
        lines[row] = DEFECTS[kind].format(*lines[row].split()[:2])
    path = tmp_path_factory.getbasetemp() / "planted.pxyz"
    path.write_text(f"{n} 6.0\n" + "\n".join(lines) + "\n")
    with pytest.raises(PxyzFormatError) as err:
        read_pxyz(str(path))
    with pytest.raises(PxyzFormatError) as want:
        read_pxyz_lines(str(path))
    assert err.value.line_number == want.value.line_number == where[0] + 2
    assert str(err.value) == str(want.value)
