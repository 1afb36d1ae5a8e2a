"""PXYZ configuration files: line 1 holds `n L`, then n lines `x y z`.

Floats are rendered with 17 significant digits so a write/read round trip is
bit-exact.  The table formatter and the atomic writer here serve every file
the CLI writes.
"""

from __future__ import annotations

import math
import os
import tempfile
from itertools import chain

import numpy as np

from .errors import PxyzFormatError
from .geometry import Nanotube

# 17 significant digits: enough for a bit-exact round trip of every double
FLOAT_FORMAT = "%.17g"
_FIELD_FORMATS = {"i": "%d", "f": FLOAT_FORMAT}


def format_table(blocks, sep: str = " ") -> str:
    """Text of a table whose columns are the blocks side by side, one line per row.

    Each block is array-like of shape (rows,) or (rows, k): integer blocks are
    written with %d, float blocks with FLOAT_FORMAT.  The whole table is one
    % operation on the values in row order.
    """
    blocks = [np.asarray(b) for b in blocks]
    blocks = [b if b.ndim == 2 else b.reshape(-1, 1) for b in blocks]
    rows = len(blocks[0])
    fields = []
    for b in blocks:
        fields += [_FIELD_FORMATS[b.dtype.kind]] * b.shape[1]
    table = np.empty((rows, len(fields)), dtype=object)
    np.concatenate(blocks, axis=1, out=table)
    return (sep.join(fields) + "\n") * rows % tuple(table.ravel().tolist())


def write_text(path, text: str) -> None:
    """Write atomically: temp file in the target directory, then rename.  An
    OSError is raised again with path, not the temp file, as its file name."""
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def write_pxyz(path, tube: Nanotube) -> None:
    """Write the tube as PXYZ, atomically."""
    write_text(path, format_table([[tube.n], [tube.period]]) + format_table([tube.positions]))


def _coordinate_error(raw, n: int) -> PxyzFormatError:
    """The error of the first malformed coordinate line, in file order."""
    for row in range(n):
        parts = raw[row + 1].split()
        if len(parts) != 3:
            return PxyzFormatError(f"expected 3 columns, got {len(parts)}", line_number=row + 2)
        try:
            values = [float(v) for v in parts]
        except ValueError:
            return PxyzFormatError(f"unparseable coordinates {raw[row + 1]!r}", line_number=row + 2)
        if not all(map(math.isfinite, values)):
            return PxyzFormatError(f"non-finite coordinates {raw[row + 1]!r}", line_number=row + 2)
    raise AssertionError("no malformed coordinate line")


def _ascii_lines(path) -> list:
    """The lines of a text file that holds only ASCII characters and no
    underscore.  float() and int() would read any Unicode digit and take 1_0
    for 10, so the first line that breaks this raises PxyzFormatError."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8", errors="replace")
    if text.isascii() and "_" not in text:
        return text.splitlines()
    # keepends keeps a non-ASCII line separator on its line
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.isascii() or "_" in line)
    raise PxyzFormatError(f"non-ASCII character or underscore in {lines[row]!r}", line_number=row + 1)


def read_pxyz(path, ell: int | None = None, m: int | None = None) -> Nanotube:
    """Parse a PXYZ file; malformed content raises PxyzFormatError with the line number.

    ell and m restore the label structure when known; otherwise the tube is
    returned with ell = n // 4, m = 1 (labels then carry no geometric meaning).
    """
    raw = _ascii_lines(path)
    if not raw:
        raise PxyzFormatError("empty PXYZ file", line_number=1)
    head = raw[0].split()
    if len(head) != 2:
        raise PxyzFormatError(f"header must be 'n L', got {raw[0]!r}", line_number=1)
    try:
        n = int(head[0])
        period = float(head[1])
    except ValueError:
        raise PxyzFormatError(f"unparseable header {raw[0]!r}", line_number=1)
    if n < 1 or not (0 < period < math.inf):
        raise PxyzFormatError(f"need n >= 1 and finite L > 0, got n={n}, L={period}", line_number=1)
    if len(raw) < n + 1:
        raise PxyzFormatError(
            f"expected {n} coordinate lines, found {len(raw) - 1}", line_number=len(raw) + 1
        )
    # split lazily, twice, so no line's tokens outlive their parse
    body = raw[1 : n + 1]
    try:
        pos = np.fromiter(map(float, chain.from_iterable(map(str.split, body))), dtype=float, count=3 * n)
    except ValueError:  # an unparseable token, or fewer than 3n of them
        pos = None
    if pos is None or set(map(len, map(str.split, body))) != {3} or not np.isfinite(pos).all():
        raise _coordinate_error(raw, n)
    extra = next((i for i in range(n + 1, len(raw)) if raw[i].strip()), None)
    if extra is not None:
        raise PxyzFormatError(f"unexpected line after {n} coordinate lines: {raw[extra]!r}", line_number=extra + 1)
    if ell is None or m is None:
        if n % 4 != 0:
            raise PxyzFormatError(f"atom count {n} is not a multiple of 4", line_number=1)
        ell, m = n // 4, 1
    elif 4 * ell * m != n:
        raise PxyzFormatError(f"n={n} inconsistent with ell={ell}, m={m}", line_number=1)
    return Nanotube(pos.reshape(n, 3), period, ell, m)
