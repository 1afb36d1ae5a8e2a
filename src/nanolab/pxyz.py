"""PXYZ configuration files: line 1 holds `n L`, then n lines `x y z`.

Floats are rendered with 17 significant digits so a write/read round trip is
bit-exact.  The formatter and the atomic writer here serve every file the CLI
writes.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .errors import PxyzFormatError
from .geometry import Nanotube


def format_float(x: float) -> str:
    """17 significant digits: enough for a bit-exact round trip."""
    return format(float(x), ".17g")


def write_text(path, text: str) -> None:
    """Write atomically: temp file in the target directory, then rename."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_pxyz(path, tube: Nanotube) -> None:
    """Write the tube as PXYZ, atomically."""
    lines = [f"{tube.n} {format_float(tube.period)}"]
    lines += [f"{format_float(x)} {format_float(y)} {format_float(z)}" for x, y, z in tube.positions]
    write_text(path, "\n".join(lines) + "\n")


def read_pxyz(path, ell: int | None = None, m: int | None = None) -> Nanotube:
    """Parse a PXYZ file; malformed content raises PxyzFormatError with the line number.

    ell and m restore the label structure when known; otherwise the tube is
    returned with ell = n // 4, m = 1 (labels then carry no geometric meaning).
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
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
    pos = np.empty((n, 3), dtype=float)
    for row in range(n):
        parts = raw[row + 1].split()
        if len(parts) != 3:
            raise PxyzFormatError(
                f"expected 3 columns, got {len(parts)}", line_number=row + 2
            )
        try:
            values = [float(v) for v in parts]
        except ValueError:
            raise PxyzFormatError(f"unparseable coordinates {raw[row + 1]!r}", line_number=row + 2)
        if not all(map(math.isfinite, values)):
            raise PxyzFormatError(f"non-finite coordinates {raw[row + 1]!r}", line_number=row + 2)
        pos[row] = values
    extra = next((i for i in range(n + 1, len(raw)) if raw[i].strip()), None)
    if extra is not None:
        raise PxyzFormatError(f"unexpected line after {n} coordinate lines: {raw[extra]!r}", line_number=extra + 1)
    if ell is None or m is None:
        if n % 4 != 0:
            raise PxyzFormatError(f"atom count {n} is not a multiple of 4", line_number=1)
        ell, m = n // 4, 1
    elif 4 * ell * m != n:
        raise PxyzFormatError(f"n={n} inconsistent with ell={ell}, m={m}", line_number=1)
    return Nanotube(pos, period, ell, m)
