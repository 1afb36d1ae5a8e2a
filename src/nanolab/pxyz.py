"""PXYZ configuration files: line 1 holds `n L`, then n lines `x y z`.

Floats are rendered with 17 significant digits so a write/read round trip is
bit-exact.  The table formatter and the atomic writer here serve every file
the CLI writes.
"""

from __future__ import annotations

import math
import os
import re
import stat

import numpy as np

from .errors import InvalidParameterError, PxyzFormatError
from .geometry import Nanotube

# 17 significant digits: enough for a bit-exact round trip of every double
FLOAT_FORMAT = "%.17g"
_FIELD_FORMATS = {"i": "%d", "f": FLOAT_FORMAT}


def _bits(block: np.ndarray) -> np.ndarray:
    """int64 keys of a block's values: equal keys print the same text, and
    0.0 and -0.0, or two NaN payloads, keep keys of their own."""
    if block.dtype.kind == "f":
        return block.astype(np.float64, copy=False).view(np.int64)
    return block.astype(np.int64, copy=False)


def format_table(blocks, sep: str = " ") -> str:
    """Text of a table whose columns are the blocks side by side, one line per row.

    Each block is array-like of shape (rows,) or (rows, k): integer blocks are
    written with %d, float blocks with FLOAT_FORMAT.  When the blocks'
    distinct values number at most half of the table's values (a periodic
    tube repeats its cells), each block's distinct values are formatted once,
    each text followed by its separator (a newline in the last column), and
    the table is one join of the texts the cells take by bit pattern, in row
    order; otherwise the whole table is one % operation on the values in row
    order.  Both give the same text.
    """
    blocks = [np.asarray(b) for b in blocks]
    blocks = [b if b.ndim == 2 else b.reshape(-1, 1) for b in blocks]
    rows = len(blocks[0])
    fields = []
    for b in blocks:
        fields += [_FIELD_FORMATS[b.dtype.kind]] * b.shape[1]
    width = len(fields)
    keys = [_bits(b) for b in blocks]
    ordered = [np.sort(k, axis=None) for k in keys]
    repeats = [s[1:] == s[:-1] for s in ordered]
    if 2 * sum(s.size - np.count_nonzero(r) for s, r in zip(ordered, repeats)) > rows * width:
        table = np.concatenate(blocks, axis=1, dtype=object)
        return (sep.join(fields) + "\n") * rows % tuple(table.ravel().tolist())
    # pool holds each block's distinct texts with sep, and the last column's
    # with a newline; place[row, col] indexes the text of that cell
    pool, place, col = [], np.empty((rows, width), dtype=np.int64), 0
    for b, k, s, r in zip(blocks, keys, ordered, repeats):
        d = np.concatenate((s[:1], s[1:][~r]))
        values = d.view(np.float64) if b.dtype.kind == "f" else d
        text = ("\n".join([_FIELD_FORMATS[b.dtype.kind]] * len(d)) % tuple(values.tolist())).split("\n")
        where = np.searchsorted(d, k)
        place[:, col : col + k.shape[1]] = where + len(pool)
        pool += [t + sep for t in text]
        col += k.shape[1]
        if k.shape[1] and col == width:
            place[:, -1] = where[:, -1] + len(pool)
            pool += [t + "\n" for t in text]
    return "".join(np.array(pool, dtype=object)[place].ravel().tolist())


def write_text(path, text: str) -> None:
    """Write atomically: temp file in the target directory, then rename.

    The temp file is created with mode 0o666 less the umask, as open(path, "w")
    creates a file, and takes the mode of the file it replaces.  An OSError is
    raised again with path, not the temp file, as its file name."""
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            mode = None
        tmp = f"{os.path.abspath(path)}.{os.urandom(8).hex()}.tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                if mode is not None:
                    os.fchmod(fh.fileno(), mode)
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


# Characters that float() and int() accept although no number is written with
# them (non-ASCII digits and spaces, the underscore of 1_0), and the ASCII
# controls that str.splitlines() or str.split() take for a line or field break
_REFUSED_ASCII = "_\v\f\x1c\x1d\x1e\x1f"
_REFUSED = re.compile(f"[^\\x00-\\x7f]|[{re.escape(_REFUSED_ASCII)}]")


def _ascii_lines(path) -> list:
    """The lines of a text file that holds only ASCII characters, with no
    underscore and no control character that splits lines or fields other
    than newline, carriage return and tab.  The first line that breaks this
    raises PxyzFormatError."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8", errors="replace")
    if text.isascii() and not any(c in text for c in _REFUSED_ASCII):
        return text.splitlines()
    # the lines up to and including the first refused character are split as
    # in a clean file; keepends keeps a refused line break on its line
    pos = _REFUSED.search(text).start()
    row = len(text[: pos + 1].splitlines()) - 1
    line = text.splitlines(keepends=True)[row]
    raise PxyzFormatError(
        f"non-ASCII character, underscore or control character in {line!r}", line_number=row + 1
    )


def read_pxyz(path, ell: int | None = None, m: int | None = None) -> Nanotube:
    """Parse a PXYZ file; malformed content raises PxyzFormatError with the line number.

    ell and m restore the label structure when known; otherwise the tube is
    returned with ell = n // 4, m = 1 (labels then carry no geometric meaning).
    Raises InvalidParameterError for an ell or m below 1.
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
    # numpy's text reader converts each field with the string-to-double
    # routine float() uses, so the bits are float()'s; it skips blank lines and
    # warns when no row is left, so a blank first line is refused before it
    body = raw[1 : n + 1]
    pos = None
    if body[0].strip():
        try:
            pos = np.loadtxt(body, dtype=float, comments=None, ndmin=2)
        except ValueError:
            pass
    if pos is None or pos.shape != (n, 3) or not np.isfinite(pos).all():
        raise _coordinate_error(raw, n)
    extra = next((i for i in range(n + 1, len(raw)) if raw[i].strip()), None)
    if extra is not None:
        raise PxyzFormatError(f"unexpected line after {n} coordinate lines: {raw[extra]!r}", line_number=extra + 1)
    if ell is None or m is None:
        if n % 4 != 0:
            raise PxyzFormatError(f"atom count {n} is not a multiple of 4", line_number=1)
        ell, m = n // 4, 1
    elif ell < 1 or m < 1:
        raise InvalidParameterError(f"ell and m must be at least 1, got ell={ell}, m={m}")
    elif 4 * ell * m != n:
        raise PxyzFormatError(f"n={n} inconsistent with ell={ell}, m={m}", line_number=1)
    return Nanotube(pos, period, ell, m)
