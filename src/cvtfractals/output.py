"""Decimal text encoding of integer arrays and atomic file writes.

Every writer of the package goes through `write_chunks`, and every ASCII
integer grid it writes (PBM/PGM pixels, CSV tables and cell lists) is spelled
by `ascii_rows`, so one encoder decides the bytes of all of them.
"""

from __future__ import annotations

import os
import stat
from typing import Iterable

import numpy as np

# values encoded per block: bounds the working memory to a few MB per call
BLOCK_VALUES = 1 << 18
# maxima below this are spelled once into a lookup table, then gathered
_TABLE_LIMIT = 1 << 16


def _spell(values: np.ndarray, width: int, sep: int) -> np.ndarray:
    """(n, width) uint8 rows: decimal digits right-aligned before a sep byte.

    Bytes left of the leading digit stay 0, which no output byte can be.
    """
    out = np.zeros((values.size, width), dtype=np.uint8)
    out[:, -1] = sep
    rest = values.astype(np.int64)
    np.add(rest % 10, ord("0"), out=out[:, -2], casting="unsafe")
    rest //= 10
    for col in range(width - 3, -1, -1):
        np.copyto(out[:, col], rest % 10 + ord("0"), casting="unsafe", where=rest > 0)
        rest //= 10
    return out


def ascii_rows(values, sep: str) -> Iterable[bytes]:
    """Yield the lines of a 2D non-negative integer array as ASCII bytes blocks.

    Each row's decimal values are joined by `sep` and the row ends with a
    newline; a row of no values is an empty line. Blocks hold BLOCK_VALUES
    values, so a block may end in the middle of a row.
    """
    values = np.ascontiguousarray(values)
    rows, cols = values.shape
    if not values.size:
        yield b"\n" * rows
        return
    if not np.issubdtype(values.dtype, np.integer) or values.min() < 0:
        raise ValueError("ascii_rows encodes non-negative integers only")
    flat = values.reshape(-1)
    top = int(flat.max())
    ndig = len(str(top))
    if top < _TABLE_LIMIT:
        # whole rows of a power-of-two width gather as single machine words
        width = 1 << ndig.bit_length()
        table = _spell(np.arange(top + 1), width, ord(sep)).view(f"u{width}").reshape(-1)
    else:
        width, table = ndig + 1, None
    for start in range(0, flat.size, BLOCK_VALUES):
        chunk = flat[start : start + BLOCK_VALUES]
        if table is None:
            buf = _spell(chunk, width, ord(sep))
        else:
            buf = table[chunk].view(np.uint8).reshape(-1, width)
        buf[(cols - 1 - start) % cols :: cols, -1] = ord("\n")
        out = buf.reshape(-1)
        # one-digit values fill every byte; otherwise drop the 0 padding
        yield (out if width == 2 else out[out != 0]).tobytes()


def write_chunks(path, chunks: Iterable[bytes]) -> None:
    """Write the chunks to path atomically: all of them or, on any error, none.

    The bytes go to a temporary file beside the target, which then replaces
    it, so a failed write leaves the old file (or no file) and no temporary.
    The file gets the mode that open(path, "w") would give it. A target that
    exists and is not a regular file (a FIFO, /dev/stdout) is written directly.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        return
    # replace the file a symlink points to, not the link, as open() would
    target = os.path.realpath(path)
    directory, name = os.path.split(target)
    while True:
        tmp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
        try:
            # like open(), this applies the umask to 0o666
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            exc.filename = os.fspath(path)  # name the target, not the temporary file
            raise
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))  # open() keeps an existing file's mode
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
