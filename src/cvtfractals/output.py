"""Decimal text encoding of integer arrays and atomic file writes.

Every writer of the package goes through `write_chunks`, and every ASCII
integer grid it writes (PBM/PGM pixels, CSV tables and cell lists) is spelled
by `ascii_rows`, so one encoder decides the bytes of all of them.
"""

from __future__ import annotations

import errno
import os
import stat
from typing import Iterable

import numpy as np

# values encoded per block: a few MB of buffers, which each block after the
# first gets back from the heap instead of faulting them in again
BLOCK_VALUES = 1 << 16
# maxima below this are spelled once into a lookup table, then gathered
_TABLE_LIMIT = 1 << 16
# wider values are spelled in groups of four decimal digits
_GROUP = 10**4


def _spell(values: np.ndarray, width: int, fill: int = 0) -> np.ndarray:
    """(n, width) uint8 rows: decimal digits right-aligned after `fill` bytes.

    A fill of 0 is padding, which no output byte can be.
    """
    out = np.full((values.size, width), fill, dtype=np.uint8)
    rest = values.astype(np.int64)
    np.add(rest % 10, ord("0"), out=out[:, -1], casting="unsafe")
    rest //= 10
    for col in range(width - 2, -1, -1):
        np.copyto(out[:, col], rest % 10 + ord("0"), casting="unsafe", where=rest > 0)
        rest //= 10
    return out


def ascii_rows(values: np.ndarray, sep: str) -> Iterable[bytes]:
    """Yield the lines of a 2D array of integers in [0, 2**63 - 1] as ASCII bytes blocks.

    Each row's decimal values are joined by `sep` and the row ends with a
    newline; a row of no values is an empty line. Blocks hold BLOCK_VALUES
    values, so a block may end in the middle of a row. Nothing tests the values
    here: RasterImage, CellSet and Notes check theirs, CvTable and arange compute theirs.
    """
    values = np.ascontiguousarray(values)
    rows, cols = values.shape
    if not values.size:
        yield b"\n" * rows
        return
    flat = values.reshape(-1)
    top = int(flat.max())
    ndig = len(str(top))
    wide = top >= _TABLE_LIMIT
    if not wide:
        # a value and its separator, in a power-of-two width, gather as one machine word
        width = 1 << ndig.bit_length()
        spelled = np.full((top + 1, width), ord(sep), dtype=np.uint8)
        spelled[:, :-1] = _spell(np.arange(top + 1), width - 1)
        table = spelled.view(f"u{width}").reshape(-1)
        # a digit and its separator are one little-endian 16-bit word, digit byte first
        digit_word = ord(sep) << 8 | ord("0")
    else:
        # a value is groups of four digits in 4-byte words, then a separator word:
        # index g holds g bare, _GROUP + g holds g zero-padded
        groups = -(-ndig // 4)
        width = 4 * (groups + 1)
        index = np.arange(_GROUP)
        lowest = np.concatenate((_spell(index, 4), _spell(index, 4, ord("0")))).view("u4")[:, 0]
        upper = lowest.copy()
        upper[0] = 0  # a zero above the leading group spells nothing
        sep_word = np.array([0, 0, 0, ord(sep)], dtype=np.uint8).view("u4")
    for start in range(0, flat.size, BLOCK_VALUES):
        chunk = flat[start : start + BLOCK_VALUES]
        if width == 2:
            # an add per value costs a fraction of a gather
            buf = chunk.astype("<u2")
            buf += digit_word
            buf = buf.view(np.uint8).reshape(-1, width)
        elif not wide:
            buf = np.take(table, chunk).view(np.uint8).reshape(-1, width)
        else:
            words = np.empty((chunk.size, groups + 1), dtype=np.uint32)
            words[:, -1:] = sep_word
            rest = chunk.astype(np.int64, copy=False)
            for col in range(groups - 1, -1, -1):
                high = rest // _GROUP
                # bare below _GROUP, else the low group padded: _GROUP + rest % _GROUP
                slot = np.minimum(rest, rest - (high - 1) * _GROUP)
                words[:, col] = (upper if col < groups - 1 else lowest)[slot]
                rest = high
            buf = words.view(np.uint8)
        buf[(cols - 1 - start) % cols :: cols, -1] = ord("\n")
        out = buf.tobytes()
        # one-digit values fill every byte; otherwise drop the 0 padding
        yield out if width == 2 else out.translate(None, b"\0")


def write_chunks(path, chunks: Iterable[bytes]) -> None:
    """Write the chunks to path atomically: all of them or, on any error, none.

    The bytes go to a temporary file beside the target, which then replaces
    it, so a failed write leaves the old file (or no file) and no temporary.
    The file gets the mode that open(path, "w") would give it. A target that
    exists and is not a regular file (a FIFO, /dev/stdout) is written directly.
    An empty path, or one ending in a separator, names no file and is refused
    with the error open() gives, before anything is created. A bytes path is
    decoded as os.fsdecode does, so the temporary's name can be built from it.
    """
    path = os.fsdecode(path)
    if not os.path.basename(path):
        # it names no file: refused as open() refuses it, before any temporary is made
        code = errno.EISDIR if path else errno.ENOENT
        raise OSError(code, os.strerror(code), path)
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "wb") as fh:
            fh.writelines(chunks)
        return
    # replace the file a symlink points to, not the link, as open() would; any other
    # path is kept as given, so "missing/../x" fails as in open() instead of writing x
    target = os.path.realpath(path) if os.path.islink(path) else path
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
            exc.filename = path  # name the target, not the temporary file
            raise
    try:
        with open(fd, "wb") as fh:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))  # open() keeps an existing file's mode
            fh.writelines(chunks)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
