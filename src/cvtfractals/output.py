"""Decimal text encoding of integer arrays and atomic file writes.

Every writer of the package goes through `write_chunks`. Every ASCII integer
grid it writes (PBM/PGM pixels, CSV tables, cell and note lists) is spelled by
`ascii_rows`, a block of whole rows at a time.
"""

from __future__ import annotations

import errno
import os
import stat
from typing import Iterable

import numpy as np

# values encoded per block, in whole rows (one row if wider): a few MB of buffers,
# which each block after the first reuses from the heap instead of faulting in anew
BLOCK_VALUES = 1 << 16
# maxima below this are spelled once into a table of ndig + 1 byte items, then gathered
_TABLE_LIMIT = 1 << 16
# wider values are spelled in groups of three decimal digits
_GROUP = 10**3


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


def ascii_rows(count: int, cols: int, top, block, sep: str) -> Iterable[bytes]:
    """Yield the ASCII lines of `count` rows of `cols` integers in [0, top], a block of whole
    rows at a time: block(rows) builds the slice `rows` of them, BLOCK_VALUES values or one row.

    Each row's decimal values are joined by `sep` and end with a newline; a row of no values
    is an empty line. top bounds every value, or is a sequence of one bound per column: a
    grid whose largest bound is below _TABLE_LIMIT is spelled for that bound, and a wider
    one in three-digit groups, each column in as many as its own bound needs. Nothing tests
    the values here, and every bound is below 2**63: RasterImage, CellSet and Notes check
    theirs, CvTable and arange compute theirs.
    """
    if not cols:
        yield b"\n" * count
        return
    tops = [top] if np.ndim(top) == 0 else list(top)
    bound = max(tops)
    ndig = len(str(bound))
    wide = bound >= _TABLE_LIMIT
    if not wide:
        # a value's digits and its separator, in exactly ndig + 1 bytes, gather as one item
        width = ndig + 1
        row = cols * width
        spelled = np.full((bound + 1, width), ord(sep), dtype=np.uint8)
        spelled[:, :-1] = _spell(np.arange(bound + 1), ndig)
        table = spelled.view(f"V{width}").reshape(-1)
        # a digit and its separator are one little-endian 16-bit word, digit byte first
        digit_word = ord(sep) << 8 | ord("0")
    else:
        # a value is groups of three digits, each in a 4-byte word whose last byte is
        # the separator in the lowest group and padding above it: index g holds g
        # bare, _GROUP + g holds g zero-padded; one bound for every value spells the
        # grid as one column
        groups = [-(-len(str(t)) // 3) for t in tops]
        row = 4 * sum(groups) * cols // len(tops)
        index = np.arange(_GROUP)
        spelled = np.concatenate((_spell(index, 3), _spell(index, 3, ord("0"))))
        lowest = np.column_stack((spelled, np.full(2 * _GROUP, ord(sep), np.uint8)))
        upper = np.column_stack((np.zeros(2 * _GROUP, np.uint8), spelled))
        lowest, upper = lowest.view("u4")[:, 0], upper.view("u4")[:, 0]
        upper[0] = 0  # a zero above the leading group spells nothing
    step = max(1, BLOCK_VALUES // cols)
    for start in range(0, count, step):
        chunk = block(slice(start, start + step))
        if wide:
            chunk = chunk.reshape(-1, len(tops))
            words = np.empty((chunk.shape[0], sum(groups)), dtype=np.uint32)
            first = 0
            for col, (col_top, n) in enumerate(zip(tops, groups)):
                # groups are split in 32-bit arithmetic when the column's bound fits it
                rest = chunk[:, col].astype(np.uint32 if col_top < 2**32 else np.uint64)
                for g in range(n - 1, 0, -1):
                    high = rest // _GROUP
                    # bare below _GROUP, else the low group padded: _GROUP + rest % _GROUP;
                    # in place, as fresh temporaries cost more than the arithmetic
                    slot = high * _GROUP
                    np.subtract(rest, slot, out=slot)
                    slot += _GROUP
                    np.minimum(slot, rest, out=slot)
                    words[:, first + g] = np.take(upper if g < n - 1 else lowest, slot)
                    rest = high
                # the leading group is below _GROUP: its own index, with no division
                words[:, first] = np.take(upper if n > 1 else lowest, rest)
                first += n
            buf = words.view(np.uint8).reshape(-1)
        elif ndig == 1:
            # an add per value costs a fraction of a gather
            buf = chunk.reshape(-1).astype("<u2")
            buf += digit_word
            buf = buf.view(np.uint8)
        else:
            buf = np.take(table, chunk.reshape(-1)).view(np.uint8)
        buf[row - 1 :: row] = ord("\n")
        out = buf.tobytes()
        # one-digit values fill every byte; otherwise drop the 0 padding
        yield out if ndig == 1 and not wide else out.translate(None, b"\0")


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
