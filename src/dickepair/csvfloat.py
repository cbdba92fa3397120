"""CSV rows of floats, each cell exactly as ``'%.17g' % (x + 0.0)`` writes it.

Seventeen digits take CPython's float formatting off its fast path into
big-integer arithmetic, about 0.7 us a cell. :func:`csv_rows` writes a block
of rows with a few numpy passes over all of its cells instead, and returns
the same bytes. Per cell x:

- k = floor(log10|x|), and y = |x| 10^(16 - k) is held as p + t: p is the
  rounded product with a (hi, lo) pair for 10^(16 - k), exact to about
  2^-106, and t is its rounding error by Dekker's two-product (Veltkamp
  splitting) plus |x| lo. The error of p + t is below 1e-14.
- The 17 significant digits are D = round(y), and the decimal exponent is
  X = k. The digits come from a 4-digit table; trailing zeros give the
  significant-digit count.
- The ``%g`` layout depends only on the notation class (fixed for
  -4 <= X <= 16, else scientific with a 2- or 3-digit exponent), the digit
  count and the sign. Every layout is a subsequence of one template of
  character slots, so a precomputed keep-mask per (class, count, sign) and
  one boolean compress per block give the row text with its separators.

A cell is certified when 1e-280 <= |x| <= 1e280, p + t lies in
[10^16, 10^17) and rounds below 10^17, and its fraction is more than 1e-9
from 1/2; zero prints as ``0``. Every other cell is written with ``%``:
NaN, infinities, subnormals, the rest of the exponent range, rounding ties
and near-ties, and a log10 that misses by one near a power of ten (the only
way y can round up to 10^17). So is every block of fewer than
KERNEL_MIN_CELLS cells, half a full block, where the kernel's fixed cost
and, in a fresh process, its table build outweigh what it saves. The
tables are built on first use, not at import.
"""
from __future__ import annotations

import functools

import numpy as np

__all__ = ["BLOCK_CELLS", "KERNEL_MIN_CELLS", "csv_rows"]

# CSV blocks hold about this many cells. A larger block spreads the
# kernel's fixed cost (about 0.1 ms) over more cells, but from about 2,000
# cells on its temporaries (about 0.4 kB a cell) are handed back to the
# system and faulted in again on every block: in a fresh process fig3 took
# 0.20 s at 1,024-1,536 cells and 0.24 s at 4,096.
BLOCK_CELLS = 1024
# Blocks of fewer cells take '%'. A CLI command is a fresh process, where
# the first kernel block also builds the tables (about 1 ms) and wins that
# back only from about 2,000 cells on; once they are built the kernel pays
# from about 192 cells. So a block smaller than any full block, which is a
# whole small table (oracle-check's 450 cells a size, a single point) or the
# last block of a large one, takes '%'. A full block of w columns holds at
# least BLOCK_CELLS - w + 1 cells, more than half of BLOCK_CELLS, and always
# takes the kernel.
KERNEL_MIN_CELLS = BLOCK_CELLS // 2

_CERTIFIED = (1e-280, 1e280)
# the error of p + t is below 1e-14; a fraction this close to 1/2 may be a tie
_TIE_MARGIN = 1e-9
_SPLITTER = 134217729.0  # 2^27 + 1
_E16, _E17 = 10**16, 10**17

# Template slots. Fixed notation with X >= 0 keeps d0..dX, the dot after dX
# and the fraction digits; with X < 0 it keeps "0.", -X - 1 zeros and the
# digits; scientific keeps d0, the dot after d0, the digits and the exponent.
_SIGN, _LEAD, _ZEROS = 0, 1, 3  # '-', "0.", "000"
_DIGITS = 6  # d_j at slot 6 + 2j, the dot after d_j at 7 + 2j
_EXP = 39  # 'e', exponent sign, three exponent digits
_SEP = 44
_WIDTH = 45
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 16 + b"0e+000,", dtype=np.uint8)
# notation classes: X + 4 for fixed, then scientific with 2 and 3 exponent digits
_SCI2, _SCI3 = 21, 22
_CLASSES = 23
# exponents X in [-_X_OFFSET, _X_OFFSET] index the exponent tables
_X_OFFSET = 300
_BASE5 = np.array([125, 25, 5, 1])
# keep-mask of a cell written with '%': its separator alone
_PERCENT = _CLASSES * 18 * 2


@functools.cache
def _pow10(k: int) -> tuple[float, float]:
    """(hi, lo) with hi + lo = 10^(16 - k) to about 2^-106."""
    q = 16 - k
    if q >= 0:
        exact = 10**q
        hi = float(exact)
        return hi, float(exact - int(hi))
    den = 10**-q
    hi = 1 / den
    num, pow2 = hi.as_integer_ratio()
    return hi, (pow2 - num * den) / (pow2 * den)


@functools.lru_cache(maxsize=64)
def _pow10_span(k_min: int, k_max: int) -> np.ndarray:
    """Rows hi, lo and the Veltkamp halves of hi, for k_min <= k <= k_max."""
    hi, lo = np.array([_pow10(k) for k in range(k_min, k_max + 1)]).T
    return np.stack([hi, lo, *_split(hi)])


@functools.cache
def _tables():
    """Lookup tables of the kernel, by 4-digit group, exponent and layout code.

    ascii4: the digits of 0..9999. zeros4: their trailing zeros (4 for 0).
    digit_count: 17 minus the trailing zeros of four groups, indexed by the
    groups' zeros4 in base 5. exp_chars and classes: the exponent sign and
    3 digits, and the notation class, of X at index X + _X_OFFSET. masks:
    the keep-mask of each layout code.
    """
    # axis i of a (10,) * 4 or (5,) * 4 grid is the i-th group digit
    axes = [(-1,) + (1,) * (3 - i) for i in range(4)]
    digit = np.arange(10)
    ascii4 = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for i, shape in enumerate(axes):
        ascii4[..., i] = (digit + ord("0")).reshape(shape)
    ascii4 = ascii4.reshape(-1, 4)
    a, b, c, d = (digit.reshape(shape) == 0 for shape in axes)
    zeros4 = (d * (1 + c * (1 + b * (1 + a)))).ravel()
    z1, z2, z3, z4 = (np.arange(5).reshape(shape) for shape in axes)
    tz = np.where(z4 < 4, z4, 4 + np.where(z3 < 4, z3, 4 + np.where(z2 < 4, z2, 4 + z1)))
    digit_count = (17 - tz).ravel()

    e = np.arange(-_X_OFFSET, _X_OFFSET + 1)
    exp_chars = np.column_stack([np.where(e < 0, ord("-"), ord("+")),
                                 ascii4[np.abs(e)][:, 1:]]).astype(np.uint8)
    classes = np.where((e >= -4) & (e <= 16), e + 4, np.where(np.abs(e) >= 100, _SCI3, _SCI2))

    cls = np.arange(_CLASSES)[:, None]
    nd = np.arange(18)[None, :]
    x = cls - 4
    fixed, pos, neg_x = cls < _SCI2, (cls < _SCI2) & (x >= 0), (cls < _SCI2) & (x < 0)
    sci = ~fixed
    keep = np.zeros((_CLASSES, 18, _WIDTH), dtype=bool)
    keep[..., _LEAD] = keep[..., _LEAD + 1] = neg_x
    for z in range(3):
        keep[..., _ZEROS + z] = neg_x & (z < -x - 1)
    for j in range(17):
        keep[..., _DIGITS + 2 * j] = (j < nd) | (pos & (j <= x))
    for j in range(16):
        keep[..., _DIGITS + 2 * j + 1] = ((pos & (j == x)) | (sci & (j == 0))) & (nd > j + 1)
    keep[..., _EXP:_EXP + 2] = sci[..., None]
    keep[..., _EXP + 2] = cls == _SCI3
    keep[..., _EXP + 3:_EXP + 5] = sci[..., None]
    keep[..., _SEP] = True
    signed = np.repeat(keep[:, :, None], 2, axis=2)
    signed[:, :, 1, _SIGN] = True
    percent = np.zeros((1, _WIDTH), dtype=bool)
    percent[0, _SEP] = True
    masks = np.concatenate([signed.reshape(-1, _WIDTH), percent])
    return ascii4, zeros4, digit_count, exp_chars, classes, masks


def _percent_rows(block: np.ndarray) -> str:
    row_format = ",".join(["%.17g"] * block.shape[1]) + "\n"
    # + 0.0 turns an exact -0.0 into 0.0 and leaves every other value alone;
    # a signaling NaN comes out quiet, as the kernel's Python + 0.0 gives it
    with np.errstate(invalid="ignore"):
        block = block + 0.0
    return "".join(row_format % tuple(row) for row in block.tolist())


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLITTER * v
    high = c - (c - v)
    return high, v - high


def _kernel_rows(block: np.ndarray) -> str:
    """The rows of ``block`` by the kernel; uncertified cells take '%'."""
    ascii4, zeros4, digit_count, exp_chars, classes, masks = _tables()
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=float).ravel()
    mag = np.abs(x)
    with np.errstate(invalid="ignore"):  # NaN compares False on every numpy
        in_range = (mag >= _CERTIFIED[0]) & (mag <= _CERTIFIED[1])
        zero, negative = x == 0, x < 0
    mag = np.where(in_range, mag, 1.0)
    k = np.floor(np.log10(mag)).astype(np.intp)
    k_min = int(k.min())
    hi, lo, h1, h2 = _pow10_span(k_min, int(k.max()))[:, k - k_min]
    p = mag * hi
    m1, m2 = _split(mag)
    t = ((m1 * h1 - p) + m1 * h2 + m2 * h1) + m2 * h2 + mag * lo
    whole = np.floor(t)
    frac = t - whole
    d = p.astype(np.int64) + whole.astype(np.int64)
    ok = in_range & (d >= _E16) & (np.abs(frac - 0.5) > _TIE_MARGIN)
    d += frac > 0.5
    ok &= d < _E17
    # zeros and '%' cells read D = 0, X = 0: the digits of "0"
    d = np.where(ok, d, 0)
    k = np.where(ok, k, 0)

    groups = np.empty((x.size, 5), dtype=np.int64)
    for i, scale in enumerate((_E16, 10**12, 10**8, 10**4)):
        groups[:, i] = d // scale
        d = d - groups[:, i] * scale
    groups[:, 4] = d
    # the 4-digit table gives "000d" for the leading digit, so the 17 digits
    # are the last 17 bytes of the five groups
    digits = np.take(ascii4, groups, axis=0).reshape(-1, 20)
    chars = np.tile(_TEMPLATE, (x.size, 1))
    chars.reshape(rows, cols, _WIDTH)[:, -1, _SEP] = ord("\n")
    chars[:, _DIGITS:_EXP:2] = digits[:, 3:]
    chars[:, _EXP + 1:_EXP + 5] = np.take(exp_chars, k + _X_OFFSET, axis=0)

    count = np.take(digit_count, np.take(zeros4, groups[:, 1:]) @ _BASE5)
    code = (np.take(classes, k + _X_OFFSET) * 18 + count) * 2 + negative
    done = ok | zero
    code[~done] = _PERCENT
    keep = np.take(masks, code, axis=0)
    text = np.compress(keep.ravel(), chars.ravel()).tobytes().decode("ascii")
    if done.all():
        return text
    # a '%' cell wrote its separator alone; its text goes in front of it
    ends = np.cumsum(keep.sum(axis=1))
    pieces, prev = [], 0
    for i in np.flatnonzero(~done):
        at = int(ends[i]) - 1
        pieces += [text[prev:at], "%.17g" % (float(x[i]) + 0.0)]
        prev = at
    pieces.append(text[prev:])
    return "".join(pieces)


def csv_rows(block: np.ndarray) -> str:
    """CSV text of a 2-D float block, one line per row.

    Byte for byte what ``",".join("%.17g" % (v + 0.0) for v in row) + "\\n"``
    gives for each row: with the kernel from KERNEL_MIN_CELLS cells on, with
    ``%`` below that.
    """
    if block.size < KERNEL_MIN_CELLS:
        return _percent_rows(block)
    return _kernel_rows(block)
