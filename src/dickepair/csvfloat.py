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
  X = k. The digits come from a 4-digit table; the trailing zeros of the
  last 4-digit group give the digit count, and only where that group is
  0000 do the others.
- The ``%g`` layout depends only on the notation class (fixed for
  -4 <= X <= 16, else scientific with a 2- or 3-digit exponent), the digit
  count and the sign. Each is a subsequence of one row of slots: the sign,
  "0.", "000", the 17 digits, a dot slot after each digit that some cell of
  the block puts its dot behind (d_X for fixed notation with X >= 0, d0 for
  scientific), the exponent and the separator. A keep-mask per (class,
  count, sign) and one boolean compress per block give the row text with
  its separators. The row and its masks come from a small cache keyed by
  the block's dots: fig3's blocks, with dots after d0 and d1, take 31
  slots a cell (padded to 32), where a dot slot after every digit took 45.
  Exponent characters are written only into scientific cells.

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
# kernel's fixed cost (about 70 us) over more cells, but its temporaries
# (a peak of about 0.3 kB a cell, most of it the compress's index array)
# stay resident as part of the peak. With the CLI keeping freed memory in
# the process, so that no block faults its pages in again, fig3's benchmark
# wall time read 0.145 s at 1,024 cells, 0.124 s at 2,048 and 0.107 s at
# 4,096 (medians of 4 runs on a 2-vCPU machine), and its peak RSS 34.33,
# 34.37 and 34.91 MB: 4,096 cells cost 1.6% more memory.
BLOCK_CELLS = 2048
# Blocks of fewer cells take '%'. A CLI command is a fresh process, where
# the first kernel block also builds the tables and its layout (about
# 0.6 ms) and wins that back only from about 2,000 cells on; once they are
# built the kernel pays from about 200 cells. So a block smaller than any
# full block, which is a whole small table (oracle-check's 450 cells a
# size, a single point) or the last block of a large one, takes '%'. A full
# block of w columns holds at least BLOCK_CELLS - w + 1 cells, more than
# half of BLOCK_CELLS, and always takes the kernel.
KERNEL_MIN_CELLS = BLOCK_CELLS // 2

_CERTIFIED = (1e-280, 1e280)
# the error of p + t is below 1e-14; a fraction this close to 1/2 may be a tie
_TIE_MARGIN = 1e-9
_SPLITTER = 134217729.0  # 2^27 + 1
_E16, _E17 = 10**16, 10**17

# The slots a row takes from, in order: '-', "0.", "000", digit d_j at
# _DIGITS + j, the dot after d_j at _DOTS + j, "e+000", the separator and a
# padding slot. A row of fewer than 32 slots is padded to 32, which np.take
# copies by a fixed-size move, 2.5 times as fast as 31 bytes.
_SIGN, _LEAD, _ZEROS, _DIGITS, _DOTS, _EXP, _SEP, _PAD = 0, 1, 3, 6, 23, 40, 45, 46
_SLOTS = np.frombuffer(b"-0.000" + b"0" * 17 + b"." * 17 + b"e+000, ", dtype=np.uint8)
# notation classes: X + 4 for fixed, then scientific with 2 and 3 exponent
# digits; a layout code is (class * 18 + digit count) * 2 + sign, and the
# last code, a '%' cell's, keeps its separator alone
_SCI2, _SCI3 = 21, 22
_PERCENT = 23 * 18 * 2


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


@functools.cache
def _tables():
    """The kernel's tables: ascii4, the digits of 0..9999 as uint32; zeros4,
    their trailing zeros (4 for 0); tail_zeros, those of a D whose last
    group is 0000, by the other groups' zeros4 in base 5; keep, each layout
    code's keep-mask over _SLOTS; dot_bits, its dots, bit j for d_j's.
    """
    # axis i of a (10,) * 4 or (5,) * 4 grid is the i-th group digit
    axes = [(-1,) + (1,) * (3 - i) for i in range(4)]
    digit = np.arange(10)
    chars = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for i, shape in enumerate(axes):
        chars[..., i] = (digit + ord("0")).reshape(shape)
    ascii4 = chars.reshape(-1, 4).view(np.uint32).ravel()
    a, b, c, d = (digit.reshape(shape) == 0 for shape in axes)
    zeros4 = (d * (1 + c * (1 + b * (1 + a)))).ravel()
    z1, z2, z3 = (np.arange(5).reshape(shape) for shape in axes[1:])
    tail_zeros = (4 + np.where(z3 < 4, z3, 4 + np.where(z2 < 4, z2, 4 + z1))).ravel()

    # (class, digit count, sign, slot)
    cls = np.arange(23)[:, None, None, None]
    nd = np.arange(18)[None, :, None, None]
    negative = np.arange(2)[None, None, :, None]
    j = np.arange(17)
    x = cls - 4
    fixed, sci = cls < _SCI2, cls >= _SCI2
    pos, neg_x = fixed & (x >= 0), fixed & (x < 0)
    keep = np.zeros((23, 18, 2, _PAD + 1), dtype=bool)
    keep[..., _SIGN:_LEAD] = negative == 1
    keep[..., _LEAD:_ZEROS] = neg_x
    keep[..., _ZEROS:_DIGITS] = neg_x & (np.arange(3) < -x - 1)
    keep[..., _DIGITS:_DOTS] = (j < nd) | (pos & (j <= x))
    keep[..., _DOTS:_EXP] = ((pos & (j == x)) | (sci & (j == 0))) & (nd > j + 1)
    keep[..., _EXP:_EXP + 2] = sci
    keep[..., _EXP + 2] = (cls == _SCI3)[..., 0]
    keep[..., _EXP + 3:_SEP] = sci
    keep[..., _SEP] = True
    percent = np.zeros((1, _PAD + 1), dtype=bool)
    percent[0, _SEP] = True
    keep = np.concatenate([keep.reshape(-1, _PAD + 1), percent])
    dot_bits = keep[:, _DOTS:_EXP] @ (1 << np.arange(17))
    return ascii4, zeros4, tail_zeros, keep, dot_bits


@functools.lru_cache(maxsize=64)
def _exponent_span(k_min: int, k_max: int):
    """Per k - k_min: hi, lo and hi's Veltkamp halves; the layout code of
    X = k with 17 digits; the exponent sign and digits as one uint32.
    """
    k = np.arange(k_min, k_max + 1)
    hi, lo = np.array([_pow10(int(v)) for v in k]).T
    cls = np.where((k >= -4) & (k <= 16), k + 4, np.where(np.abs(k) >= 100, _SCI3, _SCI2))
    exp4 = np.take(_tables()[0], np.abs(k)).view(np.uint8).reshape(-1, 4).copy()
    exp4[:, 0] = np.where(k < 0, ord("-"), ord("+"))
    return np.column_stack([hi, lo, *_split(hi)]), cls * 36 + 34, exp4.view(np.uint32).ravel()


@functools.lru_cache(maxsize=16)
def _layout(dots: int):
    """Characters, keep-masks, digit runs, exponent-sign and separator slots
    of the row with a dot slot after each d_j whose bit j is set in ``dots``.

    A run (first, stop, slot) puts d_first..d_stop-1 in slots from ``slot`` on.
    """
    order, runs, first = [*range(_DIGITS)], [], 0
    for j in range(17):
        order.append(_DIGITS + j)
        if dots >> j & 1 or j == 16:
            runs.append((first, j + 1, len(order) + first - j - 1))
            order += [_DOTS + j] * (dots >> j & 1)
            first = j + 1
    order += [*range(_EXP, _SEP + 1)] + [_PAD] * (32 - 6 - len(order))
    keep = np.ascontiguousarray(_tables()[3][:, order])
    return _SLOTS[order], keep, runs, order.index(_EXP) + 1, order.index(_SEP)


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
    ascii4, zeros4, tail_zeros, _, dot_bits = _tables()
    rows, cols = block.shape
    x = np.ascontiguousarray(block, dtype=float).ravel()
    mag = np.abs(x)
    with np.errstate(invalid="ignore"):  # NaN compares False on every numpy
        in_range = (mag >= _CERTIFIED[0]) & (mag <= _CERTIFIED[1])
        zero, negative = x == 0, x < 0
    # zeros and '%' cells read X = 0
    mag = np.where(in_range, mag, 1.0)
    at = np.floor(np.log10(mag)).astype(np.intp)
    k_min = int(at.min())
    powers, class_code, exp4 = _exponent_span(k_min, int(at.max()))
    at -= k_min
    hi, lo, h1, h2 = np.take(powers, at, axis=0).T
    p = mag * hi
    m1, m2 = _split(mag)
    t = ((m1 * h1 - p) + m1 * h2 + m2 * h1) + m2 * h2 + mag * lo
    whole = np.floor(t)
    frac = t - whole
    d = p.astype(np.int64) + whole.astype(np.int64)
    ok = in_range & (d >= _E16) & (np.abs(frac - 0.5) > _TIE_MARGIN)
    d += frac > 0.5
    ok &= d < _E17
    # each stage's temporaries go before the next one's are made, so a block
    # peaks at the text stage, mostly in the compress's index array
    del mag, hi, lo, h1, h2, p, m1, m2, t, whole, frac
    # zeros and '%' cells read D = 0: the digits of "0"
    d = np.where(ok, d, 0)
    groups = np.empty((5, x.size), dtype=np.int64)
    for i, scale in enumerate((_E16, 10**12, 10**8, 10**4)):
        groups[i] = d // scale
        d = d - groups[i] * scale
    groups[4] = d

    # trailing zeros of D; past the last group only where it is 0000
    zeros = np.take(zeros4, groups[4])
    (tail,) = np.nonzero(groups[4] == 0)
    z1, z2, z3 = np.take(zeros4, np.take(groups[1:4], tail, axis=1))
    zeros[tail] = np.take(tail_zeros, (z1 * 5 + z2) * 5 + z3)
    cls = np.take(class_code, at)
    code = cls - 2 * zeros  # digit count 17 - zeros
    code += negative
    percent = ~(ok | zero)
    code[percent] = _PERCENT
    # the 4-digit table gives "000d" for the leading digit, so the 17 digits
    # are the last 17 bytes of the five groups
    digits = np.take(ascii4, groups).T.copy().view(np.uint8)[:, 3:]
    del d, groups, zeros

    # a dot slot after each digit that some cell of the block puts its dot behind
    template, masks, runs, exp, sep = _layout(int(np.bitwise_or.reduce(np.take(dot_bits, code))))
    chars = np.repeat(template[None], x.size, axis=0)
    chars.reshape(rows, cols, -1)[:, -1, sep] = ord("\n")
    for first, stop, slot in runs:
        chars[:, slot:slot + stop - first] = digits[:, first:stop]
    del digits
    (sci,) = np.nonzero(cls >= _SCI2 * 36)
    chars[sci, exp:exp + 4] = np.take(exp4, at[sci]).view(np.uint8).reshape(-1, 4)
    keep = np.take(masks, code, axis=0)
    text = np.compress(keep.ravel(), chars.ravel()).tobytes().decode("ascii")
    if not percent.any():
        return text
    # a '%' cell wrote its separator alone; its text goes in front of it
    ends = np.cumsum(keep.sum(axis=1))
    pieces, prev = [], 0
    for i in np.flatnonzero(percent):
        end = int(ends[i]) - 1
        pieces += [text[prev:end], "%.17g" % (float(x[i]) + 0.0)]
        prev = end
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
