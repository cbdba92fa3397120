"""CSV float cells: the numpy kernel writes what ``'%.17g' %`` writes."""
import decimal
import io
import random
import tracemalloc
import warnings

import numpy as np

from dickepair import cli, csvfloat
from helpers import check_g17


def test_kernel_matches_percent_g17_on_random_bits_and_edges():
    check_g17(100_000, seed=20261019)


def test_blocks_on_both_sides_of_the_break_even_match_percent():
    rng = np.random.default_rng(7)
    # 9 columns, the width of a sweep's records: one row short of the
    # break-even, then the first row count past it
    for rows in (csvfloat.KERNEL_MIN_CELLS // 9, csvfloat.KERNEL_MIN_CELLS // 9 + 1):
        cells = 9 * rows
        block = (rng.standard_normal(cells) * 10.0 ** rng.integers(-30, 30, cells)).reshape(-1, 9)
        block[0, :3] = (-0.0, 0.0, np.nan)
        expected = "".join(",".join("%.17g" % (v + 0.0) for v in row) + "\n"
                           for row in block.tolist())
        assert csvfloat.csv_rows(block) == expected


def test_signaling_nans_under_the_break_even_write_quietly():
    # quiet and signaling NaNs of both signs, among ordinary cells, in a
    # block that '%' writes
    bits = np.array([0x7FF0000000000001, 0xFFF0000000000001, 0x7FF4000000000000,
                     0x7FF8000000000000, 0x3FF8000000000000, 0x8000000000000000],
                    dtype=np.uint64)
    block = bits.view(float).reshape(2, 3)
    assert block.size < csvfloat.KERNEL_MIN_CELLS
    expected = "".join(",".join("%.17g" % (v + 0.0) for v in row) + "\n"
                       for row in block.tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert csvfloat.csv_rows(block) == expected


def _percent_text(block):
    return "".join(",".join("%.17g" % (v + 0.0) for v in row) + "\n" for row in block.tolist())


# the notation classes of '%.17g': fixed for each X in -4..16, then
# scientific with a 2- and with a 3-digit exponent, by the exponents tried
NOTATION_CLASSES = [(x,) for x in range(-4, 17)] + [(-5, 17, -99, 99, -42), (-100, 100, -280, 279)]


def _value_of_layout(exponents, count, rng):
    """A float that '%.17g' writes with ``count`` digits and an exponent among ``exponents``."""
    for _ in range(10_000):
        x = rng.choice(exponents)
        digits = "".join(str(rng.randrange(1, 10) if i in (0, count - 1) else rng.randrange(10))
                         for i in range(count))
        value = float(f"{digits}e{x - count + 1}")
        text = decimal.Decimal("%.17g" % value)
        if text.adjusted() in exponents and len(text.normalize().as_tuple().digits) == count:
            return value
    raise AssertionError(f"no value with {count} digits at exponents {exponents}")


def _recording_layouts(monkeypatch):
    dot_sets, layout = [], csvfloat._layout
    monkeypatch.setattr(csvfloat, "_layout", lambda dots: dot_sets.append(dots) or layout(dots))
    return dot_sets


def test_every_notation_class_digit_count_and_sign_in_one_block(monkeypatch):
    rng = random.Random(33)
    values = [sign * _value_of_layout(exponents, count, rng)
              for exponents in NOTATION_CLASSES for count in range(1, 18) for sign in (1, -1)]
    values += [0.0, -0.0]
    block = np.array(values + [1.0] * (-len(values) % 7)).reshape(-1, 7)
    dot_sets = _recording_layouts(monkeypatch)
    assert csvfloat._kernel_rows(block) == _percent_text(block)
    # a dot after each of d0..d15 (fixed X = 0..15, and d0 for scientific);
    # no cell has digits past d16 to put a dot in front of
    assert dot_sets == [(1 << 16) - 1]


def test_consecutive_blocks_switch_layouts(monkeypatch):
    rng = np.random.default_rng(34)

    def cells(*decades):
        x = rng.uniform(1.0, 10.0, 2044) * 10.0 ** rng.choice(decades, 2044)
        return (x * rng.choice([-1.0, 1.0], 2044)).reshape(-1, 7)

    blocks = [cells(0), cells(2, 5), cells(-3, -2), cells(*range(-30, 30)), cells(0)]
    dot_sets = _recording_layouts(monkeypatch)
    for block in blocks:
        assert csvfloat._kernel_rows(block) == _percent_text(block)
    # dots after d0; after d2 and d5; none ("0.00d..."); after d0..d15
    # (45 slots, past the 32-slot padding); after d0 again, from the cache
    assert dot_sets == [0b1, 0b100100, 0, (1 << 16) - 1, 0b1]


def test_a_multi_block_table_writes_each_cell_as_percent_g17():
    rng = np.random.default_rng(35)
    rows = 3 * (csvfloat.BLOCK_CELLS // 9) + 5  # three full blocks, then a short one in '%'
    columns = [np.linspace(-20.0, 5.0, rows), np.arange(rows, dtype=float)]
    columns += [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows) for _ in range(7)]
    columns[2][:5] = (0.0, -0.0, np.nan, -np.inf, 5e-324)
    out = io.StringIO()
    # every block is held before the first is written: none may be reused
    blocks = list(cli._column_blocks(columns))
    cli._write_csv(out, ["meta"], [f"c{j}" for j in range(9)], blocks)
    lines = out.getvalue().split("\n")
    assert lines[:2] == ["# meta", ",".join(f"c{j}" for j in range(9))] and lines[-1] == ""
    expected = [["%.17g" % (float(col[i]) + 0.0) for col in columns] for i in range(rows)]
    assert [line.split(",") for line in lines[2:-1]] == expected


# tracemalloc peak of one full block through the kernel, per cell: 316
# bytes on numpy 2.4, most of it the index array of the compress (a dot
# slot after every digit, with the block's float temporaries held to the
# end, read 469); the bound leaves about 110 KB for allocations that numpy
# versions make differently
def test_peak_allocation_of_a_full_block():
    rng = np.random.default_rng(36)
    cells = csvfloat.BLOCK_CELLS
    block = (rng.standard_normal(cells) * 10.0 ** rng.integers(-20, 20, cells)).reshape(-1, 8)
    csvfloat._kernel_rows(block)  # builds the tables and this block's layout
    tracemalloc.start()
    try:
        csvfloat._kernel_rows(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 370 * cells, peak / cells
