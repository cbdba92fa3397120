"""CSV float cells: the numpy kernel writes what ``'%.17g' %`` writes."""
import warnings

import numpy as np

from dickepair import csvfloat
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
