"""Property tests for the many-short-rows CRC engine.

``crc32c_rows`` checksums every row of a byte matrix with positional
tables below a row-count crossover and with the lane engine above it;
``crc32c_rows_prepend_u32`` folds a row's first four bytes into the CRC
of the rest. Both must equal :func:`crc32c` of the bytes on either side
of the crossover and of the table cap.
"""

import struct
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.common import checksum
from repro.common.checksum import crc32c, crc32c_rows, crc32c_rows_prepend_u32
from repro.wire.record import encode_keyless_value, encode_keyless_values_with_crcs

CROSSOVER = checksum._ROW_TABLE_MAX_ROWS
CAP = checksum._ROW_TABLE_MAX_BYTES

#: Row counts just below and just above the crossover, plus small ones.
ROW_COUNTS = st.one_of(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=CROSSOVER - 3, max_value=CROSSOVER + 3),
)


@contextmanager
def empty_row_table_cache():
    """Run with no cached width, so a width under the cap gets a table
    however many widths earlier tests cached."""
    saved = dict(checksum._ROW_TABLES)
    checksum._ROW_TABLES.clear()
    try:
        yield
    finally:
        checksum._ROW_TABLES.clear()
        checksum._ROW_TABLES.update(saved)


def random_rows(count, width, seed):
    return np.random.default_rng(seed).integers(0, 256, (count, width), dtype=np.uint8)


@settings(max_examples=60, deadline=None)
@given(
    count=ROW_COUNTS,
    width=st.integers(min_value=1, max_value=CAP),
    start_frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rows_equal_crc32c_of_each_row(count, width, start_frac, seed):
    rows = random_rows(count, width, seed)
    start = int(start_frac * width)
    with empty_row_table_cache():
        got = crc32c_rows(rows, start)
        # Under the crossover the tables ran (and cached the width).
        assert (width in checksum._ROW_TABLES) == (count < CROSSOVER)
    assert got.dtype == np.uint32 and got.shape == (count,)
    assert got.tolist() == [crc32c(bytes(row[start:])) for row in rows]


@settings(max_examples=25, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=64),
    width=st.integers(min_value=CAP + 1, max_value=CAP + 80),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rows_over_the_cap_take_the_lane_engine(count, width, seed):
    rows = random_rows(count, width, seed)
    with empty_row_table_cache():
        got = crc32c_rows(rows, 4)
        assert checksum._ROW_TABLES == {}
    assert got.tolist() == [crc32c(bytes(row[4:])) for row in rows]


def test_full_cache_falls_back_to_the_lane_engine():
    rows = random_rows(40, 100, 7)
    with empty_row_table_cache():
        for width in range(1, checksum._ROW_TABLES_MAX + 1):
            checksum._row_tables(width)
        assert 100 not in checksum._ROW_TABLES
        got = crc32c_rows(rows, 4)
        assert 100 not in checksum._ROW_TABLES
    assert got.tolist() == [crc32c(bytes(row[4:])) for row in rows]


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=40),
    width=st.integers(min_value=5, max_value=CAP + 40),
    cached=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_prepend_u32_composes_the_whole_row_crc(count, width, cached, seed):
    rows = random_rows(count, width, seed)
    words = rows[:, :4].copy().view("<u4").reshape(count)
    tails = np.array([crc32c(bytes(row[4:])) for row in rows], dtype=np.uint32)
    with empty_row_table_cache():
        if not cached:
            # A full cache: no table for this width, the shift path runs.
            for other in range(1, checksum._ROW_TABLES_MAX + 1):
                checksum._row_tables(other if other != width else CAP)
        got = crc32c_rows_prepend_u32(words, tails, width)
    assert got.tolist() == [crc32c(bytes(row)) for row in rows]


@settings(max_examples=40, deadline=None)
@given(
    count=st.one_of(
        st.integers(min_value=8, max_value=200),
        st.integers(min_value=CROSSOVER - 2, max_value=CROSSOVER + 2),
    ),
    value_len=st.integers(min_value=0, max_value=CAP),
    seed=st.integers(min_value=0, max_value=255),
)
def test_encoder_full_frame_crcs_equal_crc32c_of_each_record(count, value_len, seed):
    values = [bytes(row) for row in random_rows(count, value_len, seed)]
    payload, crcs = encode_keyless_values_with_crcs(values)
    records = [encode_keyless_value(v) for v in values]
    assert payload == b"".join(records)
    assert crcs.tolist() == [crc32c(r) for r in records]
    stored = [struct.unpack_from("<I", r)[0] for r in records]
    assert stored == [crc32c(r[4:]) for r in records]
