"""CRC-32C (Castagnoli) checksums.

The paper's record entry headers, chunk headers, and virtual segment
headers all carry checksums (Section IV-A/IV-B). RAMCloud and KerA use
CRC-32C; we implement it here from scratch:

* a slicing-by-8 table-driven implementation for small inputs (the tables
  are generated once at import time with numpy),
* a lane-parallel numpy engine for large inputs: the buffer is split into
  fixed-size blocks whose CRCs are computed in lock step across numpy
  vectors, then stitched together with cached zero-feed shift operators
  (the same GF(2) linearity :func:`crc32c_combine` exploits),
* a positional-table engine for many short rows of equal length (a
  chunk's uniform records): one gather per byte and an XOR-reduction per
  row, which :func:`crc32c_rows` picks below a row-count crossover and
  trades for the lane engine above it, and
* :func:`crc32c_combine` so a container checksum can be computed from the
  checksums of its parts without touching the part bytes again — this is
  how a virtual segment's header checksum "covers the chunks' checksums"
  cheaply.

Inputs of :data:`BULK_THRESHOLD` bytes or more dispatch to the lane
engine automatically; callers never choose. Both paths produce identical
values (property-tested against each other and known-answer vectors).

CRC-32C uses the reflected polynomial 0x82F63B78 (normal form 0x1EDC6F41).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

_POLY = 0x82F63B78  # reflected CRC-32C polynomial


def _make_tables() -> np.ndarray:
    """Build the 8 slicing tables, shape (8, 256), dtype uint32."""
    table = np.zeros((8, 256), dtype=np.uint64)
    # Table 0: classic byte-at-a-time table.
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table[0, i] = crc
    # Tables 1..7: table[k][i] = table[0][table[k-1][i] & 0xFF] ^ (table[k-1][i] >> 8)
    for k in range(1, 8):
        prev = table[k - 1]
        table[k] = table[0][(prev & 0xFF).astype(np.intp)] ^ (prev >> np.uint64(8))
    return table.astype(np.uint32)


_TABLES = _make_tables()
# Plain python lists are faster than numpy fancy-indexing for the
# byte-at-a-time inner loop, so keep both forms.
_T = [[int(x) for x in row] for row in _TABLES]
_T0, _T1, _T2, _T3, _T4, _T5, _T6, _T7 = _T


def _make_word_tables() -> np.ndarray:
    """Fold the byte tables pairwise into 16-bit word tables, shape (4, 65536).

    ``_WTABLES[k][w]`` equals ``_TABLES[2k+1][w & 0xFF] ^ _TABLES[2k][w >> 8]``
    for the little-endian word ``w = b_lo | b_hi << 8``, so slicing-by-8
    needs 4 table gathers per 8 bytes instead of 8 — the gathers are what
    bound the numpy lane engine, so halving them nearly doubles it.
    """
    w = np.arange(65536, dtype=np.intp)
    lo = w & 0xFF
    hi = w >> 8
    tables = np.empty((4, 65536), dtype=np.uint32)
    for k in range(4):
        tables[k] = _TABLES[2 * k + 1][lo] ^ _TABLES[2 * k][hi]
    return tables


_WTABLES = _make_word_tables()
#: Little-endian uint16, the lane engine's word dtype: ``w = b0 | b1 << 8``
#: regardless of host endianness, matching the :data:`_WTABLES` layout.
#: Callers of :func:`crc32c_lanes16` view their byte matrices through it.
U16LE = np.dtype("<u2")


#: Input size from which :func:`crc32c_update` switches to the numpy
#: lane engine; below it the python slicing-by-8 loop wins. The scalar
#: loop costs ~0.1 us/byte while the lane engine with a cached
#: positional stitch is ~30 us flat at 1 KB, putting the measured
#: crossover near 512 bytes — so both full 4 KB chunk payloads and the
#: ~1 KB partials a flush seals take the lane path.
BULK_THRESHOLD = 512

#: Block size the lane engine splits inputs into. Small blocks maximise
#: vector width (a 16 KB chunk becomes 1024 parallel lanes), and the
#: stitch cost is logarithmic in the lane count.
_LANE_BYTES = 16


def crc32c_update(crc: int, data: bytes | bytearray | memoryview) -> int:
    """Continue a CRC-32C computation over ``data``.

    ``crc`` is the running checksum as returned by a previous call (or
    ``0`` to start). The value is the *finalized* checksum, i.e. already
    XOR-ed with 0xFFFFFFFF, matching the convention of ``zlib.crc32``.
    """
    buf = memoryview(data).cast("B")
    n = len(buf)
    if n >= BULK_THRESHOLD:
        if crc == 0:
            return crc32c_bulk(buf)
        return crc32c_combine(crc, crc32c_bulk(buf), n)
    crc = (crc ^ 0xFFFFFFFF) & 0xFFFFFFFF
    i = 0
    # Slicing-by-8 main loop.
    end8 = n - (n % 8)
    t0, t1, t2, t3 = _T0, _T1, _T2, _T3
    t4, t5, t6, t7 = _T4, _T5, _T6, _T7
    while i < end8:
        b0 = buf[i] ^ (crc & 0xFF)
        b1 = buf[i + 1] ^ ((crc >> 8) & 0xFF)
        b2 = buf[i + 2] ^ ((crc >> 16) & 0xFF)
        b3 = buf[i + 3] ^ ((crc >> 24) & 0xFF)
        crc = (
            t7[b0]
            ^ t6[b1]
            ^ t5[b2]
            ^ t4[b3]
            ^ t3[buf[i + 4]]
            ^ t2[buf[i + 5]]
            ^ t1[buf[i + 6]]
            ^ t0[buf[i + 7]]
        )
        i += 8
    while i < n:
        crc = t0[(crc ^ buf[i]) & 0xFF] ^ (crc >> 8)
        i += 1
    return (crc ^ 0xFFFFFFFF) & 0xFFFFFFFF


def crc32c(data: bytes | bytearray | memoryview) -> int:
    """Compute the CRC-32C checksum of ``data``."""
    return crc32c_update(0, data)


def verify_crc32c(data: bytes | bytearray | memoryview, expected: int, context: str = "") -> None:
    """Raise :class:`~repro.common.errors.ChecksumError` on mismatch."""
    from repro.common.errors import ChecksumError

    actual = crc32c(data)
    if actual != expected:
        raise ChecksumError(expected, actual, context)


def _gf2_matrix_times(mat: list[int], vec: int) -> int:
    summand = 0
    i = 0
    while vec:
        if vec & 1:
            summand ^= mat[i]
        vec >>= 1
        i += 1
    return summand


def _gf2_matrix_square(square: list[int], mat: list[int]) -> None:
    for i in range(32):
        square[i] = _gf2_matrix_times(mat, mat[i])


def crc32c_combine(crc1: int, crc2: int, len2: int) -> int:
    """Combine two CRC-32C values.

    Returns the checksum of the concatenation ``A + B`` given
    ``crc1 = crc32c(A)``, ``crc2 = crc32c(B)`` and ``len2 = len(B)``,
    without re-reading any bytes. Port of zlib's ``crc32_combine`` to the
    Castagnoli polynomial.
    """
    if len2 <= 0:
        return crc1
    even = [0] * 32
    odd = [0] * 32
    odd[0] = _POLY
    row = 1
    for i in range(1, 32):
        odd[i] = row
        row <<= 1
    _gf2_matrix_square(even, odd)
    _gf2_matrix_square(odd, even)
    while True:
        _gf2_matrix_square(even, odd)
        if len2 & 1:
            crc1 = _gf2_matrix_times(even, crc1)
        len2 >>= 1
        if len2 == 0:
            break
        _gf2_matrix_square(odd, even)
        if len2 & 1:
            crc1 = _gf2_matrix_times(odd, crc1)
        len2 >>= 1
        if len2 == 0:
            break
    return (crc1 ^ crc2) & 0xFFFFFFFF


# -- lane-parallel bulk engine -------------------------------------------------
#
# crc32c(A + B) = L_n(crc32c(A)) ^ crc32c(B), where n = len(B) and L_n is
# the linear operator that feeds n zero bytes through the CRC register
# (the affine pre/post-inversion terms cancel in the XOR). The engine
# computes per-block CRCs for every _LANE_BYTES-sized block in lock step
# across numpy vectors, then folds neighbouring block CRCs pairwise with
# tableized L_n operators, doubling n each round.


def _zero_byte_op() -> list[int]:
    """L_1 as a GF(2) matrix (column i = operator applied to bit i)."""
    cols = []
    for i in range(32):
        reg = 1 << i
        cols.append(_T0[reg & 0xFF] ^ (reg >> 8))
    return cols


def _gf2_matrix_mul(a: list[int], b: list[int]) -> list[int]:
    return [_gf2_matrix_times(a, b[i]) for i in range(32)]


_M1 = _zero_byte_op()
# Cache of tableized L_n operators, keyed by zero-feed length. Keys are
# bounded: powers of two times _LANE_BYTES plus tail lengths below
# _LANE_BYTES. Published idempotently (same key always maps to equal
# tables), so concurrent computation is benign and no lock is needed.
_SHIFT_TABLES: dict[int, np.ndarray] = {}


def _shift_tables(nbytes: int) -> np.ndarray:
    """Byte-indexed lookup tables, shape (4, 256), applying ``L_nbytes``."""
    tables = _SHIFT_TABLES.get(nbytes)
    if tables is not None:
        return tables
    # M1 ** nbytes by square-and-multiply.
    op: list[int] | None = None
    square = _M1
    n = nbytes
    while n:
        if n & 1:
            op = square if op is None else _gf2_matrix_mul(square, op)
        n >>= 1
        if n:
            square = _gf2_matrix_mul(square, square)
    assert op is not None
    tables = np.zeros((4, 256), dtype=np.uint32)
    for b in range(4):
        for v in range(256):
            tables[b, v] = _gf2_matrix_times(op, v << (8 * b))
    _SHIFT_TABLES[nbytes] = tables
    return tables


# Same operators as plain int lists, for the scalar stitching steps
# (python indexing on numpy rows is an order of magnitude slower). Same
# idempotent-publish reasoning as _SHIFT_TABLES.
_SHIFT_ROWS: dict[int, list[list[int]]] = {}


def _shift_rows(nbytes: int) -> list[list[int]]:
    rows = _SHIFT_ROWS.get(nbytes)
    if rows is None:
        rows = [[int(x) for x in row] for row in _shift_tables(nbytes)]
        _SHIFT_ROWS[nbytes] = rows
    return rows


def crc32c_lanes(m: np.ndarray) -> np.ndarray:
    """Finalized CRC-32C of every lane of ``m`` (shape ``(L, lanes)``).

    Row ``j`` holds byte ``j`` of each lane, so the slicing-by-8 recurrence
    advances all lanes in lock step per numpy operation. ``m`` is an
    integer array of byte values — pass ``intp`` to skip the per-gather
    index conversion numpy performs for other dtypes; the result is a
    ``(lanes,)`` uint32 vector. Besides powering :func:`crc32c_bulk`,
    this is the batch engine for many equal-length messages — the lane
    side of :func:`crc32c_rows` for odd lengths, and the replication
    batch validator :func:`crc32c_many`.
    """
    if m.dtype != np.intp:
        # One up-front cast keeps every table lookup below on the fast
        # indexing path (fancy indexing re-converts non-intp indices on
        # every single gather — 8 per unrolled step).
        m = m.astype(np.intp)
    length = m.shape[0]
    crc = np.full(m.shape[1], 0xFFFFFFFF, dtype=np.uint32)
    t0, t1, t2, t3 = _TABLES[0], _TABLES[1], _TABLES[2], _TABLES[3]
    t4, t5, t6, t7 = _TABLES[4], _TABLES[5], _TABLES[6], _TABLES[7]
    j = 0
    while j + 8 <= length:
        b0 = (crc ^ m[j]) & 0xFF
        b1 = ((crc >> 8) ^ m[j + 1]) & 0xFF
        b2 = ((crc >> 16) ^ m[j + 2]) & 0xFF
        b3 = ((crc >> 24) ^ m[j + 3]) & 0xFF
        crc = (
            t7[b0]
            ^ t6[b1]
            ^ t5[b2]
            ^ t4[b3]
            ^ t3[m[j + 4]]
            ^ t2[m[j + 5]]
            ^ t1[m[j + 6]]
            ^ t0[m[j + 7]]
        )
        j += 8
    while j < length:
        crc = t0[(crc ^ m[j]) & 0xFF] ^ (crc >> 8)
        j += 1
    return crc ^ np.uint32(0xFFFFFFFF)


def crc32c_lanes16(m: np.ndarray) -> np.ndarray:
    """Finalized CRC-32C of every lane of ``m``, words instead of bytes.

    The word twin of :func:`crc32c_lanes`: row ``j`` holds little-endian
    16-bit word ``j`` of each lane (``b_{2j} | b_{2j+1} << 8``), so one
    slicing-by-8 step costs 4 gathers into the :data:`_WTABLES` word
    tables instead of 8 byte gathers. Lane byte counts must be even —
    callers with odd tails peel them off first (both hot callers view
    :data:`_LANE_BYTES`-sized blocks, which are). This is the engine
    behind :func:`crc32c_bulk` and :func:`crc32c_many`'s group pass.
    """
    if m.dtype != np.intp:
        m = m.astype(np.intp)
    words = m.shape[0]
    crc = np.full(m.shape[1], 0xFFFFFFFF, dtype=np.uint32)
    w0t, w1t, w2t, w3t = _WTABLES[0], _WTABLES[1], _WTABLES[2], _WTABLES[3]
    j = 0
    while j + 4 <= words:
        a = (crc ^ m[j]) & 0xFFFF
        b = (crc >> 16) ^ m[j + 1]
        crc = w3t[a] ^ w2t[b] ^ w1t[m[j + 2]] ^ w0t[m[j + 3]]
        j += 4
    if j + 2 <= words:
        a = (crc ^ m[j]) & 0xFFFF
        b = (crc >> 16) ^ m[j + 1]
        crc = w1t[a] ^ w0t[b]
        j += 2
    if j < words:
        # One trailing word: two byte steps against the byte tables.
        t0, t1 = _TABLES[0], _TABLES[1]
        w = m[j]
        crc = t1[(crc ^ w) & 0xFF] ^ t0[((crc >> 8) ^ (w >> 8)) & 0xFF] ^ (crc >> 16)
    return crc ^ np.uint32(0xFFFFFFFF)


#: Combined byte count from which :func:`crc32c_many` checksums an
#: equal-length group in one lane pass; smaller groups use the scalar
#: path per buffer.
_MANY_THRESHOLD = 4096


def crc32c_many(
    buffers: Sequence[bytes | bytearray | memoryview],
) -> list[int]:
    """Finalized CRC-32C of every buffer, vectorized across buffers.

    Equal-length buffers are grouped and checksummed together: all their
    :data:`_LANE_BYTES` blocks advance through one lane matrix and the
    per-buffer lane CRCs fold in a 2-D pairwise reduction, so the numpy
    dispatch overhead of :func:`crc32c_bulk` amortizes over the whole
    group instead of being paid once per buffer. This is the batch
    validation engine for replication: one replicate RPC's frames verify
    in a single pass (see ``BackupStore.append_frames``).

    Byte-identical to calling :func:`crc32c` per buffer (property-tested).
    """
    views = [memoryview(buf).cast("B") for buf in buffers]
    out = [0] * len(views)
    groups: dict[int, list[int]] = {}
    for i, view in enumerate(views):
        groups.setdefault(len(view), []).append(i)
    for length, idxs in groups.items():
        lanes = length // _LANE_BYTES
        if len(idxs) < 2 or lanes < 2 or length * len(idxs) < _MANY_THRESHOLD:
            for i in idxs:
                out[i] = crc32c_update(0, views[i])
            continue
        crcs = _crc32c_group([views[i] for i in idxs], length)
        for i, value in zip(idxs, crcs):
            out[i] = int(value)
    return out


def _apply_shift_2d(tables: np.ndarray, crcs: np.ndarray) -> np.ndarray:
    """Apply a tableized ``L_n`` operator to a uint32 CRC array."""
    s0, s1, s2, s3 = tables[0], tables[1], tables[2], tables[3]
    return s0[crcs & 0xFF] ^ s1[(crcs >> 8) & 0xFF] ^ s2[(crcs >> 16) & 0xFF] ^ s3[crcs >> 24]


# Per-lane-position operator tables, keyed by buffer length: entry
# (i, b, v) applies L_{suffix bytes after lane i} to byte b value v. With
# these, a buffer's CRC is one XOR-reduction over its gathered lane CRCs
# (the pairwise fold's logarithmic rounds collapse to 4 gathers), which
# is what lets crc32c_many amortize across a whole replication batch.
# ~4 MB per cached 16 KB length; lengths are config-determined and few,
# and the cache is bounded below. Idempotent publish, same as the other
# operator caches.
_POSITION_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_POSITION_TABLES_MAX = 8


def _position_tables(length: int) -> tuple[np.ndarray, np.ndarray]:
    """``(flat, base)`` positional operators for equal-length stitching.

    ``flat[b]`` is the lane-major flattening of the per-position byte-``b``
    tables (shape ``(4, lanes * 256)``) and ``base`` the per-lane table
    offsets (``lane * 256``, intp), so a gather for k buffers is one flat
    fancy-index per byte instead of broadcasting over two index axes.
    """
    cached = _POSITION_TABLES.get(length)
    if cached is not None:
        return cached
    lanes = length // _LANE_BYTES
    tail = length - lanes * _LANE_BYTES
    ops = np.empty((lanes, 4, 256), dtype=np.uint32)
    if tail:
        current = _shift_tables(tail).copy()
    else:
        # L_0 is the identity: table b maps v to v << 8b.
        current = np.zeros((4, 256), dtype=np.uint32)
        values = np.arange(256, dtype=np.uint32)
        for b in range(4):
            current[b] = values << np.uint32(8 * b)
    step = _shift_tables(_LANE_BYTES)
    for i in range(lanes - 1, -1, -1):
        ops[i] = current
        if i:
            # L_{n + 16} = L_16 after L_n, composed by mapping every
            # table entry through the 16-byte operator (vectorized).
            current = _apply_shift_2d(step, current)
    flat = np.ascontiguousarray(ops.transpose(1, 0, 2).reshape(4, lanes * 256))
    base = (np.arange(lanes, dtype=np.intp) * 256)[np.newaxis, :]
    tables = (flat, base)
    if len(_POSITION_TABLES) < _POSITION_TABLES_MAX:
        _POSITION_TABLES[length] = tables
    return tables


def _crc32c_group(views: list[memoryview], length: int) -> np.ndarray:
    """Lane-engine CRCs of ``k`` equal-``length`` buffers, shape ``(k,)``.

    Computes every buffer's lane CRCs in one lock-step matrix, then
    stitches each buffer in a single vectorized pass: lane i's CRC is
    pushed over the remaining suffix with the cached positional ``L_n``
    tables and the contributions XOR-reduce along the lane axis (CRC is
    linear over GF(2), so the per-lane terms combine by XOR exactly as
    in :func:`crc32c_bulk`'s fold — just flattened).
    """
    k = len(views)
    lanes = length // _LANE_BYTES
    body = lanes * _LANE_BYTES
    arr = np.empty((k, length), dtype=np.uint8)
    for row, view in enumerate(views):
        arr[row] = np.frombuffer(view, dtype=np.uint8, count=length)
    # Row-major reshape keeps buffer r's blocks at lane columns
    # [r * lanes, (r + 1) * lanes), so the flat lane CRCs reshape back
    # to (k, lanes) with each row in block order. The uint16 view is
    # free (the reshape result is C-contiguous) and halves the elements
    # the transposing .astype copy touches.
    m = (
        arr[:, :body]
        .reshape(k * lanes, _LANE_BYTES)
        .view(U16LE)
        .T.astype(np.intp)
    )
    crcs = crc32c_lanes16(m).reshape(k, lanes)
    flat, base = _position_tables(length)
    g0, g1, g2, g3 = flat[0], flat[1], flat[2], flat[3]
    acc = (
        g0[base + (crcs & 0xFF)]
        ^ g1[base + ((crcs >> 8) & 0xFF)]
        ^ g2[base + ((crcs >> 16) & 0xFF)]
        ^ g3[base + (crcs >> 24)]
    )
    total = np.bitwise_xor.reduce(acc, axis=1)
    if body < length:
        tail_m = arr[:, body:].T.astype(np.intp)
        total ^= crc32c_lanes(tail_m)
    return total


def crc32c_append(crc1: int, crc2: int, len2: int) -> int:
    """Finalized CRC of ``A + B`` from ``crc32c(A)``, ``crc32c(B)``, ``len(B)``.

    The cached-operator fast path of :func:`crc32c_combine`: repeated
    ``len2`` values reuse a tableized zero-feed operator instead of
    rebuilding GF(2) matrices on every call.
    """
    if len2 <= 0:
        return crc1 & 0xFFFFFFFF
    rows = _shift_rows(len2)
    return (
        rows[0][crc1 & 0xFF]
        ^ rows[1][(crc1 >> 8) & 0xFF]
        ^ rows[2][(crc1 >> 16) & 0xFF]
        ^ rows[3][(crc1 >> 24) & 0xFF]
        ^ crc2
    ) & 0xFFFFFFFF


def crc32c_u32le_lanes(values: np.ndarray) -> np.ndarray:
    """Finalized CRC-32C of each value's four little-endian bytes.

    Vectorized byte-at-a-time over the four bytes of every ``uint32``;
    :func:`crc32c_rows_prepend_u32` uses it, with
    :func:`crc32c_shift_many`, to fold stored-checksum header bytes into
    a record's CRC when its width has no positional table.
    """
    v = values.astype(np.intp)
    t0 = _TABLES[0]
    crc = np.full(values.shape, 0xFFFFFFFF, dtype=np.uint32)
    for k in range(4):
        b = (v >> (8 * k)) & 0xFF
        crc = t0[(crc & np.uint32(0xFF)).astype(np.intp) ^ b] ^ (crc >> np.uint32(8))
    return crc ^ np.uint32(0xFFFFFFFF)


def crc32c_shift_many(crcs: np.ndarray, nbytes: int) -> np.ndarray:
    """Push every finalized CRC over ``nbytes`` zero-fed bytes.

    The vectorized twin of :func:`crc32c_append`'s operator application:
    ``crc32c_shift_many(crcs, len(B))[i] ^ crc32c(B)`` is the CRC of
    block ``i`` followed by ``B``.
    """
    return _apply_shift_2d(_shift_tables(nbytes), crcs)


# Per-position operators for concatenating equal-size blocks, keyed by
# (block_size, count): entry i applies L_{(count-1-i) * block_size}, the
# zero-feed over block i's suffix. Shapes are workload-determined and
# few (a producer's records-per-chunk counts); each entry is
# count * 4 KB. Idempotent publish, same as the other operator caches.
_CONCAT_TABLES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
_CONCAT_TABLES_MAX = 64


def _concat_tables(block_size: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    key = (block_size, count)
    cached = _CONCAT_TABLES.get(key)
    if cached is not None:
        return cached
    ops = np.empty((count, 4, 256), dtype=np.uint32)
    # L_0 is the identity: table b maps v to v << 8b.
    current = np.zeros((4, 256), dtype=np.uint32)
    values = np.arange(256, dtype=np.uint32)
    for b in range(4):
        current[b] = values << np.uint32(8 * b)
    step = _shift_tables(block_size)
    for i in range(count - 1, -1, -1):
        ops[i] = current
        if i:
            current = _apply_shift_2d(step, current)
    flat = np.ascontiguousarray(ops.transpose(1, 0, 2).reshape(4, count * 256))
    base = np.arange(count, dtype=np.intp) * 256
    tables = (flat, base)
    if len(_CONCAT_TABLES) < _CONCAT_TABLES_MAX:
        _CONCAT_TABLES[key] = tables
    return tables


def crc32c_concat(crcs: np.ndarray, block_size: int) -> int:
    """CRC of equal-size blocks concatenated, from their per-block CRCs.

    ``crcs[i]`` is the finalized CRC-32C of block ``i``, each
    ``block_size`` bytes; the result equals :func:`crc32c` over the
    concatenation without touching any block bytes. Block i's CRC is
    pushed over its suffix with cached positional operators and the
    contributions XOR-reduce — the n-ary form of :func:`crc32c_append`,
    with the same layout trick as :func:`_crc32c_group`'s stitch. This
    is how a producer seals a chunk whose record CRCs the batch encoder
    just computed: the payload checksum composes instead of re-reading
    ~capacity bytes (property-tested byte-identical).
    """
    n = len(crcs)
    if n == 1:
        return int(crcs[0]) & 0xFFFFFFFF
    flat, base = _concat_tables(block_size, n)
    acc = (
        flat[0][base + (crcs & 0xFF)]
        ^ flat[1][base + ((crcs >> 8) & 0xFF)]
        ^ flat[2][base + ((crcs >> 16) & 0xFF)]
        ^ flat[3][base + (crcs >> 24)]
    )
    return int(np.bitwise_xor.reduce(acc)) & 0xFFFFFFFF


def crc32c_concat_rows(crcs: np.ndarray, block_size: int) -> np.ndarray:
    """:func:`crc32c_concat` of every row of a ``(k, n)`` CRC matrix.

    Row ``r`` holds the per-block CRCs of one message of ``n`` blocks;
    the ``(k,)`` result holds the ``k`` message CRCs. Same positional
    operators as the 1-D form, broadcast over the rows the way
    :func:`_crc32c_group` stitches lanes — this is how a consumer checks
    every chunk payload CRC of a fetch response from the record CRCs it
    just computed, instead of reading the payloads a second time.
    """
    flat, base = _concat_tables(block_size, crcs.shape[1])
    acc = (
        flat[0][base + (crcs & 0xFF)]
        ^ flat[1][base + ((crcs >> 8) & 0xFF)]
        ^ flat[2][base + ((crcs >> 16) & 0xFF)]
        ^ flat[3][base + (crcs >> 24)]
    )
    return np.bitwise_xor.reduce(acc, axis=1)


# -- positional tables for many short equal-length rows -----------------------
#
# At a fixed length w, CRC-32C is affine in the message bytes:
# crc32c(x) = crc32c(0^w) ^ XOR_j T_j[x_j], where T_j[b] is byte b's
# register contribution (_TABLES[0][b]) pushed over the w-1-j bytes after
# it. A row's CRC is then one gather per byte plus an XOR-reduction, with
# no dependent steps — for a few hundred rows that beats the lane engine,
# whose w/2 word steps each pay numpy's fixed dispatch cost over too few
# lanes to amortize it. Position j's operator does not depend on what
# precedes it, so one width-w table also checksums every row's suffix
# from any start s (positions s..w-1, constant crc32c(0^(w-s))).

#: Row-count crossover: below it :func:`crc32c_rows` gathers from the
#: positional tables, from it on it runs the lane engine. Measured on a
#: 2-vCPU x86 box: 100-byte rows 40 vs 90 us at 163 rows, 270 vs 425 us
#: at 1,000, 595 vs 445 us at 2,000; 16-byte rows already lose from
#: about 500 rows, but by tens of microseconds.
_ROW_TABLE_MAX_ROWS = 1024

#: Widest row the positional tables serve (the table cap): a width-w
#: table is w KB, and at 512 bytes the gather still wins 250 vs 625 us
#: at 163 rows on the box above.
_ROW_TABLE_MAX_BYTES = 512

# Width -> (flat, affine): ``flat[j * 256 + b]`` is T_j[b] and
# ``affine[s]`` is crc32c of w - s zero bytes. Widths are record sizes —
# workload-determined and few; bounded like _POSITION_TABLES (~100 KB at
# 100 bytes), idempotent publish.
_ROW_TABLES: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_ROW_TABLES_MAX = 8


def _row_tables(width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The positional tables of ``width``-byte rows, or ``None`` when the
    width is over the cap or the cache is full of other widths."""
    cached = _ROW_TABLES.get(width)
    if cached is not None:
        return cached
    if width > _ROW_TABLE_MAX_BYTES or len(_ROW_TABLES) >= _ROW_TABLES_MAX:
        return None
    t0 = _TABLES[0]
    tables = np.empty((width, 256), dtype=np.uint32)
    current = t0
    for j in range(width - 1, -1, -1):
        tables[j] = current
        # L_1: position j - 1 has one byte more after it than j.
        current = t0[current & 0xFF] ^ (current >> 8)
    affine = np.empty(width + 1, dtype=np.uint32)
    reg = 0xFFFFFFFF
    for zeros in range(width + 1):
        affine[width - zeros] = reg ^ 0xFFFFFFFF
        reg = _T0[reg & 0xFF] ^ (reg >> 8)
    tables_and_affine = (tables.reshape(-1), affine)
    _ROW_TABLES[width] = tables_and_affine
    return tables_and_affine


def crc32c_rows(rows: np.ndarray, start: int = 0) -> np.ndarray:
    """Finalized CRC-32C of ``rows[i, start:]`` for every row ``i``.

    ``rows`` is a C-contiguous ``(k, width)`` uint8 matrix; the result is
    ``(k,)`` uint32. This is the one entry point for many equal-length
    short messages — a chunk's uniform records, hashed from ``start=4``
    for their header checksums: below :data:`_ROW_TABLE_MAX_ROWS` rows
    it gathers from cached positional tables, from there on (or for
    widths over :data:`_ROW_TABLE_MAX_BYTES`) it runs the lane engine.
    Callers never choose; both give :func:`crc32c` of each row
    (property-tested).
    """
    k, width = rows.shape
    tabled = _row_tables(width) if k < _ROW_TABLE_MAX_ROWS else None
    if tabled is not None:
        return _crc32c_rows_tabled(rows, start, *tabled)
    if (width - start) % 2:
        return crc32c_lanes(rows[:, start:].T.astype(np.intp, order="C"))
    # Word lanes; order="C" keeps each word row contiguous, which the
    # lane engine's per-row gathers read ~1.5x faster than the transpose.
    if width % 2 == 0 and start % 2 == 0:
        words = rows.view(U16LE)[:, start // 2 :]
    else:
        words = np.ascontiguousarray(rows[:, start:]).view(U16LE)
    return crc32c_lanes16(words.T.astype(np.intp, order="C"))


def _crc32c_rows_tabled(
    rows: np.ndarray, start: int, flat: np.ndarray, affine: np.ndarray
) -> np.ndarray:
    """:func:`crc32c_rows` by one positional gather and XOR-reduction."""
    idx = rows[:, start:].astype(np.intp)
    idx += np.arange(start * 256, rows.shape[1] * 256, 256, dtype=np.intp)
    return np.bitwise_xor.reduce(flat[idx], axis=1) ^ affine[start]


#: Table offsets of row positions 0-3, where a record's stored checksum sits.
_HEAD_OFFSETS = np.arange(0, 4 * 256, 256, dtype=np.intp)


def crc32c_rows_prepend_u32(words: np.ndarray, crcs: np.ndarray, width: int) -> np.ndarray:
    """CRC of each ``width``-byte row from its two parts, without its bytes.

    Row ``i`` is the four little-endian bytes of ``words[i]`` followed by
    ``width - 4 > 0`` bytes whose CRC is ``crcs[i]`` — a record whose stored
    header checksum is ``words[i]`` and whose covered-region CRC is
    ``crcs[i]``. The first four positional tables of the width fold the
    words in with four gathers (GF(2) linearity); without a table the
    words' own CRCs are pushed over the rest of the row instead.
    """
    tabled = _row_tables(width)
    if tabled is None:
        return crc32c_shift_many(crc32c_u32le_lanes(words), width - 4) ^ crcs
    flat, affine = tabled
    idx = np.ascontiguousarray(words, dtype="<u4").view(np.uint8).reshape(-1, 4).astype(np.intp)
    idx += _HEAD_OFFSETS
    head = np.bitwise_xor.reduce(flat[idx], axis=1).reshape(words.shape)
    return head ^ (affine[0] ^ affine[4]) ^ crcs


#: Largest input the bulk engine stitches with cached positional tables
#: (one gather set + XOR-reduce) instead of the logarithmic pairwise
#: fold. The fold costs ~8 vectorized rounds of fixed numpy dispatch
#: overhead — the dominant cost for few-KB inputs like chunk payloads —
#: while a positional stitch is 4 gathers; the cap bounds the per-length
#: table cache (a 16 KB length costs ~4 MB, see _POSITION_TABLES).
_POSITION_STITCH_MAX = 16384


def crc32c_bulk(data: bytes | bytearray | memoryview) -> int:
    """CRC-32C via the lane-parallel numpy engine.

    Byte-identical to :func:`crc32c`; preferred for inputs of a few KB and
    up (:func:`crc32c_update` dispatches here automatically). Safe on any
    size — short inputs fall back to the scalar loop.
    """
    buf = memoryview(data).cast("B")
    n = len(buf)
    lanes = n // _LANE_BYTES
    if lanes < 2:
        return crc32c_update(0, buf)
    body = lanes * _LANE_BYTES
    arr = np.frombuffer(buf, dtype=np.uint8, count=body)
    # (lanes, L/2) words -> contiguous (L/2, lanes): column k is block
    # k's little-endian 16-bit words; the .astype copy materializes the
    # transpose and widens to intp in one pass.
    m = arr.reshape(lanes, _LANE_BYTES).view(U16LE).T.astype(np.intp)
    crcs = crc32c_lanes16(m)
    if n <= _POSITION_STITCH_MAX and (
        n in _POSITION_TABLES or len(_POSITION_TABLES) < _POSITION_TABLES_MAX
    ):
        # Flat positional stitch, exactly _crc32c_group's fold for k=1:
        # push lane i's CRC over its remaining suffix and XOR-reduce.
        flat, base = _position_tables(n)
        offs = base[0]
        acc = (
            flat[0][offs + (crcs & 0xFF)]
            ^ flat[1][offs + ((crcs >> 8) & 0xFF)]
            ^ flat[2][offs + ((crcs >> 16) & 0xFF)]
            ^ flat[3][offs + (crcs >> 24)]
        )
        total = int(np.bitwise_xor.reduce(acc))
        if body < n:
            total ^= crc32c_update(0, buf[body:])
        return total & 0xFFFFFFFF
    block = _LANE_BYTES
    # Pairwise fold: one vectorized round halves the lane count and
    # doubles the block each operator spans. An odd count peels the
    # rightmost CRC aside first, so every round stays fully vectorized.
    pending: list[tuple[int, int]] = []  # (crc, span), peeled right-to-left
    while len(crcs) > 1:
        if len(crcs) % 2:
            pending.append((int(crcs[-1]), block))
            crcs = crcs[:-1]
        tables = _shift_tables(block)
        s0, s1, s2, s3 = tables[0], tables[1], tables[2], tables[3]
        a = crcs[0::2]
        b = crcs[1::2]
        crcs = s0[a & 0xFF] ^ s1[(a >> 8) & 0xFF] ^ s2[(a >> 16) & 0xFF] ^ s3[a >> 24] ^ b
        block *= 2
    total = int(crcs[0])
    # Re-attach the peeled pieces. Each later peel came from a shorter
    # prefix of the body, so walking ``pending`` in reverse appends the
    # pieces left to right; the operator length is the right piece's span.
    for crc_piece, span in reversed(pending):
        rows = _shift_rows(span)
        total = (
            rows[0][total & 0xFF]
            ^ rows[1][(total >> 8) & 0xFF]
            ^ rows[2][(total >> 16) & 0xFF]
            ^ rows[3][total >> 24]
            ^ crc_piece
        )
    if body < n:
        tail = buf[body:]
        rows = _shift_rows(len(tail))
        total = (
            rows[0][total & 0xFF]
            ^ rows[1][(total >> 8) & 0xFF]
            ^ rows[2][(total >> 16) & 0xFF]
            ^ rows[3][total >> 24]
            ^ crc32c_update(0, tail)
        )
    return total & 0xFFFFFFFF
