"""Bit-packed linear algebra over GF(2).

Matrices are stored row-major with each row packed into 64-bit words,
little-endian bit order (bit ``j`` of a row lives in word ``j // 64`` at
bit position ``j % 64``).  All arithmetic is XOR based: one Gauss-Jordan
routine (:func:`rref`) behind rank, pivot columns and the inverse, and
one product, :func:`mul_bits_words`: the XOR of the selected rows for a
single vector, Four-Russians tables for a batch, by nibble or by byte.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

WORD_BITS = 64
# From this batch size up, byte tables built per product beat cached nibble tables.
BYTE_TABLE_MIN_BATCH = 1024


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible turns out not to be."""


def _num_words(ncols: int) -> int:
    return max(1, (ncols + WORD_BITS - 1) // WORD_BITS)


def pack_rows(dense: np.ndarray) -> np.ndarray:
    """Pack a (rows, cols) 0/1 array into (rows, words) uint64.

    Parameters
    ----------
    dense : ndarray
        Two-dimensional array of 0/1 values.

    Returns
    -------
    ndarray
        uint64 array with little-endian bit packing per row.
    """
    dense = np.ascontiguousarray(dense, dtype=np.uint8)
    if dense.ndim != 2:
        raise ValueError("pack_rows expects a 2-D array")
    nrows, ncols = dense.shape
    nwords = _num_words(ncols)
    packed = np.packbits(dense, axis=1, bitorder="little")
    buf = np.zeros((nrows, nwords * 8), dtype=np.uint8)
    buf[:, : packed.shape[1]] = packed
    return buf.view(np.uint64)


def unpack_rows(words: np.ndarray, ncols: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`; returns a (rows, ncols) uint8 array."""
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=ncols, bitorder="little")


@dataclass(frozen=True, eq=False)
class GF2Matrix:
    """A matrix over GF(2), rows bit-packed into uint64 words."""

    nrows: int
    ncols: int
    words: np.ndarray = field(repr=False)

    # ---- construction -------------------------------------------------

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "GF2Matrix":
        dense = np.asarray(dense, dtype=np.uint8)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        if dense.size and dense.max() > 1:
            raise ValueError("entries must be 0/1")
        return cls(dense.shape[0], dense.shape[1], pack_rows(dense))

    # ---- views --------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        return unpack_rows(self.words, self.ncols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and bool(np.array_equal(self.words, other.words))
        )

    # ---- arithmetic ---------------------------------------------------

    @cached_property
    def tables(self) -> np.ndarray:
        """Nibble tables, built on the first product of a small batch."""
        return _tables(self.words, 4)

    # ---- elimination --------------------------------------------------

    def pivots(self) -> np.ndarray:
        """Pivot columns, ascending.

        Their count is the rank, and the columns they name are linearly
        independent, so they pick an invertible square submatrix of a
        matrix with full row rank.
        """
        return rref(self.words, self.ncols)[1]

    def rank(self) -> int:
        return len(self.pivots())

    def is_nonsingular(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "GF2Matrix":
        """Inverse over GF(2): the right half of ``rref([A | I])``.

        Raises
        ------
        SingularMatrixError
            If the matrix is not square or not invertible.
        """
        if self.nrows != self.ncols:
            raise SingularMatrixError("only square matrices can be inverted")
        n = self.nrows
        augmented = np.hstack([self.to_dense(), np.eye(n, dtype=np.uint8)])
        reduced, pivots = rref(pack_rows(augmented), n)
        if pivots.size < n:
            raise SingularMatrixError(f"matrix is singular (rank {pivots.size} < {n})")
        return GF2Matrix.from_dense(unpack_rows(reduced, 2 * n)[:, n:])


def rref(words: np.ndarray, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan elimination of packed rows over their first ``ncols``
    columns.

    Bits past ``ncols`` ride along, so reducing ``[A | I]`` records the
    row operations in the right half.

    Returns
    -------
    reduced : ndarray
        A copy of ``words`` in reduced row echelon form over the first
        ``ncols`` columns: row ``i`` holds pivot ``i`` and is the only row
        with that bit set; rows past the rank are zero there.
    pivots : ndarray
        The ascending pivot columns; their count is the rank.
    """
    work = np.array(words, dtype=np.uint64)
    found: list[int] = []
    for col in range(ncols):
        r = len(found)
        if r == work.shape[0]:
            break
        w, b = divmod(col, WORD_BITS)
        colbits = ((work[:, w] >> np.uint64(b)) & np.uint64(1)).astype(bool)
        p = r + int(colbits[r:].argmax())
        if not colbits[p]:
            continue
        if p != r:
            work[[r, p]] = work[[p, r]]
            colbits[[r, p]] = colbits[[p, r]]
        colbits[r] = False
        work[colbits] ^= work[r]
        found.append(col)
    return work, np.asarray(found, dtype=np.int64)


def _tables(words: np.ndarray, width: int) -> np.ndarray:
    """Four-Russians tables: row ``2**width c + t`` is the XOR of rows
    ``width c + j`` over the bits ``j`` of ``t`` (rows padded to 8k)."""
    rows = np.zeros((-(-len(words) // 8) * 8, words.shape[1]), dtype=np.uint64)
    rows[: len(words)] = words
    tables = np.zeros((len(rows) // width, 1 << width, rows.shape[1]), dtype=np.uint64)
    for j in range(width):
        tables[:, 1 << j : 2 << j] = tables[:, : 1 << j] ^ rows[j::width, None]
    return tables.reshape(-1, rows.shape[1])


def mul_bits_words(v_batch: np.ndarray, m: GF2Matrix) -> np.ndarray:
    """Batch row-vector product ``V @ m`` over GF(2), packed.  One vector is
    the XOR of its rows; in a batch each nibble picks a row of ``m.tables``,
    64 vectors at a time, or from :data:`BYTE_TABLE_MIN_BATCH` vectors up
    each byte picks a row of tables built for this product only, 128 at a time.

    Parameters
    ----------
    v_batch : ndarray
        (batch, nrows) 0/1 array.
    m : GF2Matrix

    Returns
    -------
    ndarray
        (batch, words) uint64 array, rows packed as in :func:`pack_rows`.
    """
    v_batch = np.asarray(v_batch, dtype=np.uint8)
    if v_batch.ndim != 2 or v_batch.shape[1] != m.nrows:
        raise ValueError("batch shape does not match matrix rows")
    if len(v_batch) < 2:  # no tables: the XOR of the rows one vector selects, or none
        picked = m.words[v_batch.any(axis=0)]
        return np.bitwise_xor.reduce(picked, axis=0, keepdims=True)[: len(v_batch)]
    out = np.empty((len(v_batch), m.words.shape[1]), dtype=np.uint64)
    index = np.packbits(v_batch, axis=1, bitorder="little")
    if len(index) >= BYTE_TABLE_MIN_BATCH:
        width, tables, chunk = 8, _tables(m.words, 8), 128
    else:
        width, tables, chunk = 4, m.tables, 64
        index = np.stack([index & 15, index >> 4], axis=2).reshape(len(index), -1)
    offsets = np.arange(index.shape[1])[:, None] << width
    # one item per table row, so that take copies whole rows
    items = tables.view(np.dtype((np.void, tables.itemsize * tables.shape[1]))).ravel()
    for lo in range(0, len(index), chunk):
        part = index[lo : lo + chunk].T  # (groups, vectors)
        picked = items.take(offsets + part).view(np.uint64).reshape(*part.shape, out.shape[1])
        np.bitwise_xor.reduce(picked, axis=0, out=out[lo : lo + chunk])
    return out


def mul_bits_matrix(v_batch: np.ndarray, m: GF2Matrix) -> np.ndarray:
    """:func:`mul_bits_words`, unpacked: a (batch, ncols) uint8 array."""
    return unpack_rows(mul_bits_words(v_batch, m), m.ncols)
