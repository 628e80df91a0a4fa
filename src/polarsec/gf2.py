"""Bit-packed linear algebra over GF(2).

Matrices are stored row-major with each row packed into 64-bit words,
little-endian bit order (bit ``j`` of a row lives in word ``j // 64`` at
bit position ``j % 64``).  All arithmetic is XOR/AND based; products use
either row-XOR accumulation (sparse selectors) or AND+popcount parity
(dense batches).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WORD_BITS = 64


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
    nrows = words.shape[0]
    as_bytes = np.ascontiguousarray(words).view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
    return bits[:, :ncols].copy()


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

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls.from_dense(np.eye(n, dtype=np.uint8))

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

    def vecmat(self, v: np.ndarray) -> np.ndarray:
        """Row-vector product ``v @ self`` over GF(2).

        Parameters
        ----------
        v : ndarray
            Length-``nrows`` 0/1 vector.

        Returns
        -------
        ndarray
            Dense length-``ncols`` 0/1 vector.
        """
        v = np.asarray(v, dtype=np.uint8)
        if v.shape != (self.nrows,):
            raise ValueError(f"vector length {v.shape} does not match {self.nrows} rows")
        sel = self.words[v.astype(bool)]
        if sel.shape[0] == 0:
            return np.zeros(self.ncols, dtype=np.uint8)
        acc = np.bitwise_xor.reduce(sel, axis=0)
        return unpack_rows(acc[None, :], self.ncols)[0]

    def __matmul__(self, other: "GF2Matrix") -> "GF2Matrix":
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(
                f"dimension mismatch: ({self.nrows}x{self.ncols}) @ ({other.nrows}x{other.ncols})"
            )
        left = self.to_dense().astype(bool)
        out = np.zeros((self.nrows, other.words.shape[1]), dtype=np.uint64)
        for i in range(self.nrows):
            sel = other.words[left[i]]
            if sel.shape[0]:
                out[i] = np.bitwise_xor.reduce(sel, axis=0)
        return GF2Matrix(self.nrows, other.ncols, out)

    # ---- elimination --------------------------------------------------

    def pivots(self) -> np.ndarray:
        """Pivot columns of forward elimination, ascending.

        Their count is the rank, and the columns they name are linearly
        independent, so they pick an invertible square submatrix of a
        matrix with full row rank.
        """
        work = self.words.copy()
        found: list[int] = []
        r = 0
        for col in range(self.ncols):
            if r == self.nrows:
                break
            w, b = divmod(col, WORD_BITS)
            colbits = (work[r:, w] >> np.uint64(b)) & np.uint64(1)
            piv = np.nonzero(colbits)[0]
            if piv.size == 0:
                continue
            p = r + int(piv[0])
            if p != r:
                work[[r, p]] = work[[p, r]]
            below = (work[r + 1 :, w] >> np.uint64(b)) & np.uint64(1)
            hit = np.nonzero(below)[0] + r + 1
            work[hit] ^= work[r]
            found.append(col)
            r += 1
        return np.asarray(found, dtype=np.int64)

    def rank(self) -> int:
        return len(self.pivots())

    def is_nonsingular(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

    def inverse(self) -> "GF2Matrix":
        """Gauss-Jordan inverse over GF(2).

        Raises
        ------
        SingularMatrixError
            If the matrix is not square or not invertible.
        """
        if self.nrows != self.ncols:
            raise SingularMatrixError("only square matrices can be inverted")
        n = self.nrows
        work = self.words.copy()
        aug = GF2Matrix.identity(n).words
        for col in range(n):
            w, b = divmod(col, WORD_BITS)
            colbits = (work[col:, w] >> np.uint64(b)) & np.uint64(1)
            piv = np.nonzero(colbits)[0]
            if piv.size == 0:
                raise SingularMatrixError(f"matrix is singular (no pivot in column {col})")
            p = col + int(piv[0])
            if p != col:
                work[[col, p]] = work[[p, col]]
                aug[[col, p]] = aug[[p, col]]
            colbits = (work[:, w] >> np.uint64(b)) & np.uint64(1)
            hit = np.nonzero(colbits)[0]
            hit = hit[hit != col]
            work[hit] ^= work[col]
            aug[hit] ^= aug[col]
        return GF2Matrix(n, n, aug)

    # ---- statistics ---------------------------------------------------

    def row_weights(self) -> np.ndarray:
        return np.bitwise_count(self.words).sum(axis=1).astype(np.int64)


def mul_bits_matrix(v_batch: np.ndarray, m: GF2Matrix) -> np.ndarray:
    """Batch row-vector product ``V @ m`` over GF(2) via AND+popcount parity.

    Parameters
    ----------
    v_batch : ndarray
        (batch, nrows) 0/1 array.
    m : GF2Matrix

    Returns
    -------
    ndarray
        (batch, ncols) uint8 array.
    """
    v_batch = np.asarray(v_batch, dtype=np.uint8)
    if v_batch.ndim != 2 or v_batch.shape[1] != m.nrows:
        raise ValueError("batch shape does not match matrix rows")
    vw = pack_rows(v_batch)
    cols = pack_rows(m.to_dense().T)  # (ncols, words-over-nrows)
    out = np.empty((v_batch.shape[0], m.ncols), dtype=np.uint8)
    for j in range(m.ncols):
        acc = np.bitwise_count(vw & cols[j]).sum(axis=1)
        out[:, j] = acc & 1
    return out
