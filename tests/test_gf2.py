"""Bit-packed GF(2) linear algebra against dense numpy references."""
import numpy as np
import pytest

from polarsec.gf2 import (
    GF2Matrix,
    SingularMatrixError,
    mul_bits_matrix,
    pack_rows,
    unpack_rows,
)


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(101)
    for _ in range(25):
        rows = int(rng.integers(1, 20))
        cols = int(rng.integers(1, 200))
        dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        words = pack_rows(dense)
        assert words.dtype == np.uint64
        assert np.array_equal(unpack_rows(words, cols), dense)


def test_from_dense_to_dense_identity():
    rng = np.random.default_rng(7)
    dense = rng.integers(0, 2, size=(13, 77), dtype=np.uint8)
    m = GF2Matrix.from_dense(dense)
    assert m.nrows == 13 and m.ncols == 77
    assert np.array_equal(m.to_dense(), dense)


def test_identity_and_zeros():
    eye = GF2Matrix.identity(9)
    assert np.array_equal(eye.to_dense(), np.eye(9, dtype=np.uint8))
    z = GF2Matrix.from_dense(np.zeros((4, 11), dtype=np.uint8))
    assert z.nrows == 4 and z.ncols == 11
    assert not z.words.any()


def test_matmul_matches_dense_reference():
    rng = np.random.default_rng(2024)
    for _ in range(20):
        a = rng.integers(0, 2, size=(int(rng.integers(1, 40)), int(rng.integers(1, 40))),
                         dtype=np.uint8)
        b = rng.integers(0, 2, size=(a.shape[1], int(rng.integers(1, 40))), dtype=np.uint8)
        got = (GF2Matrix.from_dense(a) @ GF2Matrix.from_dense(b)).to_dense()
        assert np.array_equal(got, (a.astype(np.int64) @ b) % 2)


def test_vecmat_matches_dense_reference():
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = rng.integers(0, 2, size=(23, 65), dtype=np.uint8)
        v = rng.integers(0, 2, size=23, dtype=np.uint8)
        got = GF2Matrix.from_dense(a).vecmat(v)
        assert np.array_equal(got, (v.astype(np.int64) @ a) % 2)


def test_rank_known_cases():
    assert GF2Matrix.identity(12).rank() == 12
    assert GF2Matrix.identity(12).pivots().tolist() == list(range(12))
    zeros = GF2Matrix.from_dense(np.zeros((5, 5), dtype=np.uint8))
    assert zeros.rank() == 0
    assert zeros.pivots().tolist() == []
    # two equal rows collapse the rank
    dense = np.array([[1, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    assert GF2Matrix.from_dense(dense).rank() == 2
    assert GF2Matrix.from_dense(dense).pivots().tolist() == [0, 1]
    # a zero leading column and a dependent column are skipped
    dense = np.array([[0, 1, 1, 0], [0, 1, 1, 1]], dtype=np.uint8)
    assert GF2Matrix.from_dense(dense).pivots().tolist() == [1, 3]


def test_inverse_round_trip():
    rng = np.random.default_rng(88)
    eye = GF2Matrix.identity(17)
    found = 0
    while found < 10:
        dense = rng.integers(0, 2, size=(17, 17), dtype=np.uint8)
        m = GF2Matrix.from_dense(dense)
        if not m.is_nonsingular():
            continue
        found += 1
        inv = m.inverse()
        assert (m @ inv) == eye
        assert (inv @ m) == eye


def test_inverse_rejects_singular():
    # every row has even weight, so the all-ones vector kills it
    dense = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    m = GF2Matrix.from_dense(dense)
    assert not m.is_nonsingular()
    with pytest.raises(SingularMatrixError):
        m.inverse()


def test_row_and_col_weights():
    rng = np.random.default_rng(63)
    dense = rng.integers(0, 2, size=(21, 90), dtype=np.uint8)
    m = GF2Matrix.from_dense(dense)
    assert np.array_equal(m.row_weights(), dense.sum(axis=1))
    assert np.array_equal(m.to_dense().sum(axis=0), dense.sum(axis=0))


def test_mul_bits_matrix_matches_vecmat():
    rng = np.random.default_rng(404)
    a = rng.integers(0, 2, size=(48, 48), dtype=np.uint8)
    m = GF2Matrix.from_dense(a)
    batch = rng.integers(0, 2, size=(33, 48), dtype=np.uint8)
    got = mul_bits_matrix(batch, m)
    want = np.stack([m.vecmat(v) for v in batch])
    assert np.array_equal(got, want)


def test_equality_and_copy():
    rng = np.random.default_rng(9)
    dense = rng.integers(0, 2, size=(6, 50), dtype=np.uint8)
    a = GF2Matrix.from_dense(dense)
    b = GF2Matrix.from_dense(dense.copy())
    assert a == b
    dense2 = dense.copy()
    dense2[0, 0] ^= 1
    assert a != GF2Matrix.from_dense(dense2)
    assert a != GF2Matrix.from_dense(dense[:, :49])
