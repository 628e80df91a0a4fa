"""Bit-packed GF(2) linear algebra against dense numpy references."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsec.gf2 import (
    GF2Matrix,
    SingularMatrixError,
    mul_bits_matrix,
    pack_rows,
    rref,
    unpack_rows,
)


def dense_pivots(a: np.ndarray) -> list[int]:
    """Pivot columns by forward elimination on a dense 0/1 array."""
    a = a.astype(np.uint8)
    found: list[int] = []
    for c in range(a.shape[1]):
        r = len(found)
        rows = np.flatnonzero(a[r:, c]) + r
        if rows.size == 0:
            continue
        a[[r, rows[0]]] = a[[rows[0], r]]
        below = np.flatnonzero(a[r + 1 :, c]) + r + 1
        a[below] ^= a[r]
        found.append(c)
    return found


@st.composite
def matrices(draw, max_rows=70, max_cols=130, square=False):
    """Random 0/1 matrices, often rank-deficient: a product of random
    (rows x r) and (r x cols) factors mod 2 has rank at most r."""
    widths = st.one_of(st.integers(1, max_cols), st.sampled_from([63, 64, 65, 128, 129]))
    rows = draw(st.integers(1, max_rows))
    cols = rows if square else draw(widths)
    inner = draw(st.integers(0, max(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = rng.integers(0, 2, size=(rows, inner))
    right = rng.integers(0, 2, size=(inner, cols))
    return ((left @ right) % 2).astype(np.uint8)


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
    eye = GF2Matrix.from_dense(np.eye(9, dtype=np.uint8))
    assert np.array_equal(eye.to_dense(), np.eye(9, dtype=np.uint8))
    z = GF2Matrix.from_dense(np.zeros((4, 11), dtype=np.uint8))
    assert z.nrows == 4 and z.ncols == 11
    assert not z.words.any()


def test_rank_known_cases():
    eye = GF2Matrix.from_dense(np.eye(12, dtype=np.uint8))
    assert eye.rank() == 12
    assert eye.pivots().tolist() == list(range(12))
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
    eye = np.eye(17, dtype=np.int64)
    found = 0
    for _ in range(100):  # about 29% of random 17x17 matrices are nonsingular
        dense = rng.integers(0, 2, size=(17, 17), dtype=np.uint8)
        m = GF2Matrix.from_dense(dense)
        if not m.is_nonsingular():
            continue
        found += 1
        inv = m.inverse().to_dense().astype(np.int64)
        assert np.array_equal((dense @ inv) % 2, eye)
        assert np.array_equal((inv @ dense) % 2, eye)
    assert found >= 10


def test_inverse_rejects_singular():
    # every row has even weight, so the all-ones vector kills it
    dense = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=np.uint8)
    m = GF2Matrix.from_dense(dense)
    assert not m.is_nonsingular()
    with pytest.raises(SingularMatrixError):
        m.inverse()
    with pytest.raises(SingularMatrixError):
        GF2Matrix.from_dense(dense[:2]).inverse()


@given(matrices())
def test_pivots_and_rank_match_dense_elimination(dense):
    m = GF2Matrix.from_dense(dense)
    want = dense_pivots(dense)
    assert m.pivots().tolist() == want
    assert m.rank() == len(want)
    assert m.is_nonsingular() == (dense.shape[0] == dense.shape[1] == len(want))


@given(matrices())
def test_rref_records_its_row_operations(dense):
    # reducing [A | I]: the left half is reduced row echelon form, and the
    # right half is the row operations, so right @ A == left
    rows, cols = dense.shape
    words = pack_rows(np.hstack([dense, np.eye(rows, dtype=np.uint8)]))
    reduced, pivots = rref(words, cols)
    out = unpack_rows(reduced, cols + rows).astype(np.int64)
    left, right = out[:, :cols], out[:, cols:]
    assert np.array_equal((right @ dense) % 2, left)
    rank = pivots.size
    assert np.array_equal(left[:rank, pivots], np.eye(rank, dtype=np.int64))
    assert not left[rank:].any()
    for i, col in enumerate(pivots):
        assert not left[i, :col].any()
    assert np.array_equal(unpack_rows(words, cols), dense)  # input untouched


@given(matrices(square=True))
def test_inverse_is_singular_exactly_below_full_rank(dense):
    n = dense.shape[0]
    m = GF2Matrix.from_dense(dense)
    if len(dense_pivots(dense)) < n:
        with pytest.raises(SingularMatrixError):
            m.inverse()
        return
    inv = m.inverse().to_dense().astype(np.int64)
    assert np.array_equal((dense.astype(np.int64) @ inv) % 2, np.eye(n, dtype=np.int64))


def test_packing_keeps_row_and_col_weights():
    rng = np.random.default_rng(63)
    dense = rng.integers(0, 2, size=(21, 90), dtype=np.uint8)
    m = GF2Matrix.from_dense(dense)
    assert np.array_equal(np.bitwise_count(m.words).sum(axis=1), dense.sum(axis=1))
    assert np.array_equal(m.to_dense().sum(axis=0), dense.sum(axis=0))


def test_one_vector_product_matches_dense_reference():
    # a batch of one vector takes the row-XOR path of mul_bits_matrix
    rng = np.random.default_rng(31)
    for _ in range(20):
        a = rng.integers(0, 2, size=(23, 65), dtype=np.uint8)
        v = rng.integers(0, 2, size=23, dtype=np.uint8)
        got = mul_bits_matrix(v[None, :], GF2Matrix.from_dense(a))[0]
        assert np.array_equal(got, (v.astype(np.int64) @ a) % 2)


def test_batch_product_matches_one_vector_products():
    # the table path for a batch agrees with the row-XOR path, vector by vector
    rng = np.random.default_rng(404)
    a = rng.integers(0, 2, size=(48, 48), dtype=np.uint8)
    m = GF2Matrix.from_dense(a)
    batch = rng.integers(0, 2, size=(33, 48), dtype=np.uint8)
    got = mul_bits_matrix(batch, m)
    want = np.concatenate([mul_bits_matrix(v[None, :], m) for v in batch])
    assert np.array_equal(got, want)


SIZES = [1, 4, 7, 8, 9, 12, 20, 63, 64, 65, 129]


@settings(max_examples=20)
@given(cols=st.sampled_from(SIZES), seed=st.integers(0, 2**32 - 1))
def test_mul_bits_matrix_matches_dense_product(cols, seed):
    # every row count mod 8 (a last byte with one or two nibbles) and no
    # rows at all; one vector (the row-XOR path), two, and batches around
    # the 64-vector block (the table path); read-only matrix words
    rng = np.random.default_rng(seed)
    for rows in [0, *SIZES]:
        a = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        m = GF2Matrix.from_dense(a)
        m.words.setflags(write=False)
        for batch in (0, 1, 2, 63, 64, 65, 130):
            v = rng.integers(0, 2, size=(batch, rows), dtype=np.uint8)
            got = mul_bits_matrix(v, m)
            assert got.dtype == np.uint8
            assert np.array_equal(got, (v.astype(np.int64) @ a) % 2)


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
