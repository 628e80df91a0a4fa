"""Key material: structured generation, compression codecs, file format."""
import hashlib
import itertools
import struct
import zlib

import numpy as np
import pytest

from polarsec import gf2
from polarsec.gf2 import GF2Matrix, SingularMatrixError
from polarsec.keys import (
    MAGIC,
    KeyFormatError,
    KeyGenerationError,
    KeyParams,
    SecretKey,
    compress_permutation,
    compress_scrambler,
    decompress_permutation,
    decompress_scrambler,
    deserialize_key,
    gen_permutation,
    gen_scrambler,
    generate_key,
    perm_offsets_to_dst,
    reference_params,
    scrambler_invertible,
    select_secret_indices,
    serialize_key,
    validate_key,
)
from polarsec.rng import derive_rng


def small_params(**overrides) -> KeyParams:
    """Fast structured parameters: N=64, K=48, 16-bit syndrome register."""
    base = dict(n=6, k0=6, n0=8, l=8, mu_s=2, epsilon=0.05, pool=64,
                taps=(16, 15, 13, 4))
    base.update(overrides)
    return KeyParams(**base)


def key_with_positions(params: KeyParams, positions) -> SecretKey:
    """A key around the given scrambler positions; the other parts are
    placeholders that the scrambler views never read."""
    return SecretKey(params=params,
                     info_indices=np.arange(1, params.num_info + 1, dtype=np.int64),
                     lfsr_state=np.ones(params.num_frozen, dtype=np.uint8),
                     scrambler_positions=tuple(int(x) for x in positions),
                     permutation_offsets=(0,) * params.n0)


def test_reference_params_shape():
    p = reference_params()
    assert (p.n, p.k0, p.n0, p.l, p.mu_s) == (10, 6, 8, 128, 2)
    assert p.block_length == 1024 and p.num_info == 768
    assert p.pool == 819
    assert p.taps == (256, 254, 251, 246)
    assert p.uses_lift


def test_params_validation():
    with pytest.raises(ValueError):
        small_params(n0=7)  # n0*l != N
    with pytest.raises(ValueError):
        small_params(k0=8)  # k0 must stay below n0
    with pytest.raises(ValueError):
        small_params(mu_s=9)  # more shifts than the sub-block length
    with pytest.raises(ValueError):
        small_params(pool=40)  # pool below K
    with pytest.raises(ValueError):
        small_params(taps=(12, 1))  # register degree must equal N-K


def test_generate_key_deterministic():
    p = small_params()
    a = generate_key(p, derive_rng(99, "keygen"))
    b = generate_key(p, derive_rng(99, "keygen"))
    c = generate_key(p, derive_rng(100, "keygen"))
    assert a == b
    assert a != c
    validate_key(a)


def test_secret_indices_live_in_pool():
    p = small_params(pool=52)
    table = p.reliability_table()
    rng = derive_rng(3, "idx")
    for _ in range(20):
        idx = select_secret_indices(table, p.pool, p.num_info, rng)
        assert len(idx) == p.num_info
        assert np.all(np.diff(idx) > 0)
        assert set(idx.tolist()) <= set(table.pi[: p.pool].tolist())


def test_scrambler_structure_and_weights():
    p = small_params()
    rng = derive_rng(17, "scr")
    s = gen_scrambler(p, rng)
    assert s.is_nonsingular()
    # block-circulant with the diagonal parity adjustment: row and
    # column weights sit at k0*mu_s +/- 1
    dense = s.to_dense()
    weights = set(dense.sum(axis=1).tolist()) | set(dense.sum(axis=0).tolist())
    assert weights <= {p.k0 * p.mu_s - 1, p.k0 * p.mu_s + 1}


def test_scrambler_codec_round_trip_random():
    p = reference_params()
    rng = derive_rng(5, "scrambler-codec")
    for _ in range(100):
        s = gen_scrambler(p, rng)
        compressed = compress_scrambler(s, p)
        assert len(compressed) == p.mu_s * p.k0 * p.k0
        assert decompress_scrambler(compressed, p) == s


def test_scrambler_codec_exhaustive_small():
    # every possible block-circulant scrambler at l <= 4, k0 <= 2, plus an
    # odd k0 >= 3 and a single wide block (n0 chosen so n0*l is a power of
    # two; l = 3 admits no such shape); each is invertible exactly as the
    # parameters alone say, and every invertible one has its ring inverse
    # equal to the dense Gauss-Jordan inverse
    shapes = [(1, 1, 2), (1, 2, 4), (2, 1, 2), (2, 2, 4), (4, 1, 2), (4, 2, 4),
              (2, 3, 4), (8, 1, 2)]
    verdicts = set()
    for l, k0, n0 in shapes:
        n = int(np.log2(n0 * l))
        gap = (n0 - k0) * l
        taps = (gap, 1) if gap > 1 else (1,)
        for mu_s in range(1, l + 1):
            p = KeyParams(n=n, k0=k0, n0=n0, l=l, mu_s=mu_s,
                          epsilon=0.05, pool=n0 * l, taps=taps)
            invertible = scrambler_invertible(p)
            verdicts.add(invertible)
            per_block = list(itertools.combinations(range(l), mu_s))
            for combo in itertools.product(per_block, repeat=k0 * k0):
                flat = (np.array(combo, dtype=np.int64) + 1).reshape(-1)
                s = decompress_scrambler(flat, p)
                assert np.array_equal(compress_scrambler(s, p), flat)
                assert s.is_nonsingular() == invertible
                if invertible:
                    key = key_with_positions(p, flat)
                    assert key.scrambler_inverse == s.inverse()
    assert verdicts == {True, False}


def test_scrambler_inverse_over_ring_matches_dense_at_reference_params():
    for seed in (1, 2, 3):
        key = generate_key(reference_params(), derive_rng(seed, "keygen"))
        assert key.scrambler_inverse == key.scrambler.inverse()


def test_identity_scrambler_valid_single_block():
    # k0 = 1, mu_s = 1, offset 0 is exactly the identity
    p = small_params(k0=1, n0=2, l=32, mu_s=1, taps=(32, 22, 2, 1))
    s = decompress_scrambler(np.array([1], dtype=np.int64), p)
    assert np.array_equal(s.to_dense(), np.eye(32, dtype=np.uint8))
    assert s.is_nonsingular()


def test_all_ones_scrambler_rejected():
    # k0 = 1, l = 2, mu_s = 2 forces the all-ones 2x2 block, which is
    # singular, so generation must fail rather than return it
    p = KeyParams(n=2, k0=1, n0=2, l=2, mu_s=2, epsilon=0.05, pool=4,
                  taps=(2, 1))
    s = decompress_scrambler(np.array([1, 2], dtype=np.int64), p)
    assert np.array_equal(s.to_dense(), np.ones((2, 2), dtype=np.uint8))
    with pytest.raises(KeyGenerationError):
        gen_scrambler(p, derive_rng(0, "doomed"))


def test_permutation_codec_round_trip():
    p = reference_params()
    rng = derive_rng(8, "perm-codec")
    for _ in range(100):
        perm = gen_permutation(p, rng)
        offsets = compress_permutation(perm, p)
        assert len(offsets) == p.n0
        assert decompress_permutation(offsets, p) == perm
    # exhaustive small case: every offset vector at l = 4, n0 = 2
    p2 = small_params(n=3, k0=1, n0=2, l=4, mu_s=1, pool=8, taps=(4, 1))
    for offs in itertools.product(range(4), repeat=2):
        offsets = np.array(offs, dtype=np.int64)
        perm = decompress_permutation(offsets, p2)
        assert np.array_equal(compress_permutation(perm, p2), offsets)


def _flip(dense: np.ndarray, row: int, col: int) -> np.ndarray:
    out = dense.copy()
    out[row, col] ^= 1
    return out


# each case edits a valid dense S or P of small_params() (l = 8, K = 48,
# N = 64): (codec, edit, message of the KeyFormatError)
CODEC_REJECTIONS = {
    "scrambler-shape": (compress_scrambler, lambda d: d[:, :-1], "must be 48x48"),
    "scrambler-not-circulant": (compress_scrambler, lambda d: _flip(d, 1, 8), "not circulant"),
    "scrambler-row-weight": (compress_scrambler, lambda d: _flip(d, 0, 8), "first-row weight"),
    "permutation-shape": (compress_permutation, lambda d: d[:-1, :-1], "must be 64x64"),
    "permutation-off-diagonal": (compress_permutation,
                                 lambda d: _flip(_flip(d, 1, np.flatnonzero(d[1])[0]), 1, 8),
                                 "not block-diagonal"),
    "permutation-multi-one": (compress_permutation,
                              lambda d: _flip(d, 0, (np.flatnonzero(d[0])[0] + 1) % 8),
                              "single 1"),
}


@pytest.mark.parametrize("case", sorted(CODEC_REJECTIONS))
def test_codecs_reject_unstructured_matrices(case):
    codec, edit, message = CODEC_REJECTIONS[case]
    p = small_params()
    rng = derive_rng(12, "codec-reject")
    valid = (gen_scrambler if codec is compress_scrambler else gen_permutation)(p, rng)
    codec(valid, p)  # the unedited matrix compresses
    with pytest.raises(KeyFormatError, match=message):
        codec(GF2Matrix.from_dense(edit(valid.to_dense())), p)


def test_perm_offsets_to_dst_matches_matrix_action():
    p = small_params()
    rng = derive_rng(11, "perm-action")
    for _ in range(10):
        perm = gen_permutation(p, rng)
        offsets = compress_permutation(perm, p)
        dst = perm_offsets_to_dst(offsets, p.l)
        v = rng.integers(0, 2, size=p.block_length, dtype=np.uint8)
        out = np.empty_like(v)
        out[dst] = v
        assert np.array_equal((v.astype(np.int64) @ perm.to_dense()) % 2, out)


def test_golden_key_files():
    # the benchmark's reference key and a derived-seed key, byte for byte
    data = serialize_key(generate_key(reference_params(), np.random.default_rng(20130725)))
    assert len(data) == 1763
    assert hashlib.sha256(data).hexdigest() == (
        "396646c6272a1f3792a7e4b660902e603f4f4a84c209dbde335f48695c47e5a2")
    data = serialize_key(generate_key(reference_params(), derive_rng(7, "keygen")))
    assert hashlib.sha256(data).hexdigest() == (
        "62c92b00e00b96dcf1d0ffd1378d15575488b8d6d26747fb9f9d21e83954aad9")


def test_seed_bits_past_64_reach_the_key():
    # derive_rng keeps every bit of the seed: a 256-bit seed and its low
    # 64 bits give different keys
    seed = int.from_bytes(hashlib.sha256(b"wide seed").digest(), "little")
    low = seed & ((1 << 64) - 1)
    wide = generate_key(small_params(), derive_rng(seed, "keygen"))
    assert wide != generate_key(small_params(), derive_rng(low, "keygen"))
    assert wide == generate_key(small_params(), derive_rng(seed, "keygen"))


def test_key_life_cycle_runs_no_elimination(monkeypatch):
    # nor a product table: key handling stays out of set-up time
    def refuse(self, *args):
        raise AssertionError("GF(2) elimination or product table during key handling")

    monkeypatch.setattr(gf2, "rref", refuse)
    for name in ("rank", "pivots", "inverse"):
        monkeypatch.setattr(GF2Matrix, name, refuse)
    monkeypatch.setattr(GF2Matrix, "tables", property(refuse))
    key = generate_key(reference_params(), derive_rng(3, "keygen"))
    assert deserialize_key(serialize_key(key)) == key


def test_deserialize_rejects_singular_scrambler_shape():
    # k0 = 1, l = 2, mu_s = 2: the only scrambler is the all-ones 2x2
    # block; a hand-built key of that shape has a valid CRC but no inverse,
    # and its ring inverse finds no unit pivot
    p = KeyParams(n=2, k0=1, n0=2, l=2, mu_s=2, epsilon=0.05, pool=4,
                  taps=(2, 1))
    key = SecretKey(params=p, info_indices=np.array([1, 2], dtype=np.int64),
                    lfsr_state=np.array([1, 0], dtype=np.uint8),
                    scrambler_positions=(1, 2), permutation_offsets=(0, 1))
    with pytest.raises(KeyFormatError, match="singular"):
        deserialize_key(serialize_key(key))
    with pytest.raises(SingularMatrixError):
        key.scrambler_inverse


def test_serialize_deserialize_byte_exact():
    for params, seed in ((small_params(), 1), (reference_params(), 2)):
        key = generate_key(params, derive_rng(seed, "keygen"))
        data = serialize_key(key)
        key2 = deserialize_key(data)
        assert key2 == key
        assert serialize_key(key2) == data


def test_deserialize_rejects_corruption():
    key = generate_key(small_params(), derive_rng(4, "keygen"))
    data = bytearray(serialize_key(key))
    with pytest.raises(KeyFormatError):
        deserialize_key(bytes(data[:10]))  # truncated
    flipped = data.copy()
    flipped[len(flipped) // 2] ^= 0xFF
    with pytest.raises(KeyFormatError):
        deserialize_key(bytes(flipped))  # CRC mismatch
    wrong_magic = data.copy()
    wrong_magic[0] ^= 0xFF
    with pytest.raises(KeyFormatError):
        deserialize_key(bytes(wrong_magic))
    with pytest.raises(KeyFormatError):
        deserialize_key(bytes(data) + b"\x00")  # trailing garbage


def test_deserialize_rejects_taps_out_of_order():
    # one key, one encoding: stored taps must be strictly descending, so
    # a reordered or repeated tap list with a valid CRC does not load
    data = serialize_key(generate_key(small_params(), derive_rng(5, "keygen")))
    at = len(MAGIC) + struct.calcsize("<BHHHBBBd")
    assert struct.unpack_from("<B4H", data, at) == (4, 16, 15, 13, 4)
    head, tail = data[:at], data[at + 9 : -4]
    for taps in ((16, 15, 13, 4), (4, 13, 15, 16), (16, 16, 15, 13, 4)):
        body = head + struct.pack(f"<B{len(taps)}H", len(taps), *taps) + tail
        stored = body + struct.pack("<I", zlib.crc32(body))
        if taps == (16, 15, 13, 4):
            assert serialize_key(deserialize_key(stored)) == data
        else:
            with pytest.raises(KeyFormatError, match="strictly descending"):
                deserialize_key(stored)


def test_validate_key_catches_tampering():
    import dataclasses

    key = generate_key(small_params(), derive_rng(6, "keygen"))
    bad_idx = key.info_indices.copy()
    bad_idx[0] = bad_idx[1]  # no longer strictly ascending
    broken = dataclasses.replace(key, info_indices=bad_idx)
    with pytest.raises(ValueError):
        validate_key(broken)
    zeroed = dataclasses.replace(
        key, lfsr_state=np.zeros_like(key.lfsr_state))
    with pytest.raises(ValueError):
        validate_key(zeroed)
