"""Block cipher sessions, the algebraic encryption relation, framing."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsec import cipher
from polarsec.attacks import ToyInstance, build_toy_instance
from polarsec.cipher import (
    CipherContext,
    CiphertextBlock,
    CiphertextError,
    frame_plaintext,
    pack_ciphertext,
    unframe_plaintext,
    unpack_ciphertext,
)
from polarsec.gf2 import GF2Matrix, mul_bits_matrix, pack_rows, rref, unpack_rows
from polarsec.keys import (
    KeyParams,
    deserialize_key,
    generate_key,
    reference_params,
    serialize_key,
)
from polarsec.polar import ERASED, bec_transmit, kernel_power, polar_transform, sc_decode_batch
from polarsec.rng import derive_rng

SMALL = KeyParams(n=6, k0=6, n0=8, l=8, mu_s=2, epsilon=0.05, pool=64,
                  taps=(16, 15, 13, 4))


@pytest.fixture(scope="module")
def key():
    return generate_key(SMALL, derive_rng(12, "keygen"))


@pytest.fixture(scope="module")
def other_key():
    return generate_key(SMALL, derive_rng(999, "keygen"))


@pytest.fixture(scope="module")
def reference_key():
    # the benchmark's reference key
    return generate_key(reference_params(), np.random.default_rng(20130725))


TOY = build_toy_instance(5, 20, seed=4)  # dense scrambler, N = 32, K = 20


def test_round_trip_without_channel(key):
    rng = derive_rng(1, "rt")
    enc, dec = CipherContext(key), CipherContext(key)
    msgs = rng.integers(0, 2, size=(200, SMALL.num_info), dtype=np.uint8)
    out, amb = dec.decrypt_blocks(enc.encrypt_blocks(msgs))
    assert not amb.any()
    assert np.array_equal(out, msgs)


def test_single_block_api_matches_batch(key):
    rng = derive_rng(2, "single")
    msgs = rng.integers(0, 2, size=(7, SMALL.num_info), dtype=np.uint8)
    batch_ct = CipherContext(key).encrypt_blocks(msgs)
    one = CipherContext(key)
    for i in range(7):
        block = one.encrypt(msgs[i])
        assert isinstance(block, CiphertextBlock)
        assert block.sequence_number == i
        assert np.array_equal(block.bits, batch_ct[i])


def test_encryption_is_affine_in_message_and_syndrome(key):
    # C = M (S G_A P) + perturbation(s) P, checked against the explicit
    # matrix form on random inputs
    rng = derive_rng(3, "affine")
    ctx = CipherContext(key)
    gprime = ctx.encryption_matrix().to_dense().astype(np.int64)
    for _ in range(20):
        msg = rng.integers(0, 2, size=SMALL.num_info, dtype=np.uint8)
        syn = rng.integers(0, 2, size=SMALL.num_frozen, dtype=np.uint8)
        got = ctx.encrypt_with_syndrome(msg, syn)
        pert = ctx.perturbation(syn)
        permuted_pert = np.empty_like(pert)
        permuted_pert[ctx.perm_dst] = pert
        assert np.array_equal(got, (msg @ gprime) % 2 ^ permuted_pert)


def with_scrambler(toy: ToyInstance, dense: np.ndarray) -> ToyInstance:
    return ToyInstance(toy.num_info, toy.taps, toy.info_indices, GF2Matrix.from_dense(dense),
                       toy.perm_dst, toy.lfsr_state)


def test_encryption_matrix_matches_dense_reference(key, reference_key):
    # G' = S G_A P from the dense kernel power, sharing no code with the
    # butterfly: row i of G_A is row info0[i] of F^(n); a singular toy S
    # with zero rows, or all zero, gives G' zero rows there
    zero_rows = TOY.scrambler.to_dense()
    zero_rows[[0, 7, 19]] = 0
    for k in (key, reference_key, with_scrambler(TOY, zero_rows),
              with_scrambler(TOY, np.zeros_like(zero_rows))):
        ctx = CipherContext(k)
        f = kernel_power(ctx.n).astype(np.float64)
        sga = (k.scrambler.to_dense().astype(np.float64) @ f[ctx.plan.info0]) % 2
        want = np.empty_like(sga)
        want[:, ctx.perm_dst] = sga
        assert np.array_equal(ctx.encryption_matrix().to_dense(), want.astype(np.uint8))
        assert not ctx.encryption_matrix().words.flags.writeable


def test_decryption_map_inverts_encryption_map(key, reference_key):
    # E E^-1 = I on block-circulant keys and on a dense toy scrambler with
    # N < 64 (one word per row)
    for ctx in (CipherContext(key), TOY.context(), CipherContext(reference_key)):
        e = ctx._encryption_map.to_dense().astype(np.float32)
        e_inv = ctx._decryption_map.to_dense().astype(np.float32)
        assert np.array_equal((e @ e_inv) % 2, np.eye(ctx.block_length))
        assert not ctx._decryption_map.words.flags.writeable


def layered_encrypt(ctx, messages, syndromes):
    """C = (M S G_A + s G_Ac) P one layer at a time: dense M S, placement
    on the information and frozen positions, the butterfly, then the
    scatter by P."""
    u = np.zeros((len(messages), ctx.block_length), dtype=np.uint8)
    u[:, ctx.plan.info0] = (messages.astype(np.int64) @ ctx.scrambler.to_dense()) % 2
    u[:, ctx.plan.frozen0] = syndromes
    x = polar_transform(u)
    out = np.empty_like(x)
    out[:, ctx.perm_dst] = x
    return out


@settings(max_examples=40)
@given(which=st.sampled_from(["small", "toy", "toy4", "reference"]),
       batch=st.sampled_from([0, 1, 63, 64, 65, 130]), seed=st.integers(0, 2**32 - 1))
def test_encrypt_matches_layered_reference(key, reference_key, which, batch, seed):
    # the table product against the layers it replaces, on a block-circulant
    # S (SMALL and the reference key) and on dense toy scramblers
    ctx = {
        "small": lambda: CipherContext(key),
        "toy": TOY.context,
        "toy4": lambda: build_toy_instance(4, 10, seed=seed % 8).context(),
        "reference": lambda: CipherContext(reference_key),
    }[which]()
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, 2, size=(batch, ctx.num_info), dtype=np.uint8)
    syn = rng.integers(0, 2, size=(batch, ctx.block_length - ctx.num_info), dtype=np.uint8)
    got = ctx.encrypt_blocks_with_syndromes(msgs, syn)
    assert got.dtype == np.uint8
    assert np.array_equal(got, layered_encrypt(ctx, msgs, syn))


def test_golden_ciphertext(reference_key):
    # a fixed 64 KiB input under the reference key, byte for byte, at the
    # start of the stream and at block 300; both decrypt to the input
    data = hashlib.shake_256(b"polarsec golden plaintext").digest(1 << 16)
    k, size = reference_key.params.num_info, reference_key.params.block_length
    golden = {
        0: "65ac02ad5d2ded70f94d4a5e02fc779583b928c08b0b6b0fb4bedf81773d43f1",
        300: "c322e255e49be6601d45e9d5088f37fe71b5dcfc147b8b4ceba8948241091982",
    }
    for start, digest in golden.items():
        sender = CipherContext(reference_key, start_block=start)
        payload = pack_ciphertext(sender.encrypt_blocks(frame_plaintext(data, k)))
        assert hashlib.sha256(payload).hexdigest() == digest
        receiver = CipherContext(reference_key, start_block=start)
        blocks, amb = receiver.decrypt_blocks(unpack_ciphertext(payload, size))
        assert not amb.any()
        assert unframe_plaintext(blocks) == data


def test_start_block_offsets_stay_in_sync(key):
    rng = derive_rng(4, "offset")
    msgs = rng.integers(0, 2, size=(10, SMALL.num_info), dtype=np.uint8)
    full = CipherContext(key).encrypt_blocks(msgs)
    late = CipherContext(key, start_block=6)
    tail = late.encrypt_blocks(msgs[6:])
    assert np.array_equal(tail, full[6:])
    dec = CipherContext(key, start_block=6)
    out, amb = dec.decrypt_blocks(full[6:])
    assert not amb.any()
    assert np.array_equal(out, msgs[6:])


def test_start_block_is_a_jump_not_a_burn(key, monkeypatch):
    # a session at block 2^63 makes no syndrome for the blocks before it
    start = 2**63
    rng = derive_rng(5, "far-offset")
    msgs = rng.integers(0, 2, size=(3, SMALL.num_info), dtype=np.uint8)
    with monkeypatch.context() as m:
        m.setattr(cipher.Lfsr, "syndromes", None)
        sender = CipherContext(key, start_block=start)
        receiver = CipherContext(key, start_block=start)
    out, amb = receiver.decrypt_blocks(sender.encrypt_blocks(msgs))
    assert not amb.any()
    assert np.array_equal(out, msgs)
    assert sender.blocks_processed == receiver.blocks_processed == start + 3


def test_syndrome_stream_differs_per_block(key):
    # identical plaintext blocks must encrypt differently down the stream
    msgs = np.zeros((5, SMALL.num_info), dtype=np.uint8)
    ct = CipherContext(key).encrypt_blocks(msgs)
    assert len({bytes(np.packbits(row)) for row in ct}) == 5


def test_decrypt_with_erasures_recovers_when_channel_is_kind(key):
    # the pool here is the whole index set, so erasures frequently land
    # on weak positions; the invariant is that unambiguous blocks are
    # always exact, not that ambiguity is rare
    rng = derive_rng(5, "erasure")
    enc, dec = CipherContext(key), CipherContext(key)
    msgs = rng.integers(0, 2, size=(300, SMALL.num_info), dtype=np.uint8)
    ct = enc.encrypt_blocks(msgs)
    received = bec_transmit(ct, 0.002, rng)
    out, amb = dec.decrypt_blocks(received)
    clean = ~amb
    assert np.array_equal(out[clean], msgs[clean])
    assert clean.sum() > 200  # mostly erasure-free at this rate
    assert amb.any()  # but the erasure path is genuinely exercised


def test_wrong_key_decrypts_deterministic_garbage(key):
    other = generate_key(SMALL, derive_rng(999, "keygen"))
    rng = derive_rng(6, "wrong")
    msgs = rng.integers(0, 2, size=(4, SMALL.num_info), dtype=np.uint8)
    ct = CipherContext(key).encrypt_blocks(msgs)
    out1, _ = CipherContext(other).decrypt_blocks(ct)
    out2, _ = CipherContext(other).decrypt_blocks(ct)
    assert np.array_equal(out1, out2)
    assert not np.array_equal(out1, msgs)


def reference_decrypt(ctx, received, syndromes):
    """SC on every block, then the dense Gauss-Jordan S^-1."""
    y = np.asarray(received, dtype=np.int8)[:, ctx.perm_dst]
    scrambled, ambiguous = sc_decode_batch(y, ctx.plan, syndromes.astype(np.int8))
    return mul_bits_matrix(scrambled, ctx.scrambler.inverse()), ambiguous


def layered_decrypt(ctx, received, syndromes):
    """Decryption one layer at a time: undo P, then u = x F for a clean
    block (the transform is its own inverse) or SC for an erased one, read
    u_A and multiply by the dense Gauss-Jordan S^-1."""
    y = np.asarray(received, dtype=np.int8)[:, ctx.perm_dst]
    erased = (y < 0).any(axis=1)
    scrambled = np.zeros((len(y), ctx.num_info), dtype=np.uint8)
    ambiguous = np.zeros(len(y), dtype=bool)
    scrambled[~erased] = polar_transform(y[~erased])[:, ctx.plan.info0]
    if erased.any():
        scrambled[erased], ambiguous[erased] = sc_decode_batch(
            y[erased], ctx.plan, syndromes[erased].astype(np.int8))
    s_inv = ctx.scrambler.inverse().to_dense().astype(np.int64)
    return ((scrambled.astype(np.int64) @ s_inv) % 2).astype(np.uint8), ambiguous


@settings(max_examples=60)
@given(which=st.sampled_from(["small", "toy", "reference"]), batch=st.integers(1, 40),
       rate=st.sampled_from([0.0, 1.0]) | st.floats(0.002, 0.2),
       seed=st.integers(0, 2**32 - 1))
def test_decrypt_path_per_batch_matches_sc_on_every_block(key, other_key, reference_key,
                                                          which, batch, rate, seed):
    # a batch with no erasure takes one product by E^-1 and skips SC, and a
    # batch with any erasure runs SC on every block; all-clean, all-erased
    # and mixed batches must decode exactly as the layered reference (the
    # transform read-off on each clean block) and as SC over every block do
    ctx = {"small": lambda: CipherContext(key), "toy": TOY.context,
           "reference": lambda: CipherContext(reference_key)}[which]()
    rng = np.random.default_rng(seed)
    msgs = rng.integers(0, 2, size=(batch, ctx.num_info), dtype=np.uint8)
    syn = rng.integers(0, 2, size=(batch, ctx.block_length - ctx.num_info), dtype=np.uint8)
    received = bec_transmit(ctx.encrypt_blocks_with_syndromes(msgs, syn), rate, rng)
    got, amb = ctx.decrypt_blocks_with_syndromes(received, syn)
    for want, want_amb in (layered_decrypt(ctx, received, syn),
                           reference_decrypt(ctx, received, syn)):
        assert np.array_equal(got, want)
        assert np.array_equal(amb, want_amb)
    assert np.array_equal(got[~amb], msgs[~amb])
    if which == "small":
        # a wrong key sees noiseless blocks that are no codeword under its
        # syndrome: the transform read-off's garbage, never flagged
        wrong = CipherContext(other_key)
        ct = CipherContext(key).encrypt_blocks_with_syndromes(msgs, syn)
        garbage, garbage_amb = wrong.decrypt_blocks_with_syndromes(ct, syn)
        assert np.array_equal(garbage, layered_decrypt(wrong, ct, syn)[0])
        assert not garbage_amb.any()


def test_syndrome_half_of_the_inverse_checks_the_stream(key, reference_key):
    # C E^-1 = [M, s]: on valid blocks its last N - K bits are the session's
    # syndromes, and none of a wrong key's blocks gives them
    wrong_key = generate_key(reference_params(), derive_rng(21, "keygen"))
    for k in (key, reference_key):
        e_inv, num_info = CipherContext(k)._decryption_map, k.params.num_info
        msgs = derive_rng(14, "syndrome-half").integers(0, 2, size=(256, num_info),
                                                        dtype=np.uint8)
        syn = CipherContext(k, start_block=77).lfsr.syndromes(256)
        m_s = mul_bits_matrix(CipherContext(k, start_block=77).encrypt_blocks(msgs), e_inv)
        assert np.array_equal(m_s[:, :num_info], msgs)
        assert np.array_equal(m_s[:, num_info:], syn)
    wrong = mul_bits_matrix(CipherContext(wrong_key, start_block=77).encrypt_blocks(msgs), e_inv)
    assert not (wrong[:, num_info:] == syn).all(axis=1).any()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_known_pairs_read_off_the_decryption_map(seed):
    # M is the first K coordinates of C E^-1 whatever the syndrome, so
    # decryption is a fixed linear map: known pairs whose ciphertexts span
    # GF(2)^N give it by one elimination of [C | M], at the reference
    # parameters and from any point of the stream
    key = generate_key(reference_params(), derive_rng(seed, "kpa"))
    size, k = key.params.block_length, key.params.num_info
    msgs = derive_rng(seed, "kpa-messages").integers(0, 2, size=(1050, k), dtype=np.uint8)
    ct = CipherContext(key, start_block=12_345).encrypt_blocks(msgs)
    reduced, pivots = rref(pack_rows(np.hstack([ct[:1040], msgs[:1040]])), size)
    assert pivots.size == size
    read_off = unpack_rows(reduced[:size], size + k)[:, size:]
    assert np.array_equal(read_off, CipherContext(key)._decryption_map.to_dense()[:, :k])
    held_out = mul_bits_matrix(ct[1040:], GF2Matrix.from_dense(read_off))
    assert np.array_equal(held_out, msgs[1040:])


def test_decrypt_rejects_syndromes_of_the_wrong_shape(key):
    ctx = CipherContext(key)
    clean = ctx.encrypt_blocks(np.zeros((3, SMALL.num_info), dtype=np.uint8)).astype(np.int8)
    erased = clean.copy()
    erased[1, 0] = ERASED
    for received in (clean, erased):
        with pytest.raises(ValueError, match="syndromes"):
            ctx.decrypt_blocks_with_syndromes(received, np.zeros((1, 5), dtype=np.uint8))


def test_uint8_and_int8_clean_blocks_decrypt_alike(key):
    # a uint8 batch holds bits and is read as it is, with no erasure scan;
    # the same blocks as int8 are scanned and found clean
    msgs = derive_rng(15, "dtypes").integers(0, 2, size=(40, SMALL.num_info), dtype=np.uint8)
    bits = CipherContext(key).encrypt_blocks(msgs)
    assert bits.dtype == np.uint8
    for received in (bits, bits.astype(np.int8)):
        got, amb = CipherContext(key).decrypt_blocks(received)
        assert np.array_equal(got, msgs)
        assert not amb.any()


def test_empty_batches(key):
    ctx = CipherContext(key)
    assert ctx.encrypt_blocks(np.zeros((0, SMALL.num_info), dtype=np.uint8)).shape == (
        0, SMALL.block_length)
    msgs, amb = ctx.decrypt_blocks(np.zeros((0, SMALL.block_length), dtype=np.int8))
    assert msgs.shape == (0, SMALL.num_info) and amb.shape == (0,)
    assert ctx.blocks_processed == 0


def test_sessions_build_only_what_they_use(monkeypatch):
    # a clean seal and open at the reference parameters run neither the
    # dense inverse nor SC; each direction builds only its own map, the
    # clean open no S^-1 tables, and an all-erased open no E^-1; the
    # sender's key gets no S^-1, and the receiver's freshly loaded key no
    # dense S
    key = generate_key(reference_params(), derive_rng(21, "keygen"))
    loaded = deserialize_key(serialize_key(key))

    def refuse(*args, **kwargs):
        raise AssertionError("dense inverse or SC decode in a noiseless session")

    monkeypatch.setattr(GF2Matrix, "inverse", refuse)
    data = derive_rng(22, "cost").bytes(2048)
    k, size = key.params.num_info, key.params.block_length
    sender = CipherContext(key, start_block=300)
    payload = pack_ciphertext(sender.encrypt_blocks(frame_plaintext(data, k)))
    receiver = CipherContext(loaded, start_block=300)
    with monkeypatch.context() as m:
        m.setattr(cipher, "sc_decode_batch", refuse)
        blocks, amb = receiver.decrypt_blocks(unpack_ciphertext(payload, size))
    assert not amb.any()
    assert unframe_plaintext(blocks) == data
    assert "scrambler_inv" not in sender.__dict__
    assert "_decryption_map" not in sender.__dict__
    assert "_encryption_map" not in receiver.__dict__
    assert "tables" not in receiver.scrambler_inv.__dict__
    received = unpack_ciphertext(payload, size).astype(np.int8)
    received[:, 0] = ERASED
    noisy = CipherContext(loaded, start_block=300)
    noisy.decrypt_blocks(received)
    assert "_decryption_map" not in noisy.__dict__
    assert "scrambler" not in loaded.__dict__
    assert "scrambler_inverse" not in key.__dict__


def test_toy_instance_of_key_components_matches_key(key):
    # a key's components as a toy instance (S^-1 by the dense inverse)
    # give the same sessions as the key (S^-1 over the circulant ring)
    clone = ToyInstance(
        num_info=SMALL.num_info,
        taps=key.taps,
        info_indices=key.info_indices,
        scrambler=key.scrambler,
        perm_dst=key.perm_dst,
        lfsr_state=key.lfsr_state,
    )
    rng = derive_rng(7, "clone")
    msgs = rng.integers(0, 2, size=(5, SMALL.num_info), dtype=np.uint8)
    ct = CipherContext(key, start_block=9).encrypt_blocks(msgs)
    assert np.array_equal(clone.context(start_block=9).encrypt_blocks(msgs), ct)
    assert clone.true_matrix == CipherContext(key).encryption_matrix()
    received = ct.astype(np.int8)
    received[0, 0] = ERASED  # one erased block sends the whole batch through SC and S^-1
    for session in (CipherContext(key, 9), clone.context(9)):
        out, amb = session.decrypt_blocks(received)
        assert np.array_equal(out[1:], msgs[1:]) and not amb[1:].any()
    assert clone.scrambler_inverse == key.scrambler_inverse


@pytest.mark.parametrize("perm_dst", [np.arange(12), np.array([0, 1, 2, 2]),
                                      np.array([0, 1, 2, 4]), np.arange(8).reshape(2, 4),
                                      np.array([1, 0])])
def test_context_rejects_bad_shapes(perm_dst):
    # the toy's information set is {1, 4}: at N = 2 index 4 lies above N
    toy = build_toy_instance(2, 2, seed=5)
    assert toy.info_indices.tolist() == [1, 4]
    bad = ToyInstance(toy.num_info, toy.taps, toy.info_indices, toy.scrambler,
                      perm_dst, toy.lfsr_state)
    with pytest.raises(ValueError):
        CipherContext(bad)
    with pytest.raises(ValueError):
        toy.context(start_block=-1)


def test_unscramble_inverts_scramble(key):
    ctx = CipherContext(key)
    rng = derive_rng(8, "scr")
    msgs = rng.integers(0, 2, size=(50, SMALL.num_info), dtype=np.uint8)
    scrambled = (msgs.astype(np.int64) @ ctx.scrambler.to_dense()) % 2
    back = mul_bits_matrix(scrambled, ctx.scrambler_inv)
    assert np.array_equal(back, msgs)


def test_framing_round_trip_sizes():
    k = SMALL.num_info  # 48 bits -> cap = 32 payload bits per trailer
    rng = derive_rng(9, "frame")
    for size in [0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 48, 100, 1000]:
        data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        blocks = frame_plaintext(data, k)
        assert blocks.shape[1] == k
        assert unframe_plaintext(blocks) == data


def test_framing_tail_boundaries():
    k = 48
    cap = k - 16
    # tails of cap-1, cap, cap+1 bits around the shared-trailer boundary
    for tail_bits in (cap - 8, cap, cap + 8):
        nbytes = (k * 3 + tail_bits) // 8
        data = bytes(range(256))[:nbytes]
        assert unframe_plaintext(frame_plaintext(data, k)) == data


def test_framing_empty_and_requirements():
    blocks = frame_plaintext(b"", 48)
    assert blocks.shape == (1, 48)
    assert unframe_plaintext(blocks) == b""
    with pytest.raises(ValueError):
        frame_plaintext(b"x", 15)


def test_framing_count_fits_sixteen_bits():
    # the trailer counts up to K - 1 bits in 16 bits: 8191 bytes leave a
    # 65528-bit tail past the shared-trailer cap at K = 2**16, and one
    # bit more of K would not fit the count
    data = derive_rng(14, "frame").bytes(8191)
    blocks = frame_plaintext(data, 1 << 16)
    assert blocks.shape == (2, 1 << 16)
    assert unframe_plaintext(blocks) == data
    with pytest.raises(ValueError):
        frame_plaintext(data, (1 << 16) + 1)
    with pytest.raises(CiphertextError):
        unframe_plaintext(np.zeros((2, (1 << 16) + 1), dtype=np.uint8))


def test_unframe_lenient_on_garbage():
    rng = derive_rng(10, "garbage")
    blocks = rng.integers(0, 2, size=(3, 48), dtype=np.uint8)
    out1 = unframe_plaintext(blocks)
    out2 = unframe_plaintext(blocks)
    assert out1 == out2  # deterministic whatever the trailer says
    with pytest.raises(CiphertextError):
        unframe_plaintext(np.zeros((0, 48), dtype=np.uint8))


def test_ciphertext_packing_round_trip(key):
    rng = derive_rng(11, "pack")
    ct = rng.integers(0, 2, size=(9, SMALL.block_length), dtype=np.uint8)
    data = pack_ciphertext(ct)
    assert len(data) == 9 * SMALL.block_length // 8
    assert np.array_equal(unpack_ciphertext(data, SMALL.block_length), ct)
    with pytest.raises(CiphertextError):
        unpack_ciphertext(data[:-1], SMALL.block_length)


def test_file_pipeline_end_to_end(key):
    rng = derive_rng(13, "file")
    data = rng.integers(0, 256, size=731, dtype=np.uint8).tobytes()
    sender = CipherContext(key)
    payload = pack_ciphertext(sender.encrypt_blocks(
        frame_plaintext(data, SMALL.num_info)))
    receiver = CipherContext(key)
    blocks, amb = receiver.decrypt_blocks(
        unpack_ciphertext(payload, SMALL.block_length))
    assert not amb.any()
    assert unframe_plaintext(blocks) == data
