"""Block encryption/decryption sessions and file framing.

One block encrypts a K-bit message M to an N-bit ciphertext

    C = (M S G_A  +  s G_Ac) P

where S is the secret scrambler, G_A / G_Ac are the rows of the polar
transform selected by the secret information set A and its complement,
s is the current (N-K)-bit LFSR syndrome, and P the secret permutation.
Both endpoints clock the same LFSR from the shared initial fill, so the
syndrome never travels with the ciphertext.

The block map is one fixed N x N matrix, C = [M, s] E with
E = [S G_A; G_Ac] P, so encryption is one table product
(:func:`.gf2.mul_bits_matrix`).

Decryption works on batches only, and picks one path per batch.  A batch
with no erasure holds C itself, and C E^-1 = [M, s]: one product by the
same routine.  A batch with any erasure runs the bitsliced
successive-cancellation decoder of :mod:`.polar` on C P^-1 for every
block, with the frozen positions pinned to the session syndrome, and then
one product by S^-1; on a block with no erasure SC returns u_A exactly,
so a valid block decodes the same on either path.  Encryption also has a
one-block session call.

A session is a function of its key alone, so ``CipherContext(key,
start_block)`` is its only constructor; a toy instance of
:mod:`.attacks` is a key without the block structure.  A session builds
what each direction needs on first use: E, and for a key the dense S it
is built from, on first encrypt; S^-1 (for a key, inverted over the
circulant ring, see :mod:`.keys`) on first decrypt, and E^-1, built
from it, on the first batch with no erasure.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gf2 import GF2Matrix, mul_bits_matrix, pack_rows
from .keys import SecretKey
from .lfsr import Lfsr
from .polar import FrozenPlan, sc_decode_batch

FRAME_COUNT_BITS = 16


class CiphertextError(ValueError):
    """Structurally invalid ciphertext (bad length, empty stream, ...)."""


@dataclass(frozen=True)
class CiphertextBlock:
    """One encrypted block plus its position in the session stream."""

    bits: np.ndarray = field(repr=False)
    sequence_number: int = 0


class CipherContext:
    """Stateful encryption/decryption session bound to one key.

    The key is a :class:`~.keys.SecretKey` or anything else with its six
    session attributes: ``info_indices``, ``lfsr_state``, ``taps``,
    ``perm_dst``, ``scrambler`` and ``scrambler_inverse`` (a toy instance
    of :mod:`.attacks` is one).  N comes from ``perm_dst``.

    Each context owns an LFSR clocked forward one syndrome per block;
    encryptor and decryptor stay synchronized by processing the same
    number of blocks from the same ``start_block``.
    """

    def __init__(self, key: SecretKey, start_block: int = 0):
        if start_block < 0:
            raise ValueError("start_block must be non-negative")
        self._key = key
        perm_dst = np.asarray(key.perm_dst, dtype=np.int64)
        self.block_length = perm_dst.size
        self.n = self.block_length.bit_length() - 1
        if self.block_length != 1 << self.n:
            raise ValueError(f"block length {self.block_length} is not a power of two")
        if not np.array_equal(np.sort(perm_dst), np.arange(self.block_length)):
            raise ValueError("perm_dst must be a permutation of 0..N-1")
        self.perm_dst = perm_dst
        self.plan = FrozenPlan.from_info_set(self.n, key.info_indices)
        self.num_info = self.plan.num_info
        self.lfsr = Lfsr(key.taps, key.lfsr_state)
        self.lfsr.skip(start_block)  # jump to the session offset, O(log start_block)
        self.blocks_processed = start_block

    # ---- derived matrices --------------------------------------------

    @property
    def scrambler(self) -> GF2Matrix:
        """S, the key's (for a key, built dense on first use)."""
        return self._key.scrambler

    @cached_property
    def scrambler_inv(self) -> GF2Matrix:
        """S^-1, the key's, read on first decrypt."""
        return self._key.scrambler_inverse

    @cached_property
    def _encryption_map(self) -> GF2Matrix:
        """E, read-only, built on first encrypt.  Column c of F P is column
        src[c] of F, and F[i, j] = 1 exactly when j's bits lie within i's;
        row i of S G_A P is the XOR of G_A P's rows over S's row i."""
        size, index = self.block_length, np.min_scalar_type(self.block_length - 1)
        src = np.argsort(self.perm_dst).astype(index)
        info, frozen = (pack_rows((src & ~at.astype(index)[:, None]) == 0)
                        for at in (self.plan.info0, self.plan.frozen0))
        words = np.vstack([np.zeros_like(info), frozen])
        support = np.flatnonzero(self.scrambler.to_dense().view(bool))
        rows, cols = np.divmod(support, self.num_info)
        starts = np.flatnonzero(np.diff(rows, prepend=-1))  # a zero row of S stays zero
        words[rows[starts]] = np.bitwise_xor.reduceat(info[cols], starts, axis=0)
        words.setflags(write=False)
        return GF2Matrix(size, size, words)

    @cached_property
    def _decryption_map(self) -> GF2Matrix:
        """E^-1, read-only, built on the first clean decrypt: F is its own
        inverse, so E^-1[perm_dst] = F D, where D maps u to [M, s]."""
        size, k, inv = self.block_length, self.num_info, self.scrambler_inv.words
        d = np.zeros((size, -(-size // 64)), dtype=np.uint64)
        d[self.plan.info0, : inv.shape[1]] = inv  # u_A S^-1 = M
        d[self.plan.frozen0] = pack_rows(np.eye(size - k, size, k, dtype=np.uint8))  # u_Ac = s
        for b in range(self.n):  # row i of F D is the XOR of D's rows within i's bits
            pairs = d.reshape(-1, 2, 1 << b, d.shape[1])
            pairs[:, 1] ^= pairs[:, 0]
        words = d[np.argsort(self.perm_dst)]
        words.setflags(write=False)
        return GF2Matrix(size, size, words)

    def encryption_matrix(self) -> GF2Matrix:
        """G' = S G_A P, the effective K x N one-block encryption map: the
        first K rows of E, read-only."""
        e = self._encryption_map
        return GF2Matrix(self.num_info, e.ncols, e.words[: self.num_info])

    def perturbation(self, syndrome: np.ndarray) -> np.ndarray:
        """The additive codeword offset ``s G_Ac`` (before permutation): the
        encryption of the zero message, with P undone."""
        return self.encrypt_with_syndrome(np.zeros(self.num_info), syndrome)[self.perm_dst]

    # ---- stateless one-block primitives ------------------------------

    def encrypt_with_syndrome(self, message: np.ndarray, syndrome: np.ndarray) -> np.ndarray:
        """Encrypt one block under an explicit syndrome (no LFSR step)."""
        out = self.encrypt_blocks_with_syndromes(
            np.asarray(message, dtype=np.uint8)[None, :],
            np.asarray(syndrome, dtype=np.uint8)[None, :],
        )
        return out[0]

    def encrypt_blocks_with_syndromes(
        self, messages: np.ndarray, syndromes: np.ndarray
    ) -> np.ndarray:
        messages = np.asarray(messages, dtype=np.uint8)
        syndromes = np.asarray(syndromes, dtype=np.uint8)
        if messages.ndim != 2 or messages.shape[1] != self.num_info:
            raise ValueError(f"messages must be (batch, {self.num_info})")
        if syndromes.shape != (len(messages), self.block_length - self.num_info):
            raise ValueError("syndromes must be (batch, N - K)")
        return mul_bits_matrix(np.hstack([messages, syndromes]), self._encryption_map)

    def decrypt_blocks_with_syndromes(
        self, received: np.ndarray, syndromes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Messages and ambiguity flags of (batch, N) received blocks: int8
        with ``-1`` for an erasure, or uint8 bits, read as they are.  A batch
        with no erasure is one product by E^-1; a batch with any erasure
        runs SC on every block, then one product by S^-1."""
        received = np.asarray(received)
        if received.dtype != np.uint8:  # uint8 bits hold no erasure to scan for
            received = received.astype(np.int8, copy=False)
        if received.ndim != 2 or received.shape[1] != self.block_length:
            raise ValueError(f"received must be (batch, {self.block_length})")
        syndromes = np.asarray(syndromes, dtype=np.int8)
        if syndromes.shape != (len(received), self.block_length - self.num_info):
            raise ValueError("syndromes must be (batch, N - K)")
        if received.dtype == np.uint8 or not (received < 0).any():  # [M, s] = C E^-1
            m_s = mul_bits_matrix(received.view(np.uint8), self._decryption_map)
            ambiguous = np.zeros(len(received), dtype=bool)
            return np.ascontiguousarray(m_s[:, : self.num_info]), ambiguous  # frees the s half
        scrambled, ambiguous = sc_decode_batch(received[:, self.perm_dst], self.plan, syndromes)
        return mul_bits_matrix(scrambled, self.scrambler_inv), ambiguous

    # ---- stateful session API ----------------------------------------

    def encrypt(self, message: np.ndarray) -> CiphertextBlock:
        """Encrypt the next block in the session stream."""
        seq = self.blocks_processed
        syndrome = self.lfsr.next_syndrome()
        bits = self.encrypt_with_syndrome(message, syndrome)
        self.blocks_processed += 1
        return CiphertextBlock(bits=bits, sequence_number=seq)

    def encrypt_blocks(self, messages: np.ndarray) -> np.ndarray:
        """Encrypt a (batch, K) run of blocks, advancing the session."""
        messages = np.asarray(messages, dtype=np.uint8)
        syndromes = self.lfsr.syndromes(messages.shape[0])
        self.blocks_processed += messages.shape[0]
        return self.encrypt_blocks_with_syndromes(messages, syndromes)

    def decrypt_blocks(self, received: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Decrypt a (batch, N) run of blocks, advancing the session."""
        received = np.asarray(received)
        syndromes = self.lfsr.syndromes(received.shape[0])
        self.blocks_processed += received.shape[0]
        return self.decrypt_blocks_with_syndromes(received, syndromes)


# ---------------------------------------------------------------------------
# byte-stream framing
# ---------------------------------------------------------------------------

def frame_plaintext(data: bytes, k: int) -> np.ndarray:
    """Split a byte string into (blocks, K) message bits with a length
    trailer.

    The final block reserves its last 16 bits for a little-endian count
    of payload bits held by the tail-carrying block; the count is below
    K, so K may be at most 2**16.  A tail short enough to share the final
    block does so; a longer tail gets its own zero-padded block followed
    by a dedicated trailer block; an empty input produces a single
    trailer-only block with count 0.
    """
    if not FRAME_COUNT_BITS <= k <= 1 << FRAME_COUNT_BITS:
        raise ValueError(f"framing needs {FRAME_COUNT_BITS} <= K <= 2**{FRAME_COUNT_BITS}")
    cap = k - FRAME_COUNT_BITS
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    total = bits.size
    full = total // k
    tail = total - full * k
    nblocks = full + (1 if tail <= cap else 2)
    out = np.zeros((nblocks, k), dtype=np.uint8)
    out[:full] = bits[: full * k].reshape(full, k)
    if tail:
        out[full, :tail] = bits[full * k :]
    out[-1, cap:] = (tail >> np.arange(FRAME_COUNT_BITS)) & 1
    return out


def unframe_plaintext(blocks: np.ndarray) -> bytes:
    """Inverse of :func:`frame_plaintext`.

    Deliberately lenient about corrupt trailers (a wrong-key decryption
    yields garbage bits but must still produce deterministic output): an
    out-of-range count is treated as 0, and a payload not ending on a
    byte boundary is truncated to whole bytes.  Only structural problems
    (no blocks at all, or K outside 16..2**16) raise
    :class:`CiphertextError`.
    """
    blocks = np.asarray(blocks, dtype=np.uint8)
    if blocks.ndim != 2 or blocks.shape[0] == 0:
        raise CiphertextError("plaintext stream must contain at least the trailer block")
    nblocks, k = blocks.shape
    if not FRAME_COUNT_BITS <= k <= 1 << FRAME_COUNT_BITS:
        raise CiphertextError(f"block size {k} cannot carry the {FRAME_COUNT_BITS}-bit trailer")
    cap = k - FRAME_COUNT_BITS
    count = int(np.packbits(blocks[-1, cap:], bitorder="little").view(np.uint16)[0])
    if count <= cap:
        payload = [blocks[:-1].reshape(-1), blocks[-1, :count]]
    elif count < k and nblocks >= 2:
        payload = [blocks[:-2].reshape(-1), blocks[-2, :count]]
    else:  # corrupt trailer; fall back to count 0
        payload = [blocks[:-1].reshape(-1)]
    bits = np.concatenate(payload) if payload else np.zeros(0, dtype=np.uint8)
    usable = bits.size - (bits.size % 8)
    return np.packbits(bits[:usable], bitorder="little").tobytes()


def pack_ciphertext(blocks: np.ndarray) -> bytes:
    """Serialize (batch, N) ciphertext bits, LSB-first per byte."""
    blocks = np.asarray(blocks, dtype=np.uint8)
    if blocks.ndim != 2 or blocks.shape[1] % 8:
        raise CiphertextError("block length must be a multiple of 8 bits")
    return np.packbits(blocks.reshape(-1), bitorder="little").tobytes()


def unpack_ciphertext(data: bytes, block_length: int) -> np.ndarray:
    """Parse ciphertext bytes back into (batch, N) bit blocks."""
    if block_length % 8:
        raise CiphertextError("block length must be a multiple of 8 bits")
    if (len(data) * 8) % block_length:
        raise CiphertextError(
            f"ciphertext length {len(data)} bytes is not a whole number of "
            f"{block_length}-bit blocks"
        )
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    return bits.reshape(-1, block_length)
