"""Block encryption/decryption sessions and file framing.

One block encrypts a K-bit message M to an N-bit ciphertext

    C = (M S G_A  +  s G_Ac) P

where S is the secret scrambler, G_A / G_Ac are the rows of the polar
transform selected by the secret information set A and its complement,
s is the current (N-K)-bit LFSR syndrome, and P the secret permutation.
Both endpoints clock the same LFSR from the shared initial fill, so the
syndrome never travels with the ciphertext.

Internally the product with [G_A; G_Ac] is computed with the in-place
butterfly (N log N bit operations), not with materialized matrices.

Decryption works on batches only.  It reverses P and unscrambles with
S^-1.  A block with no erasure is a codeword, so the transform (its own
inverse) gives u and u_A is read off; only blocks with an erasure run the
bitsliced successive-cancellation decoder of :mod:`.polar`, with the
frozen positions pinned to the session syndrome.  A session builds what
each direction needs on first use: the scramble gather on first encrypt,
S^-1 on first decrypt (for a key, inverted over the circulant ring, see
:mod:`.keys`).  Encryption also has a one-block call, which the attack
oracles use.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .gf2 import GF2Matrix, mul_bits_matrix
from .keys import SecretKey, perm_offsets_to_dst
from .lfsr import Lfsr
from .polar import FrozenPlan, polar_transform, sc_decode_batch

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

    Each context owns an LFSR clocked forward one syndrome per block;
    encryptor and decryptor stay synchronized by processing the same
    number of blocks from the same ``start_block``.
    """

    def __init__(self, key: SecretKey, start_block: int = 0):
        p = key.params
        self._init_components(
            n=p.n,
            info_indices=np.asarray(key.info_indices, dtype=np.int64),
            scrambler=key.scrambler,
            scrambler_inverse=lambda: key.scrambler_inverse,
            perm_dst=perm_offsets_to_dst(key.permutation_offsets, p.l),
            taps=p.taps,
            lfsr_state=np.asarray(key.lfsr_state, dtype=np.uint8),
            start_block=start_block,
        )

    @classmethod
    def from_components(
        cls,
        n: int,
        info_indices: np.ndarray,
        scrambler: GF2Matrix,
        perm_dst: np.ndarray,
        taps: tuple[int, ...],
        lfsr_state: np.ndarray,
        start_block: int = 0,
    ) -> "CipherContext":
        """Build a session from raw components (used by toy instances
        whose scrambler/permutation need not be block-structured)."""
        ctx = cls.__new__(cls)
        ctx._init_components(
            n=n,
            info_indices=np.asarray(info_indices, dtype=np.int64),
            scrambler=scrambler,
            scrambler_inverse=scrambler.inverse,
            perm_dst=np.asarray(perm_dst, dtype=np.int64),
            taps=taps,
            lfsr_state=np.asarray(lfsr_state, dtype=np.uint8),
            start_block=start_block,
        )
        return ctx

    def _init_components(
        self,
        n: int,
        info_indices: np.ndarray,
        scrambler: GF2Matrix,
        scrambler_inverse: Callable[[], GF2Matrix],
        perm_dst: np.ndarray,
        taps: tuple[int, ...],
        lfsr_state: np.ndarray,
        start_block: int,
    ) -> None:
        if start_block < 0:
            raise ValueError("start_block must be non-negative")
        self.n = n
        self.block_length = 1 << n
        self.plan = FrozenPlan.from_info_set(n, info_indices)
        self.num_info = self.plan.num_info
        if (scrambler.nrows, scrambler.ncols) != (self.num_info, self.num_info):
            raise ValueError("scrambler shape must be K x K")
        self.scrambler = scrambler
        self._scrambler_inverse = scrambler_inverse
        perm_dst = np.asarray(perm_dst, dtype=np.int64)
        if np.unique(perm_dst).size != self.block_length or perm_dst.shape != (self.block_length,):
            raise ValueError("perm_dst must be a permutation of 0..N-1")
        self.perm_dst = perm_dst
        self.lfsr = Lfsr(taps, lfsr_state)
        if start_block:
            self.lfsr.syndromes(start_block)  # burn to the session offset
        self.blocks_processed = start_block

    # ---- derived matrices --------------------------------------------

    @cached_property
    def scrambler_inv(self) -> GF2Matrix:
        """S^-1, built on first decrypt."""
        return self._scrambler_inverse()

    @cached_property
    def _scramble_gather(self) -> np.ndarray:
        """Column supports of S padded to equal width, built on first
        encrypt; K is a dummy index pointing at an appended zero column."""
        dense = self.scrambler.to_dense()
        supports = [np.nonzero(dense[:, j])[0] for j in range(self.num_info)]
        width = max((s.size for s in supports), default=0)
        gather = np.full((self.num_info, max(width, 1)), self.num_info, dtype=np.int64)
        for j, s in enumerate(supports):
            gather[j, : s.size] = s
        return gather

    def encryption_matrix(self) -> GF2Matrix:
        """G' = S G_A P, the effective K x N one-block encryption map: the
        transform of S's rows placed on the information set, permuted."""
        u = np.zeros((self.num_info, self.block_length), dtype=np.uint8)
        u[:, self.plan.info0] = self.scrambler.to_dense()
        x = polar_transform(u)
        out = np.empty_like(x)
        out[:, self.perm_dst] = x
        return GF2Matrix.from_dense(out)

    def perturbation(self, syndrome: np.ndarray) -> np.ndarray:
        """The additive codeword offset ``s G_Ac`` (before permutation)."""
        syndrome = np.asarray(syndrome, dtype=np.uint8)
        u = np.zeros(self.block_length, dtype=np.uint8)
        u[self.plan.frozen0] = syndrome
        return polar_transform(u)

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
        b = messages.shape[0]
        if syndromes.shape != (b, self.block_length - self.num_info):
            raise ValueError("syndromes must be (batch, N - K)")
        scrambled = self._scramble(messages)
        u = np.zeros((b, self.block_length), dtype=np.uint8)
        u[:, self.plan.info0] = scrambled
        u[:, self.plan.frozen0] = syndromes
        x = polar_transform(u)
        out = np.empty_like(x)
        out[:, self.perm_dst] = x
        return out

    def decrypt_blocks_with_syndromes(
        self, received: np.ndarray, syndromes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        received = np.asarray(received, dtype=np.int8)
        if received.ndim != 2 or received.shape[1] != self.block_length:
            raise ValueError(f"received must be (batch, {self.block_length})")
        syndromes = np.asarray(syndromes, dtype=np.int8)
        depermuted = received[:, self.perm_dst]
        erased = (depermuted < 0).any(axis=1)
        clean = ~erased
        scrambled = np.empty((received.shape[0], self.num_info), dtype=np.uint8)
        ambiguous = np.zeros(received.shape[0], dtype=bool)
        # an unerased block is the codeword u F: the transform is its own inverse
        scrambled[clean] = polar_transform(depermuted[clean])[:, self.plan.info0]
        if erased.any():
            scrambled[erased], ambiguous[erased] = sc_decode_batch(
                depermuted[erased], self.plan, syndromes[erased]
            )
        messages = mul_bits_matrix(scrambled, self.scrambler_inv)
        return messages, ambiguous

    def _scramble(self, messages: np.ndarray) -> np.ndarray:
        """Batch M @ S via gather-XOR over the sparse column supports."""
        padded = np.concatenate(
            [messages, np.zeros((messages.shape[0], 1), dtype=np.uint8)], axis=1
        )
        gathered = padded[:, self._scramble_gather]  # (batch, K, width)
        return np.bitwise_xor.reduce(gathered, axis=2)

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
        received = np.asarray(received, dtype=np.int8)
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
    of payload bits held by the tail-carrying block.  A tail short enough
    to share the final block does so; a longer tail gets its own
    zero-padded block followed by a dedicated trailer block; an empty
    input produces a single trailer-only block with count 0.
    """
    if k < FRAME_COUNT_BITS:
        raise ValueError(f"framing needs K >= {FRAME_COUNT_BITS}")
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
    (no blocks at all) raise :class:`CiphertextError`.
    """
    blocks = np.asarray(blocks, dtype=np.uint8)
    if blocks.ndim != 2 or blocks.shape[0] == 0:
        raise CiphertextError("plaintext stream must contain at least the trailer block")
    nblocks, k = blocks.shape
    if k < FRAME_COUNT_BITS:
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
