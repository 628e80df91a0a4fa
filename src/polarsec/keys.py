"""Secret-key material: parameters, generation, compression, file format.

A secret key has four parts:

* ``info_indices`` — K synthetic-channel indices (1-based) drawn from the
  most-reliable ``pool`` channels of the design-time reliability table;
* ``lfsr_state`` — the (N-K)-bit initial fill of the syndrome register;
* ``scrambler_positions`` — the K x K block-circulant scrambler S, stored
  as the 1-based first-row positions of its k0 x k0 circulant blocks of
  size l x l, ``mu_s`` ascending positions per block, blocks row-major
  (plus a diagonal parity lift, see below);
* ``permutation_offsets`` — the N x N block-diagonal permutation P, stored
  as one 0-based cyclic-shift offset for each of its n0 blocks.

This compact form is the key: it is what is drawn, validated, stored and
used.  The dense scrambler is a view built on first use; the codecs
between the dense matrices and the compact form remain for checking the
structure of a given matrix.

Scrambler lift and invertibility
--------------------------------
l divides N = 2**n, so l is a power of two and x**l - 1 = (x + 1)**l over
GF(2).  The l x l circulants therefore form the local ring
R = GF(2)[x]/((x + 1)**l), whose residue field GF(2) is reached by
reducing modulo x + 1, which maps a circulant to the parity of its
first-row weight.  Circulants commute, so S is a k0 x k0 matrix over R,
and it is invertible exactly when its determinant is a unit of R, that
is, exactly when its image over GF(2) is invertible.  Every drawn block
has weight mu_s, so that image is (mu_s mod 2) J, J the all-ones k0 x k0
matrix, of rank <= 1.  With k0 >= 2 we therefore XOR the identity onto
the drawn matrix ("diagonal parity lift"): diagonal blocks stay
circulant, the compact form is unchanged, and the image becomes
(mu_s mod 2) J + I.  That is I for even mu_s; for odd mu_s it squares to
I when k0 is even and has the all-ones vector in its kernel when k0 is
odd.  Without the lift (k0 = 1) the image is mu_s mod 2.  So whether S is
invertible depends on the parameters alone, never on the draw
(:func:`scrambler_invertible`): key generation draws once, and loading a
key needs no rank.

Scrambler inverse over the ring
-------------------------------
S^-1 is block-circulant of the same shape, so it is computed over R, not
over GF(2) K x K.  A block is its l coefficients, that of x**i at index i
(position p contributes x**(p-1), the lift adds 1 to the diagonal
blocks).  For the product the coefficients are spread into lanes of a
Python int, coefficient i at bit w*i with w the width of the smallest
unsigned type that holds l (8 bits up to l = 128, 16 for l = 256), so one
big-int multiply sums every term: lane j counts the terms of x**j, at most
l, and no carry leaves a lane.  Lanes l.. fold onto lanes 0.. (x**l = 1)
and bit 0 of each lane is the coefficient mod 2.  An element of R is a
unit exactly when its weight is odd; a unit u = 1 + m has m in the
nilpotent ideal (x + 1), so u**-1 = (1 + m)(1 + m**2)(1 + m**4)... up to
the first m**(2**j) = 0 (at most log2(l) factors).  Gauss-Jordan on the
k0 x k0 matrix over R takes any odd-weight entry of the column as pivot;
when none is left the matrix is singular.  Blocks enter and leave the
lanes once, as coefficient arrays.  The result expands to the dense
matrix whose block (i, j) holds, at row r and column c, bit (c - r) mod l
of its polynomial: row r is the window of the doubled coefficient row
that starts at l - r, and the windows are packed into GF(2) rows
(:attr:`SecretKey.scrambler_inverse`; S itself expands the same way).
"""
from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gf2 import GF2Matrix, SingularMatrixError, pack_rows
from .lfsr import validate_taps
from .polar import ReliabilityTable, bhattacharyya

MAGIC = b"PKC1"


class KeyFormatError(ValueError):
    """Malformed, corrupted or inconsistent key material."""


class KeyGenerationError(RuntimeError):
    """The parameters admit no usable component (no invertible scrambler)."""


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KeyParams:
    """Public system parameters (everything except the secret draws).

    Attributes
    ----------
    n : int
        log2 of the block length N.
    k0, n0 : int
        Scrambler / permutation block counts; K = k0*l, N = n0*l.
    l : int
        Circulant block size.
    mu_s : int
        Ones per first row in each drawn scrambler block.
    epsilon : float
        Design erasure probability used to rank channels.
    pool : int
        Size of the reliable-channel pool the secret indices are drawn
        from (the pool is public, the chosen subset is not).
    taps : tuple of int
        Feedback polynomial exponents of the degree-(N-K) syndrome LFSR.
    """

    n: int
    k0: int
    n0: int
    l: int
    mu_s: int
    epsilon: float
    pool: int
    taps: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "taps", validate_taps(self.taps))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if min(self.k0, self.n0, self.l, self.mu_s) < 1:
            raise ValueError("k0, n0, l, mu_s must be positive")
        if self.n0 * self.l != self.block_length:
            raise ValueError(f"n0*l = {self.n0 * self.l} must equal N = {self.block_length}")
        if self.k0 >= self.n0:
            raise ValueError("k0 must be < n0 (the code must have redundancy)")
        if self.mu_s > self.l:
            raise ValueError("mu_s cannot exceed the block size l")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if not self.num_info <= self.pool <= self.block_length:
            raise ValueError("pool must satisfy K <= pool <= N")
        if self.taps[0] != self.block_length - self.num_info:
            raise ValueError(
                f"LFSR degree {self.taps[0]} must equal N - K = "
                f"{self.block_length - self.num_info}"
            )

    @property
    def block_length(self) -> int:
        return 1 << self.n

    @property
    def num_info(self) -> int:
        return self.k0 * self.l

    @property
    def num_frozen(self) -> int:
        return self.block_length - self.num_info

    @property
    def uses_lift(self) -> bool:
        """Whether the diagonal parity lift applies to the scrambler."""
        return self.k0 >= 2

    def reliability_table(self) -> ReliabilityTable:
        """The design-time table, public and deterministic: computed once
        per (n, epsilon), its arrays read-only."""
        return _reliability_table(self.n, self.epsilon)


@cache
def _reliability_table(n: int, epsilon: float) -> ReliabilityTable:
    table = bhattacharyya(n, epsilon)
    table.z.setflags(write=False)
    table.pi.setflags(write=False)
    return table


def reference_params() -> KeyParams:
    """The headline parameter set: N=1024, K=768, eps=0.05, pool=819."""
    return KeyParams(
        n=10, k0=6, n0=8, l=128, mu_s=2, epsilon=0.05, pool=819,
        taps=(256, 254, 251, 246),
    )


def scrambler_invertible(params: KeyParams) -> bool:
    """Whether every scrambler of this shape is invertible (else none is).

    S is invertible exactly when (mu_s mod 2) J + [k0 >= 2] I is invertible
    over GF(2); see the module docstring.
    """
    odd = params.mu_s % 2 == 1
    if not params.uses_lift:
        return odd
    return not odd or params.k0 % 2 == 0


# ---------------------------------------------------------------------------
# component generation
# ---------------------------------------------------------------------------

def select_secret_indices(
    table: ReliabilityTable, pool: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw K distinct indices uniformly from the ``pool`` best channels."""
    if not k <= pool <= table.block_length:
        raise ValueError("need K <= pool <= N")
    prefix = table.pi[:pool]
    chosen = rng.choice(prefix, size=k, replace=False)
    return np.sort(chosen.astype(np.int64))


def _draw_scrambler_positions(params: KeyParams, rng: np.random.Generator) -> tuple[int, ...]:
    """``mu_s`` distinct first-row positions (1-based, ascending) per block,
    blocks row-major.  Raises ``KeyGenerationError`` before drawing when
    no scrambler of this shape is invertible."""
    if not scrambler_invertible(params):
        raise KeyGenerationError(
            f"no scrambler with k0={params.k0}, mu_s={params.mu_s} is invertible "
            f"(l={params.l})"
        )
    return tuple(
        int(p) + 1
        for _ in range(params.k0 * params.k0)
        for p in np.sort(rng.choice(params.l, size=params.mu_s, replace=False))
    )


def _draw_permutation_offsets(params: KeyParams, rng: np.random.Generator) -> tuple[int, ...]:
    """One uniform cyclic-shift offset (0-based) per permutation block."""
    return tuple(int(f) for f in rng.integers(0, params.l, size=params.n0, dtype=np.int64))


def _check_scrambler_positions(positions, params: KeyParams) -> np.ndarray:
    """The 1-based positions as a (k0, k0, mu_s) array; ``KeyFormatError``
    unless every block holds ``mu_s`` ascending positions in 1..l."""
    k0, l, mu = params.k0, params.l, params.mu_s
    expected = mu * k0 * k0
    if len(positions) != expected:
        raise KeyFormatError(f"expected {expected} scrambler positions, got {len(positions)}")
    arr = np.asarray(positions, dtype=np.int64).reshape(k0, k0, mu)
    if arr.min() < 1 or arr.max() > l:
        raise KeyFormatError(f"scrambler positions must lie in 1..{l}")
    bad = np.argwhere((np.diff(arr, axis=2) <= 0).any(axis=2))
    if bad.size:
        bj, bk = bad[0]
        raise KeyFormatError(f"positions of block ({bj},{bk}) must be distinct and ascending")
    return arr


def _check_permutation_offsets(offsets, params: KeyParams) -> np.ndarray:
    """The offsets as an array; ``KeyFormatError`` unless there are n0 of
    them in 0..l-1."""
    if len(offsets) != params.n0:
        raise KeyFormatError(f"expected {params.n0} permutation offsets, got {len(offsets)}")
    arr = np.asarray(offsets, dtype=np.int64)
    if arr.min() < 0 or arr.max() >= params.l:
        raise KeyFormatError(f"permutation offsets must lie in 0..{params.l - 1}")
    return arr


def _scrambler_blocks(positions, params: KeyParams) -> np.ndarray:
    """S as a k0 x k0 matrix over R, a (k0, k0, l) uint8 array of
    coefficients, from its 1-based first-row positions, diagonal parity
    lift included."""
    k0, positions = params.k0, _check_scrambler_positions(positions, params)
    blocks = np.zeros((k0, k0, params.l), dtype=np.uint8)
    np.put_along_axis(blocks, positions - 1, 1, axis=2)
    if params.uses_lift:
        blocks[np.arange(k0), np.arange(k0), 0] ^= 1
    return blocks


@cache
def _lanes(l: int) -> tuple[np.dtype, int, int]:
    """Lane type (it counts up to l, the most terms of one coefficient of a
    product), the bit offset of lane l and the mask of bit 0 of lanes
    0..l-1."""
    lane = np.min_scalar_type(l).newbyteorder("<")  # the byte order of int.from_bytes
    return lane, 8 * lane.itemsize * l, int.from_bytes(np.ones(l, lane).tobytes(), "little")


def _ring_mul(a: int, b: int, l: int) -> int:
    """a(x) b(x) mod x**l - 1 on lane-spread ints: lane j of a * b counts
    the terms of x**j, lanes l.. fold onto 0.., and bit 0 is the parity."""
    _, high, ones = _lanes(l)
    prod = a * b
    return (prod ^ (prod >> high)) & ones


def _ring_unit_inverse(u: int, l: int) -> int:
    """Inverse of an odd-weight u = 1 + m: the product of 1 + m**(2**j)."""
    m, inv = u ^ 1, 1
    while m:
        inv = _ring_mul(inv, 1 ^ m, l)
        m = _ring_mul(m, m, l)
    return inv


def _ring_inverse(blocks: np.ndarray) -> np.ndarray:
    """Gauss-Jordan inverse of a (k, k, l) coefficient array over R, on
    lane-spread ints; raises ``SingularMatrixError`` when a column has no
    odd-weight pivot left."""
    k, _, l = blocks.shape
    lane = _lanes(l)[0]
    work = [[int.from_bytes(e.astype(lane).tobytes(), "little") for e in row] for row in blocks]
    inv = [[int(i == j) for j in range(k)] for i in range(k)]
    for col in range(k):
        piv = next((r for r in range(col, k) if work[r][col].bit_count() & 1), None)
        if piv is None:
            raise SingularMatrixError(f"matrix over R is singular (no unit in column {col})")
        work[col], work[piv] = work[piv], work[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        unit = _ring_unit_inverse(work[col][col], l)
        work[col] = [_ring_mul(unit, e, l) for e in work[col]]
        inv[col] = [_ring_mul(unit, e, l) for e in inv[col]]
        for r in range(k):
            f = work[r][col]
            if r != col and f:
                work[r] = [x ^ _ring_mul(f, y, l) for x, y in zip(work[r], work[col])]
                inv[r] = [x ^ _ring_mul(f, y, l) for x, y in zip(inv[r], inv[col])]
    raw = b"".join(e.to_bytes(l * lane.itemsize, "little") for row in inv for e in row)
    return np.frombuffer(raw, dtype=lane).reshape(k, k, l).astype(np.uint8)


def _expand_blocks(blocks: np.ndarray) -> GF2Matrix:
    """Packed dense matrix of a (k0, k0, l) coefficient array over R:
    block (i, j) at row r, column c holds bit (c - r) mod l of its
    polynomial, so row r is the window of the doubled coefficient row that
    starts at l - r."""
    k0, _, l = blocks.shape
    windows = sliding_window_view(np.concatenate([blocks, blocks], axis=2), l, axis=2)
    rows = windows[:, :, l:0:-1].transpose(0, 2, 1, 3).reshape(k0 * l, k0 * l)
    return GF2Matrix(k0 * l, k0 * l, pack_rows(rows))


def gen_scrambler(params: KeyParams, rng: np.random.Generator) -> GF2Matrix:
    """Draw a block-circulant scrambler, invertible by construction.

    Each of the k0*k0 blocks gets ``mu_s`` uniformly-drawn first-row
    positions; with k0 >= 2 the diagonal parity lift is applied.  Raises
    ``KeyGenerationError`` when the shape admits no invertible scrambler
    (see module docstring).
    """
    return decompress_scrambler(_draw_scrambler_positions(params, rng), params)


def compress_scrambler(scrambler: GF2Matrix, params: KeyParams) -> tuple[int, ...]:
    """Block first-row positions (1-based) of a structured scrambler.

    Blocks are scanned row-major; positions within a block are ascending.
    Raises ``KeyFormatError`` if the matrix is not block-circulant of the
    declared shape (after removing the diagonal parity lift).
    """
    k = params.num_info
    if (scrambler.nrows, scrambler.ncols) != (k, k):
        raise KeyFormatError(f"scrambler must be {k}x{k}")
    k0, l, mu = params.k0, params.l, params.mu_s
    dense = scrambler.to_dense()
    blocks = dense[::l].reshape(k0, k0, l)  # block (i, j)'s first row: its coefficients
    drawn = blocks.copy()
    if params.uses_lift:
        drawn[np.arange(k0), np.arange(k0), 0] ^= 1
    weights = drawn.sum(axis=2)
    bad = np.argwhere(weights != mu)
    if bad.size:
        bj, bk = bad[0]
        raise KeyFormatError(
            f"block ({bj},{bk}) first-row weight {weights[bj, bk]} != mu_s = {mu}")
    bad = np.argwhere((_expand_blocks(blocks).to_dense() != dense)
                      .reshape(k0, l, k0, l).any(axis=(1, 3)))
    if bad.size:
        bj, bk = bad[0]
        raise KeyFormatError(f"block ({bj},{bk}) is not circulant")
    return tuple(int(p) + 1 for p in np.nonzero(drawn)[2])


def decompress_scrambler(positions: tuple[int, ...], params: KeyParams) -> GF2Matrix:
    """Rebuild the scrambler matrix from 1-based first-row positions."""
    return _expand_blocks(_scrambler_blocks(positions, params))


def perm_offsets_to_dst(offsets: np.ndarray, l: int) -> np.ndarray:
    """Destination map of the block-shift permutation.

    ``dst[i]`` is the column holding the 1 in row ``i``; applying the
    permutation to a row vector x gives ``y[dst] = x``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    r = np.arange(l)
    return (np.arange(offsets.size)[:, None] * l + (r[None, :] + offsets[:, None]) % l).reshape(-1)


def gen_permutation(params: KeyParams, rng: np.random.Generator) -> GF2Matrix:
    """Draw the block-diagonal permutation: one cyclic shift per block."""
    return decompress_permutation(_draw_permutation_offsets(params, rng), params)


def compress_permutation(perm: GF2Matrix, params: KeyParams) -> tuple[int, ...]:
    """Per-block shift offsets (0-based) of a structured permutation."""
    size = params.block_length
    if (perm.nrows, perm.ncols) != (size, size):
        raise KeyFormatError(f"permutation must be {size}x{size}")
    dense = perm.to_dense()
    l = params.l
    offsets: list[int] = []
    for b in range(params.n0):
        block = dense[b * l : (b + 1) * l, b * l : (b + 1) * l]
        pos = np.nonzero(block[0])[0]
        if pos.size != 1:
            raise KeyFormatError(f"permutation block {b} first row must have a single 1")
        offsets.append(int(pos[0]))
    rebuilt = decompress_permutation(tuple(offsets), params)
    if rebuilt != perm:
        raise KeyFormatError("permutation is not block-diagonal cyclic-shift structured")
    return tuple(offsets)


def decompress_permutation(offsets: tuple[int, ...], params: KeyParams) -> GF2Matrix:
    """Rebuild the permutation matrix from per-block shift offsets."""
    arr = _check_permutation_offsets(offsets, params)
    size = params.block_length
    dense = np.zeros((size, size), dtype=np.uint8)
    dense[np.arange(size), perm_offsets_to_dst(arr, params.l)] = 1
    return GF2Matrix.from_dense(dense)


def gen_lfsr_state(params: KeyParams, rng: np.random.Generator) -> np.ndarray:
    """Uniform non-zero initial fill for the syndrome register."""
    while True:
        state = rng.integers(0, 2, size=params.num_frozen, dtype=np.uint8)
        if state.any():
            return state


# ---------------------------------------------------------------------------
# key object
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SecretKey:
    """Secret key in its compact form (see the module docstring)."""

    params: KeyParams
    info_indices: np.ndarray = field(repr=False)
    lfsr_state: np.ndarray = field(repr=False)
    scrambler_positions: tuple[int, ...] = field(repr=False)
    permutation_offsets: tuple[int, ...] = field(repr=False)

    @property
    def taps(self) -> tuple[int, ...]:
        """Feedback taps of the syndrome register (public, from ``params``)."""
        return self.params.taps

    @cached_property
    def perm_dst(self) -> np.ndarray:
        """Destination map of P (see :func:`perm_offsets_to_dst`)."""
        return perm_offsets_to_dst(self.permutation_offsets, self.params.l)

    @cached_property
    def scrambler(self) -> GF2Matrix:
        """The dense K x K scrambler S, built on first use."""
        return decompress_scrambler(self.scrambler_positions, self.params)

    @cached_property
    def scrambler_inverse(self) -> GF2Matrix:
        """S^-1, inverted over the circulant ring on first use (see the
        module docstring); ``SingularMatrixError`` if S is singular."""
        blocks = _scrambler_blocks(self.scrambler_positions, self.params)
        return _expand_blocks(_ring_inverse(blocks))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SecretKey):
            return NotImplemented
        return (
            self.params == other.params
            and np.array_equal(self.info_indices, other.info_indices)
            and np.array_equal(self.lfsr_state, other.lfsr_state)
            and self.scrambler_positions == other.scrambler_positions
            and self.permutation_offsets == other.permutation_offsets
        )


def generate_key(params: KeyParams, rng: np.random.Generator) -> SecretKey:
    """Draw a complete secret key for the given parameters."""
    table = params.reliability_table()
    indices = select_secret_indices(table, params.pool, params.num_info, rng)
    state = gen_lfsr_state(params, rng)
    positions = _draw_scrambler_positions(params, rng)
    offsets = _draw_permutation_offsets(params, rng)
    return SecretKey(
        params=params,
        info_indices=indices,
        lfsr_state=state,
        scrambler_positions=positions,
        permutation_offsets=offsets,
    )


def validate_key(key: SecretKey) -> None:
    """Check every key invariant; raises ``KeyFormatError`` on failure."""
    p = key.params
    idx = np.asarray(key.info_indices, dtype=np.int64)
    if idx.shape != (p.num_info,):
        raise KeyFormatError(f"expected {p.num_info} secret indices, got {idx.shape}")
    if np.any(np.diff(idx) <= 0):
        raise KeyFormatError("secret indices must be strictly ascending")
    if idx.min() < 1 or idx.max() > p.block_length:
        raise KeyFormatError(f"secret indices must lie in 1..{p.block_length}")
    outside = idx[~np.isin(idx, p.reliability_table().pi[: p.pool])]
    if outside.size:
        raise KeyFormatError(
            f"secret indices {outside[:4].tolist()}... fall outside the {p.pool}-channel pool"
        )
    state = np.asarray(key.lfsr_state, dtype=np.uint8)
    if state.shape != (p.num_frozen,):
        raise KeyFormatError(f"LFSR state must have length {p.num_frozen}")
    if state.max(initial=0) > 1 or not state.any():
        raise KeyFormatError("LFSR state must be a non-zero bit vector")
    _check_scrambler_positions(key.scrambler_positions, p)
    if not scrambler_invertible(p):
        raise KeyFormatError(
            f"scrambler is singular: k0={p.k0}, mu_s={p.mu_s} admits no invertible one"
        )
    _check_permutation_offsets(key.permutation_offsets, p)


# ---------------------------------------------------------------------------
# serialization (.pkc)
# ---------------------------------------------------------------------------

def serialize_key(key: SecretKey) -> bytes:
    """Binary key file: header, compact components, CRC32 trailer.

    All integers little-endian; bit vectors packed LSB-first; indices
    and positions stored 0-based on disk.
    """
    p = key.params
    out = bytearray()
    out += MAGIC
    out += struct.pack("<BHHHBBB", p.n, p.num_info, p.pool, p.l, p.n0, p.k0, p.mu_s)
    out += struct.pack("<d", p.epsilon)
    out += struct.pack("<B", len(p.taps))
    out += struct.pack(f"<{len(p.taps)}H", *p.taps)
    out += np.packbits(key.lfsr_state, bitorder="little").tobytes()
    out += struct.pack(f"<{p.num_info}H", *(int(i) - 1 for i in key.info_indices))
    out += struct.pack(
        f"<{len(key.scrambler_positions)}H", *(s - 1 for s in key.scrambler_positions)
    )
    out += struct.pack(f"<{p.n0}H", *key.permutation_offsets)
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise KeyFormatError("key file truncated")
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def deserialize_key(data: bytes) -> SecretKey:
    """Parse and fully validate a serialized key.

    Raises ``KeyFormatError`` for bad magic, truncation, CRC mismatch,
    out-of-range fields, malformed structure, indices outside the
    reliability pool, or parameters that admit no invertible scrambler.
    """
    if len(data) < len(MAGIC) + 4:
        raise KeyFormatError("key file too short")
    if data[: len(MAGIC)] != MAGIC:
        raise KeyFormatError(f"bad magic {data[:4]!r}")
    body, (crc_stored,) = data[:-4], struct.unpack("<I", data[-4:])
    crc = zlib.crc32(body)
    if crc != crc_stored:
        raise KeyFormatError(f"CRC mismatch (stored {crc_stored:#010x}, computed {crc:#010x})")

    r = _Reader(body)
    r.take(len(MAGIC))
    n, k, pool, l, n0, k0, mu_s = r.unpack("<BHHHBBB")
    (epsilon,) = r.unpack("<d")
    (tap_count,) = r.unpack("<B")
    taps = r.unpack(f"<{tap_count}H")
    if any(a <= b for a, b in zip(taps, taps[1:])):
        raise KeyFormatError(f"LFSR taps {taps} must be strictly descending")
    try:
        params = KeyParams(
            n=n, k0=k0, n0=n0, l=l, mu_s=mu_s, epsilon=epsilon, pool=pool,
            taps=tuple(int(t) for t in taps),
        )
    except ValueError as exc:
        raise KeyFormatError(f"inconsistent key parameters: {exc}") from exc
    if params.num_info != k:
        raise KeyFormatError(f"stored K = {k} does not match k0*l = {params.num_info}")

    state_bytes = r.take((params.num_frozen + 7) // 8)
    state_bits = np.unpackbits(
        np.frombuffer(state_bytes, dtype=np.uint8), bitorder="little"
    )
    if state_bits[params.num_frozen :].any():
        raise KeyFormatError("padding bits of the LFSR state must be zero")
    lfsr_state = state_bits[: params.num_frozen].copy()

    raw_idx = r.unpack(f"<{k}H")
    n_pos = params.mu_s * params.k0 * params.k0
    raw_pos = r.unpack(f"<{n_pos}H")
    raw_off = r.unpack(f"<{params.n0}H")
    if r.pos != len(body):
        raise KeyFormatError(f"{len(body) - r.pos} unexpected trailing bytes")

    key = SecretKey(
        params=params,
        info_indices=np.asarray(raw_idx, dtype=np.int64) + 1,
        lfsr_state=lfsr_state,
        scrambler_positions=tuple(int(s) + 1 for s in raw_pos),
        permutation_offsets=tuple(int(f) for f in raw_off),
    )
    validate_key(key)
    return key
