"""Polar-code primitives over the binary erasure channel (BEC).

The length-``N = 2**n`` transform is ``x = u @ F^{(n)}`` where ``F`` is
the 2x2 kernel ``[[1, 0], [1, 1]]`` and ``F^{(n)}`` its n-fold Kronecker
power, with rows/columns in natural order (no bit-reversal).  Successive
cancellation (SC) decoding over the BEC is exact message passing on
erasures: a bit is either recovered or flagged ambiguous, never flipped.
The decoder is bitsliced over the batch: each position is a pair of bit
planes (known, value) holding one bit per block, 8 blocks per byte, so a
node of the SC tree costs a few bitwise operations for the whole batch.

Channel values are int8 with ``0``/``1`` for received bits and
``ERASED`` (-1) for erasures.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

ERASED = np.int8(-1)

KERNEL = np.array([[1, 0], [1, 1]], dtype=np.uint8)


# ---------------------------------------------------------------------------
# channel polarization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReliabilityTable:
    """Bhattacharyya parameters of the ``N`` synthetic channels.

    Attributes
    ----------
    n : int
        log2 of the block length.
    epsilon : float
        Design erasure probability of the underlying BEC.
    z : ndarray
        ``z[i]`` is the erasure probability of synthetic channel ``i + 1``
        (indices are 1-based throughout the public API).
    pi : ndarray
        Channel indices ``1..N`` sorted by ascending ``z`` (most reliable
        first); ties broken by ascending index.
    """

    n: int
    epsilon: float
    z: np.ndarray = field(repr=False)
    pi: np.ndarray = field(repr=False)

    @property
    def block_length(self) -> int:
        return 1 << self.n


def bhattacharyya(n: int, epsilon: float) -> ReliabilityTable:
    """Compute synthetic-channel erasure probabilities for a BEC.

    Starting from ``z = epsilon`` the recursion for each polarization
    level maps ``z`` to the pair ``(2z - z**2, z**2)`` (the degraded and
    upgraded splits).  Exact for the BEC, no approximation involved.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    z = np.array([epsilon], dtype=np.float64)
    for _ in range(n):
        worse = 2.0 * z - z * z
        better = z * z
        z = np.stack([worse, better], axis=1).reshape(-1)
    order = np.argsort(z, kind="stable")
    pi = (order + 1).astype(np.int64)
    return ReliabilityTable(n=n, epsilon=float(epsilon), z=z, pi=pi)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def polar_transform(u: np.ndarray) -> np.ndarray:
    """Apply ``x = u @ F^{(n)}`` along the last axis.

    Works on any leading batch shape; the last axis length must be a
    power of two.  Runs the in-place butterfly, N log N bit operations.
    """
    x = np.array(u, dtype=np.uint8, order="C")  # the one copy, worked in place
    size = x.shape[-1]
    if size == 0 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    span = size // 2
    while span:
        v = x.reshape(x.shape[:-1] + (size // (2 * span), 2, span))
        v[..., 0, :] ^= v[..., 1, :]
        span //= 2
    return x


def kernel_power(n: int) -> np.ndarray:
    """Dense ``F^{(n)}`` as a (N, N) uint8 array (reference oracle; O(N^2))."""
    return reduce(lambda acc, _: np.kron(acc, KERNEL), range(n), np.array([[1]], dtype=np.uint8))


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def bec_transmit(x: np.ndarray, epsilon: float, rng: np.random.Generator) -> np.ndarray:
    """Send codeword bits through a BEC(epsilon); erased positions become -1."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    x = np.asarray(x, dtype=np.int8)
    if epsilon == 0.0:
        return x.copy()
    mask = rng.random(x.shape) < epsilon
    return np.where(mask, ERASED, x)


# ---------------------------------------------------------------------------
# frozen-set bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrozenPlan:
    """Partition of positions ``0..N-1`` into information and frozen sets,
    built and checked by :meth:`from_info_set` only.

    Attributes
    ----------
    n : int
        log2 of the block length.
    info0 : ndarray
        Ascending 0-based information positions (length K), read-only.
    frozen0 : ndarray
        Ascending 0-based frozen positions (length N - K), read-only.
    frozen_mask : ndarray
        (N,) bool, True at the frozen positions, read-only.
    """

    n: int
    info0: np.ndarray = field(repr=False)
    frozen0: np.ndarray = field(repr=False)
    frozen_mask: np.ndarray = field(repr=False)

    @classmethod
    def from_info_set(cls, n: int, info_indices: np.ndarray) -> "FrozenPlan":
        """The plan whose information positions are the 1-based
        ``info_indices``, strictly ascending within 1..N."""
        size = 1 << n
        info0 = np.asarray(info_indices, dtype=np.int64) - 1
        if info0.ndim != 1 or np.any(np.diff(info0) <= 0) or np.any((info0 < 0) | (info0 >= size)):
            raise ValueError("info_indices must be strictly ascending within 1..N")
        frozen_mask = np.ones(size, dtype=bool)
        frozen_mask[info0] = False
        frozen0 = np.flatnonzero(frozen_mask)
        for array in (info0, frozen0, frozen_mask):
            array.setflags(write=False)
        return cls(n, info0, frozen0, frozen_mask)

    @property
    def block_length(self) -> int:
        return 1 << self.n

    @property
    def num_info(self) -> int:
        return int(self.info0.size)


def top_indices(table: ReliabilityTable, k: int) -> np.ndarray:
    """The ``k`` most reliable channel indices (1-based, ascending)."""
    if not 0 <= k <= table.block_length:
        raise ValueError("k out of range")
    return np.sort(table.pi[:k])


# ---------------------------------------------------------------------------
# successive cancellation decoding
# ---------------------------------------------------------------------------

def _bit_planes(bits: np.ndarray) -> np.ndarray:
    """(batch, P) bools as (P, W) uint8 planes, W = ceil(batch / 8).

    Block ``8w + i`` is bit ``7 - i`` of byte ``w``, the layout of
    ``np.packbits`` along the batch axis.  ``np.packbits`` is fast only
    along a contiguous axis, so a row-major batch is packed as a weighted
    sum over groups of 8 blocks instead.
    """
    if bits.flags.f_contiguous:
        return np.packbits(bits.T, axis=1)
    batch, planes = bits.shape
    padded = np.zeros((-(-batch // 8) * 8, planes), dtype=bool)
    padded[:batch] = bits
    grouped = padded.view(np.uint8).reshape(padded.shape[0] // 8, 8, planes)
    weights = np.uint8(1) << np.arange(7, -1, -1, dtype=np.uint8)
    return np.ascontiguousarray(np.einsum("wbp,b->pw", grouped, weights))


def _sc_planes(
    known: np.ndarray,
    val: np.ndarray,
    offset: int,
    frozen_mask: np.ndarray,
    u: np.ndarray,
    ambiguous: np.ndarray,
) -> np.ndarray:
    """Decode one subtree on bit planes; returns the re-encoded codeword.

    ``known`` and ``val`` are (span, W) uint8 planes, one bit per block:
    ``known`` marks an unerased position and ``val`` its bit (meaningful
    only where known).  ``u`` (N, W) holds the frozen planes and receives
    the information planes; ``ambiguous`` (W,) collects unresolved
    blocks.  Both are filled in place.
    """
    if known.shape[0] == 1:
        if not frozen_mask[offset]:
            u[offset] = known[0] & val[0]
            ambiguous |= ~known[0]
        return u[offset:offset + 1]
    half = known.shape[0] // 2
    ka, kb, va, vb = known[:half], known[half:], val[:half], val[half:]
    # check node: the XOR is seen only where both halves are
    xa = _sc_planes(ka & kb, va ^ vb, offset, frozen_mask, u, ambiguous)
    # variable node: vb where seen, else va corrected by xa
    vb = (kb & vb) | (~kb & (va ^ xa))
    xb = _sc_planes(kb | ka, vb, offset + half, frozen_mask, u, ambiguous)
    return np.concatenate([xa ^ xb, xb])


def sc_decode_batch(
    y: np.ndarray,
    plan: FrozenPlan,
    frozen_values: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """SC-decode a batch of BEC outputs.

    The batch is bitsliced: each position becomes a plane of
    ``np.packbits`` bytes holding one bit per block, so every node of the
    SC tree is a few bitwise operations for the whole batch.

    Parameters
    ----------
    y : ndarray
        (batch, N) int8 channel output, -1 for erasures.
    plan : FrozenPlan
    frozen_values : ndarray, optional
        (batch, N - K) per-block frozen bits; zeros when omitted.

    Returns
    -------
    (info, ambiguous)
        ``info`` is (batch, K) uint8 — estimated information bits in
        ascending position order; ambiguous bits are reported as 0.
        ``ambiguous`` is (batch,) bool, True when any information bit
        could not be resolved from the unerased positions.
    """
    y = np.asarray(y, dtype=np.int8)
    if y.ndim != 2 or y.shape[1] != plan.block_length:
        raise ValueError(f"y must be (batch, {plan.block_length})")
    batch = y.shape[0]
    known, val = _bit_planes(y >= 0), _bit_planes(y > 0)
    u = np.zeros_like(known)
    if frozen_values is not None:
        frozen_values = np.asarray(frozen_values, dtype=np.int8)
        if frozen_values.shape != (batch, plan.frozen0.size):
            raise ValueError("frozen_values must be (batch, N - K)")
        u[plan.frozen0] = _bit_planes(frozen_values != 0)
    ambiguous = np.zeros(known.shape[1], dtype=np.uint8)
    _sc_planes(known, val, 0, plan.frozen_mask, u, ambiguous)
    info = np.unpackbits(u[plan.info0].T, axis=0, count=batch)
    return info, np.unpackbits(ambiguous, count=batch).astype(bool)


def exhaustive_ambiguity(plan: FrozenPlan, epsilon: float) -> float:
    """Exact probability that SC decoding is ambiguous, by enumerating
    all 2**N erasure patterns (ambiguity depends only on the pattern,
    not on transmitted values).  Intended for small N.
    """
    size = plan.block_length
    if size > 20:
        raise ValueError("exhaustive enumeration needs 2**N patterns; N must be <= 20")
    patterns = np.arange(1 << size, dtype=np.int64)
    bits = (patterns[:, None] >> np.arange(size)) & 1  # 1 = erased
    y = np.where(bits.astype(bool), ERASED, np.int8(0)).astype(np.int8)
    _, ambiguous = sc_decode_batch(y, plan)
    weights = bits.sum(axis=1)
    p = (epsilon ** weights) * ((1.0 - epsilon) ** (size - weights))
    return float(p[ambiguous].sum())
